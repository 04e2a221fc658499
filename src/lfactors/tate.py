"""Tate local L-, epsilon- and gamma-factors of multiplicative characters,
and the gamma- and L-factors of the two-dimensional D_l over R.

Conventions: the base additive character is e^{2 pi i x} over R and the
level-0 character e^{+2 pi i {x}_p} over Q_p; psi_a rescales by a, entering
epsilon through chi(a)|a|^{s-1/2}.  Ramified quadratic epsilon constants
rest on the quadratic Gauss sum over the residue field (residue degree 1),
taken from Gauss's closed form: sqrt p or i sqrt p as p = 1 or 3 mod 4.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import AddCharacter, MultCharacter, char_eval, char_inverse
from .exactconst import ExactConst
from .fields import LocalField, UnsupportedFieldError, valuation
from .memo import per_call
from .mero import LinForm, MeroExpr, mero_mul
from .scalars import add, mul, neg


def gauss_sum(p: int) -> ExactConst:
    """sum_x (x/p) e^{2 pi i x/p} = sqrt p or i sqrt p as the odd prime p is 1 or
    3 mod 4, by Gauss's theorem (Ireland and Rosen, ch. 6)."""
    return ExactConst(Fraction(1), p % 4 == 3, frozenset([p]))


@per_call
def tate_L(chi: MultCharacter) -> MeroExpr:
    """L(s, chi): GammaR(s + t + delta) over R; (1 - chi(pi) q^{-s})^{-1}
    unramified nonarch; 1 ramified."""
    if chi.field.is_real:
        return MeroExpr.gamma_r(LinForm(Fraction(1), add(chi.t, chi.delta)))
    if chi.is_ramified:
        return MeroExpr.one()
    # value at a uniformizer, with |pi|^t folded into the argument shift
    return MeroExpr.l_atom(chi.field.q, chi.z, LinForm(Fraction(1), chi.t))


@per_call
def tate_eps(chi: MultCharacter, psi: AddCharacter) -> MeroExpr:
    """epsilon(s, chi, psi_a), as a MeroExpr in s."""
    if chi.field != psi.field:
        raise ValueError("character and additive character over different fields")
    if chi.field.is_real:
        base = MeroExpr.const(ExactConst.i() ** chi.delta)
    elif not chi.is_ramified:
        base = MeroExpr.one()
    else:
        if chi.field.f != 1:
            raise UnsupportedFieldError(
                "ramified epsilon constants need residue degree 1")
        p = chi.field.p
        g = gauss_sum(p)  # = tau(eta, psi(./pi)); |g| = sqrt p
        chi_pi = char_eval(
            MultCharacter(chi.field, chi.quad, chi.z, 0), Fraction(p))
        norm = ExactConst.half_power(Fraction(p), -1)  # 1/sqrt p
        const = mul(g * norm, chi_pi)  # g / sqrt p = 1 or i exactly
        # q^{(1/2 - s - t)} times the normalized Gauss root number
        base = mero_mul(MeroExpr.const(const),
                        MeroExpr.exp(Fraction(chi.field.q),
                                     LinForm(Fraction(-1), add(neg(chi.t), Fraction(1, 2)))))
    if psi.a == 1:
        return base
    return mero_mul(base, _psi_scale(chi, psi.a))


def abs_power(field: LocalField, a: Fraction, form: LinForm) -> MeroExpr:
    """|a|_F^{form(s)}, with |a| = q^{-ord a} over a p-adic field."""
    if field.is_real:
        absa = abs(a)
        return MeroExpr.one() if absa == 1 else MeroExpr.exp(absa, form)
    orda = valuation(field, a)
    if orda == 0:
        return MeroExpr.one()
    return MeroExpr.exp(Fraction(field.q), form.times(-orda))


def _psi_scale(chi: MultCharacter, a: Fraction) -> MeroExpr:
    """chi(a) |a|^{s - 1/2} as a MeroExpr."""
    return mero_mul(MeroExpr.const(char_eval(chi, a)),
                    abs_power(chi.field, a, LinForm(Fraction(1), Fraction(-1, 2))))


@per_call
def tate_gamma(chi: MultCharacter, psi: AddCharacter) -> MeroExpr:
    """gamma(s, chi, psi) = eps(s, chi, psi) L(1-s, chi^{-1}) / L(s, chi)."""
    dual = tate_L(char_inverse(chi)).subst(-1, 1)
    return mero_mul(tate_eps(chi, psi), dual, tate_L(chi).inv())


def eps_at_half(chi: MultCharacter, psi: AddCharacter) -> ExactConst | complex:
    """epsilon(1/2, chi, psi), as a constant."""
    return tate_eps(chi, psi).subst(0, Fraction(1, 2)).constant_value()


@per_call
def discrete_L(l: int) -> MeroExpr:
    """L(s, D_l) = GammaC(s + l/2)."""
    return MeroExpr.gamma_c(LinForm(Fraction(1), Fraction(l, 2)))


@per_call
def discrete_gamma(l: int, psi: AddCharacter) -> MeroExpr:
    """gamma(s, D_l, psi_a) = i^{l+1} GammaC(l/2 + 1 - s) / GammaC(s + l/2),
    times sgn(a)^{l+1} |a|^{2s - 1}: D_l has determinant sgn^{l+1} and
    dimension 2 (Tate, "Number theoretic background", Corvallis 1979, §3)."""
    det_sign = -1 if psi.a < 0 and (l + 1) % 2 else 1
    return mero_mul(MeroExpr.const(ExactConst.i() ** (l + 1) * det_sign),
                    MeroExpr.gamma_c(LinForm(Fraction(-1), Fraction(l, 2) + 1)),
                    discrete_L(l).inv(),
                    abs_power(psi.field, psi.a, LinForm(Fraction(2), Fraction(-1))))
