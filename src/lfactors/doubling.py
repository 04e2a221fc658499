"""The doubling-method local constants proper.

Representation data, the correction factor R(s, omega, A, psi), the
normalizing constant c(s, omega, A, psi), the psi-change factor
T_N(s, omega, a), the gamma-, L- and epsilon-factors, root numbers and the
zeta functional-equation multiplier.

Each datum class knows what the formulas need of it: its `field`, the
`space` it lives on, its `dual()`, its `central_sign` and its local
`parameter(omega)`.  The parameter lists pieces (Tate characters at shifts,
D_l, GL blocks) and the omega that twists their product; gamma and L are
both one product over it.  An induced datum lives on its kernel's space plus
one hyperbolic plane per GL block dimension, so its form type and
discriminant are the kernel's.

Variable conventions: gamma_factor returns gamma(s, pi x omega, psi) in the
plain gamma-side variable; R, c, T_N and gamma_capital live on the
Gamma-side variable (the two differ by the usual half shift, applied via
subst).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

from .characters import AddCharacter, MultCharacter, char_eval, char_inverse, char_mul
from .exactconst import ExactConst
from .fields import (LocalField, Rational, SquareClass, as_fraction,
                     hilbert_pair_class, square_class)
from .gj import gj_L, gj_gamma_norm
from .hermitian import (HERMITIAN, LINEAR, SKEW, HermitianSpace, discriminant,
                        kottwitz_sign)
from .memo import MemoKey, per_call
from .mero import LinForm, MeroExpr, mero_mul, twist_nonarch
from .quaternion import QuaternionAlgebra
from .scalars import mul
from .tate import abs_power, discrete_L, discrete_gamma, eps_at_half, tate_L, tate_gamma


class UnsupportedPairError(ValueError):
    """(representation, omega) outside the supported closed-form table."""


# ---------------------------------------------------------------------------
# Representation data

_R = LocalField.real()


class RepDatum:
    """A representation datum: its `field`, the `space` it lives on (built
    once), its `dual()`, its `central_sign` (the central character at -1) and
    `parameter(omega)`, the local parameter of its twist by omega.  By default
    it is self-dual with central sign 1, over the field of its space."""

    central_sign = 1
    memo_key = MemoKey()  # types of a character's z and t included

    @property
    def field(self) -> LocalField:
        return self.space.field

    def dual(self) -> "RepDatum":
        return self


@dataclass(frozen=True)
class TrivialRep(RepDatum):
    """Trivial representation of the isometry group of an eps-hermitian space."""

    space: HermitianSpace

    def __post_init__(self):
        if self.space.form_type == LINEAR:
            raise ValueError("use GLChar for the linear case")

    def parameter(self, omega: MultCharacter) -> Parameter:
        space, n = self.space, self.space.n
        if n == 0:  # full omega support at n = 0
            return [([_tate(omega)] if space.form_type == HERMITIAN else [], None)]
        _require_unramified(omega, "the trivial representation")
        triv = MultCharacter.trivial(space.field)
        if space.form_type == HERMITIAN:
            return [([_tate(triv, range(-n, n + 1))], omega)]
        return [([_tate(MultCharacter(space.field, discriminant(space))),
                  _tate(triv, range(1 - n, n))], omega)]


@dataclass(frozen=True)
class SkewHermCharR(RepDatum):
    """Character z -> z^l of the rank-one skew group over R on (H, <i>)."""

    l: int
    field = _R

    @cached_property
    def space(self) -> HermitianSpace:
        return skew_char_space()

    def dual(self) -> "SkewHermCharR":
        return SkewHermCharR(-self.l)

    @property
    def central_sign(self) -> int:
        return (-1) ** abs(self.l)

    def parameter(self, omega: MultCharacter) -> Parameter:
        """D_{2|l|}; independent of the sign part of omega."""
        return [([_Piece(discrete_gamma, discrete_L, (2 * abs(self.l),))], omega)]


@dataclass(frozen=True)
class SpHighestWeight(RepDatum):
    """Irreducible of the compact hermitian group over R on (H^n, <I_n>),
    by highest weight lam_1 >= ... >= lam_n >= 0."""

    n: int
    lam: tuple[int, ...]
    field = _R

    def __post_init__(self):
        lam = tuple(int(v) for v in self.lam)
        object.__setattr__(self, "lam", lam)
        if len(lam) != self.n:
            raise ValueError("highest weight length must equal n")
        if any(a < b for a, b in zip(lam, lam[1:])) or (lam and lam[-1] < 0):
            raise ValueError("weight must be weakly decreasing and nonnegative")

    @cached_property
    def space(self) -> HermitianSpace:
        return sp_space(self.n)

    @property
    def central_sign(self) -> int:
        return (-1) ** sum(self.lam)

    def parameter(self, omega: MultCharacter) -> Parameter:
        """D_{2(lam_j + rho_j)} with rho_j = n + 1 - j, plus sgn^{n + delta}."""
        discrete = [_Piece(discrete_gamma, discrete_L, (2 * (lam + self.n - j),))
                    for j, lam in enumerate(self.lam)]
        sign = MultCharacter.sign(_R) if (self.n + omega.delta) % 2 else MultCharacter.trivial(_R)
        return [(discrete + [_tate(sign)], omega)]


@dataclass(frozen=True)
class GLChar(RepDatum):
    """chi o N on GL_m(D) (the linear case)."""

    m: int
    chi: MultCharacter

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("block size must be >= 1")

    @property
    def field(self) -> LocalField:
        return self.chi.field

    @cached_property
    def space(self) -> HermitianSpace:
        return HermitianSpace.linear(QuaternionAlgebra(self.field, Fraction(-1), Fraction(-1)), self.m)

    def dual(self) -> "GLChar":
        return GLChar(self.m, char_inverse(self.chi))

    def parameter(self, omega: MultCharacter) -> Parameter:
        return [([_Piece(gj_gamma_norm, gj_L, (self.m, char_mul(chi, omega)))
                  for chi in (self.chi, char_inverse(self.chi))], None)]


@dataclass(frozen=True)
class Induced(RepDatum):
    """Constituent data of a parabolic induction: GL blocks plus a kernel."""

    blocks: tuple[GLChar, ...]
    kernel: RepDatum

    def __post_init__(self):
        if isinstance(self.kernel, (GLChar, Induced)):
            raise ValueError("the kernel must be an eps-hermitian datum")

    @property
    def field(self) -> LocalField:
        return self.kernel.field

    @cached_property
    def space(self) -> HermitianSpace:
        """The kernel's space plus one hyperbolic plane per GL block dimension."""
        kernel, r = self.kernel.space, sum(b.m for b in self.blocks)
        return replace(kernel, n=kernel.n + 2 * r, hyperbolic=kernel.hyperbolic + r)

    def dual(self) -> "Induced":
        return Induced(tuple(b.dual() for b in self.blocks), self.kernel.dual())

    @property
    def central_sign(self) -> int:
        return self.kernel.central_sign

    def parameter(self, omega: MultCharacter) -> Parameter:
        return [part for r in (self.kernel, *self.blocks) for part in r.parameter(omega)]


_HAMILTON = QuaternionAlgebra(_R, Fraction(-1), Fraction(-1))


# a HermitianSpace is frozen, so each query on a real datum can share one
@lru_cache(maxsize=1)
def skew_char_space() -> HermitianSpace:
    """(H, <i>) over R."""
    return HermitianSpace.diagonal(_HAMILTON, SKEW, [_HAMILTON.element(0, 1)])


@lru_cache(maxsize=32)
def sp_space(n: int) -> HermitianSpace:
    """(H^n, <I_n>) over R."""
    return HermitianSpace.diagonal(_HAMILTON, HERMITIAN, [1] * n)


# ---------------------------------------------------------------------------
# Supported-omega normalization

def _require_unramified(omega: MultCharacter, what: str):
    if omega.field.is_real:
        if omega.delta != 0:
            raise UnsupportedPairError(
                f"{what} supports only |.|^t twists of the trivial character over R "
                "(no closed form is available for the sign twist)")
    elif not omega.quad.is_trivial:
        raise UnsupportedPairError(
            f"{what} supports only unramified omega "
            "(no closed form is available for ramified twists)")


def _apply_twist(expr: MeroExpr, omega: MultCharacter) -> MeroExpr:
    """gamma/L of an unramified twist: substitute the twist into the base."""
    if omega.z == 1:  # always over R
        return expr if omega.t == 0 else expr.subst(1, omega.t)
    return twist_nonarch(expr, omega.field.q, omega.z, omega.t)


# ---------------------------------------------------------------------------
# Local parameters: gamma and L of every datum, one product over its pieces

class _Piece(NamedTuple):
    """One factor of a local parameter: gamma(*args, psi) and L(*args),
    each taken at s + j for every shift j."""

    gamma: Callable[..., MeroExpr]
    L: Callable[..., MeroExpr]
    args: tuple
    shifts: Sequence[int] = (0,)


def _tate(chi: MultCharacter, shifts: Sequence[int] = (0,)) -> _Piece:
    return _Piece(tate_gamma, tate_L, (chi,), shifts)


# for the datum, or for each part of an induced datum: its pieces and the
# omega that twists their product (None where omega already sits inside them)
Parameter = list[tuple[list[_Piece], MultCharacter | None]]


def _product(rep: RepDatum, omega: MultCharacter,
             build: Callable[[_Piece], MeroExpr]) -> MeroExpr:
    """Multiplies the built pieces of each part, twists each part's product,
    then multiplies the parts."""
    parts = []
    for pieces, twist in rep.parameter(omega):
        exprs = []
        for piece in pieces:
            f = build(piece)
            exprs += [f if j == 0 else f.subst(1, j) for j in piece.shifts]
        expr = mero_mul(*exprs)
        parts.append(expr if twist is None else _apply_twist(expr, twist))
    return mero_mul(*parts)


@per_call
def gamma_factor(rep: RepDatum, omega: MultCharacter, psi: AddCharacter) -> MeroExpr:
    """gamma(s, rep x omega, psi) via the supported closed-form table."""
    if omega.field != rep.field or psi.field != rep.field:
        raise ValueError("representation, omega and psi must share a field")
    return _product(rep, omega, lambda p: p.gamma(*p.args, psi))


@per_call
def l_factor(rep: RepDatum, omega: MultCharacter) -> MeroExpr:
    """Structural L-factor: the denominator normal form of gamma."""
    if omega.field != rep.field:
        raise ValueError("mismatched fields")
    return _product(rep, omega, lambda p: p.L(*p.args))


def epsilon_factor(rep: RepDatum, omega: MultCharacter, psi: AddCharacter) -> MeroExpr:
    """epsilon = gamma * L(s, pi x omega) / L(1-s, dual pi x omega^{-1})."""
    return mero_mul(gamma_factor(rep, omega, psi), l_factor(rep, omega),
                    l_factor(rep.dual(), char_inverse(omega)).subst(-1, 1).inv())


# ---------------------------------------------------------------------------
# A-data, correction factor, normalizing constant (Gamma-side variable)

@dataclass(frozen=True)
class RegularNilpotentData:
    """A regular nilpotent datum enters only through its reduced norm."""

    norm_value: Fraction
    memo_key = MemoKey()

    def __post_init__(self):
        object.__setattr__(self, "norm_value", as_fraction(self.norm_value))


def _omega_s_power(omega: MultCharacter, y: Fraction, k: int) -> MeroExpr:
    """omega_s(y)^k = omega(y)^k |y|^{ks} as a MeroExpr (Gamma-side s)."""
    y = as_fraction(y)
    const = MeroExpr.const(char_eval(omega, y) ** k)
    absy = abs_power(omega.field, y, LinForm(Fraction(k), Fraction(0)))
    return const if absy.is_constant else const * absy


@per_call
def correction_R(space: HermitianSpace, omega: MultCharacter, A: RegularNilpotentData,
                 psi: AddCharacter) -> MeroExpr:
    """The three-case correction factor R(s, omega, A, psi)."""
    x = A.norm_value
    if space.form_type == LINEAR:
        m = space.n
        y = x * Fraction(1, 4) ** m  # N(A/2) = 2^{-2m} N(A)
        return _omega_s_power(omega, y, -2)
    if space.n == 0 and x != 1:
        raise ValueError("n = 0 forces the norm value 1")
    if space.form_type == HERMITIAN:  # the square class of (-1)^n N(A)
        chi_d = MultCharacter(space.field, square_class(space.field, Fraction(-1) ** space.n * x))
        gam = tate_gamma(char_mul(omega, chi_d), psi).subst(1, Fraction(1, 2))
        eps = MeroExpr.const(eps_at_half(chi_d, psi))
        return mero_mul(_omega_s_power(omega, x, -1), gam, eps.inv())
    # skew-hermitian
    chi_v = MultCharacter(space.field, discriminant(space))
    eps = eps_at_half(chi_v, psi)
    return mero_mul(_omega_s_power(omega, x, -1), MeroExpr.const(eps))


@per_call
def t_factor(space: HermitianSpace, omega: MultCharacter, a: Rational) -> MeroExpr:
    """T_N(s, omega, a) = omega_{s-1/2}(a)^N (times chi_disc(a) when skew)."""
    a = as_fraction(a)
    n = space.n
    N = {LINEAR: 4 * n, HERMITIAN: 2 * n + 1}.get(space.form_type, 2 * n)
    out = _omega_s_power(omega, a, N) * abs_power(omega.field, a, LinForm(Fraction(0), Fraction(-N, 2)))
    if space.form_type == SKEW:
        sign = hilbert_pair_class(space.field, a, discriminant(space))
        out = out * MeroExpr.const(ExactConst.of(sign))
    return out


@per_call
def normalization_c(space: HermitianSpace, omega: MultCharacter, A: RegularNilpotentData,
                    psi: AddCharacter) -> MeroExpr:
    """The normalizing constant c(s, omega, A, psi).

    The closed form is anchored at the base psi; the psi_a-dependence is the
    proven change-of-character rule c(psi_a) = T_N^{-1} c(psi) (naive
    substitution into the closed form disagrees for |a| != 1; see the
    package docs on conventions)."""
    psi_1 = AddCharacter.standard(psi.field)
    c0 = mero_mul(*_tate_block(space, omega, psi_1, 1), correction_R(space, omega, A, psi_1).inv())
    return c0 if psi.a == 1 else t_factor(space, omega, psi.a).inv() * c0


def _tate_block(space: HermitianSpace, omega: MultCharacter, psi: AddCharacter,
                sign: int, *inner: MeroExpr) -> list[MeroExpr]:
    """The factors e(G) sign, omega(4)^{-k}, inner, |2|^{...} and the inverse
    Tate gammas of omega^2 that c and the zeta functional-equation factor
    share, in the order their constants multiply."""
    n = space.n
    if space.form_type == LINEAR:  # 2n Tate gammas at 2s - i
        k, step, two_pow = 2 * n, 1, LinForm(Fraction(-4 * n), Fraction(0))
    else:  # n Tate gammas at 2s - 2i
        k, step, two_pow = n, 2, LinForm(Fraction(-2 * n), Fraction(n) * (Fraction(n) - Fraction(1, 2)))
    g = tate_gamma(char_mul(omega, omega), psi)
    return [MeroExpr.const(ExactConst.of(kottwitz_sign(space) * sign)),
            MeroExpr.const(char_eval(omega, Fraction(4)) ** (-k)), *inner,
            abs_power(space.field, Fraction(2), two_pow),
            *(g.subst(2, -step * i).inv() for i in range(k))]


def gamma_capital(rep: RepDatum, omega: MultCharacter, A: RegularNilpotentData,
                  psi: AddCharacter) -> MeroExpr:
    """Gamma(s, pi, omega, A, psi) = gamma(s + 1/2) c_pi(-1) / R(s, omega, A, psi)."""
    gam = gamma_factor(rep, omega, psi).subst(1, Fraction(1, 2))
    sign = MeroExpr.const(ExactConst.of(rep.central_sign))
    return mero_mul(gam, sign, correction_R(rep.space, omega, A, psi).inv())


def zeta_fe_factor(rep: RepDatum, omega: MultCharacter, psi: AddCharacter) -> MeroExpr:
    """The multiplier relating Z(M(s, omega) f_s, xi) to Z(f_s, xi)."""
    space = rep.space
    if space.form_type == LINEAR:
        raise UnsupportedPairError("the zeta functional-equation factor is stated "
                                   "for the eps-hermitian cases")
    return mero_mul(*_tate_block(space, omega, psi, rep.central_sign,
                                 gamma_factor(rep, omega, psi).subst(1, Fraction(1, 2))))


def root_number(space: HermitianSpace, c_pi_at_minus1: int, omega: MultCharacter,
                psi: AddCharacter):
    """epsilon(1/2) as an exact constant; requires omega^2 = 1."""
    if space.form_type == LINEAR:
        raise UnsupportedPairError("root numbers are stated for the eps-hermitian cases")
    if not omega.is_quadratic:
        raise ValueError("the root-number formula requires omega^2 = 1")
    if c_pi_at_minus1 not in (1, -1):
        raise ValueError("central sign must be +-1")
    base = ExactConst.of(c_pi_at_minus1) * char_eval(omega, Fraction(-1)) ** space.n
    if space.form_type == HERMITIAN:
        eps = eps_at_half(omega, psi)
        return mul(base, eps)
    d = discriminant(space)
    w_d = _omega_of_class(omega, d)
    eps = eps_at_half(MultCharacter(space.field, d), psi)
    return mul(mul(base, w_d), eps)


def _omega_of_class(omega: MultCharacter, d: SquareClass):
    """omega(d) for a square class d (well defined since omega^2 = 1): the
    symbol (quad, d)_F, times z when d has odd valuation."""
    sign = ExactConst.of(hilbert_pair_class(omega.field, omega.quad.representative(), d))
    if omega.field.is_real or not d.bits[1]:
        return sign
    return mul(sign, omega.z)


# ---------------------------------------------------------------------------
# Mechanical re-derivation of the GJ-type factor (a verify check)

def derive_gj_from_normalization(m: int, omega: MultCharacter, psi: AddCharacter,
                                 probe_norm: Fraction = Fraction(1)) -> MeroExpr:
    """Solve the linear-case normalizing-constant identity for the GJ-type
    gamma of omega^2 o N and substitute the block variable u = 2s - m + 1/2."""
    case = GLChar(m, omega).space
    A = RegularNilpotentData(probe_norm)
    c = normalization_c(case, omega, A, psi)
    omega_sq = char_mul(omega, omega)
    lead = _omega_s_power(omega_sq, probe_norm, 1).subst(2, 0)  # omega^2_{2s}(x)
    e = kottwitz_sign(case)
    gj = mero_mul(MeroExpr.const(ExactConst.of(e)), lead, c.inv())
    # rewrite in the block variable: s = (u + m - 1/2) / 2
    return gj.subst(Fraction(1, 2), Fraction(2 * m - 1, 4))
