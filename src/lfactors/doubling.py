"""The doubling-method local constants proper.

Representation data, the correction factor R(s, omega, A, psi), the
normalizing constant c(s, omega, A, psi), the psi-change factor
T_N(s, omega, a), the gamma-, L- and epsilon-factors, root numbers and the
zeta functional-equation multiplier.

gamma and L derive from one parameter table, `_parameter`: each datum maps
to pieces (Tate characters at shifts, D_l or a Weil representation over R,
(m, mu) GL blocks) and the omega that twists their product.

Variable conventions: gamma_factor returns gamma(s, pi x omega, psi) in the
plain gamma-side variable; R, c, T_N and gamma_capital live on the
Gamma-side variable (the two differ by the usual half shift, applied via
subst).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .characters import AddCharacter, MultCharacter, char_eval, char_inverse, char_mul
from .exactconst import ExactConst
from .fields import (LocalField, Rational, SquareClass, as_fraction,
                     hilbert_pair_class, square_class, valuation)
from .gj import gj_L, gj_gamma_norm
from .hermitian import (HERMITIAN, LINEAR, SKEW, HermitianSpace, discriminant,
                        kottwitz_sign)
from .mero import LinForm, MeroExpr, mero_mul, twist_nonarch
from .quaternion import QuaternionAlgebra
from .scalars import mul
from .tate import eps_at_half, tate_L, tate_gamma
from .weil import WeilRep, WeilSummand, _discrete_L, _discrete_gamma, weil_L, weil_gamma


class UnsupportedPairError(ValueError):
    """(representation, omega) outside the supported closed-form table."""


# ---------------------------------------------------------------------------
# Representation data

@dataclass(frozen=True)
class TrivialRep:
    """Trivial representation of the isometry group of an eps-hermitian space."""

    space: HermitianSpace

    def __post_init__(self):
        if self.space.form_type == LINEAR:
            raise ValueError("use GLChar for the linear case")


@dataclass(frozen=True)
class SkewHermCharR:
    """Character z -> z^l of the rank-one skew group over R on (H, <i>)."""

    l: int


@dataclass(frozen=True)
class SpHighestWeight:
    """Irreducible of the compact hermitian group over R on (H^n, <I_n>),
    by highest weight lam_1 >= ... >= lam_n >= 0."""

    n: int
    lam: tuple[int, ...]

    def __post_init__(self):
        lam = tuple(int(v) for v in self.lam)
        object.__setattr__(self, "lam", lam)
        if len(lam) != self.n:
            raise ValueError("highest weight length must equal n")
        if any(a < b for a, b in zip(lam, lam[1:])) or (lam and lam[-1] < 0):
            raise ValueError("weight must be weakly decreasing and nonnegative")


@dataclass(frozen=True)
class GLChar:
    """chi o N on GL_m(D) (the linear case)."""

    m: int
    chi: MultCharacter

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("block size must be >= 1")


@dataclass(frozen=True)
class Induced:
    """Constituent data of a parabolic induction: GL blocks plus a kernel."""

    blocks: tuple[GLChar, ...]
    kernel: "RepDatum"

    def __post_init__(self):
        if isinstance(self.kernel, (GLChar, Induced)):
            raise ValueError("the kernel must be an eps-hermitian datum")


RepDatum = TrivialRep | SkewHermCharR | SpHighestWeight | GLChar | Induced

_R = LocalField.real()


def _hamilton() -> QuaternionAlgebra:
    return QuaternionAlgebra(_R, Fraction(-1), Fraction(-1))


def skew_char_space() -> HermitianSpace:
    """(H, <i>) over R."""
    alg = _hamilton()
    return HermitianSpace.diagonal(alg, SKEW, [alg.element(0, 1)])


def sp_space(n: int) -> HermitianSpace:
    """(H^n, <I_n>) over R."""
    return HermitianSpace.diagonal(_hamilton(), HERMITIAN, [1] * n)


def rep_field(rep: RepDatum) -> LocalField:
    if isinstance(rep, Induced):
        rep = rep.kernel
    if isinstance(rep, TrivialRep):
        return rep.space.field
    return rep.chi.field if isinstance(rep, GLChar) else _R


def rep_space(rep: RepDatum) -> HermitianSpace:
    """The ambient space the datum lives on."""
    if isinstance(rep, TrivialRep):
        return rep.space
    if isinstance(rep, SkewHermCharR):
        return skew_char_space()
    if isinstance(rep, SpHighestWeight):
        return sp_space(rep.n)
    if isinstance(rep, GLChar):
        return HermitianSpace.linear(QuaternionAlgebra(rep.chi.field, Fraction(-1), Fraction(-1)), rep.m)
    return _extend_space(rep_space(rep.kernel), 2 * sum(b.m for b in rep.blocks))


def _extend_space(kernel: HermitianSpace, extra: int) -> HermitianSpace:
    """Kernel space plus `extra` hyperbolic dimensions (only type, n and the
    discriminant matter downstream; disc of the hyperbolic part is 1)."""
    from .quaternion import QuatMatrix
    if extra == 0:
        return kernel
    alg = kernel.algebra
    n = kernel.n + extra
    r = extra // 2
    eps = kernel.eps
    rows = [[alg.element(0)] * n for _ in range(n)]
    for i in range(r):
        rows[i][n - 1 - i] = alg.element(1)
        rows[n - 1 - i][i] = alg.element(eps)
    for i in range(kernel.n):
        for j in range(kernel.n):
            rows[r + i][r + j] = kernel.gram.entries[i][j] if kernel.gram else alg.element(0)
    return HermitianSpace(alg, kernel.form_type, n, QuatMatrix.from_rows(alg, rows))


def dual_rep(rep: RepDatum) -> RepDatum:
    if isinstance(rep, SkewHermCharR):
        return SkewHermCharR(-rep.l)
    if isinstance(rep, GLChar):
        return GLChar(rep.m, char_inverse(rep.chi))
    if isinstance(rep, Induced):
        return Induced(tuple(dual_rep(b) for b in rep.blocks), dual_rep(rep.kernel))
    return rep  # trivial representations and highest weights are self-dual


def central_sign(rep: RepDatum) -> int:
    """Value of the central character at -1."""
    if isinstance(rep, Induced):
        return central_sign(rep.kernel)
    if isinstance(rep, SkewHermCharR):
        return (-1) ** abs(rep.l)
    return (-1) ** sum(rep.lam) if isinstance(rep, SpHighestWeight) else 1


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
# Local parameters: gamma and L of every datum from one table

class _Piece(NamedTuple):
    """One factor of a local parameter: gamma(*args, psi) and L(*args),
    each taken at s + j for every shift j."""

    gamma: Callable[..., MeroExpr]
    L: Callable[..., MeroExpr]
    args: tuple
    shifts: Sequence[int] = (0,)


def _tate(chi: MultCharacter, shifts: Sequence[int] = (0,)) -> _Piece:
    return _Piece(tate_gamma, tate_L, (chi,), shifts)


def _sp_weil_rep(rep: SpHighestWeight, delta: int) -> WeilRep:
    """D_{2(lam_j + rho_j)} with rho_j = n + 1 - j, plus sgn^{n + delta}."""
    discrete = (WeilSummand("discrete", 2 * (lam + rep.n - j)) for j, lam in enumerate(rep.lam))
    return WeilRep(_R, (*discrete, WeilSummand("sign" if (rep.n + delta) % 2 else "trivial")))


def _parameter(rep: RepDatum, omega: MultCharacter) -> list[tuple[list[_Piece], MultCharacter | None]]:
    """The local parameter of rep x omega: for the datum, or for each part of
    an induced datum, its pieces and the omega that twists their product
    (None where omega already sits inside the pieces)."""
    if isinstance(rep, Induced):
        return [part for r in (rep.kernel, *rep.blocks) for part in _parameter(r, omega)]
    if isinstance(rep, GLChar):
        return [([_Piece(gj_gamma_norm, gj_L, (rep.m, char_mul(chi, omega)))
                  for chi in (rep.chi, char_inverse(rep.chi))], None)]
    if isinstance(rep, SkewHermCharR):  # D_{2|l|}; independent of the sign part of omega
        return [([_Piece(_discrete_gamma, _discrete_L, (2 * abs(rep.l), Fraction(0)))], omega)]
    if isinstance(rep, SpHighestWeight):
        return [([_Piece(weil_gamma, weil_L, (_sp_weil_rep(rep, omega.delta),))], omega)]
    space, n = rep.space, rep.space.n
    if n == 0:  # full omega support at n = 0
        return [([_tate(omega)] if space.form_type == HERMITIAN else [], None)]
    _require_unramified(omega, "the trivial representation")
    triv = MultCharacter.trivial(space.field)
    if space.form_type == HERMITIAN:
        return [([_tate(triv, range(-n, n + 1))], omega)]
    return [([_tate(MultCharacter(space.field, discriminant(space))),
              _tate(triv, range(1 - n, n))], omega)]


def _product(rep: RepDatum, omega: MultCharacter,
             build: Callable[[_Piece], MeroExpr]) -> MeroExpr:
    """Multiplies the built pieces of each part, twists each part's product,
    then multiplies the parts."""
    parts = []
    for pieces, twist in _parameter(rep, omega):
        exprs = []
        for piece in pieces:
            f = build(piece)
            exprs += [f if j == 0 else f.subst(1, j) for j in piece.shifts]
        expr = mero_mul(*exprs)
        parts.append(expr if twist is None else _apply_twist(expr, twist))
    return mero_mul(*parts)


def gamma_factor(rep: RepDatum, omega: MultCharacter, psi: AddCharacter) -> MeroExpr:
    """gamma(s, rep x omega, psi) via the supported closed-form table."""
    field = rep_field(rep)
    if omega.field != field or psi.field != field:
        raise ValueError("representation, omega and psi must share a field")
    return _product(rep, omega, lambda p: p.gamma(*p.args, psi))


def l_factor(rep: RepDatum, omega: MultCharacter) -> MeroExpr:
    """Structural L-factor: the denominator normal form of gamma."""
    if omega.field != rep_field(rep):
        raise ValueError("mismatched fields")
    return _product(rep, omega, lambda p: p.L(*p.args))


def epsilon_factor(rep: RepDatum, omega: MultCharacter, psi: AddCharacter) -> MeroExpr:
    """epsilon = gamma * L(s, pi x omega) / L(1-s, dual pi x omega^{-1})."""
    return epsilon_from(rep, omega, gamma_factor(rep, omega, psi), l_factor(rep, omega))


def epsilon_from(rep: RepDatum, omega: MultCharacter, gamma: MeroExpr, L: MeroExpr) -> MeroExpr:
    """epsilon from gamma and L of rep x omega; L is the dual L too if rep x omega is self-dual."""
    dual = (dual_rep(rep), char_inverse(omega))
    dual_L = L if dual == (rep, omega) else l_factor(*dual)
    return mero_mul(gamma, L, dual_L.subst(-1, 1).inv())


# ---------------------------------------------------------------------------
# A-data, correction factor, normalizing constant (Gamma-side variable)

@dataclass(frozen=True)
class RegularNilpotentData:
    """A regular nilpotent datum enters only through its reduced norm."""

    norm_value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "norm_value", as_fraction(self.norm_value))

    def disc(self, space: HermitianSpace) -> SquareClass:
        if space.n == 0:
            if self.norm_value != 1:
                raise ValueError("n = 0 forces the norm value 1")
            return SquareClass(space.field, "1")
        return square_class(space.field, Fraction(-1) ** space.n * self.norm_value)


def _omega_s_power(omega: MultCharacter, y: Fraction, k: int) -> MeroExpr:
    """omega_s(y)^k = omega(y)^k |y|^{ks} as a MeroExpr (Gamma-side s)."""
    y = as_fraction(y)
    const = MeroExpr.const(char_eval(omega, y) ** k)
    absy = _abs_power(omega.field, y, LinForm(Fraction(k), Fraction(0)))
    return const if absy.is_constant else const * absy


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
    if space.form_type == HERMITIAN:
        chi_d = MultCharacter(space.field, A.disc(space))
        gam = tate_gamma(char_mul(omega, chi_d), psi).subst(1, Fraction(1, 2))
        eps = MeroExpr.const(eps_at_half(chi_d, psi))
        return mero_mul(_omega_s_power(omega, x, -1), gam, eps.inv())
    # skew-hermitian
    chi_v = MultCharacter(space.field, discriminant(space))
    eps = eps_at_half(chi_v, psi)
    return mero_mul(_omega_s_power(omega, x, -1), MeroExpr.const(eps))


def t_factor(space: HermitianSpace, omega: MultCharacter, a: Rational) -> MeroExpr:
    """T_N(s, omega, a) = omega_{s-1/2}(a)^N (times chi_disc(a) when skew)."""
    a = as_fraction(a)
    n = space.n
    N = {LINEAR: 4 * n, HERMITIAN: 2 * n + 1}.get(space.form_type, 2 * n)
    out = _omega_s_power(omega, a, N) * _abs_power(omega.field, a, LinForm(Fraction(0), Fraction(-N, 2)))
    if space.form_type == SKEW:
        sign = hilbert_pair_class(space.field, a, discriminant(space))
        out = out * MeroExpr.const(ExactConst.of(sign))
    return out


def _abs_power(field: LocalField, a: Fraction, form: LinForm) -> MeroExpr:
    """|a|^{form(s)}."""
    if field.is_real:
        absa = abs(a)
        return MeroExpr.one() if absa == 1 else MeroExpr.exp(absa, form)
    orda = valuation(field, a)
    if orda == 0:
        return MeroExpr.one()
    return MeroExpr.exp(Fraction(field.q), form.times(-orda))


def normalization_c(space: HermitianSpace, omega: MultCharacter, A: RegularNilpotentData,
                    psi: AddCharacter) -> MeroExpr:
    """The normalizing constant c(s, omega, A, psi).

    The closed form is anchored at the base psi; the psi_a-dependence is the
    proven change-of-character rule c(psi_a) = T_N^{-1} c(psi) (naive
    substitution into the closed form disagrees for |a| != 1; see the
    package docs on conventions)."""
    return normalization_c_from(space, omega, psi,
                                correction_R(space, omega, A, AddCharacter.standard(psi.field)))


def normalization_c_from(space: HermitianSpace, omega: MultCharacter, psi: AddCharacter,
                         R: MeroExpr) -> MeroExpr:
    """c(s, omega, A, psi) from R = R(s, omega, A, psi_1) at the base psi_1."""
    c0 = mero_mul(*_tate_block(space, omega, AddCharacter.standard(psi.field), 1), R.inv())
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
            _abs_power(space.field, Fraction(2), two_pow),
            *(g.subst(2, -step * i).inv() for i in range(k))]


def gamma_capital(rep: RepDatum, omega: MultCharacter, A: RegularNilpotentData,
                  psi: AddCharacter, space: HermitianSpace | None = None) -> MeroExpr:
    """Gamma(s, pi, omega, A, psi) = gamma(s + 1/2) c_pi(-1) / R(s, omega, A, psi)."""
    gam = gamma_factor(rep, omega, psi).subst(1, Fraction(1, 2))
    sign = MeroExpr.const(ExactConst.of(central_sign(rep)))
    space = space or rep_space(rep)
    return mero_mul(gam, sign, correction_R(space, omega, A, psi).inv())


def zeta_fe_factor(rep: RepDatum, omega: MultCharacter, psi: AddCharacter,
                   space: HermitianSpace | None = None) -> MeroExpr:
    """The multiplier relating Z(M(s, omega) f_s, xi) to Z(f_s, xi)."""
    space = space or rep_space(rep)
    if space.form_type == LINEAR:
        raise UnsupportedPairError("the zeta functional-equation factor is stated "
                                   "for the eps-hermitian cases")
    return mero_mul(*_tate_block(space, omega, psi, central_sign(rep),
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
    case = HermitianSpace.linear(QuaternionAlgebra(omega.field, Fraction(-1), Fraction(-1)), m)
    A = RegularNilpotentData(probe_norm)
    c = normalization_c(case, omega, A, psi)
    omega_sq = char_mul(omega, omega)
    lead = _omega_s_power(omega_sq, probe_norm, 1).subst(2, 0)  # omega^2_{2s}(x)
    e = kottwitz_sign(case)
    gj = mero_mul(MeroExpr.const(ExactConst.of(e)), lead, c.inv())
    # rewrite in the block variable: s = (u + m - 1/2) / 2
    return gj.subst(Fraction(1, 2), Fraction(2 * m - 1, 4))
