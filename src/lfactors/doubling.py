"""The doubling-method local constants proper.

Representation data, the correction factor R(s, omega, A, psi), the
normalizing constant c(s, omega, A, psi), the psi-change factor
T_N(s, omega, a), the gamma-, L- and epsilon-factors, root numbers and the
zeta functional-equation multiplier.

Variable conventions: gamma_factor returns gamma(s, pi x omega, psi) in the
plain gamma-side variable; R, c, T_N and gamma_capital live on the
Gamma-side variable (the two differ by the usual half shift, applied via
subst).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import AddCharacter, MultCharacter, char_inverse, char_mul
from .exactconst import ExactConst
from .fields import (LocalField, Rational, SquareClass, as_fraction,
                     hilbert_pair_class, square_class, valuation)
from .gj import gj_L, gj_gamma_norm
from .hermitian import (HERMITIAN, LINEAR, SKEW, HermitianSpace, discriminant,
                        kottwitz_sign)
from .mero import LinForm, MeroExpr, mero_mul, twist_nonarch
from .quaternion import QuaternionAlgebra
from .tate import _char_value_exact, eps_at_half, tate_L, tate_gamma
from .weil import WeilRep, WeilSummand, weil_L, weil_gamma


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
    if isinstance(rep, TrivialRep):
        return rep.space.field
    if isinstance(rep, (SkewHermCharR, SpHighestWeight)):
        return _R
    if isinstance(rep, GLChar):
        return rep.chi.field
    return rep_field(rep.kernel)


def rep_space(rep: RepDatum) -> HermitianSpace:
    """The ambient space the datum lives on."""
    if isinstance(rep, TrivialRep):
        return rep.space
    if isinstance(rep, SkewHermCharR):
        return skew_char_space()
    if isinstance(rep, SpHighestWeight):
        return sp_space(rep.n)
    if isinstance(rep, GLChar):
        field = rep.chi.field
        alg = _hamilton() if field.is_real else QuaternionAlgebra(field, Fraction(-1), Fraction(-1))
        return HermitianSpace.linear(alg, rep.m)
    kernel_space = rep_space(rep.kernel)
    extra = 2 * sum(b.m for b in rep.blocks)
    return _extend_space(kernel_space, extra)


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
    if isinstance(rep, TrivialRep):
        return rep
    if isinstance(rep, SkewHermCharR):
        return SkewHermCharR(-rep.l)
    if isinstance(rep, SpHighestWeight):
        return rep
    if isinstance(rep, GLChar):
        return GLChar(rep.m, char_inverse(rep.chi))
    return Induced(tuple(GLChar(b.m, char_inverse(b.chi)) for b in rep.blocks),
                   dual_rep(rep.kernel))


def central_sign(rep: RepDatum) -> int:
    """Value of the central character at -1."""
    if isinstance(rep, TrivialRep):
        return 1
    if isinstance(rep, SkewHermCharR):
        return (-1) ** abs(rep.l)
    if isinstance(rep, SpHighestWeight):
        return (-1) ** sum(rep.lam)
    if isinstance(rep, GLChar):
        return 1
    return central_sign(rep.kernel)


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
    if omega.field.is_real:
        return expr if omega.t == 0 else expr.subst(1, omega.t)
    if omega.z == 1:
        return expr if omega.t == 0 else expr.subst(1, omega.t)
    return twist_nonarch(expr, omega.field.q, omega.z, omega.t)


# ---------------------------------------------------------------------------
# gamma factor closed forms (gamma-side variable)

def _trivial_rep_gamma_base(space: HermitianSpace, psi: AddCharacter) -> MeroExpr:
    field = space.field
    n = space.n
    if space.form_type == SKEW and n == 0:
        return MeroExpr.one()
    g = tate_gamma(MultCharacter.trivial(field), psi)
    if space.form_type == HERMITIAN:
        return mero_mul(*(g.subst(1, j) for j in range(-n, n + 1)))
    chi_disc = MultCharacter(field, discriminant(space))
    return mero_mul(tate_gamma(chi_disc, psi), *(g.subst(1, j) for j in range(-(n - 1), n)))


def _sp_weil_rep(rep: SpHighestWeight, delta: int) -> WeilRep:
    summands = []
    for j, lam in enumerate(rep.lam, start=1):
        rho = rep.n + 1 - j
        summands.append(WeilSummand("discrete", 2 * (lam + rho)))
    parity = (rep.n + delta) % 2
    summands.append(WeilSummand("sign" if parity else "trivial"))
    return WeilRep(_R, tuple(summands))


def _skew_char_gamma(l: int, psi: AddCharacter) -> MeroExpr:
    """i (-1)^l GammaC(1 - s + |l|) / GammaC(s + |l|), valid for all l."""
    l = abs(l)
    pref = MeroExpr.const(ExactConst.i() ** (2 * l + 1))
    num = MeroExpr.gamma_c(LinForm(Fraction(-1), Fraction(1 + l)))
    den = MeroExpr.gamma_c(LinForm(Fraction(1), Fraction(l)))
    out = mero_mul(pref, num, den.inv())
    if psi.a == 1:
        return out
    # D_{2l}-type scaling: det = sgn^{2l+1} = sgn, dimension 2
    sign = ExactConst.of(-1 if psi.a < 0 else 1)
    absa = abs(Fraction(psi.a))
    out = out * MeroExpr.const(sign)
    if absa != 1:
        out = out * MeroExpr.exp(absa, LinForm(Fraction(2), Fraction(-1)))
    return out


def gamma_factor(rep: RepDatum, omega: MultCharacter, psi: AddCharacter) -> MeroExpr:
    """gamma(s, rep x omega, psi) via the supported closed-form table."""
    field = rep_field(rep)
    if omega.field != field or psi.field != field:
        raise ValueError("representation, omega and psi must share a field")

    if isinstance(rep, TrivialRep):
        if rep.space.n == 0:
            if rep.space.form_type == HERMITIAN:
                return tate_gamma(omega, psi)  # full omega support at n = 0
            return MeroExpr.one()
        _require_unramified(omega, "the trivial representation")
        return _apply_twist(_trivial_rep_gamma_base(rep.space, psi), omega)

    if isinstance(rep, SkewHermCharR):
        # independent of the sign part of omega
        base = _skew_char_gamma(rep.l, psi)
        return base if omega.t == 0 else base.subst(1, omega.t)

    if isinstance(rep, SpHighestWeight):
        return weil_gamma(_sp_weil_rep(rep, omega.delta), psi).subst(1, omega.t) \
            if omega.t != 0 else weil_gamma(_sp_weil_rep(rep, omega.delta), psi)

    if isinstance(rep, GLChar):
        mu1 = char_mul(rep.chi, omega)
        mu2 = char_mul(char_inverse(rep.chi), omega)
        return gj_gamma_norm(rep.m, mu1, psi) * gj_gamma_norm(rep.m, mu2, psi)

    return mero_mul(gamma_factor(rep.kernel, omega, psi),
                    *(gamma_factor(b, omega, psi) for b in rep.blocks))


def l_factor(rep: RepDatum, omega: MultCharacter) -> MeroExpr:
    """Structural L-factor: the denominator normal form of gamma."""
    field = rep_field(rep)
    if omega.field != field:
        raise ValueError("mismatched fields")

    if isinstance(rep, TrivialRep):
        space = rep.space
        if space.n == 0:
            return tate_L(omega) if space.form_type == HERMITIAN else MeroExpr.one()
        _require_unramified(omega, "the trivial representation")
        l_triv = tate_L(MultCharacter.trivial(field))
        if space.form_type == HERMITIAN:
            base = mero_mul(*(l_triv.subst(1, j) for j in range(-space.n, space.n + 1)))
        else:
            base = mero_mul(tate_L(MultCharacter(field, discriminant(space))),
                            *(l_triv.subst(1, j) for j in range(-(space.n - 1), space.n)))
        return _apply_twist(base, omega)

    if isinstance(rep, SkewHermCharR):
        base = MeroExpr.gamma_c(LinForm(Fraction(1), Fraction(abs(rep.l))))
        return base if omega.t == 0 else base.subst(1, omega.t)

    if isinstance(rep, SpHighestWeight):
        base = weil_L(_sp_weil_rep(rep, omega.delta))
        return base if omega.t == 0 else base.subst(1, omega.t)

    if isinstance(rep, GLChar):
        return gj_L(rep.m, char_mul(rep.chi, omega)) * gj_L(rep.m, char_mul(char_inverse(rep.chi), omega))

    return mero_mul(l_factor(rep.kernel, omega), *(l_factor(b, omega) for b in rep.blocks))


def epsilon_factor(rep: RepDatum, omega: MultCharacter, psi: AddCharacter) -> MeroExpr:
    """epsilon = gamma * L(s, pi x omega) / L(1-s, dual pi x omega^{-1})."""
    dual_L = l_factor(dual_rep(rep), char_inverse(omega)).subst(-1, 1)
    return mero_mul(gamma_factor(rep, omega, psi), l_factor(rep, omega), dual_L.inv())


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
    c = _char_value_exact(omega, y)
    const = MeroExpr.const(c ** k)
    field = omega.field
    if field.is_real:
        absy = abs(y)
        if absy == 1:
            return const
        return const * MeroExpr.exp(absy, LinForm(Fraction(k), Fraction(0)))
    ordy = valuation(field, y)
    if ordy == 0:
        return const
    return const * MeroExpr.exp(Fraction(field.q), LinForm(Fraction(-k * ordy), Fraction(0)))


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
        eps = eps_at_half(chi_d, psi)
        eps_inv = eps.inverse() if isinstance(eps, ExactConst) else 1 / eps
        return mero_mul(_omega_s_power(omega, x, -1), gam, MeroExpr.const(eps_inv))
    # skew-hermitian
    chi_v = MultCharacter(space.field, discriminant(space))
    eps = eps_at_half(chi_v, psi)
    return mero_mul(_omega_s_power(omega, x, -1), MeroExpr.const(eps))


def t_factor(space: HermitianSpace, omega: MultCharacter, a: Rational) -> MeroExpr:
    """T_N(s, omega, a) = omega_{s-1/2}(a)^N (times chi_disc(a) when skew)."""
    a = as_fraction(a)
    n = space.n
    if space.form_type == LINEAR:
        N = 4 * n
    elif space.form_type == HERMITIAN:
        N = 2 * n + 1
    else:
        N = 2 * n
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
    base = AddCharacter.standard(psi.field)
    c0 = _normalization_c_base(space, omega, A, base)
    if psi.a == 1:
        return c0
    return t_factor(space, omega, psi.a).inv() * c0


def _normalization_c_base(space: HermitianSpace, omega: MultCharacter,
                          A: RegularNilpotentData, psi: AddCharacter) -> MeroExpr:
    e = kottwitz_sign(space)
    n = space.n
    g = tate_gamma(char_mul(omega, omega), psi)
    w4 = _char_value_exact(omega, Fraction(4))
    if space.form_type == LINEAR:  # 2n Tate gammas at 2s - i
        k, step, two_pow = 2 * n, 1, LinForm(Fraction(-4 * n), Fraction(0))
    else:  # n Tate gammas at 2s - 2i
        k, step, two_pow = n, 2, LinForm(Fraction(-2 * n), Fraction(n) * (Fraction(n) - Fraction(1, 2)))
    return mero_mul(MeroExpr.const(ExactConst.of(e)), MeroExpr.const(w4 ** (-k)),
                    _abs_power(space.field, Fraction(2), two_pow),
                    *(g.subst(2, -step * i).inv() for i in range(k)),
                    correction_R(space, omega, A, psi).inv())


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
    n = space.n
    e = kottwitz_sign(space)
    g = tate_gamma(char_mul(omega, omega), psi)
    w4 = _char_value_exact(omega, Fraction(4))
    return mero_mul(MeroExpr.const(ExactConst.of(e * central_sign(rep))),
                    MeroExpr.const(w4 ** (-n)),
                    gamma_factor(rep, omega, psi).subst(1, Fraction(1, 2)),
                    _abs_power(space.field, Fraction(2),
                               LinForm(Fraction(-2 * n), Fraction(n) * (Fraction(n) - Fraction(1, 2)))),
                    *(g.subst(2, -2 * i).inv() for i in range(n)))


def root_number(space: HermitianSpace, c_pi_at_minus1: int, omega: MultCharacter,
                psi: AddCharacter):
    """epsilon(1/2) as an exact constant; requires omega^2 = 1."""
    if space.form_type == LINEAR:
        raise UnsupportedPairError("root numbers are stated for the eps-hermitian cases")
    if not omega.is_quadratic:
        raise ValueError("the root-number formula requires omega^2 = 1")
    if c_pi_at_minus1 not in (1, -1):
        raise ValueError("central sign must be +-1")
    w_minus1 = _char_value_exact(omega, Fraction(-1))
    base = ExactConst.of(c_pi_at_minus1) * (w_minus1 ** space.n
                                            if isinstance(w_minus1, ExactConst) else w_minus1 ** space.n)
    if space.form_type == HERMITIAN:
        eps = eps_at_half(omega, psi)
        return _const_mul(base, eps)
    d = discriminant(space)
    w_d = _omega_of_class(omega, d)
    eps = eps_at_half(MultCharacter(space.field, d), psi)
    return _const_mul(_const_mul(base, w_d), eps)


def _omega_of_class(omega: MultCharacter, d: SquareClass):
    """omega(d) for a square class d (well defined since omega^2 = 1)."""
    field = omega.field
    if field.is_real:
        return ExactConst.of(-1 if (d.name == "-1" and omega.delta) else 1)
    ubit, pbit = d.bits
    val = ExactConst.one()
    # quadratic part: (rep, quad)_F with rep = u^ubit p^pbit
    sign = 1
    if omega.quad.name == "p":  # ramified quadratic part chi_p-class
        # (u, p-class) = residue symbol of u = -1; (p, p-class) via tame formula
        if ubit:
            sign *= -1
        if pbit:
            sign *= hilbert_pair_class(field, Fraction(field.p), omega.quad)
    if pbit:
        # z-part at a uniformizer
        zval = omega.z if isinstance(omega.z, Fraction) else complex(omega.z)
        val = _const_mul(val, ExactConst.of(zval) if isinstance(zval, Fraction) else zval)
    return _const_mul(ExactConst.of(sign), val)


def _const_mul(a, b):
    if isinstance(a, ExactConst) and isinstance(b, ExactConst):
        return a * b
    av = a.to_complex() if isinstance(a, ExactConst) else complex(a)
    bv = b.to_complex() if isinstance(b, ExactConst) else complex(b)
    return av * bv


# ---------------------------------------------------------------------------
# Mechanical re-derivation of the GJ-type factor (used by the test suite)

def derive_gj_from_normalization(m: int, omega: MultCharacter, psi: AddCharacter,
                                 probe_norm: Fraction = Fraction(1)) -> MeroExpr:
    """Solve the linear-case normalizing-constant identity for the GJ-type
    gamma of omega^2 o N and substitute the block variable u = 2s - m + 1/2."""
    field = omega.field
    alg = _hamilton() if field.is_real else QuaternionAlgebra(field, Fraction(-1), Fraction(-1))
    case = HermitianSpace.linear(alg, m)
    A = RegularNilpotentData(probe_norm)
    c = normalization_c(case, omega, A, psi)
    omega_sq = char_mul(omega, omega)
    lead = _omega_s_power(omega_sq, probe_norm, 1).subst(2, 0)  # omega^2_{2s}(x)
    e = kottwitz_sign(case)
    gj = mero_mul(MeroExpr.const(ExactConst.of(e)), lead, c.inv())
    # rewrite in the block variable: s = (u + m - 1/2) / 2
    return gj.subst(Fraction(1, 2), Fraction(2 * m - 1, 4))
