"""Spherical zeta denominators and the gamma factor of inducing data.

A normal-form space over a division quaternion algebra has hyperbolic rank
r and an anisotropic kernel of rank n0 <= 1; inducing characters |Nrd|^t
sit on the GL_1(D) blocks.  The zeta value is Vol(C_1)/d^V(s) times an
L-product, and the gamma factor factors through the same L-data.
"""

from fractions import Fraction

from lfactors import (AddCharacter, GLChar, HermitianSpace, Induced,
                      LocalField, MultCharacter, QuaternionAlgebra,
                      SphericalData, SquareClass, TrivialRep,
                      as_rational_in_X, format_expr, gamma_factor,
                      gamma_spherical, mero_mul, spherical_zeta)
from lfactors.fields import nonsquare_unit
from lfactors.hermitian import discriminant

Q5 = LocalField.padic(5)
psi = AddCharacter.standard(Q5)
triv = MultCharacter.trivial(Q5)
D = QuaternionAlgebra(Q5, Fraction(nonsquare_unit(Q5)), Fraction(5))

print("== zeta denominators d^V ==")
skew1 = SphericalData(Q5, "skew", 0, 1, (), SquareClass(Q5, "u"))
print("skew n=1:", format_expr(spherical_zeta(skew1).d_v))
herm2 = SphericalData(Q5, "hermitian", 1, 0, (Fraction(0),))
sz = spherical_zeta(herm2)
print("hermitian n=2:", format_expr(sz.d_v), " (shift parameter m =", sz.m_assumption, ")")
compact = [spherical_zeta(SphericalData(F, "hermitian", 0, 1, ()))
           for F in (LocalField.padic(3), Q5, LocalField.padic(3, 2))]
print("The hermitian shift m = n is pinned by the rank-one compact case,",
      "where d^V is the L-product:", [c.d_v == c.l_product for c in compact])

print("\n== the zeta value over the volume ==")
print("Z / Vol(C_1) =", format_expr(sz.value_over_vol()))

print("\n== gamma of inducing data vs multiplicativity ==")
data = SphericalData(Q5, "skew", 2, 1, (Fraction(0), 0.7),
                     discriminant(HermitianSpace.diagonal(D, "skew", [D.element(0, 1)])))
gs = gamma_spherical(data)
kern = TrivialRep(HermitianSpace.diagonal(D, "skew", [D.element(0, 1)]))
rep = Induced((GLChar(1, MultCharacter.norm_power(Q5, Fraction(0))),
               GLChar(1, MultCharacter.norm_power(Q5, 0.7))), kern)
gm = gamma_factor(rep, triv, psi)
from lfactors.mero import equals_numeric, MeroExpr
print("spherical formula == block-by-block gamma:",
      equals_numeric(mero_mul(gs, gm.inv()), MeroExpr.one()))

exact = SphericalData(Q5, "skew", 1, 0, (Fraction(1, 2),))
print("\nexact rational form for t = 1/2:")
print("  ", as_rational_in_X(gamma_spherical(exact), 5))
