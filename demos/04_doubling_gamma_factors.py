"""Gamma factors of representations of quaternionic unitary groups.

The closed-form table covers: trivial representations of eps-hermitian
spaces (any local field, any dimension), the rank-one skew characters and
compact hermitian highest weights over R, characters of GL_m(D), and
products of these through parabolic induction data.
"""

from fractions import Fraction

from lfactors import (AddCharacter, GLChar, Induced, LocalField,
                      MultCharacter, QuaternionAlgebra, HermitianSpace,
                      SkewHermCharR, SpHighestWeight, TrivialRep,
                      as_rational_in_X, equals_numeric, format_expr,
                      gamma_factor, mero_mul, skew_char_space, sp_space,
                      t_factor)
from lfactors.characters import char_inverse
from lfactors.mero import MeroExpr

R = LocalField.real()
psiR = AddCharacter.standard(R)
trivR = MultCharacter.trivial(R)

print("== archimedean closed forms ==")
print("trivial rep, skew (H,<i>):",
      format_expr(gamma_factor(TrivialRep(skew_char_space()), trivR, psiR)))
print("character z -> z^2 of the same group:",
      format_expr(gamma_factor(SkewHermCharR(2), trivR, psiR)))
print("compact hermitian group, highest weight (2,1):",
      format_expr(gamma_factor(SpHighestWeight(2, (2, 1)), trivR, psiR)))

print("\nduplication consistency (trivial rep vs l = 0 character):",
      equals_numeric(gamma_factor(TrivialRep(skew_char_space()), trivR, psiR),
                     gamma_factor(SkewHermCharR(0), trivR, psiR)))

print("\n== nonarchimedean closed forms ==")
Q5 = LocalField.padic(5)
psi5 = AddCharacter.standard(Q5)
triv5 = MultCharacter.trivial(Q5)
D = QuaternionAlgebra(Q5, Fraction(2), Fraction(5))
V2 = HermitianSpace.diagonal(D, "hermitian", [1, 1])
g = gamma_factor(TrivialRep(V2), triv5, psi5)
print("trivial rep, hermitian n=2 over the division algebra:")
print("  ", format_expr(g))
print("   =", as_rational_in_X(g, 5))

print("\n== GL block and multiplicativity ==")
block = GLChar(1, MultCharacter.norm_power(Q5, Fraction(7, 10)))
kern = TrivialRep(HermitianSpace.diagonal(D, "skew", [D.element(0, 1)]))
rep = Induced((block,), kern)
print("induced datum gamma = block gamma x kernel gamma:",
      gamma_factor(rep, triv5, psi5)
      == mero_mul(gamma_factor(block, triv5, psi5), gamma_factor(kern, triv5, psi5)))

print("\n== functional equation and psi-dependence ==")
prod = mero_mul(gamma_factor(rep, triv5, psi5),
                gamma_factor(rep.dual(), char_inverse(triv5), psi5.inverse()).subst(-1, 1))
print("gamma(s) gamma(1-s, dual, psi^{-1}) =", as_rational_in_X(prod, 5))
a = Fraction(5)
lhs = gamma_factor(rep, triv5, psi5.rescale(a))
rhs = mero_mul(t_factor(rep.space, triv5, a), gamma_factor(rep, triv5, psi5))
print("gamma(psi_5) = T_N(s, omega, 5) gamma(psi):",
      as_rational_in_X(mero_mul(lhs, rhs.inv()), 5).is_one)
