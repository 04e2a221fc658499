"""Root numbers: the value of the epsilon factor at the center of symmetry.

For quadratic omega the closed form is the central sign times omega(-1)^n
times an epsilon constant of omega (hermitian) or of the discriminant
character (skew); the L-function machinery reproduces it at s = 1/2.
"""

from fractions import Fraction

from lfactors import (AddCharacter, HermitianSpace, LocalField, MultCharacter,
                      QuaternionAlgebra, SkewHermCharR, SpHighestWeight,
                      SquareClass, TrivialRep, epsilon_factor, l_factor,
                      format_expr, root_number, skew_char_space, sp_space)
from lfactors.fields import nonsquare_unit

R = LocalField.real()
psiR = AddCharacter.standard(R)
trivR = MultCharacter.trivial(R)

print("== archimedean ==")
for rep in (SkewHermCharR(0), SkewHermCharR(1), SpHighestWeight(2, (2, 1))):
    w = root_number(rep.space, rep.central_sign, trivR, psiR)
    machinery = epsilon_factor(rep, trivR, psiR).subst(0, Fraction(1, 2)).eval(0)
    print(f"{type(rep).__name__:<18} closed form {str(w):>3}   "
          f"machinery at 1/2: {machinery:.6f}")

print("\n== nonarchimedean ==")
Q5 = LocalField.padic(5)
psi5 = AddCharacter.standard(Q5)
triv5 = MultCharacter.trivial(Q5)
chi_u = MultCharacter(Q5, SquareClass(Q5, "u"))
D = QuaternionAlgebra(Q5, Fraction(nonsquare_unit(Q5)), Fraction(5))

Vi = HermitianSpace.diagonal(D, "skew", [D.element(0, 1)])
print("skew <i> over Q_5, omega = 1:", root_number(Vi, 1, triv5, psi5))
Vh = HermitianSpace.diagonal(D, "hermitian", [1, 1])
print("hermitian n=2, omega = chi_u:", root_number(Vh, 1, chi_u, psi5))

print("\nL-factor behind the hermitian n=2 trivial representation:")
print("  ", format_expr(l_factor(TrivialRep(Vh), triv5)))
