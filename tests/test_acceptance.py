"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import random
from fractions import Fraction

from lfactors.characters import (AddCharacter, MultCharacter, char_inverse,
                                 unramified_twist)
from lfactors.doubling import (GLChar, Induced, RegularNilpotentData,
                               SkewHermCharR, SpHighestWeight, TrivialRep,
                               epsilon_factor, gamma_factor, normalization_c,
                               root_number, skew_char_space, sp_space,
                               t_factor)
from lfactors.fields import (LocalField, SquareClass, hilbert_symbol,
                             nonsquare_unit)
from lfactors.hermitian import (HermitianSpace, discriminant, kottwitz_sign,
                                morita_natural)
from lfactors.mero import MeroExpr, mero_mul
from lfactors.numeric import max_rel_error
from lfactors.quaternion import (QuatMatrix, QuaternionAlgebra,
                                 matrix_reduced_norm,
                                 regular_representation_det)
from lfactors.ratfunc import as_rational_in_X
from lfactors.tate import eps_at_half, tate_gamma
from lfactors.verify import (conic_solvable_oracle, psi_scaling_values,
                             rep_battery, spherical_battery, SPHERICAL_FIELDS)
from lfactors.spherical import (SphericalData, gamma_spherical, spherical_zeta,
                                xi_symmetry_holds)

R = LocalField.real()
psiR = AddCharacter.standard(R)
trivR = MultCharacter.trivial(R)

STRICT = 1e-9


def _report(n, name, value=""):
    print(f"\nACCEPTANCE {n:>2} [{name}]: pass {value}")


def test_criterion_01_duplication_cross_check():
    err = max_rel_error(gamma_factor(TrivialRep(skew_char_space()), trivR, psiR),
                        gamma_factor(SkewHermCharR(0), trivR, psiR), samples=24)
    assert err < STRICT
    _report(1, "duplication cross-check", f"(max rel err {err:.2e})")


def test_criterion_02_hermitian_rank_one_archimedean():
    err = max_rel_error(gamma_factor(TrivialRep(sp_space(1)), trivR, psiR),
                        gamma_factor(SpHighestWeight(1, (0,)), trivR, psiR), samples=24)
    assert err < STRICT
    _report(2, "hermitian n=1 archimedean", f"(max rel err {err:.2e})")


def test_criterion_03_weight_zero_consistency():
    worst = 0.0
    for n in (1, 2, 3):
        worst = max(worst, max_rel_error(
            gamma_factor(TrivialRep(sp_space(n)), trivR, psiR),
            gamma_factor(SpHighestWeight(n, (0,) * n), trivR, psiR), samples=24))
    assert worst < STRICT
    _report(3, "compact-form weight-zero consistency n=1..3", f"(max rel err {worst:.2e})")


def test_criterion_04_functional_equation_battery():
    battery = rep_battery()
    assert len(battery) >= 20
    worst = 0.0
    for rep, omega in battery:
        field = omega.field
        psi = AddCharacter.standard(field)
        prod = mero_mul(
            gamma_factor(rep, omega, psi),
            gamma_factor(rep.dual(), char_inverse(omega), psi.inverse()).subst(-1, 1))
        if field.is_real:
            worst = max(worst, max_rel_error(prod, MeroExpr.one(), samples=24))
        else:
            assert as_rational_in_X(prod, field.q).is_one
    assert worst < STRICT
    _report(4, f"functional equation over {len(battery)} representations",
            f"(arch max rel err {worst:.2e})")


def test_criterion_05_self_duality_and_twisting():
    for rep, omega in rep_battery():
        psi = AddCharacter.standard(omega.field)
        assert gamma_factor(rep.dual(), omega, psi) == gamma_factor(rep, omega, psi)
        for s0 in (Fraction(2), Fraction(-1, 2)):
            assert gamma_factor(rep, unramified_twist(omega, s0), psi) \
                == gamma_factor(rep, omega, psi).subst(1, s0)
    _report(5, "self-duality and unramified twisting (structural)")


def test_criterion_06_psi_dependence():
    worst = 0.0
    for rep, omega in rep_battery():
        field = omega.field
        if field.is_real and isinstance(rep, GLChar):
            continue  # measure powers of |2| are the documented discrepancy
        psi = AddCharacter.standard(field)
        space = rep.space
        for a in psi_scaling_values(field):
            lhs = gamma_factor(rep, omega, psi.rescale(a))
            rhs = mero_mul(t_factor(space, omega, a), gamma_factor(rep, omega, psi))
            if field.is_real:
                worst = max(worst, max_rel_error(lhs, rhs, samples=24))
            else:
                assert as_rational_in_X(mero_mul(lhs, rhs.inv()), field.q).is_one
    assert worst < STRICT
    # normalizing constant: c(psi_a) T_N = c(psi)
    for field in (LocalField.padic(5), R):
        alg = QuaternionAlgebra(field, Fraction(-1), Fraction(-1))
        psi = AddCharacter.standard(field)
        omega = MultCharacter.trivial(field)
        for space in (HermitianSpace.diagonal(alg, "hermitian", [1]),
                      HermitianSpace.diagonal(alg, "skew", [alg.element(0, 1)]),
                      HermitianSpace.linear(alg, 1)):
            A = RegularNilpotentData(Fraction(1))
            for a in psi_scaling_values(field):
                assert mero_mul(normalization_c(space, omega, A, psi.rescale(a)),
                                t_factor(space, omega, a)) \
                    == normalization_c(space, omega, A, psi)
    _report(6, "psi-dependence of gamma and c", f"(arch max rel err {worst:.2e})")


def test_criterion_07_root_numbers():
    count = 0
    for p in (None, 5, 7):   # None = real place
        if p is None:
            field = R
            omegas = [trivR, MultCharacter.sign(R)]
            reps = [SkewHermCharR(l) for l in (0, 1, 3)] + \
                   [SpHighestWeight(len(l), l) for l in ((0,), (1,), (2, 1), (1, 1, 0))]
        else:
            field = LocalField.padic(p)
            triv = MultCharacter.trivial(field)
            chi_u = MultCharacter(field, SquareClass(field, "u"))
            omegas = [triv, chi_u]
            div = QuaternionAlgebra(field, Fraction(nonsquare_unit(field)), Fraction(p))
            reps = [TrivialRep(HermitianSpace.diagonal(div, "hermitian", [1] * n))
                    for n in (1, 2, 3)]
            reps += [TrivialRep(HermitianSpace.diagonal(div, "skew",
                                                        [div.element(0, 1)] * n))
                     for n in (1, 2)]
            kern_h = TrivialRep(HermitianSpace(div, "hermitian", 0))
            kern_s = TrivialRep(HermitianSpace(div, "skew", 0))
            reps += [Induced((GLChar(1, triv),), kern_h),
                     Induced((GLChar(1, chi_u),), kern_s)]
        psi = AddCharacter.standard(field)
        for rep in reps:
            for omega in omegas:
                if isinstance(rep, (TrivialRep, Induced)) and not field.is_real:
                    # trivial kernels of positive rank pair with unramified omega only
                    space0 = rep.space if isinstance(rep, TrivialRep) else rep.kernel.space
                    if space0.n > 0 and omega.quad.is_ramified:
                        continue
                closed = root_number(rep.space, rep.central_sign, omega, psi)
                machinery = epsilon_factor(rep, omega, psi).subst(0, Fraction(1, 2))
                assert machinery.constant_value() == closed
                count += 1
    _report(7, f"root numbers at the center over {count} cases")


def test_criterion_08_tate_layer():
    rng = random.Random(20240809)
    pairs = 0
    for p in (3, 5, 7, 11):
        F = LocalField.padic(p)
        for _ in range(50):
            a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
            b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
            assert (hilbert_symbol(F, a, b) == 1) == conic_solvable_oracle(p, a, b)
            pairs += 1
    assert pairs == 200
    for p in (3, 5, 7, 11):
        F = LocalField.padic(p)
        psi = AddCharacter.standard(F)
        for name in ("p", "up"):
            chi = MultCharacter(F, SquareClass(F, name))
            eps = eps_at_half(chi, psi).to_complex()
            assert abs(abs(eps) - 1) < 1e-12
            chim1 = 1 if p % 4 == 1 else -1  # chi(-1) = (-1, ram class) = legendre(-1)
            assert abs(eps * eps - chim1) < 1e-12
        for name in ("1", "u", "p", "up"):
            chi = MultCharacter(F, SquareClass(F, name))
            prod = mero_mul(tate_gamma(chi, psi),
                            tate_gamma(char_inverse(chi), psi.inverse()).subst(-1, 1))
            assert as_rational_in_X(prod, F.q).is_one
    _report(8, "Tate layer: 200 Hilbert oracles, Gauss eps, exact FE")


def test_criterion_09_reduced_norm_oracle():
    rng = random.Random(97)
    field = LocalField.padic(5)
    algebras = [QuaternionAlgebra(field, Fraction(-1), Fraction(-1)),
                QuaternionAlgebra(field, Fraction(2), Fraction(5))]
    for k in range(100):
        alg = algebras[k % 2]
        n = rng.randint(1, 3)
        X = QuatMatrix.from_rows(
            alg, [[alg.element(*(rng.randint(-3, 3) for _ in range(4)))
                   for _ in range(n)] for _ in range(n)])
        assert matrix_reduced_norm(X) ** 2 == regular_representation_det(X)
    _report(9, "reduced norm vs regular representation, 100 matrices")


def test_criterion_10_spherical():
    checked = 0
    for data, rep in spherical_battery():
        if data.r not in (1, 2) or data.n0 not in (0, 1):
            continue
        F = data.field
        psi = AddCharacter.standard(F)
        triv = MultCharacter.trivial(F)
        ratio = mero_mul(gamma_spherical(data), gamma_factor(rep, triv, psi).inv())
        assert as_rational_in_X(ratio, F.q).is_one
        assert xi_symmetry_holds(data)
        checked += 1
    for F in SPHERICAL_FIELDS:  # compact rank one: Z = Vol(C_1) pins m = n in d^V
        sz = spherical_zeta(SphericalData(F, "hermitian", 0, 1, ()))
        assert as_rational_in_X(mero_mul(sz.l_product, sz.d_v.inv()), F.q).is_one
    _report(10, f"spherical gamma = multiplicativity path over {checked} data sets; "
                "d^V = L-product in the compact rank-one case")


def test_criterion_11_kottwitz_and_morita():
    field = LocalField.padic(5)
    split = QuaternionAlgebra(field, Fraction(-1), Fraction(-1))
    division = QuaternionAlgebra(field, Fraction(2), Fraction(5))
    for n in range(0, 4):
        for alg, is_split in ((split, True), (division, False)):
            lin = HermitianSpace.linear(alg, n)
            assert kottwitz_sign(lin) == (1 if is_split else (-1) ** n)
            herm = HermitianSpace.diagonal(alg, "hermitian", [1] * n)
            assert kottwitz_sign(herm) == (1 if is_split else (-1) ** (n * (n + 1) // 2))
            skew = HermitianSpace.diagonal(alg, "skew", [alg.element(0, 1)] * n)
            assert kottwitz_sign(skew) == (1 if is_split else (-1) ** (n * (n - 1) // 2))
    rational_split = QuaternionAlgebra(field, Fraction(4), Fraction(3))
    assert morita_natural(HermitianSpace.linear(rational_split, 2)).form_type == "zero"
    herm_out = morita_natural(HermitianSpace.diagonal(rational_split, "hermitian", [1, 2]))
    assert herm_out.form_type == "symplectic" and herm_out.dim == 4
    for diag in ([rational_split.element(0, 1)],
                 [rational_split.element(0, 1), rational_split.element(0, 0, 1)]):
        skew_space = HermitianSpace.diagonal(rational_split, "skew", diag)
        out = morita_natural(skew_space)
        assert out.form_type == "symmetric"
        assert out.discriminant() == discriminant(skew_space)
    _report(11, "Kottwitz table and Morita transfer with discriminants")
