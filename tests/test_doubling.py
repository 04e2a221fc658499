from fractions import Fraction

import pytest

from lfactors.characters import AddCharacter, MultCharacter, unramified_twist
from lfactors.doubling import (GLChar, Induced, RegularNilpotentData,
                               SkewHermCharR, SpHighestWeight, TrivialRep,
                               UnsupportedPairError, correction_R,
                               epsilon_factor, gamma_capital, gamma_factor,
                               l_factor, normalization_c, root_number,
                               skew_char_space, sp_space, t_factor,
                               zeta_fe_factor)
from lfactors.exactconst import ExactConst
from lfactors.fields import LocalField, SquareClass, nonsquare_unit
from lfactors.hermitian import HermitianSpace, discriminant
from lfactors.mero import LinForm, MeroExpr, format_expr, mero_mul
from lfactors.numeric import max_rel_error
from lfactors.quaternion import QuaternionAlgebra
from lfactors.ratfunc import as_rational_in_X
from lfactors.tate import tate_gamma

R = LocalField.real()
Q5 = LocalField.padic(5)
psiR = AddCharacter.standard(R)
psi5 = AddCharacter.standard(Q5)
trivR = MultCharacter.trivial(R)
triv5 = MultCharacter.trivial(Q5)
sgn = MultCharacter.sign(R)
H = QuaternionAlgebra(R, Fraction(-1), Fraction(-1))
D5 = QuaternionAlgebra(Q5, Fraction(2), Fraction(5))


def test_correction_R_examples():
    # skew (H, <i>), omega = 1, N(A) = 1 -> constant i
    A = RegularNilpotentData(Fraction(1))
    r = correction_R(skew_char_space(), trivR, A, psiR)
    assert r == MeroExpr.const(ExactConst.i())
    # hermitian n = 0 -> gamma(s + 1/2, omega, psi)
    V0 = HermitianSpace(H, "hermitian", 0)
    assert correction_R(V0, sgn, A, psiR) == tate_gamma(sgn, psiR).subst(1, Fraction(1, 2))
    # linear n = 1, omega = 1, N(A) = 4: |4 * 2^{-2}|^{-2s} = 1
    lin = HermitianSpace.linear(H, 1)
    assert correction_R(lin, trivR, RegularNilpotentData(Fraction(4)), psiR) == MeroExpr.one()


def test_normalization_c_examples():
    A = RegularNilpotentData(Fraction(1))
    c = normalization_c(skew_char_space(), trivR, A, psiR)
    want = mero_mul(MeroExpr.const(ExactConst(Fraction(-1), 1)),  # -i = e(G) R^{-1}
                    MeroExpr.exp(2, LinForm(Fraction(-2), Fraction(1, 2))),
                    tate_gamma(trivR, psiR).subst(2, 0).inv())
    assert c == want
    # n = 0: empty products leave e(G) R^{-1}
    V0s = HermitianSpace(H, "skew", 0)
    assert normalization_c(V0s, trivR, A, psiR) == MeroExpr.one()
    V0h = HermitianSpace(H, "hermitian", 0)
    assert normalization_c(V0h, sgn, A, psiR) == tate_gamma(sgn, psiR).subst(
        1, Fraction(1, 2)).inv()


@pytest.mark.parametrize("space_builder", [
    lambda alg: HermitianSpace.diagonal(alg, "hermitian", [1]),
    lambda alg: HermitianSpace.diagonal(alg, "skew", [alg.element(0, 1)]),
    lambda alg: HermitianSpace.linear(alg, 1),
    lambda alg: HermitianSpace.linear(alg, 2),
])
def test_whn1_rule(space_builder):
    """c(psi_a) = T_N^{-1}(s, omega, a) c(psi)."""
    for field, alg in ((Q5, D5), (R, H)):
        space = space_builder(alg)
        omega = MultCharacter.trivial(field)
        psi = AddCharacter.standard(field)
        A = RegularNilpotentData(Fraction(1))
        avals = [Fraction(-1), Fraction(2)] if field.is_real else \
            [Fraction(-1), Fraction(2), Fraction(nonsquare_unit(field)), Fraction(field.p)]
        for a in avals:
            lhs = normalization_c(space, omega, A, psi.rescale(a))
            rhs = mero_mul(t_factor(space, omega, a).inv(),
                           normalization_c(space, omega, A, psi))
            assert lhs == rhs


def test_whn1_matches_naive_substitution_for_units():
    """For |a| = 1 the built-in rule agrees with naive psi_a substitution of
    the printed formula."""
    from lfactors.doubling import _tate_block
    space = HermitianSpace.diagonal(D5, "hermitian", [1])
    A = RegularNilpotentData(Fraction(1))
    for a in (Fraction(-1), Fraction(2), Fraction(nonsquare_unit(Q5))):
        psi_a = psi5.rescale(a)
        naive = mero_mul(*_tate_block(space, triv5, psi_a, 1),
                         correction_R(space, triv5, A, psi_a).inv())
        ruled = normalization_c(space, triv5, A, psi5.rescale(a))
        assert as_rational_in_X(mero_mul(naive, ruled.inv()), 5).is_one


def test_t_factor_examples():
    # skew n=1, disc=-1 over R, a=-1: constant -1
    t = t_factor(skew_char_space(), trivR, Fraction(-1))
    assert t == MeroExpr.const(ExactConst.of(-1))
    # any case, a = 1
    assert t_factor(sp_space(2), sgn, Fraction(1)) == MeroExpr.one()
    # hermitian n=1, omega=1, a=4: |4|^{3(s-1/2)}
    t3 = t_factor(sp_space(1), trivR, Fraction(4))
    assert t3 == MeroExpr.exp(4, LinForm(Fraction(3), Fraction(-3, 2)))


def test_gamma_factor_table_examples():
    # hermitian trivial n=1 over R, at s+1/2
    g = gamma_factor(TrivialRep(sp_space(1)), trivR, psiR).subst(1, Fraction(1, 2))
    want = MeroExpr.one()
    for j in (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)):
        want = want * MeroExpr.gamma_r(LinForm(Fraction(-1), Fraction(3, 2) - j - j))
    # direct check of the displayed shape instead: product over the three shifts
    num = [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    want = MeroExpr.one()
    for c in num:
        want = want * MeroExpr.gamma_r(LinForm(Fraction(-1), c))
        want = want * MeroExpr.gamma_r(LinForm(Fraction(1), c)).inv()
    assert g == want
    # skew trivial n=0 -> 1
    assert gamma_factor(TrivialRep(HermitianSpace(H, "skew", 0)), trivR, psiR) == MeroExpr.one()
    # hermitian n=0 with omega: the Tate gamma of omega
    assert gamma_factor(TrivialRep(HermitianSpace(H, "hermitian", 0)), sgn, psiR) \
        == tate_gamma(sgn, psiR)


def test_gamma_factor_pi_l_formula():
    g = gamma_factor(SkewHermCharR(2), trivR, psiR)
    want = mero_mul(MeroExpr.const(ExactConst.i()),
                    MeroExpr.gamma_c(LinForm(Fraction(-1), 3)),
                    MeroExpr.gamma_c(LinForm(Fraction(1), 2)).inv())
    assert g == want
    assert gamma_factor(SkewHermCharR(-2), trivR, psiR) == g  # uses |l|
    assert gamma_factor(SkewHermCharR(2), sgn, psiR) == g     # omega-independent


def test_unsupported_pairs():
    with pytest.raises(UnsupportedPairError):
        gamma_factor(TrivialRep(sp_space(1)), sgn, psiR)
    chi_p = MultCharacter(Q5, SquareClass(Q5, "p"))
    with pytest.raises(UnsupportedPairError):
        gamma_factor(TrivialRep(HermitianSpace.diagonal(D5, "hermitian", [1])), chi_p, psi5)
    with pytest.raises(UnsupportedPairError):
        zeta_fe_factor(GLChar(1, triv5), triv5, psi5)
    with pytest.raises(ValueError):
        root_number(sp_space(1), 1, unramified_twist(trivR, Fraction(1, 3)), psiR)


def test_central_sign():
    assert TrivialRep(sp_space(2)).central_sign == 1
    assert SkewHermCharR(3).central_sign == -1
    assert SpHighestWeight(2, (2, 1)).central_sign == -1
    assert GLChar(1, triv5).central_sign == 1
    assert Induced((GLChar(1, triv5),),
                   TrivialRep(HermitianSpace(D5, "skew", 0))).central_sign == 1


def test_gamma_capital_herher():
    rep = SpHighestWeight(2, (2, 1))
    A = RegularNilpotentData(Fraction(9))
    gc = gamma_capital(rep, trivR, A, psiR)
    want = MeroExpr.exp(9, LinForm(Fraction(1), 0))
    for k in (4, 2):  # lam_j + rho_j
        want = want * MeroExpr.gamma_c(LinForm(Fraction(-1), Fraction(1, 2) + k))
        want = want * MeroExpr.gamma_c(LinForm(Fraction(1), Fraction(1, 2) + k)).inv()
    assert max_rel_error(gc, want) < 1e-12


def test_gamma_capital_ind_step():
    A = RegularNilpotentData(Fraction(4))
    g1 = gamma_capital(SpHighestWeight(2, (2, 1)), trivR, A, psiR)
    g2 = gamma_capital(SpHighestWeight(2, (3, 1)), trivR, A, psiR)
    k = 2 + 2  # lam_1 + rho_1
    for s in (0.3 + 0.9j, -1.2 + 2.4j):
        lhs = (k + 0.5 - s) * g1.eval(s)
        rhs = (k + 0.5 + s) * g2.eval(s)
        assert abs(lhs - rhs) < 1e-9 * abs(lhs)


def test_gamma_capital_n0():
    rep = TrivialRep(HermitianSpace(H, "skew", 0))
    A = RegularNilpotentData(Fraction(1))
    assert gamma_capital(rep, trivR, A, psiR) == MeroExpr.one()


def test_l_factor_examples():
    V = HermitianSpace.diagonal(D5, "hermitian", [1])
    L = l_factor(TrivialRep(V), triv5)
    want = MeroExpr.one()
    for j in (-1, 0, 1):
        want = want * MeroExpr.l_atom(5, 1, LinForm(Fraction(1), j))
    assert L == want
    # skew trivial n=1: epsilon factor is a q-power monomial (ramified disc)
    Vj = HermitianSpace.diagonal(D5, "skew", [D5.element(0, 0, 1)])  # <j>, j^2=5
    assert discriminant(Vj).is_ramified
    eps = epsilon_factor(TrivialRep(Vj), triv5, psi5)
    rf = as_rational_in_X(eps, 5)
    assert [sum(map(any, zip(*f.parts))) for f in (rf.num, rf.den)] == [1, 1]  # monomials
    # SpHW: GammaR(s + delta-shift) * prod GammaC(s + lam_j + rho_j)
    L2 = l_factor(SpHighestWeight(1, (1,)), trivR)
    want2 = mero_mul(MeroExpr.gamma_r(LinForm(Fraction(1), 1)),
                     MeroExpr.gamma_c(LinForm(Fraction(1), 2)))
    assert L2 == want2


def test_root_number_examples():
    assert root_number(sp_space(2), 1, trivR, psiR) == ExactConst.one()
    assert root_number(skew_char_space(), 1, trivR, psiR) == ExactConst.i()
    # skew over Q5 with unramified nontrivial disc and omega = 1 -> 1
    Vi = HermitianSpace.diagonal(D5, "skew", [D5.element(0, 1)])
    assert discriminant(Vi).name == "u"
    assert root_number(Vi, 1, triv5, psi5) == ExactConst.one()


def test_zeta_fe_examples():
    # structural rearrangement: zeta_fe = c * Gamma^V(A) * R^2 for any A
    rep = TrivialRep(sp_space(1))
    for x in (Fraction(1), Fraction(4)):
        A = RegularNilpotentData(x)
        z = zeta_fe_factor(rep, trivR, psiR)
        pieces = mero_mul(normalization_c(sp_space(1), trivR, A, psiR),
                          gamma_capital(rep, trivR, A, psiR),
                          correction_R(sp_space(1), trivR, A, psiR) ** 2)
        assert z == pieces
    # skew n=0: reduces to e(G)
    rep0 = TrivialRep(HermitianSpace(H, "skew", 0))
    assert zeta_fe_factor(rep0, trivR, psiR) == MeroExpr.one()
    rep0q = TrivialRep(HermitianSpace(D5, "skew", 0))
    assert zeta_fe_factor(rep0q, triv5, psi5) == MeroExpr.one()


def test_induced_multiplicativity_is_definitional():
    kern = TrivialRep(HermitianSpace.diagonal(D5, "hermitian", [1]))
    rep = Induced((GLChar(1, triv5), GLChar(2, triv5)), kern)
    got = gamma_factor(rep, triv5, psi5)
    want = mero_mul(gamma_factor(kern, triv5, psi5),
                    gamma_factor(GLChar(1, triv5), triv5, psi5),
                    gamma_factor(GLChar(2, triv5), triv5, psi5))
    assert got == want


def test_gamma_outputs_roundtrip():
    """Canonical text and JSON forms round-trip on real engine output."""
    from lfactors.mero import parse_expr, to_json, from_json
    from lfactors.verify import rep_battery
    for rep, omega in rep_battery()[:20]:
        psi = AddCharacter.standard(omega.field)
        g = gamma_factor(rep, omega, psi)
        assert parse_expr(format_expr(g)) == g
        assert from_json(to_json(g)) == g


def test_epsilon_factor_functional_equation_pattern():
    """epsilon(s, pi, omega, psi) epsilon(1-s, dual, omega^{-1}, psi^{-1}) = 1,
    forced by the gamma FE and the L-factor definition."""
    from lfactors.characters import char_inverse
    kern = TrivialRep(HermitianSpace.diagonal(D5, "skew", [D5.element(0, 1)]))
    reps = [TrivialRep(HermitianSpace.diagonal(D5, "hermitian", [1])),
            GLChar(1, triv5), Induced((GLChar(1, triv5),), kern)]
    for rep in reps:
        e = epsilon_factor(rep, triv5, psi5)
        ed = epsilon_factor(rep.dual(), char_inverse(triv5), psi5.inverse()).subst(-1, 1)
        assert as_rational_in_X(mero_mul(e, ed), 5).is_one


def test_root_number_with_ramified_omega():
    chi_p = MultCharacter(Q5, SquareClass(Q5, "p"))
    kern = TrivialRep(HermitianSpace(D5, "skew", 0))
    rep = Induced((GLChar(1, chi_p),), kern)
    closed = root_number(rep.space, rep.central_sign, chi_p, psi5)
    assert epsilon_factor(rep, chi_p, psi5).subst(0, Fraction(1, 2)).constant_value() == closed
