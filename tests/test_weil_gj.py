from fractions import Fraction

from lfactors.characters import (AddCharacter, MultCharacter, char_inverse,
                                 char_mul)
from lfactors.doubling import (SkewHermCharR, SpHighestWeight, derive_gj_from_normalization,
                               gamma_factor)
from lfactors.exactconst import ExactConst
from lfactors.fields import LocalField, SquareClass
from lfactors.gj import _prefactor, _shifted, gj_L, gj_gamma_norm
from lfactors.mero import LinForm, MeroExpr, mero_mul
from lfactors.numeric import equals_numeric
from lfactors.ratfunc import as_rational_in_X
from lfactors.tate import discrete_L, discrete_gamma, tate_eps, tate_gamma

R = LocalField.real()
psiR = AddCharacter.standard(R)
Q5 = LocalField.padic(5)
psi5 = AddCharacter.standard(Q5)


def test_discrete_series_formula():
    # i^{|l|+1} GammaC(-s + (|l|+1)/2) / GammaC(s + (|l|+1)/2) at the
    # half-shifted argument, i.e. GammaC(l/2 + 1 - s)/GammaC(s + l/2) plainly
    want = mero_mul(MeroExpr.const(ExactConst(Fraction(-1), 1)),  # i^3
                    MeroExpr.gamma_c(LinForm(Fraction(-1), 2)),
                    MeroExpr.gamma_c(LinForm(Fraction(1), 1)).inv())
    assert discrete_gamma(2, psiR) == want
    assert discrete_L(2) == MeroExpr.gamma_c(LinForm(Fraction(1), 1))
    assert str(discrete_gamma(3, psiR)) == "GammaC(-s+5/2) / GammaC(s+3/2)"


def test_d_l_sign_twist_invariance():
    """D_l = D_{-l} and D_l tensor sgn = D_l."""
    want = gamma_factor(SkewHermCharR(3), MultCharacter.trivial(R), psiR)
    assert gamma_factor(SkewHermCharR(-3), MultCharacter.trivial(R), psiR) == want
    assert gamma_factor(SkewHermCharR(3), MultCharacter.sign(R), psiR) == want


def test_trivial_summand_matches_tate():
    """At n = 0 the parameter is the one character sgn^delta of omega."""
    for chi in (MultCharacter.trivial(R), MultCharacter.sign(R)):
        assert gamma_factor(SpHighestWeight(0, ()), chi, psiR) == tate_gamma(chi, psiR)


def test_gj_roundtrip_against_normalization():
    """The definitional identity: gj re-derived from the normalizing constant
    equals the closed form, structurally, for both block sizes."""
    for m in (1, 2):
        om = MultCharacter.norm_power(Q5, Fraction(3, 10))
        derived = derive_gj_from_normalization(m, om, psi5)
        assert derived == gj_gamma_norm(m, char_mul(om, om), psi5)
        assert derive_gj_from_normalization(m, om, psi5, probe_norm=Fraction(9, 4)) == derived


def test_gj_regression_snapshot_m1():
    """m = 1, trivial character over Q_5: two Tate gammas at u +- 1/2."""
    g = gj_gamma_norm(1, MultCharacter.trivial(Q5), psi5)
    want = mero_mul(tate_gamma(MultCharacter.trivial(Q5), psi5).subst(1, Fraction(1, 2)),
                    tate_gamma(MultCharacter.trivial(Q5), psi5).subst(1, Fraction(-1, 2)))
    assert g == want
    # reduced form: q^2 X^2 (1 - q^{-1/2} X) / (1 - q^{3/2} X)
    assert str(as_rational_in_X(g, 5)) == "(25*X^2 + (-5*sqrt(5))*X^3) / (1 + (-5*sqrt(5))*X)"


def test_gj_functional_equation_nonarch():
    for m in (1, 2):
        for mu in (MultCharacter.trivial(Q5),
                   MultCharacter(Q5, SquareClass(Q5, "u")),
                   MultCharacter.norm_power(Q5, Fraction(13, 10))):
            g = gj_gamma_norm(m, mu, psi5)
            gd = gj_gamma_norm(m, char_inverse(mu), psi5.inverse()).subst(-1, 1)
            assert as_rational_in_X(mero_mul(g, gd), 5).is_one


def test_gj_real_measure_powers():
    """Over R the paper normalization carries |2|-powers: the naive functional
    equation is off by exactly |2|^{8 m^2} (documented discrepancy)."""
    m = 1
    mu = MultCharacter.trivial(R)
    g = gj_gamma_norm(m, mu, psiR)
    gd = gj_gamma_norm(m, char_inverse(mu), psiR.inverse()).subst(-1, 1)
    defect = mero_mul(g, gd)
    want = MeroExpr.exp(2, LinForm(Fraction(0), Fraction(8 * m * m))).subst(1, 0)
    assert equals_numeric(defect, MeroExpr.const(ExactConst.of(Fraction(2) ** (8 * m * m))))


def gj_eps(m, mu, psi):
    """The GL_m(D) epsilon-factor: the gj prefactor times the shifted Tate epsilons."""
    return mero_mul(_prefactor(m, mu), *_shifted(m, tate_eps(mu, psi)))


def test_gj_eps_L_decomposition():
    for mu in (MultCharacter.trivial(Q5), MultCharacter(Q5, SquareClass(Q5, "p"))):
        m = 2
        g = gj_gamma_norm(m, mu, psi5)
        rebuilt = mero_mul(gj_eps(m, mu, psi5),
                           gj_L(m, char_inverse(mu)).subst(-1, 1),
                           gj_L(m, mu).inv())
        assert g == rebuilt
