import cmath
from fractions import Fraction

import pytest

from lfactors.characters import (AddCharacter, MultCharacter, char_eval, char_inverse,
                                 unramified_twist)
from lfactors.exactconst import ExactConst
from lfactors.fields import LocalField, SquareClass, UnsupportedFieldError
from lfactors.mero import MeroExpr, format_expr, max_rel_error, mero_mul
from lfactors.ratfunc import as_rational_in_X
from lfactors.tate import (eps_at_half, gauss_sum, tate_L, tate_eps,
                           tate_gamma)

Q5 = LocalField.padic(5)
R = LocalField.real()
psi5 = AddCharacter.standard(Q5)
psiR = AddCharacter.standard(R)


def test_tate_L_examples():
    assert format_expr(tate_L(MultCharacter.trivial(Q5))) == "Lnf(5; 1; s)"
    assert format_expr(tate_L(MultCharacter.sign(R))) == "GammaR(s+1)"
    chi_p = MultCharacter(Q5, SquareClass(Q5, "p"))
    assert tate_L(chi_p) == MeroExpr.one()


def test_tate_eps_examples():
    assert eps_at_half(MultCharacter.sign(R), psiR) == ExactConst.i()
    assert tate_eps(MultCharacter.sign(R), psiR) == MeroExpr.const(ExactConst.i())
    assert tate_eps(MultCharacter.trivial(Q5), psi5) == MeroExpr.one()
    chi_p = MultCharacter(Q5, SquareClass(Q5, "p"))
    eps = eps_at_half(chi_p, psi5)
    val = eps.to_complex()
    assert abs(abs(val) - 1) < 1e-12
    chi_m1 = complex(1)  # chi_p(-1) = (-1, p)_5 = legendre(-1, 5) = +1
    assert abs(val * val - chi_m1) < 1e-12


def test_gauss_sum_literal():
    assert gauss_sum(5) == ExactConst(Fraction(1), 0, frozenset([5]))
    assert gauss_sum(7) == ExactConst(Fraction(1), 1, frozenset([7]))  # i sqrt 7
    odd_primes = [p for p in range(3, 500) if all(p % d for d in range(2, p))]
    assert len(odd_primes) == 94
    for p in odd_primes:  # the float reference: sum_x (x/p) e^{2 pi i x/p}, added up
        literal = sum((1 if pow(x, (p - 1) // 2, p) == 1 else -1) * cmath.exp(2j * cmath.pi * x / p)
                      for x in range(1, p))
        assert abs(literal - gauss_sum(p).to_complex()) < 1e-10 * p ** 0.5, p


def test_ramified_epsilon_with_complex_z_carries_no_gauss_rounding():
    """g / sqrt p is 1 or i exactly (p = 1 or 3 mod 4), so with a complex
    chi(pi) the constant of epsilon(s, chi, psi) = c q^-s is chi(pi) sqrt p
    or i chi(pi) sqrt p to the last bit."""
    for p, unit in ((5, 1), (13, 1), (3, 1j), (7, 1j)):
        F = LocalField.padic(p)
        chi = MultCharacter(F, SquareClass(F, "p"), 2j)
        chi_pi = char_eval(MultCharacter(F, chi.quad, chi.z, 0), Fraction(p))
        assert tate_eps(chi, AddCharacter.standard(F)).prefactor == unit * chi_pi * p ** 0.5, p


def test_ramified_needs_residue_degree_one():
    F9 = LocalField.padic(3, 2)
    chi = MultCharacter(F9, SquareClass(F9, "p"))
    with pytest.raises(UnsupportedFieldError):
        tate_eps(chi, AddCharacter.standard(F9))


def test_tate_gamma_real_examples():
    g1 = tate_gamma(MultCharacter.trivial(R), psiR)
    assert format_expr(g1) == "GammaR(-s+1) / GammaR(s)"
    gs = tate_gamma(MultCharacter.sign(R), psiR)
    assert format_expr(gs) == "i * GammaR(-s+2) / GammaR(s+1)"


def test_tate_gamma_nonarch_fe():
    for name in ("1", "u", "p", "up"):
        chi = MultCharacter(Q5, SquareClass(Q5, name))
        g = tate_gamma(chi, psi5)
        gd = tate_gamma(char_inverse(chi), psi5.inverse()).subst(-1, 1)
        assert as_rational_in_X(mero_mul(g, gd), 5).is_one
    # gamma(s)*gamma(1-s) = 1 for the trivial character with the same psi
    g = tate_gamma(MultCharacter.trivial(Q5), psi5)
    assert as_rational_in_X(mero_mul(g, g.subst(-1, 1)), 5).is_one


def test_twisted_gamma_is_shift():
    chi = unramified_twist(MultCharacter.trivial(Q5), Fraction(3, 2))
    assert tate_gamma(chi, psi5) == tate_gamma(MultCharacter.trivial(Q5), psi5).subst(
        1, Fraction(3, 2))


@pytest.mark.parametrize("name", ["1", "u", "p", "up"])
@pytest.mark.parametrize("a", [Fraction(-1), Fraction(2), Fraction(5), Fraction(2, 5)])
def test_psi_scaling_rule(name, a):
    chi = MultCharacter(Q5, SquareClass(Q5, name), -1, Fraction(1, 2))
    from lfactors.tate import _psi_scale
    lhs = tate_gamma(chi, psi5.rescale(a))
    rhs = mero_mul(_psi_scale(chi, a), tate_gamma(chi, psi5))
    assert as_rational_in_X(mero_mul(lhs, rhs.inv()), 5).is_one


def test_real_fe_numeric():
    for chi in (MultCharacter.trivial(R), MultCharacter.sign(R),
                unramified_twist(MultCharacter.sign(R), Fraction(1, 2))):
        g = tate_gamma(chi, psiR)
        gd = tate_gamma(char_inverse(chi), psiR.inverse()).subst(-1, 1)
        assert max_rel_error(mero_mul(g, gd), MeroExpr.one()) < 1e-9


def test_eps_modulus_on_critical_line():
    for name in ("p", "up"):
        chi = MultCharacter(Q5, SquareClass(Q5, name))
        val = eps_at_half(chi, psi5)
        assert abs(abs(val.to_complex()) - 1) < 1e-12
