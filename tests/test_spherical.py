from fractions import Fraction

import pytest

from lfactors.characters import AddCharacter, MultCharacter
from lfactors.doubling import GLChar, Induced, TrivialRep, gamma_factor
from lfactors.fields import LocalField, SquareClass, nonsquare_unit
from lfactors.hermitian import HermitianSpace, discriminant
from lfactors.mero import MeroExpr, equals_numeric, format_expr, mero_mul
from lfactors.quaternion import QuaternionAlgebra
from lfactors.ratfunc import as_rational_in_X
from lfactors.spherical import (SphericalData, gamma_spherical, spherical_zeta,
                                xi_symmetry_holds)

Q5 = LocalField.padic(5)


def division_algebra(field):
    p = field.p
    u = nonsquare_unit(LocalField.padic(p))
    return QuaternionAlgebra(field, Fraction(u), Fraction(p))


def test_d_v_examples():
    # skew, n=1, r=0, n0=1: d^V = zeta(2s+1)
    data = SphericalData(Q5, "skew", 0, 1, (), SquareClass(Q5, "u"))
    assert format_expr(spherical_zeta(data).d_v) == "Lnf(5; 1; 2s+1)"
    # n=0: d^V = 1, product empty
    data0 = SphericalData(Q5, "skew", 0, 0, ())
    sz = spherical_zeta(data0)
    assert sz.d_v == MeroExpr.one()
    # hermitian n=2: zeta(s+m+1/2) zeta(2s+1) with m = 2
    data2 = SphericalData(Q5, "hermitian", 1, 0, (Fraction(0),))
    sz2 = spherical_zeta(data2)
    assert sz2.m_assumption == 2
    assert format_expr(sz2.d_v) == "Lnf(5; 1; s+5/2) * Lnf(5; 1; 2s+1)"


def test_zeta_kernel_conventions():
    # skew n0=0 keeps the quadratic L of the total discriminant in the
    # zeta display (the gamma formula drops it)
    data = SphericalData(Q5, "skew", 1, 0, (Fraction(0),))
    sz = spherical_zeta(data)
    assert "Lnf(5; 1; s+1/2)" in format_expr(sz.l_product)


def test_m_resolution_stable():
    # r = 0, n0 = 1 hermitian: Z = Vol(C_1), so d^V is the L-product, which
    # holds only with m = n = 1, at every q
    for F in (LocalField.padic(3), Q5, LocalField.padic(3, 2)):
        sz = spherical_zeta(SphericalData(F, "hermitian", 0, 1, ()))
        assert sz.m_assumption == 1
        assert as_rational_in_X(mero_mul(sz.l_product, sz.d_v.inv()), F.q).is_one


@pytest.mark.parametrize("ftype,n0", [("hermitian", 0), ("hermitian", 1),
                                      ("skew", 0), ("skew", 1)])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("t", [Fraction(0), 0.7])
def test_gamma_spherical_vs_multiplicativity(ftype, n0, r, t):
    F = Q5
    div = division_algebra(F)
    psi = AddCharacter.standard(F)
    triv = MultCharacter.trivial(F)
    if n0 == 0:
        kernel_space = HermitianSpace(div, ftype, 0)
        disc0 = None
    elif ftype == "hermitian":
        kernel_space = HermitianSpace.diagonal(div, "hermitian", [1])
        disc0 = None
    else:
        kernel_space = HermitianSpace.diagonal(div, "skew", [div.element(0, 1)])
        disc0 = discriminant(kernel_space)
    data = SphericalData(F, ftype, r, n0, tuple([t] * r), disc0)
    rep = Induced(tuple(GLChar(1, MultCharacter.norm_power(F, t)) for _ in range(r)),
                  TrivialRep(kernel_space))
    ratio = mero_mul(gamma_spherical(data), gamma_factor(rep, triv, psi).inv())
    if t == 0:
        assert as_rational_in_X(ratio, F.q).is_one
    else:
        assert equals_numeric(ratio, MeroExpr.one())


def test_xi_symmetry():
    for data in (SphericalData(Q5, "hermitian", 2, 1, (Fraction(0), 0.7)),
                 SphericalData(Q5, "skew", 2, 0, (Fraction(0), Fraction(1, 2)))):
        assert xi_symmetry_holds(data)


def test_spherical_validation():
    with pytest.raises(ValueError):
        SphericalData(Q5, "hermitian", 1, 2, (Fraction(0),))
    with pytest.raises(ValueError):
        SphericalData(Q5, "skew", 0, 1, ())  # missing disc0
    with pytest.raises(ValueError):
        SphericalData(LocalField.real(), "skew", 0, 0, ())
