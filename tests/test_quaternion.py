import random
from fractions import Fraction

import pytest

from lfactors.fields import LocalField
from lfactors.quaternion import (QuatMatrix, QuaternionAlgebra,
                                 matrix_reduced_norm,
                                 regular_representation_det, split_embedding,
                                 SqrtExt)

Q5 = LocalField.padic(5)
R = LocalField.real()
H = QuaternionAlgebra(R, Fraction(-1), Fraction(-1))
D25 = QuaternionAlgebra(Q5, Fraction(2), Fraction(5))


def test_quat_arith_examples():
    i = H.element(0, 1)
    assert i.conj() == H.element(0, -1)
    x = H.element(1, 1, 1, 1)
    assert x.reduced_norm() == 4
    assert H.element(3, 2).reduced_trace() == 6
    y = x.inverse()
    assert x * y == H.one()
    with pytest.raises(ZeroDivisionError):
        alg = QuaternionAlgebra(Q5, Fraction(1), Fraction(1))
        alg.element(1, 1).inverse()  # Nrd = 1 - 1 = 0


def test_split_embedding_is_multiplicative_and_norm_compatible():
    rng = random.Random(11)
    for alg in (H, D25):
        ext = SqrtExt(alg.a)
        one = split_embedding(alg.one(), ext)
        assert one[0][0] == ext.one() and one[1][1] == ext.one()
        i_img = split_embedding(alg.element(0, 1), ext)
        det_i = ext.sub(ext.mul(i_img[0][0], i_img[1][1]), ext.mul(i_img[0][1], i_img[1][0]))
        assert det_i == ext.make(-alg.a)
        for _ in range(20):
            x = alg.element(*(rng.randint(-5, 5) for _ in range(4)))
            y = alg.element(*(rng.randint(-5, 5) for _ in range(4)))
            mx, my = split_embedding(x, ext), split_embedding(y, ext)
            prod = [[ext.add(ext.mul(mx[0][0], my[0][jj]), ext.mul(mx[0][1], my[1][jj]))
                     for jj in range(2)],
                    [ext.add(ext.mul(mx[1][0], my[0][jj]), ext.mul(mx[1][1], my[1][jj]))
                     for jj in range(2)]]
            assert prod == split_embedding(x * y, ext)
            det = ext.sub(ext.mul(mx[0][0], mx[1][1]), ext.mul(mx[0][1], mx[1][0]))
            assert det == ext.make(x.reduced_norm())


def test_matrix_reduced_norm_examples():
    for alg in (H, D25):
        assert matrix_reduced_norm(QuatMatrix.identity(alg, 3)) == 1
        d = QuatMatrix.from_rows(alg, [[alg.element(1, 2), alg.element(0)],
                                       [alg.element(0), alg.element(0, 0, 3, 1)]])
        want = alg.element(1, 2).reduced_norm() * alg.element(0, 0, 3, 1).reduced_norm()
        assert matrix_reduced_norm(d) == want


@pytest.mark.parametrize("alg", [QuaternionAlgebra(Q5, Fraction(-1), Fraction(-1)), D25])
def test_reduced_norm_against_regular_representation(alg):
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 3)
        X = QuatMatrix.from_rows(
            alg, [[alg.element(*(rng.randint(-3, 3) for _ in range(4)))
                   for _ in range(n)] for _ in range(n)])
        assert matrix_reduced_norm(X) ** 2 == regular_representation_det(X)


def test_reduced_norm_multiplicative():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 2)
        mk = lambda: QuatMatrix.from_rows(
            D25, [[D25.element(*(rng.randint(-3, 3) for _ in range(4)))
                   for _ in range(n)] for _ in range(n)])
        X, Y = mk(), mk()
        assert matrix_reduced_norm(X * Y) == matrix_reduced_norm(X) * matrix_reduced_norm(Y)


def test_splitness_detection():
    assert QuaternionAlgebra(Q5, Fraction(-1), Fraction(-1)).is_split
    assert not D25.is_split
    assert not H.is_split
