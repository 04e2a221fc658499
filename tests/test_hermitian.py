import random
import time
from fractions import Fraction

import pytest

from lfactors import hermitian
from lfactors.fields import LocalField, UnsupportedOperationError, hilbert_symbol, square_class
from lfactors.hermitian import (HermitianSpace, MoritaError, discriminant,
                                kottwitz_sign, morita_natural)
from lfactors.memo import scope
from lfactors.quaternion import QuatMatrix, QuaternionAlgebra, matrix_reduced_norm, rational_det

Q5 = LocalField.padic(5)
R = LocalField.real()
H = QuaternionAlgebra(R, Fraction(-1), Fraction(-1))


def test_space_validation():
    with pytest.raises(ValueError):
        # <i> is not hermitian: (i)* = -i != i
        HermitianSpace.diagonal(H, "hermitian", [H.element(0, 1)])
    with pytest.raises(ValueError):
        HermitianSpace.diagonal(H, "skew", [1])
    HermitianSpace.diagonal(H, "skew", [H.element(0, 1)])  # fine


def test_discriminant_examples():
    V1 = HermitianSpace.diagonal(H, "hermitian", [1])
    assert discriminant(V1).name == "-1"
    Vi = HermitianSpace.diagonal(H, "skew", [H.element(0, 1)])
    assert H.element(0, 1).reduced_norm() == 1
    assert discriminant(Vi).name == "-1"
    assert discriminant(HermitianSpace(H, "hermitian", 0)).name == "1"
    with pytest.raises(UnsupportedOperationError):
        discriminant(HermitianSpace.linear(H, 2))


def test_discriminant_basis_invariance():
    rng = random.Random(9)
    alg = QuaternionAlgebra(Q5, Fraction(2), Fraction(5))
    V = HermitianSpace.diagonal(alg, "hermitian", [1, 2])
    for _ in range(10):
        P = QuatMatrix.from_rows(
            alg, [[alg.element(*(rng.randint(-2, 2) for _ in range(4)))
                   for _ in range(2)] for _ in range(2)])
        if matrix_reduced_norm(P) == 0:
            continue
        moved = HermitianSpace(alg, "hermitian", 2, P.conj_transpose() * V.gram * P)
        assert discriminant(moved) == discriminant(V)


def test_kottwitz_table():
    split = QuaternionAlgebra(Q5, Fraction(-1), Fraction(-1))
    assert kottwitz_sign(HermitianSpace.diagonal(split, "hermitian", [1])) == 1
    assert kottwitz_sign(HermitianSpace.diagonal(H, "hermitian", [1])) == -1
    assert kottwitz_sign(HermitianSpace.diagonal(H, "skew", [H.element(0, 1)])) == 1
    assert kottwitz_sign(HermitianSpace.linear(H, 1)) == -1
    assert kottwitz_sign(HermitianSpace.linear(H, 2)) == 1
    div = QuaternionAlgebra(Q5, Fraction(2), Fraction(5))
    assert kottwitz_sign(HermitianSpace.diagonal(div, "hermitian", [1, 1])) == -1
    assert kottwitz_sign(HermitianSpace.diagonal(
        div, "skew", [div.element(0, 1), div.element(0, 1)])) == -1


def test_morita_types_and_disc():
    alg = QuaternionAlgebra(Q5, Fraction(4), Fraction(3))  # rationally split
    assert alg.is_split
    lin = morita_natural(HermitianSpace.linear(alg, 2))
    assert lin.form_type == "zero" and lin.dim == 4 and lin.gram is None

    herm = morita_natural(HermitianSpace.diagonal(alg, "hermitian", [1]))
    assert herm.form_type == "symplectic" and herm.dim == 2
    assert herm.gram[0][1] == -herm.gram[1][0] and herm.gram[0][0] == 0

    for diag in ([alg.element(0, 1)], [alg.element(0, 1), alg.element(0, 0, 1)],
                 [alg.element(0, 2, 3)]):
        skew = HermitianSpace.diagonal(alg, "skew", diag)
        out = morita_natural(skew)
        assert out.form_type == "symmetric" and out.dim == 2 * skew.n
        assert out.discriminant() == discriminant(skew)


def test_morita_rejects_nonsplit_and_unrational():
    with pytest.raises(MoritaError):
        morita_natural(HermitianSpace.diagonal(H, "hermitian", [1]))
    # split over Q_5 but division over Q: no exact rational splitting
    tricky = QuaternionAlgebra(Q5, Fraction(2), Fraction(-1))
    assert tricky.is_split
    q2_split_over_Q = any(
        (x0 * x0 - 2 * x1 * x1 + x2 * x2 - 2 * x3 * x3) == 0 and (x0, x1, x2, x3) != (0, 0, 0, 0)
        for x0 in range(-2, 3) for x1 in range(-2, 3)
        for x2 in range(-2, 3) for x3 in range(-2, 3))
    assert q2_split_over_Q  # (1,1,1,0) works, so this one is fine rationally
    out = morita_natural(HermitianSpace.diagonal(tricky, "skew", [tricky.element(0, 1)]))
    assert out.form_type == "symmetric"


def test_morita_refuses_an_algebra_split_locally_but_not_over_Q_at_once():
    """(2, 5) splits over R and over Q_3 but not over Q ((2, 5)_5 = -1), so no
    rational norm-zero element exists: the transfer refuses it within 1 s
    instead of searching; the algebras verify and the demos transfer still
    split, and so does (1, b) for a b too large to factor by trial division."""
    for field in (R, LocalField.padic(3)):
        alg = QuaternionAlgebra(field, Fraction(2), Fraction(5))
        assert alg.is_split
        start = time.perf_counter()
        with pytest.raises(MoritaError, match="not over Q"):
            morita_natural(HermitianSpace.linear(alg, 1))
        assert time.perf_counter() - start < 1
    for a, b in ((4, 3), (2, -1), (1, -1), (1, (10 ** 15 + 37) * (10 ** 15 + 91))):
        alg = QuaternionAlgebra(Q5, Fraction(a), Fraction(b))
        start = time.perf_counter()
        assert morita_natural(HermitianSpace.linear(alg, 1)).form_type == "zero"
        assert time.perf_counter() - start < 1


def test_stored_reduced_norm():
    """Each space keeps N(gram) from its degeneracy check, and the
    discriminant reads it; a degenerate Gram matrix still raises."""
    rng = random.Random(5)
    alg = QuaternionAlgebra(Q5, Fraction(2), Fraction(5))
    norms = set()
    for _ in range(12):
        n = rng.randint(1, 3)
        P = QuatMatrix.from_rows(
            alg, [[alg.element(*(rng.randint(-2, 2) for _ in range(4))) for _ in range(n)]
                  for _ in range(n)])
        if matrix_reduced_norm(P) == 0:
            continue
        diag = HermitianSpace.diagonal(alg, "hermitian", [rng.randint(1, 6) for _ in range(n)])
        V = HermitianSpace(alg, "hermitian", n, P.conj_transpose() * diag.gram * P)
        assert V.gram_norm == matrix_reduced_norm(V.gram)
        assert discriminant(V) == square_class(Q5, Fraction(-1) ** n * matrix_reduced_norm(V.gram))
        norms.add(V.gram_norm)
    assert len(norms) >= 5
    assert HermitianSpace.linear(alg, 2).gram_norm is None
    with pytest.raises(ValueError, match="degenerate"):
        HermitianSpace.diagonal(alg, "hermitian", [1, 0])
    one = alg.element(1)
    with pytest.raises(ValueError, match="degenerate"):
        HermitianSpace(alg, "hermitian", 2, QuatMatrix.from_rows(alg, [[one, one], [one, one]]))


def test_gram_matrices_compare_by_their_integer_coordinates():
    """A space built from Fraction entries is the space built from the same
    values as integers, with the same memo key; equal coordinates over
    another algebra make another space.  The ^tR^* = eps R check sees
    fractional off-diagonal entries."""
    alg = QuaternionAlgebra(Q5, Fraction(2), Fraction(5))
    q = alg.element(Fraction(1, 2), Fraction(1, 3), 0, Fraction(-3, 4))
    V = HermitianSpace(alg, "hermitian", 2, QuatMatrix.from_rows(alg, [[5, q], [q.conj(), 7]]))
    assert V.gram.d == 12 and V.gram_norm == (35 - q.reduced_norm()) ** 2
    with pytest.raises(ValueError, match="eps"):
        HermitianSpace(alg, "hermitian", 2, QuatMatrix.from_rows(alg, [[5, q], [q, 7]]))
    fracs = HermitianSpace.diagonal(alg, "hermitian", [Fraction(4, 2), Fraction(-9, 3)])
    ints = HermitianSpace.diagonal(alg, "hermitian", [2, -3])
    assert fracs == ints and hash(fracs) == hash(ints) and fracs.memo_key == ints.memo_key
    other = QuaternionAlgebra(Q5, Fraction(2), Fraction(-5))
    moved = HermitianSpace.diagonal(other, "hermitian", [2, -3])
    assert moved.gram.coords == ints.gram.coords
    assert moved != ints and moved.memo_key != ints.memo_key


def _split_over_Q():
    """Every (a, b) with 1 <= |a|, |b| <= 12 that splits over Q: its Hilbert
    symbols at R and at the odd primes are 1, so by reciprocity the one at 2
    is too.  No prime of a or b is 13, so (a, b) splits over Q_13."""
    vals = [v for v in range(-12, 13) if v]
    return [(a, b) for a in vals for b in vals
            if all(hilbert_symbol(F, Fraction(a), Fraction(b)) == 1
                   for F in (R, *(LocalField.padic(p) for p in (3, 5, 7, 11) if a * b % p == 0)))]


def _draw(rng, alg, pure=False):
    return alg.element(0 if pure else Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       *(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)))


def test_closed_form_transfer_over_every_small_algebra_split_over_Q():
    """For every algebra split over Q with |a|, |b| <= 12: e is an idempotent
    other than 0 and 1, m spans (1 - e) D e, and row21 gives the coefficient
    of m in (1 - e) d e for any d.  Seeded skew spaces keep their
    discriminant through the transfer, and hermitian spaces become
    nondegenerate symplectic forms."""
    pairs, rng = _split_over_Q(), random.Random(32)
    assert len(pairs) > 200
    with scope():  # one closed form per algebra
        for a, b in pairs:
            alg = QuaternionAlgebra(LocalField.padic(13), Fraction(a), Fraction(b))
            e, m, row21 = hermitian._split_iso(alg)
            f = alg.one() - e
            assert e * e == e and not e.is_zero and not f.is_zero
            assert not m.is_zero and m * e == m and (e * m).is_zero
            for _ in range(50):
                d = _draw(rng, alg)
                assert f * d * e == m * sum(c * r for c, r in zip(d.coords(), row21))
            for form_type in ("skew", "hermitian", "skew"):
                n = rng.randint(1, 3)
                while True:
                    diag = [_draw(rng, alg, pure=True) if form_type == "skew"
                            else alg.element(rng.choice([1, 2, -3, 5, Fraction(1, 2)])) for _ in range(n)]
                    P = QuatMatrix.from_rows(alg, [[_draw(rng, alg) for _ in range(n)] for _ in range(n)])
                    if all(x.reduced_norm() != 0 for x in diag) and matrix_reduced_norm(P) != 0:
                        break
                D = HermitianSpace.diagonal(alg, form_type, diag)
                V = HermitianSpace(alg, form_type, n, P.conj_transpose() * D.gram * P)
                out = morita_natural(V)
                assert out.dim == 2 * n and rational_det(out.gram) != 0
                if form_type == "skew":
                    assert out.form_type == "symmetric" and out.discriminant() == discriminant(V)
                else:
                    assert out.form_type == "symplectic"
                    assert all(out.gram[i][j] == -out.gram[j][i] for i in range(2 * n) for j in range(2 * n))
