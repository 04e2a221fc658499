import math
import random
from fractions import Fraction

import pytest

from lfactors.fields import LocalField
from lfactors.quaternion import (QuatMatrix, QuaternionAlgebra, _bareiss_det,
                                 matrix_reduced_norm, rational_det,
                                 regular_representation_det, split_embedding)

Q5 = LocalField.padic(5)
R = LocalField.real()
H = QuaternionAlgebra(R, Fraction(-1), Fraction(-1))
D25 = QuaternionAlgebra(Q5, Fraction(2), Fraction(5))


class _Ext:
    """Reference arithmetic in Q(sqrt a) on Fraction pairs (u, v) = u + v sqrt(a),
    collapsed to Q when a is a rational square; division is exact (Q(sqrt a)
    or Q is a field)."""

    def __init__(self, a):
        self.a = Fraction(a)
        num, den = self.a.numerator, self.a.denominator
        rn, rd = (math.isqrt(num), math.isqrt(den)) if num > 0 else (None, None)
        square = rn is not None and (rn * rn, rd * rd) == (num, den)
        self.rational_root = Fraction(rn, rd) if square else None

    def make(self, u, v=0):
        u, v = Fraction(u), Fraction(v)
        if self.rational_root is not None and v:
            return (u + v * self.rational_root, Fraction(0))
        return (u, v)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(self, x, y):
        return self.make(x[0] * y[0] + self.a * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def neg(self, x):
        return (-x[0], -x[1])

    def inv(self, x):
        u, v = x
        if self.rational_root is not None:
            if u == 0:
                raise ZeroDivisionError
            return (1 / u, Fraction(0))
        n = u * u - self.a * v * v
        if n == 0:
            raise ZeroDivisionError
        return (u / n, -v / n)

    def is_zero(self, x) -> bool:
        return x[0] == 0 and x[1] == 0

    def zero(self):
        return (Fraction(0), Fraction(0))

    def one(self):
        return (Fraction(1), Fraction(0))


def _ref_split_embedding(x, ext: _Ext):
    """The 2x2 matrix over Q(sqrt a), on Fractions, with det = Nrd(x):
    1 -> I, i -> diag(sqrt a, -sqrt a), j -> [[0,1],[b,0]]."""
    b, e = x.alg.b, ext.make
    return [[e(x.x0, x.x1), e(x.x2, x.x3)],
            [e(b * x.x2, -b * x.x3), e(x.x0, -x.x1)]]


def _embedding_over_ext(X: QuatMatrix, ext: _Ext):
    """split_embedding(X) read as a matrix over Q(sqrt a): (u + v sqrt A) / s
    with sqrt A = den(a) sqrt a."""
    A, s, M = split_embedding(X)
    assert A == X.alg.a.numerator * X.alg.a.denominator
    return [[ext.make(Fraction(u, s), Fraction(v * X.alg.a.denominator, s)) for u, v in row]
            for row in M]


def _inverse(x):
    n = x.reduced_norm()
    if n == 0:
        raise ZeroDivisionError("zero reduced norm")
    return x.conj() * (1 / n)


def test_quat_arith_examples():
    i = H.element(0, 1)
    assert i.conj() == H.element(0, -1)
    x = H.element(1, 1, 1, 1)
    assert x.reduced_norm() == 4
    assert H.element(3, 2).reduced_trace() == 6
    y = _inverse(x)
    assert x * y == H.one()
    with pytest.raises(ZeroDivisionError):
        alg = QuaternionAlgebra(Q5, Fraction(1), Fraction(1))
        _inverse(alg.element(1, 1))  # Nrd = 1 - 1 = 0


def test_split_embedding_is_multiplicative_and_norm_compatible():
    """The integer embedding of a 1 x 1 matrix is the Fraction reference
    embedding of its entry, multiplicative, with determinant Nrd."""
    rng = random.Random(11)
    for alg in (H, D25, QuaternionAlgebra(Q5, Fraction(9, 4), Fraction(-3, 7))):
        ext = _Ext(alg.a)
        emb = lambda x: _embedding_over_ext(QuatMatrix.from_rows(alg, [[x]]), ext)
        assert emb(alg.one()) == [[ext.one(), ext.zero()], [ext.zero(), ext.one()]]
        i_img = emb(alg.element(0, 1))
        det_i = ext.sub(ext.mul(i_img[0][0], i_img[1][1]), ext.mul(i_img[0][1], i_img[1][0]))
        assert det_i == ext.make(-alg.a)
        for _ in range(20):
            x = alg.element(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)))
            y = alg.element(*(rng.randint(-5, 5) for _ in range(4)))
            mx, my = emb(x), emb(y)
            assert mx == _ref_split_embedding(x, ext)
            prod = [[ext.add(ext.mul(mx[0][0], my[0][jj]), ext.mul(mx[0][1], my[1][jj]))
                     for jj in range(2)],
                    [ext.add(ext.mul(mx[1][0], my[0][jj]), ext.mul(mx[1][1], my[1][jj]))
                     for jj in range(2)]]
            assert prod == emb(x * y)
            det = ext.sub(ext.mul(mx[0][0], mx[1][1]), ext.mul(mx[0][1], mx[1][0]))
            assert det == ext.make(x.reduced_norm())


def test_matrix_reduced_norm_examples():
    for alg in (H, D25):
        identity = QuatMatrix.from_rows(alg, [[int(i == j) for j in range(3)] for i in range(3)])
        assert matrix_reduced_norm(identity) == 1
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


def test_reduced_norm_past_float_square_roots():
    """a = (10^30 + 7)^2 is a perfect square past 2^106, which a float square
    root misses."""
    r = 10 ** 30 + 7
    alg = QuaternionAlgebra(Q5, Fraction(r * r), Fraction(5))
    assert alg.is_split
    X = QuatMatrix.from_rows(alg, [[alg.element(r, 1), alg.element(1)],
                                   [alg.element(2), alg.element(3)]])
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


# Reference: the Gaussian eliminations over Q and Q(sqrt a) that the
# fraction-free integer kernel replaced, and the matrix product and
# regular representation built from Quaternion products.

def _det_rational(mat) -> Fraction:
    n = len(mat)
    m = [row[:] for row in mat]
    det = Fraction(1)
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det * sign


def _det_over_ext(mat, ext: _Ext):
    n = len(mat)
    m = [row[:] for row in mat]
    det = ext.one()
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if not ext.is_zero(m[r][col])), None)
        if piv is None:
            return ext.zero()
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivval = m[col][col]
        det = ext.mul(det, pivval)
        inv = ext.inv(pivval)
        for r in range(col + 1, n):
            if ext.is_zero(m[r][col]):
                continue
            factor = ext.mul(m[r][col], inv)
            for c in range(col, n):
                m[r][c] = ext.sub(m[r][c], ext.mul(factor, m[col][c]))
    return det if sign == 1 else ext.neg(det)


def _ref_reduced_norm(X: QuatMatrix) -> Fraction:
    ext = _Ext(X.alg.a)
    n = X.rows
    big = [[ext.zero()] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            blk = _ref_split_embedding(X[i, j], ext)
            for di in range(2):
                for dj in range(2):
                    big[2 * i + di][2 * j + dj] = blk[di][dj]
    det = _det_over_ext(big, ext)
    assert det[1] == 0
    return det[0]


def _ref_matmul(X: QuatMatrix, Y: QuatMatrix) -> QuatMatrix:
    rows = [[sum((X[i, k] * Y[k, j] for k in range(X.cols)), X.alg.element(0))
             for j in range(Y.cols)] for i in range(X.rows)]
    return QuatMatrix.from_rows(X.alg, rows)


def _ref_regular_representation_det(X: QuatMatrix) -> Fraction:
    n, alg = X.rows, X.alg
    units = [alg.one()] + list(alg.gens())
    cols = []
    for j in range(n):
        for u in units:
            vec = [alg.element(0)] * n
            vec[j] = u
            image = _ref_matmul(X, QuatMatrix.from_rows(alg, [[v] for v in vec]))
            cols.append([c for i in range(n) for c in image[i, 0].coords()])
    return _det_rational([[cols[j][i] for j in range(4 * n)] for i in range(4 * n)])


KERNEL_ALGEBRAS = [QuaternionAlgebra(Q5, Fraction(a), Fraction(b)) for a, b in (
    (Fraction(3, 7), Fraction(-5, 2)),   # fractional a and b
    (Fraction(-5, 2), Fraction(3, 7)),
    (1, 3), (4, -1), (Fraction(9, 4), 5),  # a a rational square
    (2, 5), (-1, -1))]


def _random_entry(rng, alg, fractional):
    if fractional:
        return alg.element(*(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(4)))
    return alg.element(*(rng.randint(-3, 3) for _ in range(4)))


def _random_kernel_matrix(rng, alg, n):
    """A seeded n x n matrix; by turns fractional, singular (a repeated or
    zero row, or a row that is a left multiple of another) or with a zero
    (1,1) entry that makes the elimination swap rows."""
    kind = rng.randrange(5)
    rows = [[_random_entry(rng, alg, kind == 1) for _ in range(n)] for _ in range(n)]
    if n >= 2 and kind == 2:
        c = _random_entry(rng, alg, False)
        rows[1] = [c * x for x in rows[0]]
    if n >= 1 and kind == 3:
        rows[-1] = [alg.element(0)] * n
    if n >= 2 and kind == 4:
        rows[0][0] = alg.element(0)
    return QuatMatrix.from_rows(alg, rows)


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=str)
def test_kernel_against_fraction_elimination(alg):
    rng = random.Random(17)
    singular = 0
    for k in range(40):
        n = k % 4  # n = 0 included
        X = _random_kernel_matrix(rng, alg, n)
        Y = _random_kernel_matrix(rng, alg, n)
        nrd = matrix_reduced_norm(X)
        assert nrd == _ref_reduced_norm(X)
        assert regular_representation_det(X) == _ref_regular_representation_det(X)
        assert X * Y == _ref_matmul(X, Y)
        singular += nrd == 0
    assert singular >= 5


def test_matrix_product_shapes():
    X = QuatMatrix.from_rows(D25, [[D25.element(1, 2, 3, 4), D25.element(Fraction(1, 3))]])
    Y = QuatMatrix.from_rows(D25, [[D25.element(0, Fraction(-1, 2))], [D25.element(5, 0, 1)]])
    assert X * Y == _ref_matmul(X, Y) and (X * Y).rows == (X * Y).cols == 1
    assert Y * X == _ref_matmul(Y, X) and (Y * X).rows == 2
    with pytest.raises(ValueError):
        X * X
    with pytest.raises(ValueError):
        X * QuatMatrix.from_rows(H, [[1], [1]])


def _entrywise(X: QuatMatrix):
    return [[X[i, j] for j in range(X.cols)] for i in range(X.rows)]


def _scale(X: QuatMatrix, c) -> QuatMatrix:
    """c X, from the integer coordinates times c's numerator over d times its denominator."""
    c = Fraction(c)
    return QuatMatrix(X.alg, X.d * c.denominator, tuple(
        tuple(tuple(v * c.numerator for v in x) for x in row) for row in X.coords))


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=str)
def test_conj_transpose_scale_and_negation_entrywise(alg):
    rng = random.Random(29)
    for k in range(30):
        X = QuatMatrix.from_rows(alg, [[_random_entry(rng, alg, k % 2 == 0)
                                        for _ in range(k % 3 + 1)] for _ in range(k % 4)])
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        ents = _entrywise(X)
        assert _entrywise(X.conj_transpose()) == [[ents[j][i].conj() for j in range(X.rows)]
                                                  for i in range(X.cols)]
        assert _entrywise(_scale(X, c)) == [[x * c for x in row] for row in ents]
        assert _entrywise(-X) == [[-x for x in row] for row in ents]
        # lowest terms, so that equal values have equal fields
        for Y in (X, X.conj_transpose(), _scale(X, c), -X):
            assert Y.d > 0 and math.gcd(Y.d, *(v for row in Y.coords for x in row for v in x)) == 1
            assert Y == QuatMatrix.from_rows(alg, _entrywise(Y))


def test_matrix_equality_and_hash_follow_the_integer_coordinates():
    half = Fraction(1, 2)
    X = QuatMatrix.from_rows(D25, [[D25.element(Fraction(4, 2), 0, 1), 3],
                                   [D25.element(0, Fraction(-6, 3)), Fraction(10, 5)]])
    Y = QuatMatrix.from_rows(D25, [[D25.element(2, 0, 1), 3], [D25.element(0, -2), 2]])
    assert (X.d, X.coords) == (1, (((2, 0, 1, 0), (3, 0, 0, 0)), ((0, -2, 0, 0), (2, 0, 0, 0))))
    assert X == Y and hash(X) == hash(Y)
    Z = QuatMatrix.from_rows(D25, [[D25.element(half, Fraction(1, 3))]])
    assert (Z.d, Z.coords) == (6, (((3, 2, 0, 0),),))
    assert _scale(Z, 6) == QuatMatrix.from_rows(D25, [[D25.element(3, 2)]]) and _scale(Z, 6).d == 1
    assert _scale(Z, 0) == QuatMatrix.from_rows(D25, [[0]]) and _scale(Z, 0).d == 1
    inv = QuatMatrix.from_rows(D25, [[_inverse(D25.element(half, Fraction(1, 3)))]])
    assert Z * inv == QuatMatrix.from_rows(D25, [[1]]) and (Z * inv).d == 1
    other = QuaternionAlgebra(Q5, Fraction(2), Fraction(-5))
    W = QuatMatrix.from_rows(other, [[other.element(2, 0, 1), 3], [other.element(0, -2), 2]])
    assert W.coords == X.coords and W.d == X.d
    assert W != X and len({W, X}) == 2
    assert QuatMatrix(D25, 1, X.coords) == X
    # the constructor brings its coordinates to lowest terms
    assert QuatMatrix(D25, 2, (((2, 0, 0, 0),),)) == QuatMatrix.from_rows(D25, [[1]])
    assert QuatMatrix(D25, 8, (((18, 12, 0, 0),),)) == _scale(Z, Fraction(9, 2))
    for d in (0, -1):
        with pytest.raises(ValueError, match="positive denominator"):
            QuatMatrix(D25, d, (((1, 0, 0, 0),),))
    with pytest.raises(ValueError, match="different algebras"):  # not read as D25 coordinates
        QuatMatrix.from_rows(D25, [[other.element(1, 1)]])


def test_rational_det_against_fraction_elimination():
    rng = random.Random(23)
    assert rational_det([]) == 1
    for k in range(60):
        n = k % 6 + 1
        mat = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
               for _ in range(n)]
        if k % 3 == 1:
            mat[0][0] = Fraction(0)
        if k % 5 == 2 and n >= 2:
            mat[-1] = [2 * x for x in mat[0]]
        assert rational_det(mat) == _det_rational(mat)


@pytest.mark.parametrize("A", [2, -3, 10, -1])
def test_bareiss_over_quadratic_ring(A):
    """Matrices over Z[sqrt A] with determinants that have a nonzero sqrt part."""
    rng = random.Random(A)
    ext = _Ext(A)
    assert _bareiss_det([], A) == (1, 0)
    for k in range(40):
        n = k % 5 + 1
        mat = [[(rng.randint(-5, 5), rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if k % 4 == 1:
            mat[0][0] = (0, 0)
        if k % 6 == 3 and n >= 2:
            mat[1] = mat[0][:]
        want = _det_over_ext([[ext.make(u, v) for u, v in row] for row in mat], ext)
        assert _bareiss_det(mat, A) == want


def test_residual_sqrt_part_is_an_error(monkeypatch):
    """An embedding whose determinant keeps a sqrt(A) part must not be
    reported as a reduced norm."""
    import lfactors.quaternion as quaternion
    embed = quaternion.split_embedding

    def skewed(X):  # diag(x0 + x1 sqrt a, 1) for a 1 x 1 matrix (x)
        A, s, M = embed(X)
        return A, s, [[M[0][0], (0, 0)], [(0, 0), (s, 0)]]

    monkeypatch.setattr(quaternion, "split_embedding", skewed)
    X = QuatMatrix.from_rows(D25, [[D25.element(1, 1)]])
    with pytest.raises(ArithmeticError):
        matrix_reduced_norm(X)
    assert matrix_reduced_norm(QuatMatrix.from_rows(D25, [[D25.element(3)]])) == 3
