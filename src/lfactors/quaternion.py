"""Exact quaternion arithmetic and matrix reduced norms.

A quaternion algebra is presented by (a, b): i^2 = a, j^2 = b, k = ij = -ji,
with rational structure constants.  Reduced norms of matrices are computed
through the splitting embedding into 2x2 matrices over Q(sqrt a) (or Q when
a is a rational square), by exact Gaussian elimination; the sqrt(a)-part of
the determinant must vanish, which is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import LocalField, hilbert_symbol


@dataclass(frozen=True)
class QuaternionAlgebra:
    base: LocalField
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("structure constants must be nonzero")

    @property
    def is_split(self) -> bool:
        return hilbert_symbol(self.base, self.a, self.b) == 1

    def element(self, x0=0, x1=0, x2=0, x3=0) -> "Quaternion":
        return Quaternion(self, Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3))

    def one(self) -> "Quaternion":
        return self.element(1)

    def gens(self) -> tuple["Quaternion", "Quaternion", "Quaternion"]:
        return self.element(0, 1), self.element(0, 0, 1), self.element(0, 0, 0, 1)

    def __str__(self):
        return f"({self.a},{self.b}/{self.base})"


@dataclass(frozen=True)
class Quaternion:
    alg: QuaternionAlgebra
    x0: Fraction
    x1: Fraction
    x2: Fraction
    x3: Fraction

    def _check(self, other: "Quaternion"):
        if self.alg != other.alg:
            raise ValueError("quaternions from different algebras")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        return Quaternion(self.alg, self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(self.alg, -self.x0, -self.x1, -self.x2, -self.x3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return self + (-other)

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Quaternion(self.alg, self.x0 * c, self.x1 * c, self.x2 * c, self.x3 * c)
        self._check(other)
        a, b = self.alg.a, self.alg.b
        p0, p1, p2, p3 = self.x0, self.x1, self.x2, self.x3
        q0, q1, q2, q3 = other.x0, other.x1, other.x2, other.x3
        return Quaternion(
            self.alg,
            p0 * q0 + a * p1 * q1 + b * p2 * q2 - a * b * p3 * q3,
            p0 * q1 + p1 * q0 - b * p2 * q3 + b * p3 * q2,
            p0 * q2 + p2 * q0 + a * p1 * q3 - a * p3 * q1,
            p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1,
        )

    __rmul__ = __mul__

    def conj(self) -> "Quaternion":
        """Main involution: fixes 1, negates i, j, k."""
        return Quaternion(self.alg, self.x0, -self.x1, -self.x2, -self.x3)

    def reduced_trace(self) -> Fraction:
        return 2 * self.x0

    def reduced_norm(self) -> Fraction:
        a, b = self.alg.a, self.alg.b
        return (self.x0 ** 2 - a * self.x1 ** 2 - b * self.x2 ** 2
                + a * b * self.x3 ** 2)

    def inverse(self) -> "Quaternion":
        n = self.reduced_norm()
        if n == 0:
            raise ZeroDivisionError("zero reduced norm")
        return self.conj() * Fraction(1, 1) * (Fraction(1) / n)

    @property
    def is_zero(self) -> bool:
        return not (self.x0 or self.x1 or self.x2 or self.x3)

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x0, self.x1, self.x2, self.x3)

    def __str__(self):
        names = ("", "i", "j", "k")
        parts = [f"{c}{n}" for c, n in zip(self.coords(), names) if c]
        return " + ".join(parts) if parts else "0"


class SqrtExt:
    """Q(sqrt a) as pairs (u, v) = u + v sqrt(a); collapses to Q when a is
    a rational square.  Division is exact (field in both cases)."""

    def __init__(self, a: Fraction):
        self.a = Fraction(a)
        root = _rational_sqrt(self.a)
        self.rational_root = root  # None when a is not a rational square

    def make(self, u, v=0) -> tuple[Fraction, Fraction]:
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


def _rational_sqrt(a: Fraction) -> Fraction | None:
    if a <= 0:
        return None
    num, den = a.numerator, a.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int) -> int | None:
    r = int(n ** 0.5)
    for c in (r - 1, r, r + 1):
        if c >= 0 and c * c == n:
            return c
    return None


def split_embedding(x: Quaternion, ext: SqrtExt | None = None):
    """2x2 matrix over Q(sqrt a) with det = Nrd(x):
    1 -> I, i -> diag(sqrt a, -sqrt a), j -> [[0,1],[b,0]]."""
    alg = x.alg
    ext = ext or SqrtExt(alg.a)
    b = alg.b
    e = ext.make
    return [
        [e(x.x0, x.x1), e(x.x2, x.x3)],
        [e(b * x.x2, -b * x.x3), e(x.x0, -x.x1)],
    ]


@dataclass(frozen=True)
class QuatMatrix:
    alg: QuaternionAlgebra
    entries: tuple[tuple[Quaternion, ...], ...]

    @staticmethod
    def from_rows(alg: QuaternionAlgebra, rows) -> "QuatMatrix":
        ents = tuple(tuple(r if isinstance(r, Quaternion) else alg.element(r) for r in row)
                     for row in rows)
        width = {len(r) for r in ents}
        if len(width) > 1:
            raise ValueError("ragged matrix")
        return QuatMatrix(alg, ents)

    @staticmethod
    def identity(alg: QuaternionAlgebra, n: int) -> "QuatMatrix":
        return QuatMatrix.from_rows(alg, [[1 if i == j else 0 for j in range(n)]
                                          for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __mul__(self, other: "QuatMatrix") -> "QuatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.alg.element(0)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return QuatMatrix.from_rows(self.alg, out)

    def conj_transpose(self) -> "QuatMatrix":
        """^t X^* (transpose with the main involution entrywise)."""
        return QuatMatrix.from_rows(
            self.alg, [[self.entries[j][i].conj() for j in range(self.rows)]
                       for i in range(self.cols)])

    def scale(self, c) -> "QuatMatrix":
        return QuatMatrix.from_rows(self.alg, [[e * Fraction(c) for e in row]
                                               for row in self.entries])

    def __neg__(self) -> "QuatMatrix":
        return self.scale(-1)

    def __eq__(self, other):
        return isinstance(other, QuatMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)


def matrix_reduced_norm(X: QuatMatrix) -> Fraction:
    """Reduced norm of a square quaternion matrix: determinant of the
    entrywise splitting embedding, a 2n x 2n matrix over Q(sqrt a)."""
    if X.rows != X.cols:
        raise ValueError("reduced norm of a nonsquare matrix")
    alg = X.alg
    ext = SqrtExt(alg.a)
    n = X.rows
    big = [[ext.zero()] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            blk = split_embedding(X.entries[i][j], ext)
            for di in range(2):
                for dj in range(2):
                    big[2 * i + di][2 * j + dj] = blk[di][dj]
    det = _det_over_ext(big, ext)
    if det[1] != 0:
        raise ArithmeticError(
            "internal inconsistency: reduced norm has a residual sqrt component")
    return det[0]


def _det_over_ext(mat, ext: SqrtExt):
    """Determinant by exact Gaussian elimination over the field Q(sqrt a)."""
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


def regular_representation_det(X: QuatMatrix) -> Fraction:
    """Determinant of left multiplication by X on the column module D^n,
    an F-space of dimension 4n.  Equals matrix_reduced_norm(X)^2; used as
    an independent oracle."""
    if X.rows != X.cols:
        raise ValueError("square matrices only")
    n = X.rows
    alg = X.alg
    units = [alg.one()] + list(alg.gens())
    cols = []
    for j in range(n):
        for u in range(4):
            vec = [alg.element(0)] * n
            vec[j] = units[u]
            out = []
            for i in range(n):
                acc = alg.element(0)
                for k in range(n):
                    acc = acc + X.entries[i][k] * vec[k]
                out.append(acc)
            col = []
            for q in out:
                col.extend(q.coords())
            cols.append(col)
    mat = [[cols[j][i] for j in range(4 * n)] for i in range(4 * n)]
    return _det_rational(mat)


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
