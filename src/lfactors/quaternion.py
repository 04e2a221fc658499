"""Exact quaternion arithmetic and matrix reduced norms.

A quaternion algebra is presented by (a, b): i^2 = a, j^2 = b, k = ij = -ji,
with rational structure constants.  A Quaternion holds four Fractions.  A
QuatMatrix holds integer coordinates over one positive common denominator,
in lowest terms, and its linear algebra never leaves Python ints: products
and the regular representation share one integer left-multiplication table,
and determinants use fraction-free (Bareiss) elimination over Z, or over
Z[sqrt A] with A = num(a) den(a), where every division is exact.  The
reduced norm of a matrix is the determinant of its splitting embedding into
2x2 blocks over Z[sqrt A] (over Z when a is a rational square), built
straight from the coordinates; its sqrt-part must vanish, which is asserted.
Quaternion entries of a matrix are built only when asked for.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .fields import LocalField, hilbert_symbol
from .memo import MemoKey


@dataclass(frozen=True)
class QuaternionAlgebra:
    base: LocalField
    a: Fraction
    b: Fraction
    memo_key = MemoKey()

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

    @property
    def is_zero(self) -> bool:
        return not (self.x0 or self.x1 or self.x2 or self.x3)

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x0, self.x1, self.x2, self.x3)

    def __str__(self):
        names = ("", "i", "j", "k")
        parts = [f"{c}{n}" for c, n in zip(self.coords(), names) if c]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class QuatMatrix:
    """X = coords / d: a tuple of rows of integer coordinate 4-tuples over one
    positive denominator d, brought to lowest terms (gcd(d, every coordinate)
    = 1) on construction, so that equal matrices over one algebra have equal
    fields.  from_rows builds one from quaternions and rationals; entries and
    [i, j] build Quaternions on demand."""
    alg: QuaternionAlgebra
    d: int
    coords: tuple[tuple[tuple[int, int, int, int], ...], ...]
    memo_key = MemoKey()

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("a quaternion matrix needs a positive denominator")
        g = math.gcd(self.d, *(c for row in self.coords for x in row for c in x))
        if g > 1:
            object.__setattr__(self, "d", self.d // g)
            object.__setattr__(self, "coords", tuple(
                tuple(tuple(c // g for c in x) for x in row) for row in self.coords))

    @staticmethod
    def from_rows(alg: QuaternionAlgebra, rows) -> "QuatMatrix":
        ents = [[r if isinstance(r, Quaternion) else alg.element(r) for r in row] for row in rows]
        if len({len(r) for r in ents}) > 1:
            raise ValueError("ragged matrix")
        if any(x.alg != alg for row in ents for x in row):
            raise ValueError("quaternions from different algebras")
        d = math.lcm(*(c.denominator for row in ents for x in row for c in x.coords()))
        return QuatMatrix(alg, d, tuple(
            tuple(tuple(c.numerator * (d // c.denominator) for c in x.coords()) for x in row)
            for row in ents))

    @property
    def rows(self) -> int:
        return len(self.coords)

    @property
    def cols(self) -> int:
        return len(self.coords[0]) if self.coords else 0

    def __getitem__(self, ij) -> Quaternion:
        return Quaternion(self.alg, *(Fraction(c, self.d) for c in self.coords[ij[0]][ij[1]]))

    def __mul__(self, other: "QuatMatrix") -> "QuatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        if self.alg != other.alg:
            raise ValueError("quaternions from different algebras")
        # column j of the product is left multiplication by self on column j of other
        den, L = _left_mult_rows(self)
        cols = [[c for x in col for c in x] for col in zip(*other.coords)]
        return QuatMatrix(self.alg, den * other.d, tuple(
            tuple(tuple(sum(map(operator.mul, r, col)) for r in L[4 * i:4 * i + 4])
                  for col in cols)
            for i in range(self.rows)))

    def conj_transpose(self) -> "QuatMatrix":
        """^t X^* (transpose with the main involution entrywise)."""
        return QuatMatrix(self.alg, self.d, tuple(
            tuple((x0, -x1, -x2, -x3) for x0, x1, x2, x3 in col) for col in zip(*self.coords)))

    def __neg__(self) -> "QuatMatrix":
        return QuatMatrix(self.alg, self.d, tuple(
            tuple(tuple(-v for v in x) for x in row) for row in self.coords))


def split_embedding(X: QuatMatrix) -> tuple[int, int, list[list[tuple[int, int]]]]:
    """(A, s, M): the splitting embedding 1 -> I, i -> diag(sqrt a, -sqrt a),
    j -> [[0, 1], [b, 0]] applied entrywise to X, as the 2n x 2n matrix M / s
    over Z[sqrt A] with A = num(a) den(a), so that sqrt a = sqrt A / den(a);
    an entry (u, v) of M stands for u + v sqrt A.  det(M) / s^(2n) = Nrd(X)."""
    a, b = X.alg.a, X.alg.b
    ad, bd, bn = a.denominator, b.denominator, b.numerator
    c, e = ad * bd, ad * bn
    M = []
    for row in X.coords:
        M.append([z for x0, x1, x2, x3 in row for z in ((c * x0, bd * x1), (c * x2, bd * x3))])
        M.append([z for x0, x1, x2, x3 in row for z in ((e * x2, -bn * x3), (c * x0, -bd * x1))])
    return a.numerator * ad, X.d * c, M


def matrix_reduced_norm(X: QuatMatrix) -> Fraction:
    """Reduced norm of a square quaternion matrix: the determinant of its
    splitting embedding, over Z when a is a rational square (then A is an
    integer square) and over Z[sqrt A] otherwise."""
    if X.rows != X.cols:
        raise ValueError("reduced norm of a nonsquare matrix")
    A, s, M = split_embedding(X)
    if A > 0 and (root := math.isqrt(A)) ** 2 == A:  # the embedding is rational
        return Fraction(_bareiss_det([[u + v * root for u, v in row] for row in M]), s ** len(M))
    det_u, det_v = _bareiss_det(M, A)
    if det_v != 0:
        raise ArithmeticError(
            "internal inconsistency: reduced norm has a residual sqrt component")
    return Fraction(det_u, s ** len(M))


def rational_det(mat) -> Fraction:
    """Determinant of a square rational matrix: denominators are cleared
    once and the integer matrix is eliminated fraction-free."""
    D = math.lcm(*(x.denominator for row in mat for x in row))
    ints = [[x.numerator * (D // x.denominator) for x in row] for row in mat]
    return Fraction(_bareiss_det(ints), D ** len(mat))


def _bareiss_det(mat, A: int | None = None):
    """Determinant over Z (A None: int entries), or over Z[sqrt A] for a
    non-square A (entries and result are pairs (u, v) = u + v sqrt A), by
    fraction-free Bareiss elimination (Geddes, Czapor and Labahn,
    Algorithms for Computer Algebra, 1992, ch. 9).  Each updated entry is a
    minor of the matrix, so every division by the previous pivot is exact;
    in Z[sqrt A] it multiplies by the pivot's conjugate and divides the
    integer norm."""
    if A is None:
        zero, prev = 0, 1

        def eliminate(row, top, prev):  # row[1:] * p - row[0] * top[1:], over prev
            p, f = top[0], row[0]
            return [(x * p - f * y) // prev for x, y in zip(row[1:], top[1:])]
    else:
        zero, prev = (0, 0), (1, 0)

        def eliminate(row, top, prev):
            (pu, pv), (fu, fv), (cu, cv) = top[0], row[0], prev
            nrm = cu * cu - A * cv * cv
            out = []
            for (xu, xv), (yu, yv) in zip(row[1:], top[1:]):
                tu = xu * pu + A * (xv * pv - fv * yv) - fu * yu
                tv = xu * pv + xv * pu - fu * yv - fv * yu
                out.append(((tu * cu - A * tv * cv) // nrm, (tv * cu - tu * cv) // nrm))
            return out
    rows, sign = [list(r) for r in mat], 1
    while rows:  # eliminate the first column of the remaining rows
        piv = next((i for i, r in enumerate(rows) if r[0] != zero), None)
        if piv is None:
            return zero
        if piv:
            rows[0], rows[piv] = rows[piv], rows[0]
            sign = -sign
        top = rows.pop(0)
        rows = [eliminate(r, top, prev) for r in rows]
        prev = top[0]
    if sign > 0:
        return prev
    return -prev if A is None else (-prev[0], -prev[1])


def _left_mult_rows(X: QuatMatrix) -> tuple[int, list[list[int]]]:
    """(den, M) with M / den the matrix of left multiplication by X on the
    column module D^n, on the basis (e_k times 1, i, j, k): block (i, k) is
    the 4 x 4 matrix of y -> X_ik y, in closed form in a and b."""
    a, b = X.alg.a, X.alg.b
    # 1, a, b, ab over the common denominator den(a) den(b)
    c1, ca, cb, cab = (a.denominator * b.denominator, a.numerator * b.denominator,
                       a.denominator * b.numerator, a.numerator * b.numerator)
    rows = []
    for prow in X.coords:
        blocks = [[[c1 * x0, ca * x1, cb * x2, -cab * x3],
                   [c1 * x1, c1 * x0, cb * x3, -cb * x2],
                   [c1 * x2, -ca * x3, c1 * x0, ca * x1],
                   [c1 * x3, -c1 * x2, c1 * x1, c1 * x0]] for x0, x1, x2, x3 in prow]
        rows.extend([z for blk in blocks for z in blk[r]] for r in range(4))
    return X.d * c1, rows


def regular_representation_det(X: QuatMatrix) -> Fraction:
    """Determinant of left multiplication by X on the column module D^n,
    an F-space of dimension 4n.  Equals matrix_reduced_norm(X)^2; used as
    an independent oracle."""
    if X.rows != X.cols:
        raise ValueError("square matrices only")
    den, rows = _left_mult_rows(X)
    return Fraction(_bareiss_det(rows), den ** len(rows))
