"""Epsilon-hermitian spaces over a quaternion algebra.

A space W = H^r + W0 holds its r hyperbolic planes as a count and its kernel
W0 as a Gram matrix R = (h(v_i, v_j)) with ^tR^* = eps R; n counts all
dimensions, and the linear case (h = 0) carries neither.  The discriminant
is the square class of (-1)^n N(R), to which H^r contributes 1.  The Morita
transfer turns a space over a split algebra into a 2n-dimensional bilinear
space over F (zero / symplectic / symmetric for linear / hermitian / skew).
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exactconst import factorization
from .fields import (LocalField, SquareClass, UnsupportedOperationError,
                     hilbert_symbol, square_class)
from .memo import MemoKey, per_call
from .quaternion import (QuatMatrix, Quaternion, QuaternionAlgebra,
                         matrix_reduced_norm, rational_det)

LINEAR = "linear"
HERMITIAN = "hermitian"
SKEW = "skew"


@dataclass(frozen=True)
class HermitianSpace:
    algebra: QuaternionAlgebra
    form_type: str  # linear | hermitian | skew
    n: int
    gram: QuatMatrix | None = None  # of the kernel: n - 2 * hyperbolic rows
    hyperbolic: int = 0
    # N(gram), computed once by the degeneracy check; None without a gram
    gram_norm: Fraction | None = dataclasses.field(default=None, init=False, repr=False,
                                                   compare=False)
    memo_key = MemoKey()

    def __post_init__(self):
        if self.form_type not in (LINEAR, HERMITIAN, SKEW):
            raise ValueError(f"unknown form type {self.form_type!r}")
        n0 = self.n - 2 * self.hyperbolic  # the kernel's dimension
        if min(n0, self.hyperbolic) < 0:
            raise ValueError("dimension must be nonnegative")
        if self.form_type == LINEAR:
            if self.gram is not None or self.hyperbolic:
                raise ValueError("the linear case carries no Gram matrix and no hyperbolic planes")
            return
        if n0 == 0:
            return
        if self.gram is None:
            raise ValueError("epsilon-hermitian spaces need a Gram matrix")
        if self.gram.rows != n0 or self.gram.cols != n0:
            raise ValueError("Gram matrix has wrong dimensions")
        eps = self.eps
        flipped = self.gram.conj_transpose()
        if flipped != (self.gram if eps == 1 else -self.gram):
            raise ValueError("Gram matrix violates ^tR^* = eps R")
        object.__setattr__(self, "gram_norm", matrix_reduced_norm(self.gram))
        if self.gram_norm == 0:
            raise ValueError("degenerate Gram matrix")

    @property
    def eps(self) -> int:
        if self.form_type == LINEAR:
            raise UnsupportedOperationError("the linear case has no epsilon")
        return 1 if self.form_type == HERMITIAN else -1

    @property
    def field(self) -> LocalField:
        return self.algebra.base

    @staticmethod
    def linear(algebra: QuaternionAlgebra, m: int) -> "HermitianSpace":
        return HermitianSpace(algebra, LINEAR, m)

    @staticmethod
    def diagonal(algebra: QuaternionAlgebra, form_type: str, diag) -> "HermitianSpace":
        """Space with Gram diag(d_1, ..., d_n); entries rationals or quaternions."""
        ents = [d if isinstance(d, Quaternion) else algebra.element(d) for d in diag]
        n = len(ents)
        rows = [[ents[i] if i == j else algebra.element(0) for j in range(n)]
                for i in range(n)]
        return HermitianSpace(algebra, form_type, n, QuatMatrix.from_rows(algebra, rows))


def discriminant(space: HermitianSpace) -> SquareClass:
    """Square class of (-1)^n N(gram); 1 by convention for a kernel of dimension 0."""
    if space.form_type == LINEAR:
        raise UnsupportedOperationError("discriminant of the linear case")
    if space.gram_norm is None:
        return SquareClass(space.field, "1")
    val = Fraction(-1) ** space.n * space.gram_norm
    return square_class(space.field, val)


def kottwitz_sign(space: HermitianSpace) -> int:
    """+1 for split algebras; otherwise the sign attached to (type, n)."""
    if space.algebra.is_split:
        return 1
    n = space.n
    if space.form_type == LINEAR:
        return (-1) ** n
    if space.form_type == SKEW:
        return (-1) ** (n * (n - 1) // 2)
    return (-1) ** (n * (n + 1) // 2)


@dataclass(frozen=True)
class BilinearSpace:
    """Output of the Morita transfer: a bilinear space over F."""

    field: LocalField
    form_type: str  # zero | symplectic | symmetric
    dim: int
    gram: tuple[tuple[Fraction, ...], ...] | None

    def discriminant(self) -> SquareClass:
        if self.form_type != "symmetric":
            raise UnsupportedOperationError("discriminant of a non-symmetric transfer")
        det = rational_det(self.gram)
        half = self.dim // 2
        return square_class(self.field, Fraction(-1) ** half * det)


class MoritaError(ValueError):
    """The algebra is not split, or no rational splitting was found."""


def _isotropic_vector(alg: QuaternionAlgebra) -> Quaternion:
    """A nonzero quaternion of reduced norm zero, by bounded height search.
    The search runs only for an algebra split over Q: by Hilbert reciprocity
    (a, b) splits over Q when its symbols at R and at the odd primes of a and
    b are all 1, as the symbol at 2 is their product and the rest are 1.
    Finding those primes takes trial division, so the odd primes are tested
    only when every numerator and denominator is below 10^12 (under a
    second); above that, the real symbol and the search decide."""
    if not alg.is_split:
        raise MoritaError("algebra is not split over its base field")
    ints = [abs(n) for x in (alg.a, alg.b) for n in (x.numerator, x.denominator)]
    odd = {p for n in ints for p, _ in factorization(n) if p != 2} if max(ints) < 10 ** 12 else ()
    places = [LocalField.real(), *(LocalField.padic(p) for p in sorted(odd))]
    if any(hilbert_symbol(F, alg.a, alg.b) == -1 for F in places):
        raise MoritaError(
            "the algebra splits over the local field but not over Q, so an exact "
            "rational splitting does not exist")
    for height in range(1, 40):
        span = [Fraction(v) for v in range(-height, height + 1)]
        for x0, x1, x2, x3 in itertools.product(span, repeat=4):
            q = alg.element(x0, x1, x2, x3)
            if not q.is_zero and q.reduced_norm() == 0 and max(
                    abs(c) for c in q.coords()) == height:
                return q
    raise MoritaError("no rational norm-zero element of height below 40 found")


@per_call
def _split_iso(alg: QuaternionAlgebra):
    """An explicit algebra isomorphism D -> M_2(F): returns (phi, e, m) where
    phi maps quaternions to 2x2 rational matrices, e = phi^{-1}(E11) and
    m = phi^{-1}(E21)."""
    x = _isotropic_vector(alg)
    units = [alg.one(), *alg.gens()]
    # pick two F-independent vectors spanning the left ideal Dx
    ideal: list[Quaternion] = []
    for u in units:
        if _solve([w.coords() for w in ideal], (v := u * x).coords()) is None:
            ideal.append(v)
        if len(ideal) == 2:
            break
    if len(ideal) != 2:
        raise MoritaError("norm-zero element did not generate a 2-dimensional ideal")
    basis = [w.coords() for w in ideal]
    images = []  # phi(u), row by row, for u = 1, i, j, k: the columns of phi on F^4
    for u in units:
        # the columns of phi(u) are the coordinates of u w1 and u w2 in the ideal
        (a, c), (b, d) = (_solve(basis, (u * w).coords()) for w in ideal)
        images.append([a, b, c, d])

    def phi(qt: Quaternion):  # F-linear, so a combination of the four images
        a, b, c, d = (sum(map(operator.mul, qt.coords(), col)) for col in zip(*images))
        return [[a, b], [c, d]]

    def preimage(flat) -> Quaternion:
        return sum((u * c for u, c in zip(units, _solve(images, flat))), alg.element(0))

    return phi, preimage([1, 0, 0, 0]), preimage([0, 0, 1, 0])


def _solve(cols, target) -> list[Fraction] | None:
    """The unique x with sum_j x_j cols[j] = target, by exact Gauss-Jordan
    elimination; None when there is no such x or more than one."""
    k = len(cols)
    m = [[*(Fraction(c[i]) for c in cols), Fraction(t)] for i, t in enumerate(target)]
    for col in range(k):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [v / lead for v in m[col]]
        for r in range(len(m)):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    if any(row[k] != 0 for row in m[k:]):
        return None
    return [row[k] for row in m[:k]]


def morita_natural(space: HermitianSpace) -> BilinearSpace:
    """Transfer along D = M_2(F): the 2n-dimensional F-space Ve with the
    induced bilinear form (zero / symplectic / symmetric)."""
    alg = space.algebra
    if space.hyperbolic:
        raise MoritaError("the transfer needs the full Gram matrix, not a hyperbolic rank")
    if space.form_type == LINEAR:
        _split_iso(alg)  # raises when not rationally split
        return BilinearSpace(space.field, "zero", 2 * space.n, None)
    phi, e, m = _split_iso(alg)
    estar = e.conj()
    mstar = m.conj()
    n = space.n
    gens = [(idx, g) for idx in range(n) for g in (e, m)]
    gram = []
    for i, gi in gens:
        row = []
        gi_star = estar if gi is e else mstar
        for j, gj in gens:
            hij = space.gram[i, j]
            val = phi(gi_star * hij * gj)
            # h(x e, y e) sits in (1-e) D e, i.e. the (2,1) matrix slot
            row.append(val[1][0])
        gram.append(tuple(row))
    form_type = "symplectic" if space.eps == 1 else "symmetric"
    gram_t = tuple(gram)
    _check_transfer_symmetry(gram_t, form_type)
    return BilinearSpace(space.field, form_type, 2 * n, gram_t)


def _check_transfer_symmetry(gram, form_type):
    dim = len(gram)
    for i in range(dim):
        for j in range(dim):
            want = -gram[j][i] if form_type == "symplectic" else gram[j][i]
            if gram[i][j] != want:
                raise ArithmeticError("Morita transfer produced a form of the wrong type")
