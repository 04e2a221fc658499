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
    """(e, m, row21) for D = M_2(F) in closed form: e an idempotent of rank
    one, m a generator of the line (1 - e) D e, and row21[c] the coefficient
    of m in (1 - e) u e for u the c-th of 1, i, j, k, so that row21 reads a
    quaternion's E21 entry off its coordinates.  A y of reduced norm 0
    has y^2 = tr(y) y, so e = y / tr(y) for the first y = u x with tr(y) != 0,
    which exists because the trace form is nondegenerate."""
    x = _isotropic_vector(alg)
    units = [alg.one(), *alg.gens()]
    y = next(v for u in units if (v := u * x).x0 != 0)
    e = y * (1 / (2 * y.x0))
    f = alg.one() - e
    m = next(v for u in units[1:] if not (v := f * u * e).is_zero)
    c = next(c for c, w in enumerate(m.coords()) if w != 0)
    return e, m, [(f * u * e).coords()[c] / m.coords()[c] for u in units]


def morita_natural(space: HermitianSpace) -> BilinearSpace:
    """Transfer along D = M_2(F): the 2n-dimensional F-space Ve with the
    induced bilinear form (zero / symplectic / symmetric)."""
    alg = space.algebra
    if space.hyperbolic:
        raise MoritaError("the transfer needs the full Gram matrix, not a hyperbolic rank")
    if space.form_type == LINEAR:
        _split_iso(alg)  # raises when not rationally split
        return BilinearSpace(space.field, "zero", 2 * space.n, None)
    e, m, row21 = _split_iso(alg)
    gens = [(idx, g, g.conj()) for idx in range(space.n) for g in (e, m)]
    # h(v_i g, v_j g') = g^* h_ij g' lies in (1 - e) D e = F m; row21 reads its coefficient
    gram = tuple(tuple(sum(map(operator.mul, (gi_star * space.gram[i, j] * gj).coords(), row21))
                       for j, gj, _ in gens) for i, _, gi_star in gens)
    form_type = "symplectic" if space.eps == 1 else "symmetric"
    _check_transfer_symmetry(gram, form_type)
    return BilinearSpace(space.field, form_type, 2 * space.n, gram)


def _check_transfer_symmetry(gram, form_type):
    dim = len(gram)
    for i in range(dim):
        for j in range(dim):
            want = -gram[j][i] if form_type == "symplectic" else gram[j][i]
            if gram[i][j] != want:
                raise ArithmeticError("Morita transfer produced a form of the wrong type")
