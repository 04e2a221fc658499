"""Local field descriptors, valuations, square classes and Hilbert symbols.

Fields are either the real numbers or a p-adic field with odd residue
characteristic, described by (p, f) with residue cardinality q = p^f.
Field elements are nonzero rationals; for f > 1 this restricts inputs to
the Q_p-rational subgroup, which covers every Gram matrix and norm value
in scope.  On the nonarchimedean paths `_split` reads a rational once, as
its valuation and the integers n, d prime to p of its unit part, and the
residue symbol is the Legendre symbol of n d: no Fraction is built, raised
to a power or divided there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exactconst import factorization
from .memo import MemoKey

Rational = Union[int, Fraction]


class UnsupportedFieldError(ValueError):
    """Raised for fields outside scope (p = 2, composite p, ...)."""


class UnsupportedOperationError(ValueError):
    """Raised when an operation does not exist over the given field."""


@dataclass(frozen=True)
class LocalField:
    """R or a p-adic field of odd residue characteristic."""

    kind: str  # "real" | "nonarch"
    p: int | None = None
    f: int = 1
    memo_key = MemoKey()

    def __post_init__(self):
        if self.kind == "real":
            if self.p is not None:
                raise UnsupportedFieldError("the real field carries no (p, f)")
        elif self.kind == "nonarch":
            if self.p is None or self.p < 2 or factorization(self.p) != ((self.p, 1),):
                raise UnsupportedFieldError(f"residue characteristic {self.p} is not prime")
            if self.p == 2:
                raise UnsupportedFieldError("residue characteristic 2 is out of scope")
            if self.f < 1:
                raise UnsupportedFieldError(f"residue degree must be >= 1, got {self.f}")
        else:
            raise UnsupportedFieldError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def real() -> "LocalField":
        return LocalField("real")

    @staticmethod
    def padic(p: int, f: int = 1) -> "LocalField":
        return LocalField("nonarch", p, f)

    @property
    def is_real(self) -> bool:
        return self.kind == "real"

    @property
    def q(self) -> int:
        """Residue field cardinality p^f."""
        if self.is_real:
            raise UnsupportedOperationError("residue cardinality of an archimedean field")
        return self.p ** self.f

    def __str__(self):
        if self.is_real:
            return "R"
        return f"Q_{self.p}" if self.f == 1 else f"Q_{self.p}(f={self.f})"


def as_fraction(x: Rational) -> Fraction:
    v = x if type(x) is Fraction else Fraction(x)
    if v == 0:
        raise ValueError("field elements must be nonzero")
    return v


def _split(field: LocalField, x: Rational) -> tuple[int, int, int]:
    """(ord_p x, n, d) with x = p^ord n / d and n, d prime to p: the one read
    of a nonzero rational on the nonarchimedean paths, on ints alone."""
    if field.is_real:
        raise UnsupportedOperationError("valuation is undefined over R")
    n, d = (x if type(x) is int or type(x) is Fraction else as_fraction(x)).as_integer_ratio()
    if not n:
        raise ValueError("field elements must be nonzero")
    p, ord_ = field.p, 0
    while n % p == 0:
        n //= p
        ord_ += 1
    while d % p == 0:
        d //= p
        ord_ -= 1
    return ord_, n, d


def valuation(field: LocalField, x: Rational) -> int:
    """ord_p of a nonzero rational, seen inside the nonarchimedean field."""
    return _split(field, x)[0]


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _residue(field: LocalField, n: int, d: int) -> int:
    """Quadratic residue symbol in F_q of the unit n / d, n and d prime to p:
    legendre(n d)^f, as legendre(1/d) = legendre(d) and the norm map collapses
    x^{(q-1)/2} to (x^{(p-1)/2})^{1+p+...+p^{f-1}} on Q_p-rational units."""
    return _legendre(n * d, field.p) if field.f % 2 else 1


def _eps(field: LocalField) -> bool:
    """(q - 1) / 2 mod 2: whether -1 is a nonsquare in F_q."""
    return field.q % 4 == 3


# Square-class representatives.  Nonarch classes are indexed by a pair of
# bits (unit nonsquare?, odd valuation?); real classes by the sign.
_NONARCH_NAMES = {(0, 0): "1", (1, 0): "u", (0, 1): "p", (1, 1): "up"}
_NONARCH_BITS = {v: k for k, v in _NONARCH_NAMES.items()}


@dataclass(frozen=True)
class SquareClass:
    """An element of F^x / (F^x)^2 in canonical form."""

    field: LocalField
    name: str  # "1"/"-1" (real), "1"/"u"/"p"/"up" (nonarch)
    memo_key = MemoKey()

    def __post_init__(self):
        valid = ("1", "-1") if self.field.is_real else ("1", "u", "p", "up")
        if self.name not in valid:
            raise ValueError(f"bad square class {self.name!r} for {self.field}")

    @property
    def is_trivial(self) -> bool:
        return self.name == "1"

    @property
    def bits(self) -> tuple[int, int]:
        if self.field.is_real:
            raise UnsupportedOperationError("no (u, p) bits over R")
        return _NONARCH_BITS[self.name]

    @property
    def is_ramified(self) -> bool:
        """Whether the attached quadratic character is ramified (odd valuation part)."""
        if self.field.is_real:
            return False
        return self.bits[1] == 1

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if other.field != self.field:
            raise ValueError("square classes live over different fields")
        if self.field.is_real:
            sign = 1 if self.name == other.name else -1
            return SquareClass(self.field, "1" if sign == 1 else "-1")
        b1, b2 = self.bits, other.bits
        return SquareClass(self.field, _NONARCH_NAMES[(b1[0] ^ b2[0], b1[1] ^ b2[1])])

    def representative(self) -> Fraction:
        """A rational representative, when one exists."""
        if self.field.is_real:
            return Fraction(1 if self.name == "1" else -1)
        ubit, pbit = self.bits
        if ubit and self.field.f % 2 == 0:
            raise UnsupportedOperationError(
                "the nonsquare-unit class has no Q_p-rational representative when f is even"
            )
        u = nonsquare_unit(self.field) if ubit else 1
        return Fraction(u * (self.field.p if pbit else 1))

    def __str__(self):
        return self.name


def nonsquare_unit(field: LocalField) -> int:
    """The canonical nonsquare unit: smallest positive nonsquare mod p (f odd)."""
    p = field.p
    for u in range(2, p):
        if _legendre(u, p) == -1:
            return u
    raise AssertionError("no quadratic nonresidue found")  # unreachable for odd p


def square_class(field: LocalField, x: Rational) -> SquareClass:
    """Canonical representative of x modulo squares."""
    if field.is_real:
        return SquareClass(field, "1" if as_fraction(x) > 0 else "-1")
    ord_, n, d = _split(field, x)
    return SquareClass(field, _NONARCH_NAMES[(_residue(field, n, d) == -1, ord_ % 2)])


def hilbert_symbol(field: LocalField, a: Rational, b: Rational) -> int:
    """The Hilbert symbol (a,b)_F, by sign inspection over R and the tame
    formula (valuations and residue symbols) over p-adic fields of odd p."""
    if field.is_real:
        av, bv = as_fraction(a), as_fraction(b)
        return -1 if (av < 0 and bv < 0) else 1
    (alpha, an, ad), (beta, bn, bd) = _split(field, a), _split(field, b)
    sym = -1 if alpha * beta * _eps(field) % 2 else 1
    if beta % 2:
        sym *= _residue(field, an, ad)
    if alpha % 2:
        sym *= _residue(field, bn, bd)
    return sym


def hilbert_pair_class(field: LocalField, x: Rational, d: SquareClass) -> int:
    """(x, d)_F for a square class d, without needing a rational lift of d."""
    if d.field != field:
        raise ValueError("square class over a different field")
    if field.is_real:
        return -1 if (d.name == "-1" and as_fraction(x) < 0) else 1
    ubit, pbit = d.bits
    alpha, n, den = _split(field, x)
    sym = -1 if alpha * (ubit + pbit * _eps(field)) % 2 else 1  # the unit, then the uniformizer factor
    return sym * _residue(field, n, den) if pbit else sym
