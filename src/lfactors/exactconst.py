"""Exact constant subring: rationals times powers of i times square roots of primes.

Every constant the local-factor formulas produce (Kottwitz signs, central
signs, epsilon constants, Gauss sums) lies in this multiplicative subring.
It is closed under multiplication and inversion; anything else degrades to
a plain complex number, flagged by losing the ExactConst type.

The module owns the package's big integers: _int_text and _fraction_text spell
them under any int-to-str digit limit, and factor_int factors up to FACTOR_LIMIT.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache

FACTOR_LIMIT = 10 ** 12  # factor_int trial-divides up to its square root, 10^6


class UnfactorableError(ValueError):
    """An integer that factor_int refuses: see FACTOR_LIMIT."""


_DIRECT_DIGITS = sys.int_info.str_digits_check_threshold  # 640: no digit limit refuses str() below
_BIG = 10 ** _DIRECT_DIGITS


def _int_text(k: int) -> str:
    """str(k), also past the int-to-str digit limit and in subquadratic time:
    CPython 3.11's str() of an int is quadratic, so a big k is split at
    2^1024, 2^2048, 2^4096, ... and its pieces are joined in decimal, whose
    products are subquadratic and whose str() is linear and unlimited."""
    if -_BIG < k < _BIG:
        return str(k)
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
    with localcontext(Context(MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):  # exact
        powers = [Decimal(2) ** 1024]  # powers[i] = 2^(1024 * 2^i)
        while 1024 << len(powers) < k.bit_length():
            powers.append(powers[-1] * powers[-1])

        def join(k, i):  # Decimal(k) for 0 <= k < 2^(2048 * 2^i)
            if i < 0:
                return Decimal(k)
            hi = k >> (1024 << i)
            return join(hi, i - 1) * powers[i] + join(k - (hi << (1024 << i)), i - 1)
        text = str(join(abs(k), len(powers) - 1))
    return "-" + text if k < 0 else text


def _fraction_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for coprime num and den > 0, spelled by _int_text."""
    if -_BIG < num < _BIG and den < _BIG:  # the common case, in one str() or f-string
        return str(num) if den == 1 else f"{num}/{den}"
    return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)), n >= 1, by Newton's method from just above the root."""
    t = math.log2(n) / k  # 2^t to a relative 1e-12: keep 40 bits, round up
    shift = max(int(t) - 40, 0)
    x = int(2 ** (t - shift)) + 2 << shift
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def factor_int(n: int) -> dict[int, int]:
    """Prime factorisation; a perfect power r^k (k prime) is found by an integer
    root, so q = p^f costs a trial division up to sqrt(p), not up to p.  Trial division
    stops at sqrt(FACTOR_LIMIT): a cofactor still above FACTOR_LIMIT raises UnfactorableError."""
    for k in range(2, n.bit_length()):
        if all(k % d for d in range(2, math.isqrt(k) + 1)) and (r := _iroot(n, k)) ** k == n:
            return {d: e * k for d, e in factor_int(r).items()}
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d * d > FACTOR_LIMIT:
            raise UnfactorableError(f"too large to factor: trial division up to {math.isqrt(FACTOR_LIMIT):,} "
                                    f"leaves a cofactor of {n.bit_length()} bits, above {FACTOR_LIMIT:,}")
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=64)
def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """factor_int(n) as (prime, exponent) pairs, trial-divided once per process."""
    return tuple(factor_int(n).items())


class ExactConst:
    """rat * i^ipow * prod_{p in roots} sqrt(p).  A value: do not assign to its fields."""

    __slots__ = ("rat", "ipow", "roots")

    def __init__(self, rat=Fraction(1), ipow: int = 0, roots: frozenset[int] = frozenset()):
        rat = rat if type(rat) is Fraction else Fraction(rat)
        ipow %= 4
        if ipow >= 2:  # canonical form keeps ipow in {0, 1}
            rat, ipow = -rat, ipow - 2
        if not rat:
            ipow, roots = 0, frozenset()
        self.rat, self.ipow, self.roots = rat, ipow, roots

    def __repr__(self):
        return f"ExactConst(rat={self.rat!r}, ipow={self.ipow!r}, roots={self.roots!r})"

    @staticmethod
    def one() -> "ExactConst":
        return ExactConst()

    @staticmethod
    def i() -> "ExactConst":
        return ExactConst(Fraction(1), 1)

    @staticmethod
    def of(v) -> "ExactConst":
        return v if isinstance(v, ExactConst) else ExactConst(Fraction(v))

    @staticmethod
    def half_power(base: Fraction, k: int) -> "ExactConst":
        """base^{k/2} for a positive rational base n/d: for an even k a whole
        power, for an odd k base^((k-1)/2) sqrt(n d) / d, which factors n and d."""
        base = Fraction(base)
        if base <= 0:
            raise ValueError("positive base required")
        if k % 2 == 0:
            return ExactConst(base ** (k // 2))
        n, d, m = base.numerator, base.denominator, k // 2
        pairs = factorization(n) + factorization(d)
        r = math.prod(p ** (e // 2) for p, e in pairs)  # n d = r^2 prod roots
        num, den = (n ** m * r, d ** (m + 1)) if m >= 0 else (d ** -m * r, n ** -m * d)
        return ExactConst(Fraction(num, den), 0, frozenset(p for p, e in pairs if e % 2))

    def __mul__(self, other) -> "ExactConst":
        o = other if type(other) is ExactConst else ExactConst.of(other)
        if self.is_one:
            return o
        if o.is_one:
            return self
        rat = self.rat * o.rat
        for p in self.roots & o.roots:  # sqrt(p)^2 = p
            rat *= p
        return ExactConst(rat, self.ipow + o.ipow, self.roots ^ o.roots)

    __rmul__ = __mul__

    def inverse(self) -> "ExactConst":
        if self.rat == 0:
            raise ZeroDivisionError("inverse of zero constant")
        # 1/sqrt(p) = sqrt(p)/p
        return ExactConst(Fraction(self.rat.denominator, self.rat.numerator * math.prod(self.roots)),
                          -self.ipow, self.roots)

    def __pow__(self, k: int) -> "ExactConst":
        if k < 0:
            return self.inverse() ** (-k)
        # sqrt(p)^k = p^(k//2) sqrt(p)^(k%2)
        rat = Fraction(self.rat.numerator ** k * math.prod(self.roots) ** (k // 2), self.rat.denominator ** k)
        return ExactConst(rat, self.ipow * k, self.roots if k % 2 else frozenset())

    def __neg__(self) -> "ExactConst":
        return ExactConst(-self.rat, self.ipow, self.roots)

    @property
    def is_one(self) -> bool:
        return self.ipow == 0 and not self.roots and self.rat == 1

    @property
    def is_rational(self) -> bool:
        return self.ipow == 0 and not self.roots

    def to_complex(self) -> complex:
        v = complex(self.rat)
        v *= (1j) ** self.ipow
        for p in self.roots:
            v *= p ** 0.5
        return v

    __complex__ = to_complex

    def log(self) -> complex:
        """The principal log, term by term, so it is finite wherever the
        constant is nonzero, even past the float range."""
        re = math.log(abs(self.rat.numerator)) - math.log(self.rat.denominator)
        re += sum(map(math.log, self.roots)) / 2
        sign = -1 if self.rat < 0 else 1
        return complex(re, cmath.phase(sign * 1j ** self.ipow))

    def __eq__(self, other):
        if isinstance(other, ExactConst):
            return (self.rat, self.ipow, self.roots) == (other.rat, other.ipow, other.roots)
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.rat == other
        return NotImplemented

    def __hash__(self):  # a rational constant hashes as the int or Fraction it equals
        return hash(self.rat) if self.is_rational else hash((self.rat, self.ipow, self.roots))

    def __str__(self):
        rat = _fraction_text(self.rat.numerator, self.rat.denominator)
        parts = (["i"] if self.ipow == 1 else []) + [f"sqrt({p})" for p in sorted(self.roots)]
        if not parts:  # a rational, zero included
            return rat
        body = " * ".join(parts)
        return body if rat == "1" else "-" + body if rat == "-1" else f"{rat} * {body}"
