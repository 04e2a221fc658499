"""Exact constant subring: rationals times powers of i times square roots of primes.

Every constant the local-factor formulas produce (Kottwitz signs, central
signs, epsilon constants, Gauss sums) lies in this multiplicative subring.
It is closed under multiplication and inversion; anything else degrades to
a plain complex number, flagged by losing the ExactConst type.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


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
    root, so q = p^f costs a trial division up to sqrt(p), not up to p."""
    for k in range(2, n.bit_length()):
        if all(k % d for d in range(2, math.isqrt(k) + 1)) and (r := _iroot(n, k)) ** k == n:
            return {d: e * k for d, e in factor_int(r).items()}
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
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
        """base^{k/2} for a positive rational base."""
        base = Fraction(base)
        if base <= 0:
            raise ValueError("positive base required")
        num_den = [1, 1]
        roots: set[int] = set()
        for part, sign in ((base.numerator, 1), (base.denominator, -1)):
            for p, e in factorization(part):
                n = sign * e * k  # total exponent of p is n/2
                num_den[n < 0] *= p ** abs(n // 2)
                if n % 2:
                    roots.add(p)  # leftover sqrt(p); n//2 floored, so this adds +1/2
        return ExactConst(Fraction(*num_den), 0, frozenset(roots))

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
        rat = 1 / self.rat
        for p in self.roots:  # 1/sqrt(p) = sqrt(p)/p
            rat /= p
        return ExactConst(rat, -self.ipow, self.roots)

    def __pow__(self, k: int) -> "ExactConst":
        if k < 0:
            return self.inverse() ** (-k)
        out, b = ExactConst.one(), self
        while k:
            if k & 1:
                out = out * b
            b = b * b
            k >>= 1
        return out

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
        if self.rat == 0:
            return "0"
        rat = self.rat
        parts = (["i"] if self.ipow == 1 else []) + [f"sqrt({p})" for p in sorted(self.roots)]
        if not parts:
            return str(rat)
        body = " * ".join(parts)
        if rat == 1:
            return body
        if rat == -1:
            return "-" + body
        return f"{rat} * {body}"
