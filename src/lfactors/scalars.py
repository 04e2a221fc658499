"""Exact-or-complex scalars: the one place that decides exactness.

An int, Fraction or ExactConst is exact; a complex or float operand makes
the result a complex number, computed as complex(x) op complex(y) in the
operand order given.  Exact arithmetic stays in the operands' own types
(rationals stay rationals; a product with an ExactConst is an ExactConst).
add and sub take rationals or complex numbers.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .exactconst import ExactConst

# exact types by identity: a set lookup is cheaper than isinstance, which
# runs Fraction's ABC check on every complex operand
_RATIONAL = frozenset({Fraction, int})
_EXACT = _RATIONAL | {ExactConst}


def is_exact(x) -> bool:
    return type(x) in _EXACT


def exact_or_complex(v):
    """v as a Fraction if it is an int or Fraction, or a float or complex equal
    to an integer; else as a complex.  A Fraction is returned as it is."""
    if type(v) is Fraction:
        return v
    if type(v) is int:
        return Fraction(v)
    v = complex(v)
    return Fraction(int(v.real)) if v.imag == 0 and v.real.is_integer() else v


def add(x, y):
    if type(x) in _EXACT and type(y) in _EXACT:
        return x + y
    return complex(x) + complex(y)


def sub(x, y):
    if type(x) in _EXACT and type(y) in _EXACT:
        return x - y
    return complex(x) - complex(y)


def neg(x):
    return -x if type(x) in _EXACT else -complex(x)


def mul(x, y):
    if type(x) in _EXACT and type(y) in _EXACT:
        return x * y
    return complex(x) * complex(y)


def inv(x):
    if type(x) is ExactConst:
        return x.inverse()
    return 1 / Fraction(x) if type(x) in _RATIONAL else 1 / complex(x)


def power(x, k: int):
    """x ** k for an int k."""
    if type(x) is int:
        x = Fraction(x)  # int ** -1 is a float
    return x ** k if type(x) in _EXACT else complex(x) ** k


def is_half_integer(e) -> bool:
    """Whether e is an exact half-integer, so that rat_power(base, e) is exact."""
    return type(e) in _RATIONAL and e.denominator <= 2


def rat_power(base, e):
    """base ** e for a positive rational base: exact when e is a half-integer;
    a base outside the float range is logged as log(numerator) - log(denominator)."""
    if is_half_integer(e):
        return ExactConst.half_power(base, int(2 * e))
    try:
        log = cmath.log(float(base))
    except (OverflowError, ValueError):  # float(base) overflowed or became 0.0
        log = math.log(base.numerator) - math.log(base.denominator)
    return cmath.exp(complex(e) * log)
