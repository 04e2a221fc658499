"""Multiplicative and additive characters of a local field.

A multiplicative character is chi_d * nu * |.|^t where chi_d is quadratic
(attached to a square class), nu is unramified with value z at a
uniformizer, and t is a complex twist.  Over R this degenerates to
sgn^delta * |.|^t.  The nonsquare-unit quadratic class acts on F^x exactly
as the unramified character with z = -1, so constructors fold it into z
and `quad` is kept ramified-or-trivial.

The additive character is the fixed base character (e^{2 pi i x} over R,
the conductor-O character over Q_p) rescaled by a: psi_a(x) = psi(a x).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .exactconst import ExactConst
from .fields import (
    LocalField,
    Rational,
    SquareClass,
    as_fraction,
    hilbert_pair_class,
    valuation,
)
from .memo import MemoKey, per_call
from .scalars import add, exact_or_complex, inv, is_exact, mul, neg, rat_power

ComplexLike = complex | float | int | Fraction


@dataclass(frozen=True)
class MultCharacter:
    field: LocalField
    quad: SquareClass          # quadratic part; "-1" means sgn over R
    z: ComplexLike = 1         # unramified value at a uniformizer (nonarch)
    t: ComplexLike = 0         # exponent of |.|^t

    def __post_init__(self):
        if self.quad.field != self.field:
            raise ValueError("quadratic part lives over a different field")
        z, t = exact_or_complex(self.z), exact_or_complex(self.t)
        if any(type(v) is complex and not cmath.isfinite(v) for v in (z, t)):
            raise ValueError(f"z and t must be finite, got {self.z!r} and {self.t!r}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)
        if self.field.is_real:
            if self.z != 1:
                raise ValueError("real characters carry no uniformizer value")
        else:
            if self.z == 0:
                raise ValueError("unramified value must be nonzero")
            ubit, pbit = self.quad.bits
            if ubit:  # fold chi_u into the unramified part
                object.__setattr__(self, "z", exact_or_complex(-self.z))
                name = "p" if pbit else "1"
                object.__setattr__(self, "quad", SquareClass(self.field, name))

    @staticmethod
    @per_call
    def trivial(field: LocalField) -> "MultCharacter":
        return MultCharacter(field, SquareClass(field, "1"))

    @staticmethod
    def sign(field: LocalField) -> "MultCharacter":
        if not field.is_real:
            raise ValueError("sgn is a real character")
        return MultCharacter(field, SquareClass(field, "-1"))

    @staticmethod
    def norm_power(field: LocalField, t: ComplexLike) -> "MultCharacter":
        return MultCharacter(field, SquareClass(field, "1"), 1, t)

    memo_key = MemoKey()  # equal z or t of other types print apart

    @property
    def delta(self) -> int:
        """Sign exponent over R."""
        if not self.field.is_real:
            raise ValueError("delta is a real-character attribute")
        return 0 if self.quad.is_trivial else 1

    @property
    def is_ramified(self) -> bool:
        return (not self.field.is_real) and self.quad.is_ramified

    @property
    def is_quadratic(self) -> bool:
        """Whether chi^2 = 1."""
        z2 = self.z * self.z == 1 if is_exact(self.z) else abs(self.z * self.z - 1) < 1e-12
        t0 = self.t == 0
        return bool(z2 and t0) if not self.field.is_real else bool(t0)


def quadratic_character(field: LocalField, d: SquareClass) -> MultCharacter:
    """chi_d(x) = (x, d)_F, as a MultCharacter."""
    return MultCharacter(field, d)


@per_call
def char_eval(chi: MultCharacter, x: Rational) -> ExactConst | complex:
    """chi(x) as an exact constant when z and t permit, else complex."""
    x = as_fraction(x)
    if chi.field.is_real:
        sgn = -1 if (x < 0 and chi.delta) else 1
        return ExactConst.of(sgn) if chi.t == 0 else mul(sgn, rat_power(abs(x), chi.t))
    ordx = valuation(chi.field, x)
    base = ExactConst.of(hilbert_pair_class(chi.field, x, chi.quad))
    q = Fraction(chi.field.q)
    if is_exact(chi.z) and is_exact(chi.t) and (2 * chi.t * ordx).denominator == 1:
        return base * ExactConst.of(chi.z ** ordx) * ExactConst.half_power(q, int(-2 * chi.t * ordx))
    return base.to_complex() * complex(chi.z) ** ordx * cmath.exp(
        -complex(chi.t) * ordx * cmath.log(chi.field.q))


@per_call
def char_mul(a: MultCharacter, b: MultCharacter) -> MultCharacter:
    if a.field != b.field:
        raise ValueError("characters over different fields")
    z = a.z * b.z if not a.field.is_real else 1
    return MultCharacter(a.field, a.quad * b.quad, z, add(a.t, b.t))


@per_call
def char_inverse(chi: MultCharacter) -> MultCharacter:
    z = 1 if chi.field.is_real else inv(chi.z)
    return MultCharacter(chi.field, chi.quad, z, neg(chi.t))


def unramified_twist(chi: MultCharacter, s0: ComplexLike) -> MultCharacter:
    """omega |-> omega_{s0} = omega * |.|^{s0}; only t changes."""
    return MultCharacter(chi.field, chi.quad, chi.z, add(chi.t, exact_or_complex(s0)))


@dataclass(frozen=True)
class AddCharacter:
    """psi_a for the fixed base character of the field."""

    field: LocalField
    a: Fraction = Fraction(1)
    memo_key = MemoKey()

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))

    @staticmethod
    @per_call
    def standard(field: LocalField) -> "AddCharacter":
        return AddCharacter(field, Fraction(1))

    def rescale(self, b: Rational) -> "AddCharacter":
        """(psi_a)_b = psi_{ab}."""
        return AddCharacter(self.field, self.a * as_fraction(b))

    def inverse(self) -> "AddCharacter":
        """psi^{-1} = psi_{-1}-rescaled."""
        return AddCharacter(self.field, -self.a)
