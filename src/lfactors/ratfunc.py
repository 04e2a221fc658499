"""Rational functions in X = q^{-s} with exact Q(i, sqrt p) coefficients.

Nonarchimedean local factors are rational in q^{-s}; the coefficients the
formulas generate live in the biquadratic field Q(i, sqrt p) (half-integer
argument shifts contribute sqrt q, Gauss sums contribute i and sqrt p).
A coefficient (QiSqrt) is four integers over one positive denominator, in
lowest terms, so equal values have equal fields and equal hashes.

A RatFunc keeps the numerator and denominator it was built from: products,
powers and inverses only multiply or swap polynomials, and
`as_rational_in_X` expands the whole product before anything is reduced.
The canonical form is computed once, on first access to `num`, `den` or
`str`: numerator and denominator are coprime (one Euclidean gcd over
Q(i, sqrt p), Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*,
1992, ch. 7), the lower of their two lowest exponents is 0, and the
denominator's trailing coefficient is 1; zero is 0/1. Equality never runs a
gcd: `f == g` cross-multiplies the unreduced polynomials, and `is_one`
compares the unreduced numerator with the unreduced denominator.

Inexact inputs (irrational twists) degrade the whole function to complex
coefficients. Such a function is never reduced (its canonical form is the
product as built), and equality compares coefficients to a relative 1e-9.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

from .exactconst import ExactConst, factor_int


class QiSqrt:
    """(a + b sqrt(p) + (c + d sqrt(p)) i) / n, p an odd prime.

    a, b, c, d and n > 0 are ints with gcd(a, b, c, d, n) = 1."""

    __slots__ = ("p", "a", "b", "c", "d", "n")

    def __init__(self, p: int, a=0, b=0, c=0, d=0):
        parts = [Fraction(x) for x in (a, b, c, d)]
        n = lcm(*(x.denominator for x in parts))
        self._set(p, *(x.numerator * (n // x.denominator) for x in parts), n)

    def _set(self, p, a, b, c, d, n):
        g = gcd(a, b, c, d, n)
        if g != 1:
            a, b, c, d, n = a // g, b // g, c // g, d // g, n // g
        self.p, self.a, self.b, self.c, self.d, self.n = p, a, b, c, d, n

    @classmethod
    def _of_ints(cls, p: int, a: int, b: int, c: int, d: int, n: int) -> "QiSqrt":
        """From integer parts over n > 0, not necessarily in lowest terms."""
        out = object.__new__(cls)
        out._set(p, a, b, c, d, n)
        return out

    @staticmethod
    def of(p: int, v) -> "QiSqrt":
        if isinstance(v, QiSqrt):
            if v.p != p:
                raise ValueError("mixed base primes")
            return v
        if isinstance(v, ExactConst):
            return _exact_to_qisqrt(p, v)
        return QiSqrt(p, v)

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def _key(self):
        return (self.p, self.a, self.b, self.c, self.d, self.n)

    def __eq__(self, o):
        if not isinstance(o, QiSqrt):
            return NotImplemented
        return self._key() == o._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"QiSqrt({self.p}, {self})"

    def __add__(self, o: "QiSqrt") -> "QiSqrt":
        n, m = self.n, o.n
        if n == m:
            return QiSqrt._of_ints(self.p, self.a + o.a, self.b + o.b, self.c + o.c,
                                   self.d + o.d, n)
        return QiSqrt._of_ints(self.p, self.a * m + o.a * n, self.b * m + o.b * n,
                               self.c * m + o.c * n, self.d * m + o.d * n, n * m)

    def __neg__(self) -> "QiSqrt":
        return QiSqrt._of_ints(self.p, -self.a, -self.b, -self.c, -self.d, self.n)

    def __sub__(self, o: "QiSqrt") -> "QiSqrt":
        return self + (-o)

    def __mul__(self, o: "QiSqrt") -> "QiSqrt":
        # (x + y i)(x' + y' i) with x = a + b sqrt p, y = c + d sqrt p
        p, a, b, c, d = self.p, self.a, self.b, self.c, self.d
        e, f, g, h = o.a, o.b, o.c, o.d
        return QiSqrt._of_ints(p, a * e + p * b * f - c * g - p * d * h,
                               a * f + b * e - c * h - d * g,
                               a * g + p * b * h + c * e + p * d * f,
                               a * h + b * g + c * f + d * e, self.n * o.n)

    def inverse(self) -> "QiSqrt":
        if not self:
            raise ZeroDivisionError
        # n / (x + y i) = n (x - y i) / (u + v sqrt p) with u + v sqrt p = x^2 + y^2,
        # and 1 / (u + v sqrt p) = (u - v sqrt p) / (u^2 - p v^2), a nonzero integer
        p, a, b, c, d, n = self.p, self.a, self.b, self.c, self.d, self.n
        u = a * a + p * b * b + c * c + p * d * d
        v = 2 * (a * b + c * d)
        m = u * u - p * v * v
        if m < 0:
            n, m = -n, -m
        return QiSqrt._of_ints(p, n * (a * u - p * b * v), n * (b * u - a * v),
                               n * (p * d * v - c * u), n * (c * v - d * u), m)

    def to_complex(self) -> complex:
        n, r = self.n, self.p ** 0.5
        return complex(self.a / n + self.b / n * r, self.c / n + self.d / n * r)

    def __str__(self):
        if not self:
            return "0"
        terms = []
        for coef, tag in ((self.a, ""), (self.b, f"*sqrt({self.p})"),
                          (self.c, "*i"), (self.d, f"*i*sqrt({self.p})")):
            if coef:
                terms.append(f"{Fraction(coef, self.n)}{tag}")
        return " + ".join(terms).replace("+ -", "- ")


def _exact_to_qisqrt(p: int, v: ExactConst) -> QiSqrt:
    if any(r != p for r in v.roots):
        raise ValueError(f"constant {v} does not lie in Q(i, sqrt {p})")
    parts = [0, 0, 0, 0]  # ExactConst keeps ipow in {0, 1}
    parts[2 * v.ipow + (p in v.roots)] = v.rat.numerator
    return QiSqrt._of_ints(p, *parts, v.rat.denominator)


class Poly:
    """Laurent polynomial in X over QiSqrt(p) or complex coefficients."""

    __slots__ = ("p", "coeffs", "exact")

    def __init__(self, p: int, coeffs: dict[int, object], exact: bool = True):
        self.p = p
        self.exact = exact
        coeff = (lambda v: QiSqrt.of(p, v)) if exact else _to_cx
        self.coeffs = {k: c for k, v in coeffs.items() if (c := coeff(v))}

    @staticmethod
    def const(p: int, v, exact: bool = True) -> "Poly":
        return Poly(p, {0: v}, exact)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def align(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if self.exact == other.exact:
            return self, other
        return self.to_inexact(), other.to_inexact()

    def to_inexact(self) -> "Poly":
        if not self.exact:
            return self
        return Poly(self.p, {k: v.to_complex() for k, v in self.coeffs.items()}, False)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.align(other)
        out: dict[int, object] = {}
        for k1, v1 in a.coeffs.items():
            for k2, v2 in b.coeffs.items():
                k = k1 + k2
                prod = v1 * v2
                out[k] = out[k] + prod if k in out else prod
        return Poly(a.p, out, a.exact)

    def shift(self, k: int) -> "Poly":
        return Poly(self.p, {d + k: v for d, v in self.coeffs.items()}, self.exact)

    def scale(self, v) -> "Poly":
        return self * Poly.const(self.p, v, self.exact)

    def eval(self, x: complex) -> complex:
        total = 0j
        for k, v in self.coeffs.items():
            total += _to_cx(v) * x ** k
        return total

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.align(other)
        if a.exact:
            return a.coeffs == b.coeffs
        keys = set(a.coeffs) | set(b.coeffs)
        scale = max((abs(v) for v in list(a.coeffs.values()) + list(b.coeffs.values())), default=1.0)
        return all(abs(a.coeffs.get(k, 0) - b.coeffs.get(k, 0)) <= 1e-9 * scale for k in keys)

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            cs = str(c) if isinstance(c, QiSqrt) else repr(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or "*" in cs:
                cs = f"({cs})"
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append(f"{cs}*X" if cs != "1" else "X")
            else:
                terms.append(f"{cs}*X^{k}" if cs != "1" else f"X^{k}")
        return " + ".join(terms)


def _poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Division for honest polynomials (nonnegative exponents, exact coefficients)."""
    assert a.exact and b.exact
    p = a.p
    rem = dict(a.coeffs)
    db = max(b.coeffs)
    lead = b.coeffs[db]
    lead_inv = lead.inverse()
    quo: dict[int, object] = {}
    while rem:
        da = max(rem)
        if da < db:
            break
        factor = rem[da] * lead_inv
        quo[da - db] = factor
        for k, v in b.coeffs.items():
            kk = k + da - db
            new = rem[kk] - factor * v if kk in rem else -(factor * v)
            if new:
                rem[kk] = new
            else:
                del rem[kk]
    return Poly(p, quo), Poly(p, rem)


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    lead = a.coeffs[max(a.coeffs)]
    return a.scale(lead.inverse())


class RatFunc:
    """num/den of Laurent polynomials; see the module docstring for when the
    canonical form is computed."""

    __slots__ = ("_num", "_den", "_canon")

    def __init__(self, num: Poly, den: Poly):
        num, den = num.align(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        self._num, self._den, self._canon = num, den, None

    def _canonical(self) -> tuple[Poly, Poly]:
        if self._canon is None:
            self._canon = _reduce(self._num, self._den) if self._num.exact else (self._num, self._den)
        return self._canon

    @property
    def num(self) -> Poly:
        return self._canonical()[0]

    @property
    def den(self) -> Poly:
        return self._canonical()[1]

    @staticmethod
    def const(p: int, v, exact: bool = True) -> "RatFunc":
        return RatFunc(Poly.const(p, v, exact), Poly.const(p, 1, exact))

    @staticmethod
    def one(p: int) -> "RatFunc":
        return RatFunc.const(p, 1)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self._num * other._num, self._den * other._den)

    def inv(self) -> "RatFunc":
        if self._num.is_zero:
            raise ZeroDivisionError
        return RatFunc(self._den, self._num)

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            return self.inv() ** (-k)
        out = RatFunc.one(self._num.p)
        for _ in range(k):
            out = out * self
        return out

    def eval(self, x: complex) -> complex:
        return self.num.eval(x) / self.den.eval(x)

    @property
    def is_exact(self) -> bool:
        return self._num.exact

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self._num * other._den) == (other._num * self._den)

    @property
    def is_one(self) -> bool:
        return self._num == self._den

    def __str__(self):
        ns, ds = str(self.num), str(self.den)
        if ds == "1":
            return ns
        return f"({ns}) / ({ds})"


def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Canonical form of num/den (exact): coprime, lowest exponent 0 and the
    denominator's trailing coefficient 1."""
    if num.is_zero:
        return num, Poly.const(num.p, 1)
    shift = min(min(num.coeffs), min(den.coeffs))
    num, den = num.shift(-shift), den.shift(-shift)
    g = _poly_gcd(num, den)
    if max(g.coeffs):  # nontrivial common factor
        num, _ = _poly_divmod(num, g)
        den, _ = _poly_divmod(den, g)
    inv = den.coeffs[min(den.coeffs)].inverse()
    return num.scale(inv), den.scale(inv)


def _q_power_exact(q: int, beta) -> ExactConst | complex:
    """q^{-beta}; exact when beta is a half-integer."""
    if isinstance(beta, Fraction) and beta.denominator in (1, 2):
        return ExactConst.half_power(Fraction(q), -int(2 * beta))
    return cmath.exp(-complex(beta) * cmath.log(q))


def _scalar_mul(a, b):
    """Multiply scalars, staying ExactConst while possible."""
    if isinstance(a, ExactConst) and isinstance(b, ExactConst):
        return a * b
    av = a.to_complex() if isinstance(a, ExactConst) else complex(a)
    bv = b.to_complex() if isinstance(b, ExactConst) else complex(b)
    return av * bv


def _scalar_to_coeff(p: int, v):
    """ExactConst/Fraction/complex -> QiSqrt or complex coefficient."""
    if isinstance(v, ExactConst):
        try:
            return QiSqrt.of(p, v)
        except ValueError:
            return v.to_complex()
    if isinstance(v, (int, Fraction)):
        return QiSqrt.of(p, Fraction(v))
    return complex(v)


def as_rational_in_X(expr, q: int) -> RatFunc:
    """Rewrite a purely nonarchimedean expression as a ratio of polynomials
    in X = q^{-s}; exact whenever every constant lies in Q(i, sqrt p)."""
    from .mero import (ExpAtom, GammaCAtom, GammaRAtom, LAtom, UnsupportedExpressionError,
                       _log_base)

    fac = factor_int(q)
    if len(fac) != 1:
        raise ValueError(f"residue cardinality {q} is not a prime power")
    p = next(iter(fac))

    scalar = ExactConst.one() if not isinstance(expr.prefactor, complex) else complex(expr.prefactor)
    if isinstance(expr.prefactor, ExactConst):
        scalar = expr.prefactor
    pieces: list[tuple[dict[int, object], int]] = []  # ({exp: coeff}, power)

    for atom, k in expr.atoms:
        if isinstance(atom, (GammaRAtom, GammaCAtom)):
            raise UnsupportedExpressionError("archimedean atom in rational-function form")
        if isinstance(atom, LAtom):
            if atom.q != q:
                raise UnsupportedExpressionError(f"mixed residue cardinalities {atom.q} vs {q}")
            alpha = atom.form.alpha
            if alpha.denominator != 1 or alpha == 0:
                raise UnsupportedExpressionError("L-atom argument must have integer s-slope")
            z = atom.z if not isinstance(atom.z, Fraction) else ExactConst.of(atom.z)
            coeff = _scalar_mul(z if isinstance(z, (ExactConst, complex)) else complex(z),
                                _q_power_exact(q, atom.form.beta))
            # atom = (1 - coeff X^alpha)^{-1}
            pieces.append(({0: 1, int(alpha): _neg(coeff)}, -k))
        else:
            assert isinstance(atom, ExpAtom)
            r = _log_base(atom.base, q)
            e = r * atom.form.alpha
            if e.denominator != 1:
                raise UnsupportedExpressionError("exponential atom is not integral in X")
            # base^{alpha s + beta} = q^{r beta} X^{-r alpha}
            scalar = _scalar_mul(scalar, _pow_any(_q_power_exact(q, _times(-r, atom.form.beta)), k))
            pieces.append(({-int(e) * k: 1}, 1))

    exact = isinstance(scalar, ExactConst) and all(
        not isinstance(c, complex) for poly, _ in pieces for c in poly.values())
    num = Poly.const(p, _scalar_to_coeff(p, scalar) if exact else _to_cx(scalar), exact)
    out = RatFunc(num, Poly.const(p, 1, exact))
    for coeffs, power in pieces:
        cc = {kk: (_scalar_to_coeff(p, v) if exact else _to_cx(v)) for kk, v in coeffs.items()}
        out = out * RatFunc(Poly(p, cc, exact), Poly.const(p, 1, exact)) ** power
    return out


def _neg(v):
    return -v if not isinstance(v, ExactConst) else ExactConst(-v.rat, v.ipow, v.roots)


def _to_cx(v) -> complex:
    if isinstance(v, ExactConst):
        return v.to_complex()
    if isinstance(v, QiSqrt):
        return v.to_complex()
    return complex(v)


def _pow_any(v, k: int):
    if isinstance(v, ExactConst):
        return v ** k
    return complex(v) ** k


def _times(r: Fraction, beta):
    if isinstance(beta, Fraction):
        return r * beta
    return complex(r) * complex(beta)
