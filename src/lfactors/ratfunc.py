"""Rational functions in X = q^{-s} with exact Q(i, sqrt p) coefficients.

Nonarchimedean local factors are rational in q^{-s}; the coefficients the
formulas generate live in the biquadratic field Q(i, sqrt p) (half-integer
argument shifts contribute sqrt q, Gauss sums contribute i and sqrt p).
A coefficient (QiSqrt) is four integers over one positive denominator, in
lowest terms, so equal values have equal fields and equal hashes.

An exact RatFunc is kept factored, unit * X^e * prod f^k, over a pairwise
coprime basis of polynomials f with constant term 1 and nonzero integers k.
`as_rational_in_X` builds it from the Tate factors (1 - c X^a)^-k: a negative
slope is turned round, 1 - c X^a = -c X^a (1 - c^-1 X^-a), equal binomials
are merged, and a pair of factors with a nontrivial gcd is split into the gcd
and the two quotients (factor refinement: Bach, Driscoll and Shallit, J.
Algorithms 15, 1993). Binomials 1 - c X^a and 1 - d X^b share a root only
if c^(b/h) = d^(a/h), h = gcd(a, b), for a common root x has x^(ab/h) equal
to c^(-b/h) and to d^(-a/h); a pair that fails this root test is coprime
without a gcd (distinct binomials of one degree always fail it). Products
and inverses merge bases and negate exponents. The canonical form then needs
no gcd: the numerator is unit * X^max(e,0) times the factors with k > 0, the
denominator X^max(-e,0) times those with k < 0; they are coprime, the lower
of their two lowest exponents is 0 and the denominator's trailing
coefficient is 1 (zero is 0/1). Both are expanded on first access to `num`,
`den` or `str`. `f == g` refines f / g, which is 1 exactly when unit 1,
e = 0 and an empty basis are left.

Inexact inputs (irrational twists) degrade the whole function to complex
coefficients. Such a function keeps the numerator and denominator of the
product as built, and equality compares coefficients to a relative 1e-9.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactconst import ExactConst, factorization
from .scalars import is_exact, mul, neg, power, rat_power


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

    def __pow__(self, k: int) -> "QiSqrt":
        base, out = self if k >= 0 else self.inverse(), QiSqrt._of_ints(self.p, 1, 0, 0, 0, 1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def to_complex(self) -> complex:
        n, r = self.n, self.p ** 0.5
        return complex(self.a / n + self.b / n * r, self.c / n + self.d / n * r)

    __complex__ = to_complex

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
        coeff = (lambda v: QiSqrt.of(p, v)) if exact else complex
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

    def scale(self, v) -> "Poly":
        return self * Poly.const(self.p, v, self.exact)

    def eval(self, x: complex) -> complex:
        total = 0j
        for k, v in self.coeffs.items():
            total += complex(v) * x ** k
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

    def __hash__(self):  # consistent with == on exact polynomials only
        return hash(frozenset(self.coeffs.items()))

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
    """gcd of two polynomials with constant term 1, scaled to constant term 1."""
    while not b.is_zero:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return a.scale(a.coeffs[0].inverse())


def _may_share_root(f: Poly, g: Poly) -> bool:
    """False only for binomials that fail the root test of the module docstring."""
    if len(f.coeffs) != 2 or len(g.coeffs) != 2:
        return True
    a, b = max(f.coeffs), max(g.coeffs)
    h = gcd(a, b)
    return (-f.coeffs[a]) ** (b // h) == (-g.coeffs[b]) ** (a // h)


def _refine(basis: dict[Poly, int], g: Poly, k: int) -> None:
    """Multiply the pairwise coprime basis {f: k} by g^k in place, g with
    constant term 1, keeping it pairwise coprime without zero exponents."""
    if len(g.coeffs) == 1:  # g = 1
        return
    if g in basis:
        if k := k + basis.pop(g):
            basis[g] = k
        return
    for f in basis:
        if not _may_share_root(f, g):
            continue
        h = _poly_gcd(f, g)
        if len(h.coeffs) > 1:
            break
    else:
        basis[g] = k
        return
    kf = basis.pop(f)
    for part, m in ((_poly_divmod(f, h)[0], kf), (h, kf), (_poly_divmod(g, h)[0], k), (h, k)):
        _refine(basis, part, m)


class RatFunc:
    """Exact: unit * X^xpow * prod f^k over the coprime basis {f: k}.
    Inexact (unit None): the pair (num, den) as built. See the module docstring."""

    __slots__ = ("p", "unit", "xpow", "basis", "_pair")

    def __init__(self, p: int, unit: QiSqrt | None, xpow: int = 0,
                 basis: dict[Poly, int] | None = None, pair: tuple[Poly, Poly] | None = None):
        if unit is not None and not unit:
            xpow, basis = 0, None
        self.p, self.unit, self.xpow, self.basis, self._pair = p, unit, xpow, basis or {}, pair

    def _canonical(self) -> tuple[Poly, Poly]:
        if self._pair is None:
            e = self.xpow
            pair = [Poly(self.p, {max(e, 0): self.unit}), Poly(self.p, {max(-e, 0): 1})]
            for f, k in self.basis.items():
                for _ in range(abs(k)):
                    pair[k < 0] = pair[k < 0] * f
            self._pair = tuple(pair)
        return self._pair

    @property
    def num(self) -> Poly:
        return self._canonical()[0]

    @property
    def den(self) -> Poly:
        return self._canonical()[1]

    @staticmethod
    def one(p: int) -> "RatFunc":
        return RatFunc(p, QiSqrt._of_ints(p, 1, 0, 0, 0, 1))

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not (self.is_exact and other.is_exact):
            return RatFunc(self.p, None, pair=(self.num * other.num, self.den * other.den))
        basis = dict(self.basis)
        for f, k in other.basis.items():
            _refine(basis, f, k)
        return RatFunc(self.p, self.unit * other.unit, self.xpow + other.xpow, basis)

    def inv(self) -> "RatFunc":
        if self.is_exact:
            return RatFunc(self.p, self.unit.inverse(), -self.xpow,
                           {f: -k for f, k in self.basis.items()})
        if self.num.is_zero:
            raise ZeroDivisionError
        return RatFunc(self.p, None, pair=(self.den, self.num))

    def __pow__(self, k: int) -> "RatFunc":
        base, out = self if k >= 0 else self.inv(), RatFunc.one(self.p)
        for _ in range(abs(k)):
            out = out * base
        return out

    def eval(self, x: complex) -> complex:
        return self.num.eval(x) / self.den.eval(x)

    @property
    def is_exact(self) -> bool:
        return self.unit is not None

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not (self.is_exact and other.is_exact):
            return (self.num * other.den) == (other.num * self.den)
        if not other.unit:
            return not self.unit
        return (self * other.inv()).is_one

    @property
    def is_one(self) -> bool:
        if not self.is_exact:
            return self.num == self.den
        return not self.basis and self.xpow == 0 and self.unit == QiSqrt(self.p, 1)

    def __str__(self):
        ns, ds = str(self.num), str(self.den)
        if ds == "1":
            return ns
        return f"({ns}) / ({ds})"


def as_rational_in_X(expr, q: int) -> RatFunc:
    """Rewrite a purely nonarchimedean expression as a ratio of polynomials
    in X = q^{-s}; exact whenever every constant lies in Q(i, sqrt p)."""
    from .mero import (ExpAtom, GammaCAtom, GammaRAtom, LAtom, UnsupportedExpressionError,
                       _log_base)

    fac = factorization(q)
    if len(fac) != 1:
        raise ValueError(f"residue cardinality {q} is not a prime power")
    p = fac[0][0]

    scalar = expr.prefactor
    pieces: list[tuple[int, object, int]] = []  # (a, c, k): (1 - c X^a)^k, or X^a when c is None

    for atom, k in expr.atoms:
        if isinstance(atom, (GammaRAtom, GammaCAtom)):
            raise UnsupportedExpressionError("archimedean atom in rational-function form")
        if isinstance(atom, LAtom):
            if atom.q != q:
                raise UnsupportedExpressionError(f"mixed residue cardinalities {atom.q} vs {q}")
            alpha = atom.form.alpha
            if alpha.denominator != 1 or alpha == 0:
                raise UnsupportedExpressionError("L-atom argument must have integer s-slope")
            coeff = mul(atom.z, rat_power(q, neg(atom.form.beta)))
            # atom = (1 - coeff X^alpha)^{-1}
            pieces.append((int(alpha), coeff, -k))
        else:
            assert isinstance(atom, ExpAtom)
            r = _log_base(atom.base, q)
            e = r * atom.form.alpha
            if e.denominator != 1:
                raise UnsupportedExpressionError("exponential atom is not integral in X")
            # base^{alpha s + beta} = q^{r beta} X^{-r alpha}
            scalar = mul(scalar, power(rat_power(q, mul(r, atom.form.beta)), k))
            pieces.append((-int(e) * k, None, 1))

    exact = is_exact(scalar) and all(c is None or is_exact(c) for _, c, _ in pieces)
    if not exact:
        one = Poly.const(p, 1, False)
        out = RatFunc(p, None, pair=(Poly.const(p, scalar, False), one))
        for a, c, k in pieces:
            poly = Poly(p, {a: 1} if c is None else {0: 1, a: neg(c)}, False)
            out = out * RatFunc(p, None, pair=(poly, one)) ** k
        return out
    unit, xpow, binomials = QiSqrt.of(p, scalar), 0, {}
    for a, c, k in pieces:
        if c is None:
            xpow += a
            continue
        c = QiSqrt.of(p, c)
        if a < 0 and c:  # 1 - c X^a = -c X^a (1 - c^-1 X^-a)
            unit, xpow, a, c = unit * (-c) ** k, xpow + a * k, -a, c.inverse()
        binomials[a, c] = binomials.get((a, c), 0) + k
    basis: dict[Poly, int] = {}
    for (a, c), k in binomials.items():
        if k:
            _refine(basis, Poly(p, {0: 1, a: -c}), k)
    return RatFunc(p, unit, xpow, basis)
