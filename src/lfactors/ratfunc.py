"""Rational functions in X = q^{-s} with exact Q(i, sqrt p) coefficients.

Nonarchimedean local factors are rational in q^{-s}; the coefficients the
formulas generate live in the biquadratic field K = Q(i, sqrt p) (half-integer
argument shifts contribute sqrt q, Gauss sums contribute i and sqrt p).
A coefficient (QiSqrt) is four integers over one positive denominator, in
lowest terms, so equal values have equal fields and equal hashes; so is an
exact polynomial (ExactPoly), with four integer lists of coefficient parts.

An exact RatFunc is kept factored, unit * X^e * prod f^k, over a pairwise
coprime basis of polynomials f with constant term 1 and nonzero integers k.
`as_rational_in_X` builds it from the Tate factors (1 - c X^a)^-k on plain
ints: an L-atom's slope a and half-integer shift beta are its LinForm's
integers, and c = z q^-beta is held as (cn, cd, odd), c = cn / cd sqrt(p)^odd
in lowest terms. A negative slope is turned round, 1 - c X^a = -c X^a
(1 - c^-1 X^-a), its -c X^a folding into an integer unit and the power of X
(1 / sqrt p = sqrt p / p). Equal binomials merge on their int keys, and one
ExactPoly per distinct binomial is built and told that it is 1 - c X^a (no
ExactPoly guesses it). Factor refinement (Bach, Driscoll and Shallit,
J. Algorithms 15, 1993) splits a pair of factors with a nontrivial gcd into the
gcd and the two quotients. Binomials 1 - c X^a and 1 - d X^b share a root
exactly when c^(b/h) = d^(a/h), h = gcd(a, b), for a common root x has x^(ab/h)
equal to c^(-b/h) and to d^(-a/h). The norm N from K to Q is multiplicative, so
this root test first compares the rationals N(c)^(b/h) and N(d)^(a/h), each
binomial holding its N(c). A pair that passes splits in closed form: u =
(a/h)^-1 mod b/h and v = (1 - u a/h) / (b/h) make w = c^u d^v satisfy w^(a/h) =
c and w^(b/h) = d, so the gcd is 1 - w X^h and the quotients are the sums of
w^j X^(jh) over j < a/h and j < b/h (1 + w X^h for a bound 2). Only a pair with
a non-binomial side takes Euclid's algorithm on QiSqrt coefficients. Products
and inverses merge bases and negate exponents. The canonical form then needs no
gcd: the numerator is unit * X^max(e,0) times the factors with k > 0, the
denominator X^max(-e,0) times those with k < 0; they are coprime, the lower of
their two lowest exponents is 0 and the denominator's trailing coefficient is 1
(zero is 0/1). They are expanded on first access to `num`, `den` or `str`, one
factor after another on the integer lists (each step is linear in the partial
product, which beat a product tree and Kronecker substitution), with one
content gcd at the end; while a side is rational it is one list, and a binomial
with a rational c goes into it in one pass. Each coefficient part is spelled
over n after one gcd. `f == g` refines f / g, which is 1 exactly when unit 1, e
= 0 and an empty basis are left.

Inexact inputs (irrational twists) degrade the whole function to complex
coefficients (Poly). Such a function keeps the numerator and denominator of
the product as built, and equality compares coefficients to a relative 1e-9.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactconst import ExactConst, factorization
from .mero import ExpAtom, GammaCAtom, GammaRAtom, LAtom, UnsupportedExpressionError, _log_base
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
        return _monomial(p, *_exact_parts(p, v))

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

    def _norms(self):
        """(u, v, m): (x + y i)(x - y i) n^2 = u + v sqrt p with x = a + b sqrt p,
        y = c + d sqrt p; the norm to Q, m / n^4, has m = u^2 - p v^2."""
        p, a, b, c, d = self.p, self.a, self.b, self.c, self.d
        u = a * a + p * b * b + c * c + p * d * d
        v = 2 * (a * b + c * d)
        return u, v, u * u - p * v * v

    def inverse(self) -> "QiSqrt":
        if not self:
            raise ZeroDivisionError
        # n / (x + y i) = n (x - y i) / (u + v sqrt p), and
        # 1 / (u + v sqrt p) = (u - v sqrt p) / m, m a nonzero integer
        p, a, b, c, d, n = self.p, self.a, self.b, self.c, self.d, self.n
        u, v, m = self._norms()
        if m < 0:
            n, m = -n, -m
        return QiSqrt._of_ints(p, n * (a * u - p * b * v), n * (b * u - a * v),
                               n * (p * d * v - c * u), n * (c * v - d * u), m)

    def __pow__(self, k: int) -> "QiSqrt":
        base, out = self if k >= 0 else self.inverse(), QiSqrt._of_ints(self.p, 1, 0, 0, 0, 1)
        for bit in bin(abs(k))[2:]:  # by squaring, from the highest bit
            out = out * out * base if bit == "1" else out * out
        return out

    def to_complex(self) -> complex:
        n, r = self.n, self.p ** 0.5
        return complex(self.a / n + self.b / n * r, self.c / n + self.d / n * r)

    __complex__ = to_complex

    def __str__(self):
        return _coef_text(self.p, self.n, (self.a, self.b, self.c, self.d))


def _coef_text(p: int, n: int, parts) -> str:
    """(a + b sqrt(p) + (c + d sqrt(p)) i) / n as text, each part x spelled as
    x / n in lowest terms, so the parts need not be in lowest terms."""
    tags = ("", f"*sqrt({p})", "*i", f"*i*sqrt({p})")
    terms = []
    for x, tag in zip(parts, tags):
        if x:
            g = gcd(x, n)
            terms.append(_fraction_text(x // g, n // g) + tag)
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _fraction_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for coprime num and den > 0, spelled by _int_text."""
    return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"


_DIRECT_DIGITS = 8000  # below this many digits str() is the faster
_BIG = 10 ** _DIRECT_DIGITS


def _int_text(k: int) -> str:
    """str(k) in subquadratic time: CPython 3.11's str() of an int is quadratic,
    so a big k is split at 2^1024, 2^2048, 2^4096, ... and its pieces are
    joined in decimal, whose products are subquadratic and whose str() is linear."""
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


def _exact_parts(p: int, v) -> tuple[int, int, int, int]:
    """(num, den, ipow, e) with v = num / den i^ipow sqrt(p)^e, for an int,
    Fraction or ExactConst v."""
    rat, ipow, roots = (v.rat, v.ipow, v.roots) if type(v) is ExactConst else (v, 0, ())
    if any(r != p for r in roots):
        raise ValueError(f"constant {v} does not lie in Q(i, sqrt {p})")
    return rat.numerator, rat.denominator, ipow, p in roots


def _monomial(p: int, num: int, den: int, ipow: int, e: int) -> QiSqrt:
    """num / den i^ipow sqrt(p)^e, for ipow in {0, 1} and den != 0."""
    h, odd = divmod(e, 2)  # sqrt(p)^e = p^h sqrt(p)^odd
    if den < 0:
        num, den = -num, -den
    parts = [0, 0, 0, 0]
    parts[2 * ipow + odd] = num * p ** max(h, 0)
    return QiSqrt._of_ints(p, *parts, den * p ** max(-h, 0))


def _spell(coeffs: dict, spell) -> str:
    """A polynomial {k: coefficient} as text, each coefficient spelled by spell."""
    if not coeffs:
        return "0"
    terms = []
    for k in sorted(coeffs):
        cs = spell(coeffs[k])
        if ("+" in cs[1:]) or ("-" in cs[1:]) or "*" in cs:
            cs = f"({cs})"
        if k == 0:
            terms.append(cs)
        elif k == 1:
            terms.append(f"{cs}*X" if cs != "1" else "X")
        else:
            terms.append(f"{cs}*X^{k}" if cs != "1" else f"X^{k}")
    return " + ".join(terms)


class ExactPoly:
    """sum_k (A_k + B_k sqrt(p) + (C_k + D_k sqrt(p)) i) X^k / n: parts = (A, B,
    C, D), tuples of ints of length deg + 1 whose top entries are not all 0;
    n > 0 and the gcd of n and every part is 1."""

    __slots__ = ("p", "n", "parts", "binomial")

    def __init__(self, p: int, n: int, parts):
        """From integer parts over n > 0, not necessarily in lowest terms; parts
        missing from the end of the four are 0."""
        m = len(parts[0])
        while m and not any(part[m - 1] for part in parts):
            m -= 1
        parts = [part[:m] for part in parts] + [[0] * m] * (4 - len(parts))
        g = gcd(n, *parts[0], *parts[1], *parts[2], *parts[3])
        if g != 1:
            parts = [[x // g for x in part] for part in parts]
        # binomial: (a, c, t, u) when _one_minus built this as 1 - c X^a, N(c) = t / u
        self.p, self.n, self.parts, self.binomial = p, n // g, tuple(map(tuple, parts)), None

    @staticmethod
    def of(p: int, coeffs: dict[int, object]) -> "ExactPoly":
        """From {k: coefficient}, k >= 0, each an int, Fraction, ExactConst or QiSqrt."""
        cs = {k: QiSqrt.of(p, v) for k, v in coeffs.items()}
        n = lcm(*(c.n for c in cs.values()))
        parts = [[0] * (max(cs, default=-1) + 1) for _ in range(4)]
        for k, c in cs.items():
            for part, x in zip(parts, (c.a, c.b, c.c, c.d)):
                part[k] = x * (n // c.n)
        return ExactPoly(p, n, parts)

    def _nonzero_parts(self) -> dict[int, tuple]:
        """The (a, b, c, d) of each nonzero coefficient, by exponent."""
        return {k: xs for k, xs in enumerate(zip(*self.parts)) if any(xs)}

    @property
    def coeffs(self) -> dict[int, QiSqrt]:
        """The nonzero coefficients by exponent."""
        return {k: QiSqrt._of_ints(self.p, *xs, self.n) for k, xs in self._nonzero_parts().items()}

    @property
    def degree(self) -> int:
        return len(self.parts[0]) - 1

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        return ExactPoly(self.p, *_mul(self.p, (self.n, self.parts), (other.n, other.parts)))

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return (self.p, self.n, self.parts) == (other.p, other.n, other.parts)

    def __hash__(self):
        return hash((self.p, self.n, self.parts))

    def __str__(self):
        return _spell(self._nonzero_parts(), lambda xs: _coef_text(self.p, self.n, xs))


def _mul(p: int, f: tuple, g: tuple) -> tuple:
    """The product of two (n, parts) pairs, not in lowest terms. Part j1 of f
    times part j2 of g adds to part j1 ^ j2, times p when both hold sqrt(p)
    (bit 1) and times -1 when both hold i (bit 2)."""
    (nf, f), (ng, g) = f, g
    out = [[0] * max(len(f[0]) + len(g[0]) - 1, 0) for _ in range(4)]
    f, g = ([[(k, x) for k, x in enumerate(part) if x] for part in parts] for parts in (f, g))
    for j1, a in enumerate(f):
        for j2, b in enumerate(g):
            part = out[j1 ^ j2]
            factor = (p if j1 & j2 & 1 else 1) * (-1 if j1 & j2 & 2 else 1)
            for k, y in b:
                y *= factor
                for i, x in a:
                    part[i + k] += x * y
    return nf * ng, out


def _one_minus(a: int, c: QiSqrt) -> ExactPoly:
    """1 - c X^a, a > 0 and c != 0, told that it is this binomial; in lowest terms as c is."""
    f, pad = object.__new__(ExactPoly), (0,) * (a - 1)
    f.p, f.n, f.binomial = c.p, c.n, (a, c, c._norms()[2], c.n ** 4)
    f.parts = ((c.n, *pad, -c.a),) + tuple((0, *pad, -x) for x in (c.b, c.c, c.d))
    return f


class Poly:
    """Laurent polynomial in X with complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, complex]):
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[int, complex] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                prod = v1 * v2
                out[k] = out[k] + prod if k in out else prod
        return Poly(out)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        scale = max((abs(v) for v in list(a.values()) + list(b.values())), default=1.0)
        return all(abs(a.get(k, 0) - b.get(k, 0)) <= 1e-9 * scale for k in set(a) | set(b))

    def __str__(self):
        return _spell(self.coeffs, repr)


def _poly_divmod(a: ExactPoly, b: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    """Division with remainder, on QiSqrt coefficients."""
    rem, bc = a.coeffs, b.coeffs
    db = b.degree
    lead_inv = bc[db].inverse()
    quo: dict[int, QiSqrt] = {}
    while rem:
        da = max(rem)
        if da < db:
            break
        factor = rem[da] * lead_inv
        quo[da - db] = factor
        for k, v in bc.items():
            kk = k + da - db
            new = rem[kk] - factor * v if kk in rem else -(factor * v)
            if new:
                rem[kk] = new
            else:
                del rem[kk]
    return ExactPoly.of(a.p, quo), ExactPoly.of(a.p, rem)


def _poly_gcd(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """gcd of two polynomials with constant term 1, scaled to constant term 1."""
    while b.degree >= 0:
        a, b = b, _poly_divmod(a, b)[1]
    return a * ExactPoly.of(a.p, {0: a.coeffs[0].inverse()})


def _split(f: ExactPoly, g: ExactPoly) -> tuple | None:
    """(h, f / h, g / h) for h = gcd(f, g) when it has positive degree, else
    None. Two binomials take the root test and, past it, the closed form of
    the module docstring; any other pair takes Euclid's algorithm."""
    if f.binomial is None or g.binomial is None:
        h = _poly_gcd(f, g)
        return (h, _poly_divmod(f, h)[0], _poly_divmod(g, h)[0]) if h.degree > 0 else None
    (a, c, mc, dc), (b, d, md, dd) = f.binomial, g.binomial
    h = gcd(a, b)
    ec, ed = b // h, a // h  # N(c)^ec = N(d)^ed, then c^ec = d^ed
    if not (mc ** ec * dd ** ed == md ** ed * dc ** ec and c ** ec == d ** ed):
        return None
    u = pow(ed, -1, ec)  # u a/h + v b/h = 1
    w = c ** u * d ** ((1 - u * ed) // ec)
    quotients = (_one_minus(h, -w) if m == 2 else ExactPoly.of(c.p, {j * h: w ** j for j in range(m)})
                 for m in (ed, ec))  # sum_{j < m} w^j X^(jh)
    return _one_minus(h, w), *quotients


def _refine(basis: dict[ExactPoly, int], g: ExactPoly, k: int) -> None:
    """Multiply the pairwise coprime basis {f: k} by g^k in place, g with
    constant term 1, keeping it pairwise coprime without zero exponents."""
    if g.degree == 0:  # g = 1
        return
    if g in basis:
        if k := k + basis.pop(g):
            basis[g] = k
        return
    for f in basis:
        if split := _split(f, g):
            break
    else:
        basis[g] = k
        return
    (h, qf, qg), kf = split, basis.pop(f)
    for part, m in ((qf, kf), (h, kf), (qg, k), (h, k)):
        _refine(basis, part, m)


class RatFunc:
    """Exact: unit * X^xpow * prod f^k over the coprime basis {f: k}.
    Inexact (unit None): the Polys (num, den) as built. See the module docstring."""

    __slots__ = ("p", "unit", "xpow", "basis", "_pair")

    def __init__(self, p: int, unit: QiSqrt | None, xpow: int = 0,
                 basis: dict[ExactPoly, int] | None = None, pair: tuple[Poly, Poly] | None = None):
        if unit is not None and not unit:
            xpow, basis = 0, None
        self.p, self.unit, self.xpow, self.basis, self._pair = p, unit, xpow, basis or {}, pair

    def _canonical(self) -> tuple:
        if self._pair is None:
            p, e, u = self.p, self.xpow, self.unit
            parts = (u.a, u.b, u.c, u.d) if u.b or u.c or u.d else (u.a,)  # rational: A alone
            pair = [(u.n, [[0] * max(e, 0) + [x] for x in parts]), (1, [[0] * max(-e, 0) + [1]])]
            for f, k in self.basis.items():
                (n, parts), (a, c) = pair[k < 0], f.binomial[:2] if f.binomial else (0, None)
                if a and len(parts) == 1 and not (c.b or c.c or c.d):  # rational side and c
                    part, pad = parts[0], [0] * a
                    for _ in range(abs(k)):  # times 1 - (c.a / c.n) X^a in one pass
                        part = [x * c.n - y * c.a for x, y in zip(part + pad, pad + part)]
                    pair[k < 0] = n * c.n ** abs(k), [part]
                else:
                    for _ in range(abs(k)):
                        pair[k < 0] = _mul(p, pair[k < 0], (f.n, f.parts))
            self._pair = tuple(ExactPoly(p, *side) for side in pair)  # in lowest terms
        return self._pair

    def _complex_pair(self) -> tuple[Poly, Poly]:
        """(num, den) with complex coefficients, for arithmetic with an inexact function."""
        if not self.is_exact:
            return self._pair
        return tuple(Poly({k: complex(v) for k, v in f.coeffs.items()}) for f in self._canonical())

    @property
    def num(self):
        return self._canonical()[0]

    @property
    def den(self):
        return self._canonical()[1]

    @staticmethod
    def one(p: int) -> "RatFunc":
        return RatFunc(p, QiSqrt._of_ints(p, 1, 0, 0, 0, 1))

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not (self.is_exact and other.is_exact):
            (a, b), (c, d) = self._complex_pair(), other._complex_pair()
            return RatFunc(self.p, None, pair=(a * c, b * d))
        basis = dict(self.basis)
        for f, k in other.basis.items():
            _refine(basis, f, k)
        return RatFunc(self.p, self.unit * other.unit, self.xpow + other.xpow, basis)

    def inv(self) -> "RatFunc":
        if self.is_exact:
            return RatFunc(self.p, self.unit.inverse(), -self.xpow,
                           {f: -k for f, k in self.basis.items()})
        if not self.num.coeffs:
            raise ZeroDivisionError
        return RatFunc(self.p, None, pair=(self.den, self.num))

    def __pow__(self, k: int) -> "RatFunc":
        one = Poly({0: 1 + 0j})
        base = self if k >= 0 else self.inv()
        out = RatFunc.one(self.p) if self.is_exact else RatFunc(self.p, None, pair=(one, one))
        for _ in range(abs(k)):
            out = out * base
        return out

    @property
    def is_exact(self) -> bool:
        return self.unit is not None

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not (self.is_exact and other.is_exact):
            (a, b), (c, d) = self._complex_pair(), other._complex_pair()
            return a * d == c * b
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
    fac = factorization(q)
    if len(fac) != 1:
        raise ValueError(f"residue cardinality {q} is not a prime power")
    (p, f), = fac

    scalar = expr.prefactor
    pieces: list[tuple] = []  # (a, z, form, k): (1 - z q^-beta X^a)^k, or X^a when z is None

    for atom, k in expr.atoms:
        if isinstance(atom, (GammaRAtom, GammaCAtom)):
            raise UnsupportedExpressionError("archimedean atom in rational-function form")
        if isinstance(atom, LAtom):
            if atom.q != q:
                raise UnsupportedExpressionError(f"mixed residue cardinalities {atom.q} vs {q}")
            form = atom.form
            if form.ad != 1 or form.an == 0:
                raise UnsupportedExpressionError("L-atom argument must have integer s-slope")
            pieces.append((form.an, atom.z, form, -k))  # atom^-1 = 1 - z q^-beta X^a
        else:
            assert isinstance(atom, ExpAtom)
            r = _log_base(atom.base, q)
            e = r * atom.form.alpha
            if e.denominator != 1:
                raise UnsupportedExpressionError("exponential atom is not integral in X")
            # base^{alpha s + beta} = q^{r beta} X^{-r alpha}
            scalar = mul(scalar, power(rat_power(q, mul(r, atom.form.beta)), k))
            pieces.append((-int(e) * k, None, None, 1))

    if not (is_exact(scalar) and all(z is None or is_exact(z) and form.bn is not None
                                     and form.bd <= 2 for _, z, form, _ in pieces)):
        one = Poly({0: 1 + 0j})
        out = RatFunc(p, None, pair=(Poly({0: complex(scalar)}), one))
        for a, z, form, k in pieces:
            c = None if z is None else neg(mul(z, rat_power(q, neg(form.beta))))
            poly = Poly({a: 1 + 0j} if c is None else {0: 1 + 0j, a: complex(c)})
            out = out * RatFunc(p, None, pair=(poly, one)) ** k
        return out
    # z is a Fraction and beta a half-integer, so c = z q^-beta = cn / cd sqrt(p)^odd;
    # the unit is un / ud i^ipow sqrt(p)^ue
    (un, ud, ipow, ue), xpow, binomials = _exact_parts(p, scalar), 0, {}
    for a, z, form, k in pieces:
        if z is None:
            xpow += a
        elif z:  # 1 - 0 X^a = 1
            h, odd = divmod(-2 * f * form.bn // form.bd, 2)  # q^-beta = p^h sqrt(p)^odd
            cn, cd = z.numerator * p ** max(h, 0), z.denominator * p ** max(-h, 0)
            if a < 0:  # 1 - c X^a = -c X^a (1 - c^-1 X^-a), and 1 / sqrt(p) = sqrt(p) / p
                x, y = (-cn, cd) if k > 0 else (cd, -cn)
                un, ud, ue, xpow = un * x ** abs(k), ud * y ** abs(k), ue + odd * k, xpow + a * k
                a, cn, cd = -a, cd, cn * p ** odd
            g = gcd(cn, cd) if cd > 0 else -gcd(cn, cd)  # in lowest terms with cd > 0
            key = a, cn // g, cd // g, odd
            binomials[key] = binomials.get(key, 0) + k
    basis: dict[ExactPoly, int] = {}
    for (a, cn, cd, odd), k in binomials.items():
        if k:
            _refine(basis, _one_minus(a, _monomial(p, cn, cd, 0, odd)), k)
    return RatFunc(p, _monomial(p, un, ud, ipow, ue), xpow, basis)
