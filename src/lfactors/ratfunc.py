"""Rational functions in X = q^{-s} with exact Q(i, sqrt p) coefficients.

Nonarchimedean local factors are rational in q^{-s}; the coefficients the
formulas generate live in the biquadratic field K = Q(i, sqrt p) (half-integer
argument shifts contribute sqrt q, Gauss sums contribute i and sqrt p).
K has one representation here: integer parts over one positive denominator,
(A + B sqrt(p) + (C + D sqrt(p)) i) / n in lowest terms, so equal values have
equal fields and equal hashes. An exact polynomial (ExactPoly) holds four
integer lists of such parts, and an (n, parts) pair of degree 0 is a single
coefficient. A monomial r i^j sqrt(p)^e (a unit, or the w of a split) is an
ExactConst.

An exact RatFunc is kept factored, unit * X^e * prod f^k, over a pairwise
coprime basis of polynomials f with constant term 1 and nonzero integers k.
`as_rational_in_X` builds it from the Tate factors (1 - c X^a)^-k on plain
ints: an L-atom's slope a and half-integer shift beta are its LinForm's
integers, and c = z q^-beta is held as (cn, cd, odd), c = cn / cd sqrt(p)^odd
in lowest terms. A negative slope is turned round, 1 - c X^a = -c X^a
(1 - c^-1 X^-a), its -c X^a folding into an integer unit and the power of X
(1 / sqrt p = sqrt p / p). Equal binomials merge on their int keys (a, cn, cd,
odd), and one ExactPoly per distinct binomial is built and told that key (no
ExactPoly guesses it). Factor refinement (Bach, Driscoll and Shallit,
J. Algorithms 15, 1993) splits a pair of factors with a nontrivial gcd into the
gcd and the two quotients. Binomials 1 - c X^a and 1 - d X^b share a root
exactly when c^(b/h) = d^(a/h), h = gcd(a, b), for a common root x has x^(ab/h)
equal to c^(-b/h) and to d^(-a/h). On the keys this root test is one parity
check of the powers of sqrt p and one cross-multiplication of integers. A pair
that passes splits in closed form: u = (a/h)^-1 mod b/h and v = (1 - u a/h) /
(b/h) make w = c^u d^v satisfy w^(a/h) = c and w^(b/h) = d, so the gcd is 1 -
w X^h and the quotients are the sums of w^j X^(jh) over j < a/h and j < b/h (1
+ w X^h for a bound 2). Only a pair with a non-binomial side takes Euclid's
algorithm, on the integer parts. Products and inverses merge bases and negate
exponents. The canonical form then needs no gcd: the numerator is unit *
X^max(e,0) times the factors with k > 0, the denominator X^max(-e,0) times
those with k < 0; they are coprime, the lower of their two lowest exponents is
0 and the denominator's trailing coefficient is 1 (zero is 0/1). They are
expanded on first access to `num`, `den` or `str`, one factor after another on
the integer lists (each step is linear in the partial product, which beat a
product tree and Kronecker substitution), with one content gcd at the end;
while a side is rational it is one list, and a binomial with a rational c goes
into it in one pass. Each coefficient part is spelled over n after one gcd.
`f == g` refines f / g, which is 1 exactly when unit 1, e = 0 and an empty
basis are left.

Inexact inputs (irrational twists) degrade the whole function to complex
coefficients (Poly): the numerator and denominator multiplied out piece by
piece. Such a function prints and answers `is_one` (coefficients equal to a
relative 1e-9) but takes no arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactconst import ExactConst, factorization
from .mero import ExpAtom, GammaCAtom, GammaRAtom, LAtom, UnsupportedExpressionError, _log_base
from .scalars import is_exact, mul, neg, power, rat_power


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


def _monomial(p: int, v) -> tuple[int, list[list[int]]]:
    """An int, Fraction or ExactConst v in K as an (n, parts) pair of degree 0
    in lowest terms: num / den i^ipow sqrt(p)^e, ipow and e in {0, 1}, is num
    in part 2 ipow + e over n = den."""
    rat, ipow, roots = (v.rat, v.ipow, v.roots) if type(v) is ExactConst else (Fraction(v), 0, ())
    if any(r != p for r in roots):
        raise ValueError(f"constant {v} does not lie in Q(i, sqrt {p})")
    parts = [[0], [0], [0], [0]]
    parts[2 * ipow + bool(roots)] = [rat.numerator]
    return rat.denominator, parts


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
        # binomial: (a, cn, cd, odd) when _one_minus built this as 1 - cn / cd sqrt(p)^odd X^a
        self.p, self.n, self.parts, self.binomial = p, n // g, tuple(map(tuple, parts)), None

    @staticmethod
    def of(p: int, coeffs: dict[int, object]) -> "ExactPoly":
        """From {k: monomial}, k >= 0, each an int, Fraction or ExactConst in K."""
        return _from_terms(p, {k: _monomial(p, v) for k, v in coeffs.items()})

    def _nonzero_parts(self) -> dict[int, tuple]:
        """The (a, b, c, d) of each nonzero coefficient, by exponent."""
        return {k: xs for k, xs in enumerate(zip(*self.parts)) if any(xs)}

    @property
    def degree(self) -> int:
        return len(self.parts[0]) - 1

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return (self.p, self.n, self.parts) == (other.p, other.n, other.parts)

    def __hash__(self):
        return hash((self.p, self.n, self.parts))

    def __str__(self):
        return _spell(self._nonzero_parts(), lambda xs: _coef_text(self.p, self.n, xs))


def _from_terms(p: int, terms: dict[int, tuple]) -> ExactPoly:
    """sum_k t_k X^k from {k: t_k}, k >= 0, each t_k an (n, parts) pair of degree 0."""
    n = lcm(*(m for m, _ in terms.values()))
    parts = [[0] * (max(terms, default=-1) + 1) for _ in range(4)]
    for k, (m, xs) in terms.items():
        for part, (x,) in zip(parts, xs):
            part[k] = x * (n // m)
    return ExactPoly(p, n, parts)


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


def _sub(f: tuple, g: tuple) -> tuple:
    """f - g for two (n, parts) pairs whose parts have one length, not in lowest terms."""
    (nf, f), (ng, g) = f, g
    return nf * ng, [[x * ng - y * nf for x, y in zip(a, b, strict=True)] for a, b in zip(f, g)]


def _inverse(p: int, x: tuple) -> tuple:
    """1 / x for a nonzero (n, parts) pair x of degree 0, the value (y + z i) / n
    with y = a + b sqrt p and z = c + d sqrt p: n / (y + z i) = n (y - z i) /
    (u + v sqrt p), where u + v sqrt p = y^2 + z^2, and 1 / (u + v sqrt p) =
    (u - v sqrt p) / m with m = u^2 - p v^2, a nonzero integer."""
    n, ((a,), (b,), (c,), (d,)) = x
    u, v = a * a + p * b * b + c * c + p * d * d, 2 * (a * b + c * d)
    m = u * u - p * v * v
    if m < 0:
        n, m = -n, -m
    return m, [[n * (a * u - p * b * v)], [n * (b * u - a * v)], [n * (p * d * v - c * u)],
               [n * (c * v - d * u)]]


def _one_minus(p: int, a: int, cn: int, cd: int, odd: int) -> ExactPoly:
    """1 - cn / cd sqrt(p)^odd X^a, a > 0, cn != 0, cd > 0 and gcd(cn, cd) = 1,
    told that it is this binomial."""
    f, pad = object.__new__(ExactPoly), (0,) * (a - 1)
    f.p, f.n, f.binomial, zero = p, cd, (a, cn, cd, odd), (0, *pad, 0)
    f.parts = (cd, *pad, 0 if odd else -cn), (0, *pad, -cn if odd else 0), zero, zero
    return f


def _const(p: int, n: int, d: int, odd: int) -> ExactConst:
    """n / d sqrt(p)^odd."""
    return ExactConst(Fraction(n, d), 0, frozenset((p,)) if odd else frozenset())


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


def _coef(f: ExactPoly, k: int) -> tuple:
    """The coefficient of X^k in f, as an (n, parts) pair of degree 0."""
    return f.n, [[part[k]] for part in f.parts]


def _poly_divmod(f: ExactPoly, g: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    """Division with remainder, on integer parts."""
    p, db, rem, quo = f.p, g.degree, f, {}
    inv = _inverse(p, _coef(g, db))
    while rem.degree >= db:
        k = rem.degree - db
        n, xs = quo[k] = _mul(p, _coef(rem, rem.degree), inv)  # the term of X^k
        term = _mul(p, (n, [[0] * k + x for x in xs]), (g.n, g.parts))
        rem = ExactPoly(p, *_sub((rem.n, rem.parts), term))
    return _from_terms(p, quo), rem


def _poly_gcd(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """gcd of two polynomials with constant term 1, scaled to constant term 1."""
    while g.degree >= 0:
        f, g = g, _poly_divmod(f, g)[1]
    return ExactPoly(f.p, *_mul(f.p, (f.n, f.parts), _inverse(f.p, _coef(f, 0))))


def _split(f: ExactPoly, g: ExactPoly) -> tuple | None:
    """(h, f / h, g / h) for h = gcd(f, g) when it has positive degree, else
    None. Two binomials take the root test and, past it, the closed form of
    the module docstring; any other pair takes Euclid's algorithm."""
    if f.binomial is None or g.binomial is None:
        h = _poly_gcd(f, g)
        return (h, _poly_divmod(f, h)[0], _poly_divmod(g, h)[0]) if h.degree > 0 else None
    p, (a, cn, cd, oc), (b, dn, dd, od) = f.p, f.binomial, g.binomial
    h = gcd(a, b)
    ec, ed = b // h, a // h  # c^ec = d^ed: (cn^ec dd^ed) / (dn^ed cd^ec) p^t sqrt(p)^r = 1
    t, r = divmod(oc * ec - od * ed, 2)
    if r or cn ** ec * dd ** ed * p ** max(t, 0) != dn ** ed * cd ** ec * p ** max(-t, 0):
        return None
    u = pow(ed, -1, ec)  # u a/h + v b/h = 1
    w = _const(p, cn, cd, oc) ** u * _const(p, dn, dd, od) ** ((1 - u * ed) // ec)
    wn, wd, wodd = w.rat.numerator, w.rat.denominator, int(bool(w.roots))
    quotients = (_one_minus(p, h, -wn, wd, wodd) if m == 2 else  # sum_{j < m} w^j X^(jh)
                 ExactPoly.of(p, {j * h: w ** j for j in range(m)}) for m in (ed, ec))
    return _one_minus(p, h, wn, wd, wodd), *quotients


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
    """Exact: unit * X^xpow * prod f^k over the coprime basis {f: k}, the unit
    an ExactConst in K. Inexact (unit None): the Polys (num, den) as built,
    which print and answer is_one but take no arithmetic. See the module
    docstring."""

    __slots__ = ("p", "unit", "xpow", "basis", "_pair")

    def __init__(self, p: int, unit: ExactConst | None, xpow: int = 0,
                 basis: dict[ExactPoly, int] | None = None, pair: tuple[Poly, Poly] | None = None):
        if unit is not None and not unit.rat:
            xpow, basis = 0, None
        self.p, self.unit, self.xpow, self.basis, self._pair = p, unit, xpow, basis or {}, pair

    def _canonical(self) -> tuple:
        if self._pair is None:
            p, e = self.p, self.xpow
            n, parts = _monomial(p, self.unit)
            parts = parts if any(parts[1] + parts[2] + parts[3]) else parts[:1]  # rational: A alone
            pair = [(n, [[0] * max(e, 0) + x for x in parts]), (1, [[0] * max(-e, 0) + [1]])]
            for f, k in self.basis.items():
                (n, parts), binomial = pair[k < 0], f.binomial
                if binomial and len(parts) == 1 and not binomial[3]:  # rational side and c
                    a, cn, cd, _ = binomial
                    part, pad = parts[0], [0] * a
                    for _ in range(abs(k)):  # times 1 - (cn / cd) X^a in one pass
                        part = [x * cd - y * cn for x, y in zip(part + pad, pad + part)]
                    pair[k < 0] = n * cd ** abs(k), [part]
                else:
                    for _ in range(abs(k)):
                        pair[k < 0] = _mul(p, pair[k < 0], (f.n, f.parts))
            self._pair = tuple(ExactPoly(p, *side) for side in pair)  # in lowest terms
        return self._pair

    @property
    def num(self):
        return self._canonical()[0]

    @property
    def den(self):
        return self._canonical()[1]

    @staticmethod
    def one(p: int) -> "RatFunc":
        return RatFunc(p, ExactConst.one())

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        basis = dict(self.basis)
        for f, k in other.basis.items():
            _refine(basis, f, k)
        return RatFunc(self.p, self.unit * other.unit, self.xpow + other.xpow, basis)

    def inv(self) -> "RatFunc":
        return RatFunc(self.p, self.unit.inverse(), -self.xpow,
                       {f: -k for f, k in self.basis.items()})

    def __pow__(self, k: int) -> "RatFunc":
        return RatFunc(self.p, self.unit ** k, self.xpow * k,
                       {f: e * k for f, e in self.basis.items()} if k else None)

    @property
    def is_exact(self) -> bool:
        return self.unit is not None

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not other.unit.rat:
            return not self.unit.rat
        return (self * other.inv()).is_one

    @property
    def is_one(self) -> bool:
        if not self.is_exact:
            return self.num == self.den
        return not self.basis and self.xpow == 0 and self.unit.is_one

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
        # complex coefficients: num and den multiplied out factor by factor,
        # each piece's power from 1 up, in the order of the pieces
        one = Poly({0: 1 + 0j})
        num, den = Poly({0: complex(scalar)}), one
        for a, z, form, k in pieces:
            c = None if z is None else neg(mul(z, rat_power(q, neg(form.beta))))
            poly = Poly({a: 1 + 0j} if c is None else {0: 1 + 0j, a: complex(c)})
            top, bottom = (poly, one) if k >= 0 else (one, poly)
            pn, pd = one, one
            for _ in range(abs(k)):
                pn, pd = pn * top, pd * bottom
            num, den = num * pn, den * pd
        return RatFunc(p, None, pair=(num, den))
    # z is a Fraction and beta a half-integer, so c = z q^-beta = cn / cd sqrt(p)^odd;
    # the unit is scalar un / ud sqrt(p)^ue
    un, ud, ue, xpow, binomials = 1, 1, 0, 0, {}
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
    for key, k in binomials.items():
        if k:
            _refine(basis, _one_minus(p, *key), k)
    h, odd = divmod(ue, 2)
    unit = ExactConst.of(scalar) * _const(p, un * p ** max(h, 0), ud * p ** max(-h, 0), odd)
    _monomial(p, unit)  # ValueError unless the unit lies in K
    return RatFunc(p, unit, xpow, basis)
