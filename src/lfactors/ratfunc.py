"""Rational functions in X = q^{-s} with exact Q(i, sqrt p) coefficients.

Nonarchimedean local factors are rational in q^{-s}; the coefficients the
formulas generate live in the biquadratic field K = Q(i, sqrt p) (half-integer
argument shifts contribute sqrt q, Gauss sums contribute i and sqrt p).
K has one representation here: integer parts over one positive denominator,
(A + B sqrt(p) + (C + D sqrt(p)) i) / n in lowest terms. An exact polynomial
(ExactPoly) holds four integer lists of such parts, and an (n, parts) pair of
degree 0 is a single coefficient. A monomial r i^j sqrt(p)^e (a unit, or the
generator w of a class) is an ExactConst.

An exact RatFunc is unit * X^e * prod (1 - c X^a)^k, the binomials held as
{(a, cn, cd, odd): k}. `as_rational_in_X` builds it from the Tate factors on
plain ints: an L-atom's slope a and half-integer shift beta are its LinForm's
integers, and c = z q^-beta is c = cn / cd sqrt(p)^odd in lowest terms, cd > 0.
A negative slope is turned round, 1 - c X^a = -c X^a (1 - c^-1 X^-a), its
-c X^a folding into an integer unit and the power of X (1 / sqrt p = sqrt p /
p). Products, inverses and powers add, negate and scale the exponents.

The canonical form groups the binomials by the modulus |c|^(-1/a) of their
roots, for binomials of different root moduli share no root. 1 - c X^a and
1 - d X^b have one root modulus exactly when |c|^(b/h) = |d|^(a/h), h =
gcd(a, b): on the keys, one parity check of the powers of sqrt p and one
cross-multiplication of integers. A class starts from its first member, w = |c|
and h = a, and folds in each further member in closed form: with g = gcd(h, a)
and u h/g + v a/g = 1, w' = w^u |c|^v has w'^(h/g) = w and w'^(a/g) = |c| (when
h divides a, w^(a/h) = |c| already). So w > 0, h is the gcd of the class's
slopes, and each member is 1 -+ y^m for y = w X^h and m = a / h. Now 1 - y^m =
prod_{d | m} Psi_d(y) and 1 + y^m = prod_{d | 2m, d does not divide m}
Psi_d(y), Psi_d the d-th cyclotomic polynomial scaled to constant term 1 (Lang,
Algebra, VI.3). Summing the exponents gives prod Psi_d(w X^h)^E, E != 0, over
factors that are pairwise coprime: the roots of two of them differ in modulus,
or w x^h is a root of unity of another order. The numerator is unit *
X^max(e,0) times the factors with E > 0, the denominator X^max(-e,0) times
those with E < 0; they are coprime, the lower of their two lowest exponents is
0 and the denominator's trailing coefficient is 1 (zero is 0/1). They are
expanded on first access to `num`, `den` or `str`, one factor after another on
the integer lists (each step is linear in the partial product, which beat a
product tree and Kronecker substitution), with one content gcd at the end;
while a side is rational it is one list, and a Psi_1 or Psi_2 with a rational
w, 1 -+ w X^h, goes into it in one pass. Each coefficient part is spelled over
n after one gcd. `f == g` asks whether f / g is 1: unit 1, e = 0 and no factor
left.

Inexact inputs (irrational twists) degrade the whole function to complex
coefficients (Poly): the numerator and denominator multiplied out piece by
piece. Such a function prints and answers `is_one` (coefficients equal to a
relative 1e-9) but takes no arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

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

    __slots__ = ("p", "n", "parts")

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
        self.p, self.n, self.parts = p, n // g, tuple(map(tuple, parts))

    def __str__(self):
        return _spell({k: xs for k, xs in enumerate(zip(*self.parts)) if any(xs)},
                      lambda xs: _coef_text(self.p, self.n, xs))


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


@cache
def _psi(d: int) -> tuple[int, ...]:
    """The coefficients of Psi_d, the d-th cyclotomic polynomial scaled to
    constant term 1: (1 - y^d) / prod_{e | d, e < d} Psi_e, each division
    carried out from the constant term up."""
    f = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            g, quo = _psi(e), []
            for i in range(len(f) - len(g) + 1):
                quo.append(x := f[i])
                for j, y in enumerate(g):
                    f[i + j] -= x * y
            f = quo
    return tuple(f)


def _same_modulus(p: int, f: tuple, g: tuple) -> bool:
    """Whether the binomials with the keys f = (a, cn, cd, oc) and g = (b, dn,
    dd, od) have roots of one modulus: |c|^(b/h) = |d|^(a/h), h = gcd(a, b)."""
    (a, cn, cd, oc), (b, dn, dd, od) = f, g
    h = gcd(a, b)
    ec, ed = b // h, a // h
    t, r = divmod(oc * ec - od * ed, 2)  # sqrt(p)^(oc ec - od ed) = p^t sqrt(p)^r
    return not r and (abs(cn) ** ec * dd ** ed * p ** max(t, 0)
                      == abs(dn) ** ed * cd ** ec * p ** max(-t, 0))


def _factors(p: int, binomials: dict[tuple, int]) -> dict[tuple, int]:
    """prod (1 - c X^a)^k over {(a, cn, cd, odd): k} as prod Psi_d(w X^h)^E, as
    {(h, wn, wd, wodd, d): E} with E != 0 and w = wn / wd sqrt(p)^wodd > 0; see
    the module docstring."""
    classes: list[list] = []  # the members (key, k) of each root modulus
    for key, k in binomials.items():
        if k:
            for members in classes:
                if _same_modulus(p, members[0][0], key):
                    members.append((key, k))
                    break
            else:
                classes.append([(key, k)])
    out: dict[tuple, int] = {}
    for members in classes:
        (h, wn, wd, wodd), _ = members[0]
        generator = h, abs(wn), wd, wodd
        for (a, cn, cd, odd), _ in members[1:]:
            if a % h:  # else w^(a/h) = |c| already
                g = gcd(h, a)
                u = pow(h // g, -1, a // g)  # u h/g + v a/g = 1
                w = (_const(p, *generator[1:]) ** u
                     * _const(p, abs(cn), cd, odd) ** ((1 - u * (h // g)) // (a // g)))
                h = g
                generator = h, w.rat.numerator, w.rat.denominator, int(bool(w.roots))
        for (a, cn, _, _), k in members:
            m = a // h
            n = m if cn > 0 else 2 * m  # 1 + y^m = (1 - y^2m) / (1 - y^m)
            for d in range(1, n + 1):
                if n % d == 0 and (cn > 0 or m % d):
                    key = *generator, d
                    out[key] = out.get(key, 0) + k
    return {key: e for key, e in out.items() if e}


class RatFunc:
    """Exact: unit * X^xpow * prod (1 - c X^a)^k over the binomials {(a, cn,
    cd, odd): k}, the unit an ExactConst in K. Inexact (unit None): the Polys
    (num, den) as built, which print and answer is_one but take no
    arithmetic. See the module docstring."""

    __slots__ = ("p", "unit", "xpow", "binomials", "_pair")

    def __init__(self, p: int, unit: ExactConst | None, xpow: int = 0,
                 binomials: dict[tuple, int] | None = None, pair: tuple[Poly, Poly] | None = None):
        if unit is not None and not unit.rat:
            xpow, binomials = 0, None
        self.p, self.unit, self.xpow, self._pair = p, unit, xpow, pair
        self.binomials = binomials or {}

    def _canonical(self) -> tuple:
        if self._pair is None:
            p, e = self.p, self.xpow
            n, parts = _monomial(p, self.unit)
            parts = parts if any(parts[1] + parts[2] + parts[3]) else parts[:1]  # rational: A alone
            pair = [(n, [[0] * max(e, 0) + x for x in parts]), (1, [[0] * max(-e, 0) + [1]])]
            for (h, wn, wd, wodd, d), k in _factors(p, self.binomials).items():
                (n, parts), psi = pair[k < 0], _psi(d)
                if len(parts) == 1 and len(psi) == 2 and not wodd:  # rational side and w
                    cn, part, pad = -psi[1] * wn, parts[0], [0] * h
                    for _ in range(abs(k)):  # times 1 - (cn / wd) X^h in one pass
                        part = [x * wd - y * cn for x, y in zip(part + pad, pad + part)]
                    pair[k < 0] = n * wd ** abs(k), [part]
                else:  # Psi_d(w X^h), the term psi_j w^j X^(jh) over wd^top
                    top = len(psi) - 1
                    f = [[0] * (top * h + 1) for _ in range(2)]  # rational and sqrt(p) parts
                    for j, x in enumerate(psi):
                        f[wodd & j][j * h] = x * wn ** j * wd ** (top - j) * p ** (wodd * j // 2)
                    for _ in range(abs(k)):
                        pair[k < 0] = _mul(p, pair[k < 0], (wd ** top, f))
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
        binomials = dict(self.binomials)
        for key, k in other.binomials.items():
            binomials[key] = binomials.get(key, 0) + k
        return RatFunc(self.p, self.unit * other.unit, self.xpow + other.xpow, binomials)

    def inv(self) -> "RatFunc":
        return RatFunc(self.p, self.unit.inverse(), -self.xpow,
                       {key: -k for key, k in self.binomials.items()})

    def __pow__(self, k: int) -> "RatFunc":
        return RatFunc(self.p, self.unit ** k, self.xpow * k,
                       {key: e * k for key, e in self.binomials.items()})

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
        return self.xpow == 0 and self.unit.is_one and not _factors(self.p, self.binomials)

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
    h, odd = divmod(ue, 2)
    unit = ExactConst.of(scalar) * _const(p, un * p ** max(h, 0), ud * p ** max(-h, 0), odd)
    _monomial(p, unit)  # ValueError unless the unit lies in K
    return RatFunc(p, unit, xpow, binomials)
