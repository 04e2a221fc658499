"""Exact rational functions in X: the canonical form against a sympy oracle
and against the expand-then-gcd reference, the factorisation into cyclotomic
pieces Psi_d(w X^h) against that reference's Euclid algorithm, Euclid's
algorithm on integer parts against sympy, equality and is_one against the
canonical form, the printed text against pinned records, and Q(i, sqrt p)
arithmetic on integer parts against a reference on Fractions.

The records of printed text live in tests/data/ratfunc_text.json (exact
results) and tests/data/ratfunc_inexact_text.json (complex coefficients).
Regenerate them, only when a change to the spelling is intended, with

    PYTHONPATH=src python tests/test_ratfunc.py
"""

import json
import random
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfactors.exactconst import ExactConst
from lfactors.mero import LinForm, MeroExpr, UnsupportedExpressionError, mero_mul
from lfactors import ratfunc
from lfactors.ratfunc import (_DIRECT_DIGITS, ExactPoly, RatFunc, _coef_text, _factors,
                              _fraction_text, _int_text, _monomial, _mul, _psi, _same_modulus,
                              as_rational_in_X)

P_OF_Q = {3: 3, 5: 5, 7: 7, 9: 3, 25: 5, 27: 3, 49: 7}
TEXT = Path(__file__).resolve().parent / "data" / "ratfunc_text.json"
INEXACT_TEXT = TEXT.with_name("ratfunc_inexact_text.json")


# -- Q(i, sqrt p) on Fractions, the reference for the integer parts ----------

class _FractionQiSqrt:
    """a + b sqrt(p) + (c + d sqrt(p)) i on four Fractions, multiplied as
    pairs x + y i of elements x, y of Q(sqrt p): the reference the integer
    parts must reproduce."""

    def __init__(self, p, a=0, b=0, c=0, d=0):
        self.p, self.a, self.b, self.c, self.d = p, *map(Fraction, (a, b, c, d))

    def _xs(self):
        return self.a, self.b, self.c, self.d

    def __eq__(self, o):
        return (self.p, self._xs()) == (o.p, o._xs())

    def __bool__(self):
        return any(self._xs())

    def __add__(self, o):
        return _FractionQiSqrt(self.p, *(x + y for x, y in zip(self._xs(), o._xs())))

    def __neg__(self):
        return _FractionQiSqrt(self.p, *(-x for x in self._xs()))

    def __mul__(self, o):
        def rmul(x1, y1, x2, y2):  # (x1 + y1 sqrt p)(x2 + y2 sqrt p)
            return (x1 * x2 + self.p * y1 * y2, x1 * y2 + y1 * x2)
        ra, rb = rmul(self.a, self.b, o.a, o.b)
        ia, ib = rmul(self.c, self.d, o.c, o.d)
        ca, cb = rmul(self.a, self.b, o.c, o.d)
        da, db = rmul(self.c, self.d, o.a, o.b)
        return _FractionQiSqrt(self.p, ra - ia, rb - ib, ca + da, cb + db)

    def __pow__(self, k: int):
        out = _FractionQiSqrt(self.p, 1)
        for _ in range(k):
            out = out * self
        return out

    def pair(self) -> tuple:
        """As an (n, parts) pair of degree 0."""
        n = lcm(*(x.denominator for x in self._xs()))
        return n, [[int(x * n)] for x in self._xs()]

    def __str__(self):
        if not (self.a or self.b or self.c or self.d):
            return "0"
        terms = []
        for coef, tag in ((self.a, ""), (self.b, f"*sqrt({self.p})"),
                          (self.c, "*i"), (self.d, f"*i*sqrt({self.p})")):
            if coef:
                terms.append(f"{coef}{tag}")
        return " + ".join(terms).replace("+ -", "- ")


def _coeffs(f: ExactPoly) -> dict[int, _FractionQiSqrt]:
    """The nonzero coefficients of f by exponent."""
    return {k: _FractionQiSqrt(f.p, *(Fraction(x, f.n) for x in xs))
            for k, xs in enumerate(zip(*f.parts)) if any(xs)}


def _key(f: ExactPoly) -> tuple:
    """f's fields, equal exactly when the polynomials are: ExactPoly keeps
    its parts in lowest terms over n > 0."""
    return f.p, f.n, f.parts


def _keys(rf: RatFunc) -> tuple:
    return _key(rf.num), _key(rf.den)


def _degree(f: ExactPoly) -> int:
    return len(f.parts[0]) - 1


def _poly(p: int, coeffs: dict[int, _FractionQiSqrt]) -> ExactPoly:
    """The ExactPoly with the coefficients {k: c}, k >= 0."""
    n = lcm(*(x.denominator for c in coeffs.values() for x in c._xs()))
    parts = [[0] * (max(coeffs, default=-1) + 1) for _ in range(4)]
    for k, c in coeffs.items():
        for part, x in zip(parts, c._xs()):
            part[k] = int(x * n)
    return ExactPoly(p, n, parts)


def _of(p: int, coeffs: dict[int, object]) -> ExactPoly:
    """The ExactPoly with the coefficients {k: v}, k >= 0, each an int,
    Fraction or ExactConst in Q(i, sqrt p)."""
    return _from_terms(p, {k: _monomial(p, v) for k, v in coeffs.items()})


def _from_terms(p: int, terms: dict[int, tuple]) -> ExactPoly:
    """sum_k t_k X^k from {k: t_k}, k >= 0, each t_k an (n, parts) pair of degree 0."""
    n = lcm(*(m for m, _ in terms.values()))
    parts = [[0] * (max(terms, default=-1) + 1) for _ in range(4)]
    for k, (m, xs) in terms.items():
        for part, (x,) in zip(parts, xs):
            part[k] = x * (n // m)
    return ExactPoly(p, n, parts)


def _times(f: ExactPoly, g) -> ExactPoly:
    """f times an ExactPoly or an (n, parts) pair g."""
    g = (g.n, g.parts) if isinstance(g, ExactPoly) else g
    return ExactPoly(f.p, *_mul(f.p, (f.n, f.parts), g))


def _binomial(p: int, key: tuple) -> ExactPoly:
    """1 - c X^a for the key (a, cn, cd, odd), c = cn / cd sqrt(p)^odd."""
    a, cn, cd, odd = key
    roots = frozenset([p]) if odd else frozenset()
    return _of(p, {0: 1, a: ExactConst(Fraction(-cn, cd), 0, roots)})


def _binomial_key(a: int, c: ExactConst) -> tuple:
    """The key (a, cn, cd, odd) of 1 - c X^a, c real."""
    assert c.ipow == 0
    return a, c.rat.numerator, c.rat.denominator, len(c.roots)


def _psi_poly(p: int, h: int, wn: int, wd: int, wodd: int, d: int) -> ExactPoly:
    """Psi_d(w X^h), w = wn / wd sqrt(p)^wodd, on the reference's Fractions."""
    w = _FractionQiSqrt(p, *((0, Fraction(wn, wd)) if wodd else (Fraction(wn, wd),)))
    return _poly(p, {j * h: _FractionQiSqrt(p, x) * w ** j for j, x in enumerate(_psi(d))})


def _product(p: int, factors) -> tuple[ExactPoly, ExactPoly]:
    """prod f^k over the factors (f, k), numerator and denominator apart."""
    num = den = _of(p, {0: 1})
    for f, k in factors:
        for _ in range(abs(k)):
            num, den = (_times(num, f), den) if k > 0 else (num, _times(den, f))
    return num, den


# -- Euclid's algorithm on integer parts, the reference -------------------------

def _coef(f: ExactPoly, k: int) -> tuple:
    """The coefficient of X^k in f, as an (n, parts) pair of degree 0."""
    return f.n, [[part[k]] for part in f.parts]


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


def _poly_divmod(f: ExactPoly, g: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    """Division with remainder, on integer parts, by g made monic once. The
    remainder stays an (n, parts) pair, put in lowest terms once at the end:
    each step drops its top term and subtracts that term times the rest of
    the monic g, whose top part is its denominator."""
    p, db = f.p, _degree(g)
    inv = _inverse(p, _coef(g, db))
    g = _times(g, inv)
    low = [part[:-1] for part in g.parts]
    n, rem, quo = f.n, [list(part) for part in f.parts], {}
    while len(rem[0]) > db:
        k, top = len(rem[0]) - 1 - db, [[part.pop()] for part in rem]
        if any(x for x, in top):  # the term top / n X^k of the quotient by the monic g
            quo[k] = n, top
            term = [[0] * k + x for x in _mul(p, (1, top), (1, low))[1]]
            scale, rem = _sub((1, rem), (g.n, term))
            n *= scale
    return _times(_from_terms(p, quo), inv), ExactPoly(p, n, rem)


def _poly_gcd(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """gcd of two polynomials, one of them with a nonzero constant term,
    scaled to constant term 1."""
    while _degree(g) >= 0:
        f, g = g, _poly_divmod(f, g)[1]
    return _times(f, _inverse(f.p, _coef(f, 0)))


# -- random products and quotients of L- and Exp-atoms ----------------------
# An atom spec is ("L", z, alpha, beta, k): (1 - z q^{-beta} X^alpha)^{-k},
# or ("E", r, alpha, beta, k): (q^r)^{(alpha s + beta) k}.

def _random_z(rng: random.Random, p: int) -> Fraction:
    """A small rational, or one with p in its numerator or denominator."""
    if rng.random() < 0.7:
        return Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2, 3]))
    return rng.choice([1, -1]) * rng.choice([Fraction(p), Fraction(1, p), Fraction(p * p, 3)])


def _random_specs(rng: random.Random, q: int) -> list[tuple]:
    """Slopes down to -3 with half-integer shifts, so that a binomial with
    sqrt(p) in its constant is turned round, and exponents up to 3."""
    specs = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.75:
            specs.append(("L", _random_z(rng, P_OF_Q[q]), rng.choice([1, 1, 2, 3, -1, -2, -3]),
                          Fraction(rng.randint(-2, 2), 2),
                          rng.choice([-3, -2, -1, -1, 1, 1, 2, 3])))
        else:
            specs.append(("E", rng.choice([1, -1, 2]), rng.choice([1, -1, 2]),
                          Fraction(rng.randint(-2, 2), 2), rng.choice([-1, 1])))
    if rng.random() < 0.5:
        # a common factor the atoms do not show: (1 - c^2 X^2a) / ((1 - c X^a)(1 + c X^a))
        z = Fraction(rng.choice([1, 2, -1]), rng.choice([1, 3]))
        alpha, beta, k = rng.choice([1, 2]), Fraction(rng.randint(-1, 1), 2), rng.choice([-1, 1])
        specs += [("L", z * z, 2 * alpha, 2 * beta, -k), ("L", z, alpha, beta, k),
                  ("L", -z, alpha, beta, k)]
    return specs


def _random_prefactor(rng: random.Random, p: int) -> ExactConst:
    roots = frozenset([p]) if rng.random() < 0.5 else frozenset()
    return ExactConst(Fraction(rng.choice([1, -2, 3, 5]), rng.choice([1, 2, 7])),
                      rng.randint(0, 1), roots)


def _mero(q: int, pref: ExactConst, specs) -> MeroExpr:
    out = MeroExpr.const(pref)
    for kind, x, alpha, beta, k in specs:
        if kind == "L":
            atom = MeroExpr.l_atom(q, x, LinForm(alpha, beta))
        else:
            atom = MeroExpr.exp(Fraction(q) ** x, LinForm(alpha, beta))
        out = mero_mul(out, atom ** k)
    return out


def test_sympy_oracle_canonical_form():
    sympy = pytest.importorskip("sympy")
    I, sqrt, Rational = sympy.I, sympy.sqrt, sympy.Rational
    X = sympy.Symbol("X")
    rng = random.Random(20240917)

    def poly_sym(poly):
        s = sqrt(poly.p)
        return sum(((a + b * s + (c + d * s) * I) / poly.n * X ** k
                    for k, (a, b, c, d) in enumerate(zip(*poly.parts))), sympy.Integer(0))

    nontrivial = 0
    for trial in range(12):
        q = (3, 5, 9)[trial % 3]
        p = P_OF_Q[q]
        pref, specs = _random_prefactor(rng, p), _random_specs(rng, q)
        expr = (Rational(pref.rat.numerator, pref.rat.denominator) * I ** pref.ipow
                * sqrt(p) ** len(pref.roots))
        for kind, x, alpha, beta, k in specs:
            b = Rational(beta.numerator, beta.denominator)
            if kind == "L":
                c = Rational(x.numerator, x.denominator) * sympy.Integer(q) ** (-b)
                expr *= (1 - c * X ** alpha) ** (-k)
            else:
                expr *= sympy.Integer(q) ** (x * b * k) * X ** (-x * alpha * k)
        n, d = sympy.fraction(sympy.cancel(expr, extension=[I, sqrt(p)]))
        trailing = sympy.Poly(d, X).terms()[-1][1]  # lowest-degree coefficient

        rf = as_rational_in_X(_mero(q, pref, specs), q)
        assert rf.is_exact
        assert sympy.expand(poly_sym(rf.num) * trailing - n) == 0, (q, specs, str(rf))
        assert sympy.expand(poly_sym(rf.den) * trailing - d) == 0, (q, specs, str(rf))
        num, den = _coeffs(rf.num), _coeffs(rf.den)
        assert den[min(den)] == _FractionQiSqrt(p, 1)
        assert min(min(num), min(den)) == 0
        nontrivial += _degree(rf.den) > 0
    assert nontrivial >= 4


def test_equality_and_is_one_agree_with_canonical_form():
    rng = random.Random(7)
    for trial in range(60):
        q = (3, 5, 9)[trial % 3]
        p = P_OF_Q[q]
        pref, specs = _random_prefactor(rng, p), _random_specs(rng, q)
        f = as_rational_in_X(_mero(q, pref, specs), q)
        # the same function with a hidden common factor multiplied in and out
        z = Fraction(rng.choice([1, -1, 2]), rng.choice([1, 5]))
        hidden = specs + [("L", z * z, 2, 0, 1), ("L", z, 1, 0, -1), ("L", -z, 1, 0, -1)]
        g = as_rational_in_X(_mero(q, pref, hidden), q)
        assert f == g and g == f
        assert _keys(f) == _keys(g) and str(f) == str(g)
        assert as_rational_in_X(mero_mul(_mero(q, pref, specs), _mero(q, pref, hidden).inv()),
                                q).is_one
        other_specs = _random_specs(rng, q)
        h = as_rational_in_X(_mero(q, pref, other_specs), q)
        same = _keys(f) == _keys(h)
        assert (f == h) == same
        ratio = as_rational_in_X(mero_mul(_mero(q, pref, specs),
                                          _mero(q, pref, other_specs).inv()), q)
        assert ratio.is_one == same == (str(ratio) == "1")
        assert f.is_one == (str(f) == "1")


def test_common_factor_cancels():
    # (1 - X^2) / (1 - X) = 1 + X, and dividing by 1 + X leaves 1
    e = mero_mul(MeroExpr.l_atom(5, 1, LinForm(2)).inv(), MeroExpr.l_atom(5, 1, LinForm(1)))
    rf = as_rational_in_X(e, 5)
    assert str(rf) == "1 + X"
    assert not rf.is_one
    assert as_rational_in_X(mero_mul(e, MeroExpr.l_atom(5, -1, LinForm(1))), 5).is_one
    with pytest.raises(ValueError, match="does not lie in"):  # sqrt(2) is not in Q(i, sqrt 5)
        as_rational_in_X(mero_mul(e, MeroExpr.const(ExactConst(1, 0, frozenset([2])))), 5)


# -- the expand-then-gcd canonicaliser, kept as the reference ----------------

def _ref_canonical(num: ExactPoly, den: ExactPoly) -> tuple[tuple, tuple]:
    """The keys of the canonical form of num/den (exact): coprime, lowest
    exponent 0 and the denominator's trailing coefficient 1."""
    if _degree(num) < 0:
        return _key(num), _key(_of(num.p, {0: 1}))
    shift = min(min(_coeffs(num)), min(_coeffs(den)))
    num, den = (ExactPoly(f.p, f.n, [part[shift:] for part in f.parts]) for f in (num, den))
    g = _poly_gcd(num, den)
    if _degree(g):  # nontrivial common factor
        num, _ = _poly_divmod(num, g)
        den, _ = _poly_divmod(den, g)
    inv = _inverse(den.p, _coef(den, min(_coeffs(den))))
    return _key(_times(num, inv)), _key(_times(den, inv))


def _expanded(q: int, pref: ExactConst, specs) -> tuple[ExactPoly, ExactPoly]:
    """The product of the specs multiplied out, numerator and denominator
    apart, with nothing cancelled; the power of X goes in at the end."""
    p = P_OF_Q[q]
    num, den, xe = _of(p, {0: pref}), _of(p, {0: 1}), 0
    for kind, x, alpha, beta, k in specs:
        if kind == "L":  # (1 - x q^-beta X^alpha)^-k
            c = ExactConst.of(x) * ExactConst.half_power(Fraction(q), -int(2 * beta))
            k = -k
            if alpha > 0:
                factor = _of(p, {0: 1, alpha: -c})
            else:  # 1 - c X^alpha = X^alpha (X^-alpha - c)
                factor, xe = _of(p, {0: -c, -alpha: 1}), xe + alpha * k
            for _ in range(abs(k)):
                if k > 0:
                    num = _times(num, factor)
                else:
                    den = _times(den, factor)
        else:  # (q^x)^((alpha s + beta) k) = q^(x beta k) X^(-x alpha k)
            scalar = ExactConst.half_power(Fraction(q), int(2 * x * beta * k))
            num, xe = _times(num, _of(p, {0: scalar})), xe - x * alpha * k
    power = _of(p, {abs(xe): 1})
    return (_times(num, power), den) if xe >= 0 else (num, _times(den, power))


def _hidden_specs(rng: random.Random, q: int) -> list[tuple]:
    """_random_specs plus common factors of unequal degree the atoms do not
    show, negative slopes, and repeated or cancelling atoms."""
    specs = _random_specs(rng, q)
    z = Fraction(rng.choice([1, 2, -1, -3]), rng.choice([1, 2, 3]))
    a, k = rng.choice([1, 2, -1, -2]), rng.choice([-1, 1, 2])
    if rng.random() < 0.5:  # (1 - z^3 X^3a) against (1 - z X^a)
        specs += [("L", z ** 3, 3 * a, 0, k), ("L", z, a, 0, -k)]
    if rng.random() < 0.5:  # (1 - z^2 X^2a) against (1 - z X^a)(1 + z X^a), slope of any sign
        specs += [("L", z * z, 2 * a, 0, -k), ("L", z, a, 0, k), ("L", -z, a, 0, k)]
    for _ in range(rng.randint(0, 2)):  # an atom again, or its inverse
        spec = rng.choice(specs)
        specs.append(spec[:4] + (rng.choice([-1, 1, 2]) * spec[4],))
    rng.shuffle(specs)
    return specs


def _assert_factored(rf: RatFunc, p: int):
    """The factorisation's invariants: each factor Psi_d(w X^h) has constant
    term 1, the factors are pairwise coprime by the reference gcd, and their
    product, the exponents E taken, is the product of rf's binomials,
    compared by cross-multiplication."""
    factors = [(_psi_poly(p, *key), e) for key, e in _factors(p, rf.binomials).items()]
    for f, e in factors:
        assert e and _degree(f) > 0 and min(_coeffs(f)) == 0
        assert _coeffs(f)[0] == _FractionQiSqrt(p, 1)
    for j, (f, _) in enumerate(factors):
        for g, _ in factors[j + 1:]:
            assert _degree(_poly_gcd(f, g)) == 0, (str(f), str(g))
    num, den = _product(p, factors)
    bnum, bden = _product(p, [(_binomial(p, key), k) for key, k in rf.binomials.items()])
    assert _key(_times(num, bden)) == _key(_times(bnum, den))


def test_factored_form_matches_reference_canonicaliser():
    rng = random.Random(20261018)
    for trial in range(100):
        q = (3, 5, 7, 9, 25)[trial % 5]
        p = P_OF_Q[q]
        pref = _random_prefactor(rng, p) if trial % 25 else ExactConst(Fraction(0))
        specs = _hidden_specs(rng, q)
        rf = as_rational_in_X(_mero(q, pref, specs), q)
        num, den = _expanded(q, pref, specs)
        want = _ref_canonical(num, den)
        assert _keys(rf) == want, (q, specs, str(rf))
        _assert_factored(rf, p)
        # the same function through RatFunc products, powers and inverses
        other = _hidden_specs(rng, q)
        g = as_rational_in_X(_mero(q, _random_prefactor(rng, p), other), q)
        k = rng.choice([-2, -1, 2])
        prod = rf * g ** k * g.inv() ** k
        assert _keys(prod) == want and str(prod) == str(rf)
        _assert_factored(prod, p)
        if pref.rat:
            assert _keys(rf.inv()) == _ref_canonical(den, num)


def _text_record() -> list[str]:
    """str(as_rational_in_X(...)) of 400 seeded random expressions."""
    rng, out = random.Random(20261020), []
    for trial in range(400):
        q = (3, 5, 7, 9, 25, 27, 49)[trial % 7]
        pref = _random_prefactor(rng, P_OF_Q[q])
        out.append(str(as_rational_in_X(_mero(q, pref, _hidden_specs(rng, q)), q)))
    return out


def test_text_matches_the_pinned_record(monkeypatch):
    """The printed form byte for byte: the reference tests compare values,
    so only this pins the spelling of each coefficient. The record also
    reaches a factor Psi_d with d >= 3 and a class of one root modulus with a
    member 1 + y^m beside other members, so those paths keep their coverage
    here."""
    calls = []

    def recorded(p, binomials):
        calls.append((p, binomials, _factors(p, binomials)))
        return calls[-1][2]
    monkeypatch.setattr(ratfunc, "_factors", recorded)
    want = json.loads(TEXT.read_text(encoding="utf-8"))
    got = _text_record()
    assert any(d >= 3 for _, _, out in calls for *_, d in out)
    plus = [(p, key, binomials) for p, binomials, _ in calls
            for key, k in binomials.items() if k and key[1] < 0]  # 1 - c X^a with c < 0
    assert any(other != key and binomials[other] and _same_modulus(p, key, other)
               for p, key, binomials in plus for other in binomials)
    assert len(got) == len(want)
    for trial, (g, w) in enumerate(zip(got, want)):
        assert g == w, trial


def _inexact_specs(rng: random.Random, q: int) -> list[tuple]:
    """Specs whose first L-atom has a complex z, with float or complex shifts
    (twists) beside half-integer ones, slopes -3..3 and exponents up to 3."""
    def shift():
        return rng.choice([Fraction(rng.randint(-2, 2), 2), round(rng.uniform(-2, 2), 3),
                           complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-1, 1), 3))])
    slopes, powers = [-3, -2, -1, 1, 2, 3], [-3, -2, -1, 1, 2, 3]
    z = complex(rng.choice([1, -1, 2, 0.5]), rng.choice([0.5, -1, 2, -0.25]))
    specs = [("L", z, rng.choice(slopes), shift(), rng.choice(powers))]
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.75:
            z = (complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3))
                 if rng.random() < 0.5 else _random_z(rng, P_OF_Q[q]))
            specs.append(("L", z, rng.choice(slopes), shift(), rng.choice(powers)))
        else:
            specs.append(("E", rng.choice([1, -1, 2]), rng.choice([1, -1, 2]), shift(),
                          rng.choice([-1, 1])))
    return specs


def _inexact_text_record() -> list[str]:
    """str(as_rational_in_X(...)) of 200 seeded expressions with complex
    coefficients, half of them with a complex prefactor."""
    rng, out = random.Random(20261021), []
    for trial in range(200):
        q = (3, 5, 9, 25)[trial % 4]
        pref = (complex(round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 3), 3))
                if trial % 2 else _random_prefactor(rng, P_OF_Q[q]))
        rf = as_rational_in_X(_mero(q, pref, _inexact_specs(rng, q)), q)
        assert not rf.is_exact
        out.append(str(rf))
    return out


def test_inexact_text_matches_the_pinned_record():
    """The complex-coefficient form byte for byte, so the order of the float
    products that build it is pinned too."""
    want = json.loads(INEXACT_TEXT.read_text(encoding="utf-8"))
    got = _inexact_text_record()
    assert len(got) == len(want)
    for trial, (g, w) in enumerate(zip(got, want)):
        assert g == w, trial


def test_hidden_common_factors_of_unequal_degree():
    q, p, one = 5, 5, ExactConst.one()
    for z, a in ((Fraction(2), 1), (Fraction(-1, 3), 2), (Fraction(3), -1), (Fraction(1), -2)):
        # (1 - z^2 X^2a) / (1 - z X^a) = 1 + z X^a, (1 - z^3 X^3a) / (1 - z X^a) has 3 terms
        quad = [("L", z * z, 2 * a, 0, -1), ("L", z, a, 0, 1)]
        cube = [("L", z ** 3, 3 * a, 0, -1), ("L", z, a, 0, 1)]
        for specs, terms in ((quad, 2), (cube, 3)):
            rf = as_rational_in_X(_mero(q, one, specs), q)
            assert _keys(rf) == _ref_canonical(*_expanded(q, one, specs))
            assert len(_coeffs(rf.num)) == terms and len(_coeffs(rf.den)) == 1
        assert as_rational_in_X(_mero(q, one, quad + [("L", -z, a, 0, 1)]), q).is_one
        assert as_rational_in_X(_mero(q, one, [("L", 0 * z, a, 0, 2)]), q).is_one  # 1 - 0 X^a
    # a zero prefactor is 0/1 whatever the atoms
    zero = as_rational_in_X(_mero(q, ExactConst(Fraction(0)), [("L", Fraction(2), -1, 0, 2)]), q)
    assert str(zero) == "0" and not zero.binomials and not zero.is_one
    assert zero == zero * zero and not zero == RatFunc.one(p)


def test_exact_equality_on_differently_factored_inputs():
    rng = random.Random(918)
    q, p = 7, 7
    for c, a in ((Fraction(1), 1), (Fraction(-2, 3), 1), (Fraction(5), 2), (Fraction(1, 2), -1)):
        f = as_rational_in_X(_mero(q, ExactConst.one(), [("L", c * c, 2 * a, 0, -1)]), q)
        g = as_rational_in_X(_mero(q, ExactConst.one(), [("L", c, a, 0, -1)]), q)
        h = as_rational_in_X(_mero(q, ExactConst.one(), [("L", -c, a, 0, -1)]), q)
        assert f == g * h and g * h == f and h * g == f
        assert (f * (g * h).inv()).is_one and (g.inv() * f * h.inv()).is_one
        assert not f == g and not (f * g.inv()).is_one
        cube = as_rational_in_X(_mero(q, ExactConst.one(), [("L", c ** 3, 3 * a, 0, -1)]), q)
        assert cube == g * (cube * g.inv()) and not cube == g
    x = as_rational_in_X(MeroExpr.exp(q, LinForm(-1)), q)
    two = as_rational_in_X(MeroExpr.const(ExactConst(Fraction(2))), q)
    assert str(x) == "X" and not x.is_one and (x * x.inv()).is_one and not two.is_one
    for trial in range(80):
        pref = _random_prefactor(rng, p)
        f = as_rational_in_X(_mero(q, pref, _hidden_specs(rng, q)), q)
        g = as_rational_in_X(_mero(q, pref, _hidden_specs(rng, q)), q)
        if trial % 2:  # g = f, factored otherwise
            g = f * g * g.inv()
        cross = _key(_times(f.num, g.den)) == _key(_times(g.num, f.den))
        assert (f == g) == (g == f) == cross == (f * g.inv()).is_one
        assert trial % 2 == 0 or cross
        for other in (f * x, f * two, f * x * two.inv()):  # f up to X^e or a unit
            assert not f == other and not (f * other.inv()).is_one


@pytest.mark.parametrize("q", [5, 9])
def test_exponential_base_is_read_as_any_integral_power_of_q(q):
    """b^s is X^-r for b = q^r, however large |r|; a base that is no integral
    power of q is refused, also one next to a large power or a root of q."""
    for r in (0, 1, -1, 64, -64, 300, -300):
        got = as_rational_in_X(MeroExpr.exp(Fraction(q) ** r, LinForm(1)), q)
        power = "X" if abs(r) == 1 else f"X^{abs(r)}"
        assert str(got) == ("1" if r == 0 else f"(1) / ({power})" if r > 0 else power)
    big = Fraction(q) ** 300
    bases = [big + 1, big - 1, 1 / (big + 1), Fraction(2), Fraction(q, 2), Fraction(1, 2 * q),
             Fraction(q * q + 1, q), Fraction(q) ** 64 * 2]
    if q == 9:  # odd powers of 3 are half-integral powers of 9
        bases += [Fraction(3), Fraction(1, 3) ** 301]
    for base in bases:
        with pytest.raises(UnsupportedExpressionError, match="not an integral power"):
            as_rational_in_X(MeroExpr.exp(base, LinForm(1)), q)


def test_one_modulus_family_matches_the_expanded_product():
    """(1 -+ (2X)^k)^(+-1) for k = 1..26 at q = 5: one class, y = 2X, with
    members 1 - y^m and 1 + y^m and factors Psi_d up to d = 46, against the
    product multiplied out, by cross-multiplication."""
    e, factors = MeroExpr.one(), []
    for k in range(1, 27):
        z, sign = (-1) ** (k // 3) * 2 ** k, 1 if k % 2 else -1
        e = mero_mul(e, MeroExpr.l_atom(5, z, LinForm(k)) ** sign)
        factors.append((_binomial(5, (k, z, 1, 0)), -sign))
    rf = as_rational_in_X(e, 5)
    assert {key[:4] for key in _factors(5, rf.binomials)} == {(1, 2, 1, 0)}
    assert max(d for *_, d in _factors(5, rf.binomials)) == 46
    num, den = _product(5, factors)
    assert _key(_times(rf.num, den)) == _key(_times(num, rf.den))


def test_psi_is_sympys_cyclotomic_polynomial():
    """_psi(d) is the d-th cyclotomic polynomial scaled to constant term 1
    (so Psi_1 = 1 - y), for d up to 60."""
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    for d in range(1, 61):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(d, y), y).all_coeffs()[::-1]
        assert _psi(d) == tuple(int(x * coeffs[0]) for x in coeffs), d


# -- the modulus test that groups binomials into classes -----------------------

def _shares_a_root(p: int, f: tuple, g: tuple) -> bool:
    """Whether the binomials with the keys f and g have a common root, by the
    reference gcd."""
    return _degree(_poly_gcd(_binomial(p, f), _binomial(p, g))) > 0


def _binomials(rng: random.Random, w, other, units):
    """Two or three binomials (c, a), shaped 1 - c X^a: the first (u w)^a
    for a unit u, so with a root 1/(u w); each later one the same way or,
    four times in ten, other^a."""
    out = []
    for _ in range(rng.randint(2, 3)):
        a = rng.randint(1, 4)
        base = rng.choice(units) * w if rng.random() < 0.6 or not out else other
        out.append((base ** a, a))
    return out


def _nonzero(binomials: dict) -> dict:
    return {key: k for key, k in binomials.items() if k}


def test_root_test_keeps_a_coprime_basis():
    """Products of two or three binomials, many sharing roots, through
    as_rational_in_X: the binomials are held as their keys, the factors are
    pairwise coprime and multiply back to the binomials, and binomials with
    a common root share a class."""
    p, rng = 5, random.Random(1993)
    one, c = ExactConst.one(), ExactConst(Fraction(1, 2), 0, frozenset([5]))
    planted = [[(one, 2), (one, 1)],  # 1 - X^2 against 1 - X
               [(ExactConst.of(4), 2), (ExactConst.of(2), 1)],  # 1 - 4X^2 against 1 - 2X
               [(c * c, 4), (c, 2)],  # 1 - c^2 X^4 against 1 - c X^2, c = sqrt(5) / 2
               [(one, 4), (-one, 2)]]  # 1 - X^4 against 1 + X^2

    def monomial():
        return ExactConst(Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5])),
                          0, frozenset([p]) if rng.random() < 0.5 else frozenset())

    pairs = planted + [_binomials(rng, monomial(), monomial(), (one, -one)) for _ in range(60)]
    shared = 0
    for trial, pair in enumerate(pairs):
        ks = [rng.choice([-2, -1, 1, 2]) if trial >= len(planted) else 1 for _ in pair]
        keys, want = [_binomial_key(a, x) for x, a in pair], {}
        for key, k in zip(keys, ks):
            want[key] = want.get(key, 0) + k
        # (1 - x X^a)^k, x = z sqrt(p)^odd = z q^(odd / 2)
        specs = [("L", x.rat, a, Fraction(-len(x.roots), 2), -k) for (x, a), k in zip(pair, ks)]
        rf = as_rational_in_X(_mero(p, one, specs), p)
        assert rf.is_exact and _nonzero(rf.binomials) == _nonzero(want)
        _assert_factored(rf, p)
        for j, f in enumerate(keys):
            for g in keys[j + 1:]:
                if _shares_a_root(p, f, g):
                    assert _same_modulus(p, f, g), (f, g)
                    shared += 1
    assert shared >= 20


def test_root_test_tells_sign_and_sqrt_parity_apart():
    """Binomial pairs whose constants agree up to sign, or up to a power of
    sqrt(p): a pair apart by the sign alone shares a class, a pair apart by
    a power of sqrt(p) does not, and a pair with a common root (by the
    reference gcd) does; the factors of each pair stay coprime."""
    p, rng = 7, random.Random(2009)
    one, root = ExactConst.one(), ExactConst.half_power(p, 1)
    pairs = [((1, one), (2, one), True),  # 1 - X against 1 - X^2
             ((1, ExactConst.of(2)), (2, ExactConst.of(4)), True)]  # 1 - 2X against 1 - 4X^2
    for _ in range(12):
        c = (ExactConst.of(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 7])))
             * root ** rng.randint(0, 1))
        d = ExactConst(c.rat, 0, frozenset([p]) - c.roots)  # c with the other power of sqrt(p)
        a = rng.randint(1, 2)
        pairs += [((2 * a, c * c), (a, c), True), ((2 * a, c * c), (a, -c), True),  # a common root
                  ((a, c), (a, -c), True), ((2 * a, -(c * c)), (a, c), True),  # apart by the sign
                  ((a, c), (a, d), False), ((2 * a, c * c), (a, d), False)]  # by a power of sqrt(p)
    shared = 0
    for (a, c), (b, d), same in pairs:
        f, g = _binomial_key(a, c), _binomial_key(b, d)
        assert _same_modulus(p, f, g) == _same_modulus(p, g, f) == same, (a, str(c), b, str(d))
        common = _shares_a_root(p, f, g)
        assert same or not common
        shared += common
        rf = RatFunc(p, one, 0, {f: rng.choice([-1, 1, 2]), g: rng.choice([-1, 1])})
        _assert_factored(rf, p)
        assert len({key[:4] for key in _factors(p, rf.binomials)}) == (1 if same else 2)
    assert shared == 2 + 2 * 12


# -- the closed-form fold of a class's generator -----------------------------

def _abs(c: ExactConst) -> ExactConst:
    """|c| for a real c."""
    return ExactConst(abs(c.rat), 0, c.roots)


def _generator(p: int, wn: int, wd: int, wodd: int) -> ExactConst:
    return ExactConst(Fraction(wn, wd), 0, frozenset([p]) if wodd else frozenset())


def test_closed_form_split_matches_euclid():
    """Seeded binomial pairs 1 - c X^a, 1 - d X^b with slopes up to 8 and
    constants +-p^k / m or +-p^k sqrt(p) / m, many sharing planted roots:
    each member's |c| is w^(a/h) for the generator (h, w) of a class, a pair
    of one class has h = gcd(a, b) and the folded w = |c|^u |d|^v, and the
    Psi_d the pair shares (exponent 2) multiply to Euclid's gcd; a generator
    folded with v + 1 in place of v is told apart."""
    rng, one = random.Random(1993), ExactConst.one()
    seen = {"shared": 0, "coprime": 0, "one class": 0, "v<0": 0, "a|b": 0, "equal slopes": 0,
            "w planted": 0}

    def monomial(p: int) -> ExactConst:
        num = rng.choice([1, -1]) * p ** rng.randint(0, 2)
        roots = frozenset() if rng.random() < 0.5 else frozenset([p])
        return ExactConst(Fraction(num, rng.choice([1, 2, 3, p])), 0, roots)

    for trial in range(240):
        q = (3, 5, 9, 25)[trial % 4]
        p = P_OF_Q[q]
        if trial % 3 == 0:  # unrelated constants
            a, b, c, d = rng.randint(1, 8), rng.randint(1, 8), monomial(p), monomial(p)
        else:  # c = +-w^(a/h), d = +-w^(b/h): a common root when the signs allow
            h, w = rng.randint(1, 4), monomial(p)
            ea, eb = rng.randint(1, 8 // h), rng.randint(1, 8 // h)
            a, b = h * ea, h * eb
            c, d = (ExactConst.of(rng.choice([1, -1])) * w ** e for e in (ea, eb))
        f, g = _binomial_key(a, c), _binomial_key(b, d)
        factors = _factors(p, (RatFunc(p, one, 0, {f: 1}) * RatFunc(p, one, 0, {g: 1})).binomials)
        classes = {key[:4] for key in factors}
        for x, e in ((c, a), (d, b)):
            assert any(e % h == 0 and _generator(p, *w) ** (e // h) == _abs(x)
                       for h, *w in classes), (q, a, str(c), b, str(d))
        want = _poly_gcd(_binomial(p, f), _binomial(p, g))
        shared = _product(p, [(_psi_poly(p, *key), 1) for key, e in factors.items() if e == 2])[0]
        assert _key(shared) == _key(want), (q, a, str(c), b, str(d))
        if _degree(want) > 0:
            seen["shared"] += 1
        else:
            seen["coprime"] += 1
            seen["equal slopes"] += a == b and c != d
        if len(classes) > 1:
            continue
        seen["one class"] += 1
        (h, *w), = classes
        k = gcd(a, b)
        u = pow(a // k, -1, b // k)
        v = (1 - u * a // k) // (b // k)
        seen["v<0"] += v < 0
        seen["a|b"] += b % a == 0
        assert h == k and _generator(p, *w) == _abs(c) ** u * _abs(d) ** v
        if _abs(d) != 1:  # w |d|, folded with v + 1, breaks w^(a/h) = |c| or w^(b/h) = |d|
            planted = _generator(p, *w) * _abs(d)
            assert planted ** (a // k) != _abs(c) or planted ** (b // k) != _abs(d)
            seen["w planted"] += 1
    assert min(seen.values()) >= 10, seen


# -- Euclid's algorithm on integer parts ---------------------------------------

def test_euclid_matches_sympy():
    """_poly_divmod and _poly_gcd, the reference of the tests above, against
    sympy's division and gcd in Q(i, sqrt p)[X], on seeded pairs with general
    coefficients (i and sqrt(p) parts) sharing a planted factor, at p = 3, 5
    and 7."""
    sympy = pytest.importorskip("sympy")
    X, rng, shared = sympy.Symbol("X"), random.Random(1996), 0

    def poly(p: int, degree: int) -> ExactPoly:  # constant term 1
        return _poly(p, {0: _FractionQiSqrt(p, 1), **{
            k: _FractionQiSqrt(p, *(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                                    for _ in range(4))) for k in range(1, degree + 1)}})

    for p in (3, 5, 7):
        field = sympy.QQ.algebraic_field(sympy.I, sympy.sqrt(p))
        i, root = field.from_sympy(sympy.I), field.from_sympy(sympy.sqrt(p))

        def ext(f: ExactPoly):  # f as a sympy Poly over the field
            def coef(a, b, c, d):
                a, b, c, d = (field.convert(sympy.QQ(x, f.n)) for x in (a, b, c, d))
                return a + b * root + (c + d * root) * i
            return sympy.Poly.from_list([coef(*xs) for xs in zip(*f.parts)][::-1], X, domain=field)

        for _ in range(8):
            h = poly(p, rng.randint(0, 2))  # the planted common factor
            f, g = (_times(h, poly(p, rng.randint(0, 3))) for _ in range(2))
            # the steps first, so that a faulty step is named
            lead = _coef(g, _degree(g))
            assert ext(_times(ExactPoly(p, *lead), _inverse(p, lead))) == ext(_of(p, {0: 1}))
            top = _times(h, _of(p, {_degree(f) - _degree(h): 1}))  # of f's length
            assert ext(ExactPoly(p, *_sub((f.n, f.parts), (top.n, top.parts)))) == ext(f) - ext(top)
            quo, rem = _poly_divmod(f, g)
            assert (ext(quo), ext(rem)) == ext(f).div(ext(g)), (p, str(f), str(g))
            got = _poly_gcd(f, g)  # scaled to constant term 1, where sympy's is monic
            assert got.parts[0][0] == got.n and not any(part[0] for part in got.parts[1:])
            assert ext(got).monic() == ext(f).gcd(ext(g)), (p, str(f), str(g))
            shared += _degree(got) > 0
    assert shared >= 12


def test_exact_product_matches_qisqrt_schoolbook():
    """ExactPoly products (_mul) against the schoolbook product of dicts of
    Q(i, sqrt p) elements on Fractions, on coefficients with every part,
    either sign and up to 60 digits."""
    rng = random.Random(1982)
    for trial in range(40):
        p = (3, 5, 7, 11)[trial % 4]

        def poly():
            big = 10 ** rng.choice([1, 1, 30, 60])
            return {k: _FractionQiSqrt(p, *(Fraction(rng.randint(-big, big), rng.choice([1, 2, 3, p]))
                                            for _ in range(4)))
                    for k in rng.sample(range(12), rng.randint(0, 6))}
        f, g = poly(), poly()
        want: dict[int, _FractionQiSqrt] = {}
        for k1, x in f.items():
            for k2, y in g.items():
                want[k1 + k2] = want.get(k1 + k2, _FractionQiSqrt(p)) + x * y
        got = _times(_poly(p, f), _poly(p, g))
        assert _coeffs(got) == {k: v for k, v in want.items() if v}
        assert _key(got) == _key(_poly(p, want))


# -- Q(i, sqrt p) arithmetic on integer parts ----------------------------------

primes = st.sampled_from([3, 5, 7, 11])
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
parts = st.tuples(rationals, rationals, rationals, rationals)


@given(primes, parts, parts, parts)
@settings(max_examples=60, deadline=None)
def test_qisqrt_ring_axioms(p, u, v, w):
    """_mul, _sub and _inverse on (n, parts) pairs of degree 0, read back in
    lowest terms by ExactPoly, against the reference on Fractions."""
    def value(pair):
        return _key(ExactPoly(p, *pair))

    def add(x, y):
        return _sub(x, _sub(zero, y))

    def mul(x, y):
        return _mul(p, x, y)
    (x, rx), (y, ry), (z, _) = ((ref.pair(), ref) for ref in (_FractionQiSqrt(p, *t) for t in (u, v, w)))
    zero, one = (1, [[0], [0], [0], [0]]), (1, [[1], [0], [0], [0]])
    assert value(mul(x, y)) == _key(_poly(p, {0: rx * ry}))
    assert value(_sub(x, y)) == _key(_poly(p, {0: rx + -ry}))
    assert value(add(x, y)) == value(add(y, x)) and value(mul(x, y)) == value(mul(y, x))
    assert value(add(add(x, y), z)) == value(add(x, add(y, z)))
    assert value(mul(mul(x, y), z)) == value(mul(x, mul(y, z)))
    assert value(mul(x, add(y, z))) == value(add(mul(x, y), mul(x, z)))
    assert value(add(x, zero)) == value(x) and value(mul(x, one)) == value(x)
    assert value(_sub(x, x)) == value(zero) == value(mul(x, zero)) == (p, 1, ((),) * 4)
    if rx:
        assert value(mul(x, _inverse(p, x))) == value(one)
        assert value(mul(mul(x, y), _inverse(p, x))) == value(y)
        assert value(_inverse(p, _inverse(p, x))) == value(x)


@given(primes, parts, parts)
@settings(max_examples=60, deadline=None)
def test_qisqrt_equal_values_hash_equal(p, u, v):
    """One value reached along several routes, with and without common
    factors, reads back as one ExactPoly: equal fields, so equal keys and
    equal hashes of the keys."""
    x, y = _FractionQiSqrt(p, *u).pair(), _FractionQiSqrt(p, *v).pair()
    zero = (1, [[0], [0], [0], [0]])
    others = [_sub(_sub(x, y), _sub(zero, y)), (6 * x[0], [[6 * t for t in part] for part in x[1]]),
              _mul(p, _mul(p, x, (1, [[3], [0], [0], [0]])), (3, [[1], [0], [0], [0]]))]
    if any(v):
        others.append(_mul(p, _mul(p, x, y), _inverse(p, y)))
    want = ExactPoly(p, *x)
    assert _key(want) == _key(_poly(p, {0: _FractionQiSqrt(p, *u)})) and want.n > 0
    for other in map(lambda pair: ExactPoly(p, *pair), others):
        assert _key(other) == _key(want) and hash(_key(other)) == hash(_key(want))


@given(primes, parts, parts)
@settings(max_examples=60, deadline=None)
def test_qisqrt_str_matches_fraction_spelling(p, u, v):
    """_coef_text, on parts not in lowest terms, spells each part as the Fraction it is."""
    x, ref_x, ref_y = _FractionQiSqrt(p, *u).pair(), _FractionQiSqrt(p, *u), _FractionQiSqrt(p, *v)
    for (n, xs), ref in ((x, ref_x), (_mul(p, x, ref_y.pair()), ref_x * ref_y)):
        assert _coef_text(p, n, [part[0] for part in xs]) == str(ref)


# -- spelling big integers ----------------------------------------------------
# _int_text splits an integer past _DIRECT_DIGITS digits at 2^(1024 * 2^i), so
# powers of 2 at those widths, and of 10 at the threshold, sit on its edges.
EDGES = [(b, e, d) for b, e in [(10, _DIRECT_DIGITS - 1), (10, _DIRECT_DIGITS),
                                (2, 1024 << 5), (2, 1024 << 6), (2, 1024 << 7)]
         for d in (-1, 0, 1)] + [(10, 200_000, -1)]  # 200,000 nines


def _assert_spelled_as_str(k):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(k)  # quadratic: about 0.6 s at 200,000 digits
        assert _int_text(k) == text and _int_text(-k) == "-" + text
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("b, e, d", EDGES)
def test_int_text_is_str_at_powers_of_10_and_2(b, e, d):
    _assert_spelled_as_str(b ** e + d)


# half the draws past the threshold, where _int_text splits
@given(st.integers(1, 200_000) | st.integers(_DIRECT_DIGITS, 40_000),
       st.randoms(use_true_random=False))
@settings(max_examples=16, deadline=None)
def test_int_text_is_str(digits, rng):
    _assert_spelled_as_str(rng.randrange(10 ** (digits - 1), 10 ** digits))


def test_fraction_text_is_str():
    big = 7 ** 20_000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for x in (Fraction(-big, 2), Fraction(big, big + 2), Fraction(3, -big), Fraction(-big),
                  Fraction(1, 2), Fraction(-5), Fraction(0)):
            assert _fraction_text(x.numerator, x.denominator) == str(x)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    TEXT.parent.mkdir(exist_ok=True)
    TEXT.write_text(json.dumps(_text_record(), indent=0) + "\n", encoding="utf-8")
    INEXACT_TEXT.write_text(json.dumps(_inexact_text_record(), indent=0) + "\n", encoding="utf-8")
