"""Exact rational functions in X: the canonical form against a sympy oracle
and against the expand-then-gcd reference, equality and is_one against the
canonical form, the printed text against a pinned record, and QiSqrt
arithmetic.

The record of printed text lives in tests/data/ratfunc_text.json.  Regenerate
it, only when a change to the spelling is intended, with

    PYTHONPATH=src python tests/test_ratfunc.py
"""

import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfactors.exactconst import ExactConst
from lfactors.mero import LinForm, MeroExpr, mero_mul
from lfactors import ratfunc
from lfactors.query import run_query
from lfactors.ratfunc import (_DIRECT_DIGITS, ExactPoly, QiSqrt, RatFunc, _fraction_text,
                              _int_text, _one_minus, _poly_divmod, _poly_gcd, _split,
                              as_rational_in_X)
from lfactors.verify import run_verify

P_OF_Q = {3: 3, 5: 5, 7: 7, 9: 3, 25: 5, 27: 3, 49: 7}
TEXT = Path(__file__).resolve().parent / "data" / "ratfunc_text.json"


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

    def qisqrt_sym(v: QiSqrt):
        s = sqrt(v.p)
        return (v.a + v.b * s + (v.c + v.d * s) * I) / v.n

    def poly_sym(poly):
        return sum((qisqrt_sym(c) * X ** k for k, c in poly.coeffs.items()), sympy.Integer(0))

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
        assert rf.den.coeffs[min(rf.den.coeffs)] == QiSqrt(p, 1)
        assert min(min(rf.num.coeffs), min(rf.den.coeffs)) == 0
        nontrivial += max(rf.den.coeffs) > 0
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
        assert (f.num, f.den) == (g.num, g.den) and str(f) == str(g)
        assert as_rational_in_X(mero_mul(_mero(q, pref, specs), _mero(q, pref, hidden).inv()),
                                q).is_one
        other_specs = _random_specs(rng, q)
        h = as_rational_in_X(_mero(q, pref, other_specs), q)
        same = (f.num, f.den) == (h.num, h.den)
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


# -- the expand-then-gcd canonicaliser, kept as the reference ----------------

def _scaled(f: ExactPoly, c: QiSqrt) -> ExactPoly:
    return f * ExactPoly.of(f.p, {0: c})


def _ref_gcd(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Monic gcd by Euclid's algorithm."""
    while b.degree >= 0:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.degree < 0:
        return a
    return _scaled(a, a.coeffs[max(a.coeffs)].inverse())


def _ref_canonical(num: ExactPoly, den: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    """Canonical form of num/den (exact): coprime, lowest exponent 0 and the
    denominator's trailing coefficient 1."""
    if num.degree < 0:
        return num, ExactPoly.of(num.p, {0: 1})
    shift = min(min(num.coeffs), min(den.coeffs))
    num, den = (ExactPoly.of(f.p, {k - shift: v for k, v in f.coeffs.items()}) for f in (num, den))
    g = _ref_gcd(num, den)
    if max(g.coeffs):  # nontrivial common factor
        num, _ = _poly_divmod(num, g)
        den, _ = _poly_divmod(den, g)
    inv = den.coeffs[min(den.coeffs)].inverse()
    return _scaled(num, inv), _scaled(den, inv)


def _expanded(q: int, pref: ExactConst, specs) -> tuple[ExactPoly, ExactPoly]:
    """The product of the specs multiplied out, numerator and denominator
    apart, with nothing cancelled; the power of X goes in at the end."""
    p = P_OF_Q[q]
    num, den, xe = ExactPoly.of(p, {0: pref}), ExactPoly.of(p, {0: 1}), 0
    for kind, x, alpha, beta, k in specs:
        if kind == "L":  # (1 - x q^-beta X^alpha)^-k
            c = QiSqrt.of(p, ExactConst.of(x) * ExactConst.half_power(Fraction(q), -int(2 * beta)))
            k = -k
            if alpha > 0:
                factor = ExactPoly.of(p, {0: 1, alpha: -c})
            else:  # 1 - c X^alpha = X^alpha (X^-alpha - c)
                factor, xe = ExactPoly.of(p, {0: -c, -alpha: 1}), xe + alpha * k
            for _ in range(abs(k)):
                if k > 0:
                    num = num * factor
                else:
                    den = den * factor
        else:  # (q^x)^((alpha s + beta) k) = q^(x beta k) X^(-x alpha k)
            scalar = ExactConst.half_power(Fraction(q), int(2 * x * beta * k))
            num, xe = num * ExactPoly.of(p, {0: scalar}), xe - x * alpha * k
    power = ExactPoly.of(p, {abs(xe): 1})
    return (num * power, den) if xe >= 0 else (num, den * power)


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


def _assert_factored(rf, p: int):
    """The factored form's invariants: a pairwise coprime basis of
    polynomials with constant term 1 and nonzero exponents."""
    fs = list(rf.basis)
    for f in fs:
        assert min(f.coeffs) == 0 and f.coeffs[0] == QiSqrt(p, 1) and max(f.coeffs) > 0
        assert rf.basis[f] != 0
    for i, f in enumerate(fs):
        for g in fs[i + 1:]:
            assert max(_ref_gcd(f, g).coeffs) == 0, (str(f), str(g))


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
        assert (rf.num, rf.den) == want, (q, specs, str(rf))
        _assert_factored(rf, p)
        # the same function through RatFunc products, powers and inverses
        other = _hidden_specs(rng, q)
        g = as_rational_in_X(_mero(q, _random_prefactor(rng, p), other), q)
        k = rng.choice([-2, -1, 2])
        prod = rf * g ** k * g.inv() ** k
        assert (prod.num, prod.den) == want and str(prod) == str(rf)
        _assert_factored(prod, p)
        if pref.rat:
            assert (rf.inv().num, rf.inv().den) == _ref_canonical(den, num)


def _text_record() -> list[str]:
    """str(as_rational_in_X(...)) of 400 seeded random expressions."""
    rng, out = random.Random(20261020), []
    for trial in range(400):
        q = (3, 5, 7, 9, 25, 27, 49)[trial % 7]
        pref = _random_prefactor(rng, P_OF_Q[q])
        out.append(str(as_rational_in_X(_mero(q, pref, _hidden_specs(rng, q)), q)))
    return out


def test_text_matches_the_pinned_record():
    """The printed form byte for byte: the reference tests compare values,
    so only this pins the spelling of each coefficient."""
    want = json.loads(TEXT.read_text(encoding="utf-8"))
    got = _text_record()
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
            assert (rf.num, rf.den) == _ref_canonical(*_expanded(q, one, specs))
            assert len(rf.num.coeffs) == terms and len(rf.den.coeffs) == 1
        assert as_rational_in_X(_mero(q, one, quad + [("L", -z, a, 0, 1)]), q).is_one
        assert as_rational_in_X(_mero(q, one, [("L", 0 * z, a, 0, 2)]), q).is_one  # 1 - 0 X^a
    # a zero prefactor is 0/1 whatever the atoms
    zero = as_rational_in_X(_mero(q, ExactConst(Fraction(0)), [("L", Fraction(2), -1, 0, 2)]), q)
    assert str(zero) == "0" and not zero.basis and not zero.is_one
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
        cross = f.num * g.den == g.num * f.den
        assert (f == g) == (g == f) == cross == (f * g.inv()).is_one
        assert trial % 2 == 0 or cross
        for other in (f * x, f * two, f * x * two.inv()):  # f up to X^e or a unit
            assert not f == other and not (f * other.inv()).is_one


# -- the root test that spares the gcd of two binomials ---------------------

def _assert_refined(rf, p: int, factors):
    """rf is exact, its basis is pairwise coprime by _poly_gcd, and rf is the
    product of the factors (poly, k), compared by cross-multiplication."""
    assert rf.is_exact
    basis = list(rf.basis)
    for j, f in enumerate(basis):
        for g in basis[j + 1:]:
            assert len(_poly_gcd(f, g).coeffs) == 1, (str(f), str(g))
    num, den = ExactPoly.of(p, {0: 1}), ExactPoly.of(p, {0: 1})
    for poly, k in factors:
        for _ in range(abs(k)):
            num, den = (num * poly, den) if k > 0 else (num, den * poly)
    assert rf.num * den == num * rf.den


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


def _refined(p: int, factors) -> RatFunc:
    """The product of the factors (poly, k) through RatFunc products."""
    rf = RatFunc.one(p)
    for poly, k in factors:
        rf = rf * RatFunc(p, QiSqrt(p, 1), 0, {poly: k})
    return rf


def test_root_test_keeps_a_coprime_basis():
    p, rng = 5, random.Random(1993)
    one, i, c = ExactConst.one(), ExactConst.i(), ExactConst(Fraction(1, 2), 1, frozenset([5]))
    planted = [[(one, 2), (one, 1)],  # 1 - X^2 against 1 - X
               [(ExactConst.of(4), 2), (ExactConst.of(2), 1)],  # 1 - 4X^2 against 1 - 2X
               [(c * c, 4), (c, 2)],  # 1 - c^2 X^4 against 1 - c X^2, c = i sqrt(5) / 2
               [(one, 4), (-one, 2)]]  # 1 - X^4 against 1 + X^2

    def monomial():
        return ExactConst(Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5])),
                          rng.randint(0, 1), frozenset([p]) if rng.random() < 0.5 else frozenset())

    pairs = planted + [_binomials(rng, monomial(), monomial(), (one, -one, i, -i))
                       for _ in range(60)]
    for trial, pair in enumerate(pairs):
        ks = [rng.choice([-2, -1, 1, 2]) if trial >= len(planted) else 1 for _ in pair]
        factors = [(_one_minus(a, QiSqrt.of(p, x)), k) for (x, a), k in zip(pair, ks)]
        specs = [("L", x, a, 0, -k) for (x, a), k in zip(pair, ks)]  # (1 - x X^a)^k
        rf = as_rational_in_X(_mero(p, one, specs), p)
        if not rf.is_exact:  # MeroExpr.l_atom holds a z with i or sqrt(p) as a complex
            want = _refined(p, factors)
            assert rf == want and want == rf  # cross-multiplied to a relative 1e-9
            rf = want
        _assert_refined(rf, p, factors)
    # coefficients beyond monomials, through RatFunc products
    qi = [QiSqrt(p, 1), QiSqrt(p, -1), QiSqrt(p, 0, 0, 1), QiSqrt(p, 0, 0, -1)]
    for _ in range(60):
        w, other = (QiSqrt(p, *(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                                for _ in range(4))) for _ in range(2))
        if not (w and other):
            continue
        factors = [(_one_minus(a, x), rng.choice([-2, -1, 1, 2]))
                   for x, a in _binomials(rng, w, other, qi)]
        _assert_refined(_refined(p, factors), p, factors)


def _norm(x: QiSqrt) -> QiSqrt:
    """The product of the four conjugates of x: i -> +-i, sqrt(p) -> +-sqrt(p)."""
    out = QiSqrt(x.p, 1)
    for si in (1, -1):
        for sp in (1, -1):
            out = out * QiSqrt._of_ints(x.p, x.a, sp * x.b, si * x.c, si * sp * x.d, x.n)
    return out


def test_norm_check_reaches_the_exact_test():
    """Binomial pairs whose norms agree, so that only the exact test can tell
    a common root: c against its conjugates, -c and i c, at one degree and
    as 1 - c^2 X^2a against 1 - d X^a, and planted common roots."""
    p, rng = 7, random.Random(2009)
    i = QiSqrt(p, 0, 0, 1)
    pairs = [((1, QiSqrt(p, 1)), (2, QiSqrt(p, 1))),  # 1 - X against 1 - X^2
             ((1, QiSqrt(p, 2)), (2, QiSqrt(p, 4)))]  # 1 - 2X against 1 - 4X^2
    for _ in range(12):
        c = QiSqrt(p, *(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 7]))
                        for _ in range(4)))
        a = rng.randint(1, 2)
        pairs.append(((2 * a, c * c), (a, c)))  # 1 - c^2 X^2a against 1 - c X^a
        for d in (QiSqrt._of_ints(p, c.a, c.b, -c.c, -c.d, c.n), -c, i * c,
                  QiSqrt._of_ints(p, c.a, -c.b, c.c, -c.d, c.n)):
            assert _norm(d) == _norm(c) and _norm(c * c) == _norm(d) * _norm(d)
            pairs += [((a, c), (a, d)), ((2 * a, c * c), (a, d))]
    shared = 0
    for (a, c), (b, d) in pairs:
        factors = [(_one_minus(a, c), rng.choice([-1, 1, 2])), (_one_minus(b, d), rng.choice([-1, 1]))]
        rf = _refined(p, factors)
        _assert_refined(rf, p, factors)
        shared += set(rf.basis) != {f for f, _ in factors}
    assert shared >= 14  # the planted pairs, 1 - c^2 X^2a against 1 -+ c X^a, and more


# -- the closed-form split of two binomials ----------------------------------

def _split_mismatches(f: ExactPoly, g: ExactPoly, split) -> list[str]:
    """How a split (h, f / h, g / h), or None, departs from Euclid's gcd and
    division; a part built as a binomial must have the coefficients it claims."""
    h = _poly_gcd(f, g)
    if h.degree == 0:
        return [] if split is None else ["split of a coprime pair"]
    if split is None:
        return ["coprime by the root test, gcd " + str(h)]
    (qf, rf), (qg, rg) = _poly_divmod(f, h), _poly_divmod(g, h)
    assert rf.degree < 0 and rg.degree < 0
    out = [f"{name}: {got} against {want}"
           for name, got, want in zip(("gcd", "f / gcd", "g / gcd"), split, (h, qf, qg)) if got != want]
    for part in split:
        if part.binomial:
            (a, c, norm, den), nc = part.binomial, _norm(part.binomial[1])
            if part.coeffs != {0: QiSqrt(f.p, 1), a: -c} or Fraction(norm, den) != Fraction(nc.a, nc.n):
                out.append(f"{part} is not 1 - ({c}) X^{a}")
    return out


def _powers(w: QiSqrt, h: int, m: int) -> ExactPoly:
    """sum_{j < m} w^j X^(jh)."""
    return ExactPoly.of(w.p, {j * h: w ** j for j in range(m)})


def test_closed_form_split_matches_euclid():
    """Seeded binomial pairs 1 - c X^a, 1 - d X^b with slopes up to 8 and
    constants +-p^k / m or +-p^k sqrt(p) / m, many sharing planted roots: the
    closed-form gcd and quotients equal Euclid's; a planted w = c^u d^(v+1)
    or a quotient missing its top term is told apart."""
    rng, seen = random.Random(1993), {"shared": 0, "coprime": 0, "v<0": 0, "a|b": 0,
                                      "equal slopes": 0, "w planted": 0, "term dropped": 0}

    def monomial(p: int) -> QiSqrt:
        num = rng.choice([1, -1]) * p ** rng.randint(0, 2)
        return QiSqrt._of_ints(p, *((num, 0) if rng.random() < 0.5 else (0, num)), 0, 0,
                               rng.choice([1, 2, 3, p]))

    for trial in range(240):
        q = (3, 5, 9, 25)[trial % 4]
        p = P_OF_Q[q]
        if trial % 3 == 0:  # unrelated constants
            a, b, c, d = rng.randint(1, 8), rng.randint(1, 8), monomial(p), monomial(p)
        else:  # c = +-w^(a/h), d = +-w^(b/h): a common root when the signs allow
            h, w = rng.randint(1, 4), monomial(p)
            ea, eb = rng.randint(1, 8 // h), rng.randint(1, 8 // h)
            a, b = h * ea, h * eb
            c, d = (QiSqrt(p, rng.choice([1, -1])) * w ** e for e in (ea, eb))
        f, g = _one_minus(a, c), _one_minus(b, d)
        split = _split(f, g)
        assert _split_mismatches(f, g, split) == [], (q, a, str(c), b, str(d))
        if split is None:
            seen["coprime"] += 1
            seen["equal slopes"] += a == b and c != d
            continue
        seen["shared"] += 1
        k = gcd(a, b)
        u = pow(a // k, -1, b // k)
        v = (1 - u * a // k) // (b // k)
        seen["v<0"] += v < 0
        seen["a|b"] += b % a == 0
        w = c ** u * d ** v
        assert split[0] == _one_minus(k, w)
        if d != QiSqrt(p, 1):  # w = c^u d^(v+1) breaks the gcd, so the check must fail
            planted = w * d
            planted = (_one_minus(k, planted), _powers(planted, k, a // k), _powers(planted, k, b // k))
            assert _split_mismatches(f, g, planted)
            seen["w planted"] += 1
        assert _split_mismatches(f, g, (split[0], _powers(w, k, a // k - 1), split[2]))
        seen["term dropped"] += 1
    assert min(seen.values()) >= 10, seen


def test_corpus_and_verify_reach_no_euclid(monkeypatch):
    """The nine padic-exact documents and a seed-7 verify pass split every
    pair in closed form: _poly_gcd is not reached, while the closed form is."""
    calls = {"gcd": 0, "closed form": 0}

    def counted_gcd(f, g):
        calls["gcd"] += 1
        return _poly_gcd(f, g)

    def counted_split(f, g):
        out = _split(f, g)
        calls["closed form"] += out is not None and f.binomial is not None and g.binomial is not None
        return out
    monkeypatch.setattr(ratfunc, "_poly_gcd", counted_gcd)
    monkeypatch.setattr(ratfunc, "_split", counted_split)
    corpus = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
                         / "padic-exact.json").read_text(encoding="utf-8"))
    assert len(corpus) == 9
    for entry in corpus:
        run_query(entry["doc"])
    assert calls == {"gcd": 0, "closed form": 3}
    run_verify("all", 7)
    assert calls["gcd"] == 0
    # the counter sees Euclid: a trinomial against a binomial it divides
    ratfunc._refine({ExactPoly.of(5, {0: 1, 1: 1, 2: 1}): 1}, _one_minus(3, QiSqrt(5, 1)), 1)
    assert calls["gcd"] > 0


def test_exact_product_matches_qisqrt_schoolbook():
    """ExactPoly products against the product of {k: QiSqrt} dicts, on
    coefficients with every part, either sign and up to 60 digits."""
    rng = random.Random(1982)
    for trial in range(40):
        p = (3, 5, 7, 11)[trial % 4]

        def poly():
            big = 10 ** rng.choice([1, 1, 30, 60])
            return {k: QiSqrt(p, *(Fraction(rng.randint(-big, big), rng.choice([1, 2, 3, p]))
                                   for _ in range(4)))
                    for k in rng.sample(range(12), rng.randint(0, 6))}
        f, g = poly(), poly()
        want: dict[int, QiSqrt] = {}
        for k1, x in f.items():
            for k2, y in g.items():
                want[k1 + k2] = want.get(k1 + k2, QiSqrt(p)) + x * y
        got = ExactPoly.of(p, f) * ExactPoly.of(p, g)
        assert got.coeffs == {k: v for k, v in want.items() if v}
        assert got == ExactPoly.of(p, want) and hash(got) == hash(ExactPoly.of(p, want))


# -- QiSqrt -----------------------------------------------------------------

primes = st.sampled_from([3, 5, 7, 11])
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
parts = st.tuples(rationals, rationals, rationals, rationals)


class _FractionQiSqrt:
    """QiSqrt's product, str and to_complex on four Fractions: the reference
    the integer representation must reproduce."""

    def __init__(self, p, a, b, c, d):
        self.p, self.a, self.b, self.c, self.d = p, a, b, c, d

    def __mul__(self, o):
        def rmul(x1, y1, x2, y2):  # (x1 + y1 sqrt p)(x2 + y2 sqrt p)
            return (x1 * x2 + self.p * y1 * y2, x1 * y2 + y1 * x2)
        ra, rb = rmul(self.a, self.b, o.a, o.b)
        ia, ib = rmul(self.c, self.d, o.c, o.d)
        ca, cb = rmul(self.a, self.b, o.c, o.d)
        da, db = rmul(self.c, self.d, o.a, o.b)
        return _FractionQiSqrt(self.p, ra - ia, rb - ib, ca + da, cb + db)

    def to_complex(self) -> complex:
        r = float(self.a) + float(self.b) * self.p ** 0.5
        im = float(self.c) + float(self.d) * self.p ** 0.5
        return complex(r, im)

    def __str__(self):
        if not (self.a or self.b or self.c or self.d):
            return "0"
        terms = []
        for coef, tag in ((self.a, ""), (self.b, f"*sqrt({self.p})"),
                          (self.c, "*i"), (self.d, f"*i*sqrt({self.p})")):
            if coef:
                terms.append(f"{coef}{tag}")
        return " + ".join(terms).replace("+ -", "- ")


@given(primes, parts, parts, parts)
@settings(max_examples=60, deadline=None)
def test_qisqrt_ring_axioms(p, u, v, w):
    x, y, z = QiSqrt(p, *u), QiSqrt(p, *v), QiSqrt(p, *w)
    zero, one = QiSqrt(p), QiSqrt(p, 1)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x - x == zero
    assert (x * zero) == zero and not (x * zero)
    if x:
        assert x * x.inverse() == one
        assert (x * y) * x.inverse() == y
        assert x.inverse().inverse() == x
        assert x ** 7 == x * x * x * x * x * x * x and x ** -2 == (x * x).inverse()
        assert x ** 0 == one and x ** 1 == x


@given(primes, parts, parts)
@settings(max_examples=60, deadline=None)
def test_qisqrt_equal_values_hash_equal(p, u, v):
    x, y = QiSqrt(p, *u), QiSqrt(p, *v)
    others = [(x + y) - y, QiSqrt(p, *(6 * t for t in u)) * QiSqrt(p, Fraction(1, 6)),
              (x * QiSqrt(p, 3)) * QiSqrt(p, Fraction(1, 3))]
    if y:
        others.append((x * y) * y.inverse())
    for other in others:
        assert other == x and hash(other) == hash(x)
        assert (other.a, other.b, other.c, other.d, other.n) == (x.a, x.b, x.c, x.d, x.n)
    assert x.n > 0


@given(primes, parts, parts)
@settings(max_examples=60, deadline=None)
def test_qisqrt_str_and_complex_match_fraction_spelling(p, u, v):
    x, ref_x = QiSqrt(p, *u), _FractionQiSqrt(p, *u)
    for value, ref in ((x, ref_x), (x * QiSqrt(p, *v), ref_x * _FractionQiSqrt(p, *v))):
        assert str(value) == str(ref)
        assert value.to_complex() == ref.to_complex()


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
