import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfactors.characters import (MultCharacter, char_eval,
                                 char_inverse, char_mul, quadratic_character,
                                 unramified_twist)
from lfactors.fields import (LocalField, SquareClass, UnsupportedFieldError,
                             UnsupportedOperationError, hilbert_pair_class,
                             hilbert_symbol, nonsquare_unit, square_class,
                             valuation)
from lfactors.verify import conic_solvable_oracle

Q3 = LocalField.padic(3)
Q5 = LocalField.padic(5)
Q7 = LocalField.padic(7)
R = LocalField.real()

rationals = st.fractions(min_value=-50, max_value=50).filter(lambda v: v != 0)
padic_fields = st.sampled_from([Q3, Q5, Q7, LocalField.padic(11)])
any_field = st.sampled_from([R, Q3, Q5, Q7, LocalField.padic(11)])


def test_field_validation():
    with pytest.raises(UnsupportedFieldError):
        LocalField.padic(2)
    with pytest.raises(UnsupportedFieldError):
        LocalField.padic(9)
    with pytest.raises(UnsupportedFieldError):
        LocalField.padic(5, 0)
    assert LocalField.padic(3, 2).q == 9
    for p in [*range(-30, 400), 999983, 999981, 3 ** 12, 997 * 1009]:
        if p > 2 and all(p % d for d in range(2, p)):  # an odd prime
            assert LocalField.padic(p).p == p
        else:  # 0, 1, 2, negative values and composites
            with pytest.raises(UnsupportedFieldError):
                LocalField.padic(p)


def test_valuation_examples():
    assert valuation(Q5, 50) == 2
    assert valuation(Q3, Fraction(1, 3)) == -1
    assert valuation(Q7, 2) == 0
    with pytest.raises(UnsupportedOperationError):
        valuation(R, 2)


# The Fraction formulas fields.py used before it read each rational once, on
# ints: the references of the property test below.

def _ref_valuation(F, x):
    v = Fraction(x)
    if v == 0:
        raise ValueError("field elements must be nonzero")
    num, den, ord_ = v.numerator, v.denominator, 0
    while num % F.p == 0:
        num, ord_ = num // F.p, ord_ + 1
    while den % F.p == 0:
        den, ord_ = den // F.p, ord_ - 1
    return ord_


def unit_part(F, x):
    """x / p^{ord(x)}, a p-adic unit (as a rational)."""
    return Fraction(x) / Fraction(F.p) ** _ref_valuation(F, x)


def _ref_residue(F, x):
    u, p = unit_part(F, x), F.p
    r = pow(u.numerator % p * pow(u.denominator % p, -1, p) % p, (p - 1) // 2, p)
    sym = -1 if r == p - 1 else r
    return sym if F.f % 2 == 1 else sym * sym


def _ref_square_class(F, x):
    bits = (1 if _ref_residue(F, x) == -1 else 0, _ref_valuation(F, x) % 2)
    return {(0, 0): "1", (1, 0): "u", (0, 1): "p", (1, 1): "up"}[bits]


def _ref_hilbert(F, a, b):
    alpha, beta = _ref_valuation(F, a), _ref_valuation(F, b)
    sym = (-1) ** (alpha * beta * (((F.q - 1) // 2) % 2))
    if beta % 2:
        sym *= _ref_residue(F, unit_part(F, a))
    if alpha % 2:
        sym *= _ref_residue(F, unit_part(F, b))
    return sym


def _ref_pair_class(F, x, d):
    ubit, pbit = d.bits
    alpha = _ref_valuation(F, x)
    sym = (-1) ** alpha if ubit else 1
    if pbit:
        sym *= (-1) ** (alpha * (((F.q - 1) // 2) % 2)) * _ref_residue(F, unit_part(F, x))
    return sym


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 11, 999983])
def test_int_symbols_match_the_fraction_formulas(p, f):
    F, rng = LocalField.padic(p, f), random.Random(100 * p + f)
    classes = [SquareClass(F, name) for name in ("1", "u", "p", "up")]

    def draw():  # either sign, p-powers up to +-6, as an int or a Fraction
        k, unit = rng.randint(-6, 6), rng.choice([-1, 1]) * rng.randint(1, 3 * p)
        if k >= 0 and rng.random() < 0.5:
            return unit * p ** k
        return Fraction(unit, rng.randint(1, 3 * p)) * Fraction(p) ** k

    values = [draw() for _ in range(150)]
    assert {type(x) for x in values} == {int, Fraction}
    assert {_ref_valuation(F, x) for x in values} >= set(range(-6, 7))
    assert {_ref_square_class(F, x) for x in values} == ({"1", "u", "p", "up"} if f == 1 else {"1", "p"})
    for x, y in zip(values, values[1:] + values[:1]):
        assert valuation(F, x) == _ref_valuation(F, x)
        assert square_class(F, x).name == _ref_square_class(F, x)
        assert hilbert_symbol(F, x, y) == _ref_hilbert(F, x, y)
        assert type(hilbert_symbol(F, x, y)) is int
        for d in classes:
            assert hilbert_pair_class(F, x, d) == _ref_pair_class(F, x, d)
            assert type(hilbert_pair_class(F, x, d)) is int
    for zero in (0, Fraction(0)):
        for call in (lambda: valuation(F, zero), lambda: square_class(F, zero),
                     lambda: hilbert_symbol(F, zero, 1), lambda: hilbert_symbol(F, 1, zero),
                     lambda: hilbert_pair_class(F, zero, classes[3])):
            with pytest.raises(ValueError, match="nonzero"):
                call()


def test_square_class_examples():
    assert square_class(R, -3).name == "-1"
    # 2 is a nonsquare mod 5 (squares mod 5 are {1, 4})
    assert {x * x % 5 for x in range(1, 5)} == {1, 4}
    assert square_class(Q5, 10).name == "up"
    # 3^2 = 2 mod 7
    assert pow(3, 2, 7) == 2
    assert square_class(Q7, 2).name == "1"


@given(any_field, rationals, rationals)
def test_square_class_mod_squares(F, x, y):
    assert square_class(F, x * y * y) == square_class(F, x)


def test_hilbert_examples():
    assert hilbert_symbol(R, -1, -1) == -1
    for F in (R, Q5, Q7):
        assert hilbert_symbol(F, Fraction(7, 3), 1) == 1
    assert hilbert_symbol(Q5, 5, 2) == -1


def brute_conic_mod(p, a, b, k=3):
    """Primitive solvability of z^2 = a x^2 + b y^2 mod p^k (small scan)."""
    mod = p ** k
    squares = {z * z % mod for z in range(mod)}
    for x in range(mod):
        for y in range(mod):
            if x % p == 0 and y % p == 0:
                continue
            if (a * x * x + b * y * y) % mod in squares:
                return True
    return False


@pytest.mark.parametrize("p", [3, 5])
def test_hilbert_against_small_brute_force(p):
    F = LocalField.padic(p)
    units = [1, 2, p - 1, p + 1]
    for ua in units:
        for ub in units:
            for ea in (1, p):
                for eb in (1, p):
                    a, b = ua * ea, ub * eb
                    assert (hilbert_symbol(F, a, b) == 1) == brute_conic_mod(p, a, b)


def _ref_conic_oracle(p, a, b):
    """The conic oracle as a grid search over all p^6 pairs (x, y) mod p^3."""
    def normalize(v):
        F = LocalField.padic(p)
        val = _ref_valuation(F, v) % 2
        u = unit_part(F, v)
        lift = (u.numerator * pow(u.denominator, -1, p ** 3)) % p ** 3
        return (lift * (p if val else 1)) % p ** 3

    mod = p ** 3
    an, bn = normalize(a), normalize(b)
    xs = np.arange(mod, dtype=np.int64)
    squares = np.zeros(mod, dtype=bool)
    squares[(xs * xs) % mod] = True
    ax2 = (an * xs * xs) % mod
    by2 = (bn * xs * xs) % mod
    prim_x = (xs % p) != 0
    for chunk in range(0, mod, 256):
        ys = xs[chunk:chunk + 256]
        ok = squares[(ax2[:, None] + by2[ys][None, :]) % mod]
        mask = prim_x[:, None] | ((ys % p) != 0)[None, :]
        if np.any(ok & mask):
            return True
    return False


def _normalised_values(p):
    """Every value the oracle normalises to: units u and p*u, u a unit mod p^3."""
    units = [u for u in range(1, p ** 3) if u % p]
    return units + [p * u for u in units]


def _assert_oracles_agree(p, a, b, brute=True):
    want = conic_solvable_oracle(p, Fraction(a), Fraction(b))
    assert want == _ref_conic_oracle(p, Fraction(a), Fraction(b)), (p, a, b)
    if brute:
        assert want == brute_conic_mod(p, a, b), (p, a, b)


def test_conic_oracle_every_normalised_pair_p3():
    values = _normalised_values(3)
    assert len(values) ** 2 == 1296
    for a in values:
        for b in values:
            _assert_oracles_agree(3, a, b)


@pytest.mark.parametrize("p, samples, brute", [(5, 80, True), (7, 40, True), (11, 30, False)])
def test_conic_oracle_seeded_normalised_pairs(p, samples, brute):
    # brute_conic_mod scans p^6 pairs in Python: about 1 s a call at p = 11
    rng = random.Random(p)
    values = _normalised_values(p)
    for _ in range(samples):
        _assert_oracles_agree(p, rng.choice(values), rng.choice(values), brute)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_conic_oracle_odd_valuations(p):
    # a = p^k n/d has the square class of p^(k mod 2) n d, which brute_conic_mod reads
    rng = random.Random(100 + p)
    F = LocalField.padic(p)

    def draw(odd):
        n, d = (rng.choice([u for u in range(1, 4 * p) if u % p]) * rng.choice((1, -1))
                for _ in range(2))
        k = rng.choice((-3, -1, 1, 3) if odd else (-2, 0, 2))
        return Fraction(n, d) * Fraction(p) ** k, p ** (k % 2) * n * d

    for odd_a, odd_b in ((True, False), (False, True), (True, True)) * 8:
        (a, ia), (b, ib) = draw(odd_a), draw(odd_b)
        want = conic_solvable_oracle(p, a, b)
        assert want == _ref_conic_oracle(p, a, b) == brute_conic_mod(p, ia, ib), (p, a, b)
        assert want == (hilbert_symbol(F, a, b) == 1), (p, a, b)
    with pytest.raises(ValueError, match="nonzero"):  # no endless stripping of p from 0
        conic_solvable_oracle(p, Fraction(0), Fraction(1))


def test_hilbert_oracle_check_can_fail(monkeypatch):
    import lfactors.verify as verify

    def flipped(F, a, b):
        h = hilbert_symbol(F, a, b)
        return -h if F.p == 11 else h

    oracle, = (c for c in verify.SUITES["hilbert"] if c.name == "hilbert-symbol-vs-conic-oracle")
    assert oracle(7).passed
    monkeypatch.setattr(verify, "hilbert_symbol", flipped)
    res = oracle(7)
    assert not res.passed and res.mismatches == 50 and res.samples == 200


@given(any_field, rationals, rationals, rationals)
@settings(max_examples=60)
def test_hilbert_bilinearity(F, a, b, c):
    assert hilbert_symbol(F, a, b) == hilbert_symbol(F, b, a)
    assert hilbert_symbol(F, a, b * c) == hilbert_symbol(F, a, b) * hilbert_symbol(F, a, c)
    assert hilbert_symbol(F, a, -a) == 1


def test_quadratic_character_examples():
    sgn = quadratic_character(R, SquareClass(R, "-1"))
    assert char_eval(sgn, -2) == -1
    assert char_eval(sgn, 2) == 1
    triv = quadratic_character(R, SquareClass(R, "1"))
    assert char_eval(triv, -7) == 1
    chi_u = quadratic_character(Q5, SquareClass(Q5, "u"))
    assert chi_u.quad.is_trivial and chi_u.z == -1  # unramified with z = -1
    assert char_eval(chi_u, 5) == -1
    assert char_eval(chi_u, 7) == 1  # units evaluate trivially


def test_char_eval_norm_power():
    chi = MultCharacter.norm_power(Q5, 2)
    assert char_eval(chi, 5) == Fraction(1, 25)
    sgn = MultCharacter.sign(R)
    assert char_eval(sgn, -2) == -1


def test_char_algebra_examples():
    chi_u = quadratic_character(Q5, SquareClass(Q5, "u"))
    assert char_mul(chi_u, chi_u) == MultCharacter.trivial(Q5)
    tw = unramified_twist(MultCharacter.sign(R), 2)
    assert char_inverse(tw).t == -2 and char_inverse(tw).delta == 1


@given(padic_fields, rationals, st.sampled_from(["1", "u", "p", "up"]),
       st.sampled_from(["1", "u", "p", "up"]))
@settings(max_examples=60)
def test_char_mul_is_pointwise(F, x, c1, c2):
    chi1 = MultCharacter(F, SquareClass(F, c1), -1, Fraction(1))
    chi2 = MultCharacter(F, SquareClass(F, c2))
    lhs = complex(char_eval(char_mul(chi1, chi2), x))
    rhs = complex(char_eval(chi1, x)) * complex(char_eval(chi2, x))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_even_residue_degree_square_classes():
    F9 = LocalField.padic(3, 2)
    # every Q_3-rational unit becomes a square in the residue field F_9
    assert square_class(F9, 2).name == "1"
    assert square_class(F9, 6).name == "p"
    with pytest.raises(UnsupportedOperationError):
        SquareClass(F9, "u").representative()


def test_nonsquare_unit_choice():
    assert nonsquare_unit(Q5) == 2
    assert nonsquare_unit(Q7) == 3
    assert nonsquare_unit(LocalField.padic(11)) == 2
