"""lfactors.scalars against the per-module helpers it replaced.

Each reference below is a copy of a helper (or an inline branch) that one
module used to decide "exact if every operand is exact, else complex".  On
seeded operands from the domain its callers passed, the scalars function
that replaced it must return the same type and the same value, bit for bit
(a complex is compared through float.hex, so a signed zero counts).  Ints,
which some helpers wrongly made complex, are compared only where the
helper already kept them exact.
"""

import cmath
import random
from fractions import Fraction

from lfactors.exactconst import ExactConst
from lfactors.mero import LinForm, _beta_norm
import pytest

from lfactors.characters import MultCharacter
from lfactors.fields import LocalField
from lfactors.scalars import (add, exact_or_complex, inv, is_exact, mul, neg, power, rat_power,
                              sub)


# -- references: the helpers as they were --------------------------------

def tate_plus(x, y):
    if isinstance(x, Fraction) and isinstance(y, (int, Fraction)):
        return x + y
    return complex(x) + complex(y)


def tate_neg(x):
    return -x if isinstance(x, Fraction) else -complex(x)


def spherical_sub(x, y):
    if isinstance(x, Fraction) and isinstance(y, (int, Fraction)):
        return x - y
    return complex(x) - complex(y)


def weil_shift(base, twist):
    if isinstance(twist, Fraction):
        return base + twist
    return complex(base) + complex(twist)


def weil_twice_shift(twist):
    if isinstance(twist, Fraction):
        return 2 * twist - 1
    return 2 * complex(twist) - 1


def doubling_const_mul(a, b):
    if isinstance(a, complex) or isinstance(b, complex):
        return complex(a) * complex(b)
    return ExactConst.of(a) * ExactConst.of(b)


def mero_pref_mul(x, y):
    if isinstance(x, ExactConst) and isinstance(y, ExactConst):
        return x * y
    return complex(x) * complex(y)


def mero_pref_inv(x):
    return x.inverse() if isinstance(x, ExactConst) else 1 / x


def mero_const_power(base, form):
    if form.bn is not None and form.bd <= 2:
        return ExactConst.half_power(base, form.bn * 2 // form.bd)
    return cmath.exp(complex(form.bf) * cmath.log(float(base)))


def mero_twist_const(pref, z, n):
    v = z ** n
    return mero_pref_mul(pref, ExactConst.of(v) if type(v) is Fraction else v)


def ratfunc_q_power_exact(q, beta):
    if isinstance(beta, Fraction) and beta.denominator in (1, 2):
        return ExactConst.half_power(Fraction(q), -int(2 * beta))
    return cmath.exp(-complex(beta) * cmath.log(q))


def ratfunc_scalar_mul(a, b):
    if isinstance(a, ExactConst) and isinstance(b, ExactConst):
        return a * b
    return complex(a) * complex(b)


def ratfunc_l_coeff(z, q, beta):
    z = z if not isinstance(z, Fraction) else ExactConst.of(z)
    return ratfunc_scalar_mul(z if isinstance(z, (ExactConst, complex)) else complex(z),
                              ratfunc_q_power_exact(q, beta))


def ratfunc_pow_any(v, k):
    if isinstance(v, ExactConst):
        return v ** k
    return complex(v) ** k


def ratfunc_times(r, beta):
    if isinstance(beta, Fraction):
        return r * beta
    return complex(r) * complex(beta)


def ratfunc_neg(v):
    return -v if not isinstance(v, ExactConst) else ExactConst(-v.rat, v.ipow, v.roots)


def ratfunc_to_cx(v):
    if isinstance(v, ExactConst):
        return v.to_complex()
    return complex(v)


def characters_exact_or_complex(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, float) and v == int(v):
        return Fraction(int(v))
    if isinstance(v, complex) and v.imag == 0 and v.real == int(v.real):
        return Fraction(int(v.real))
    return complex(v)


def mero_beta_exact(b):
    """_beta_norm before its 2^-40 grid, less its ExactConst branch."""
    if isinstance(b, Fraction):
        return b
    if isinstance(b, int):
        return Fraction(b)
    b = complex(b)
    if b.imag == 0 and b.real.is_integer():
        return Fraction(int(b.real))
    return b


def char_mul_t(a, b):
    return a + b if isinstance(a, Fraction) and isinstance(b, Fraction) \
        else complex(a) + complex(b)


def char_inverse_z(z):
    return 1 / z if isinstance(z, Fraction) else 1 / complex(z)


def char_eval_real(sgn, x, t):
    if isinstance(t, Fraction) and t.denominator in (1, 2):
        return ExactConst.of(sgn) * ExactConst.half_power(abs(x), int(2 * t))
    return sgn * cmath.exp(complex(t) * cmath.log(float(abs(x))))


# -- seeded operands -------------------------------------------------------

_rng = random.Random(20261018)
_FLOATS = [0.0, -0.0, 2.0, -1.0, 0.5, 1.3, -2.75]
_SIGNED_ZERO_COMPLEX = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                        complex(-0.0, -0.0), complex(1.5, -0.0), complex(-1.5, -0.0),
                        complex(-0.0, 2.0), complex(2.0, 0.0)]


def _ints(k=6):
    return [0, 1, -1] + [_rng.randint(-9, 9) for _ in range(k)]


def _fractions(k=8):
    return [Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3), Fraction(-5, 6)] + [
        Fraction(_rng.randint(-20, 20), _rng.choice([1, 2, 3, 4, 5, 6, 7])) for _ in range(k)]


def _nonzero_fractions():
    return [f for f in _fractions() if f]


def _exact_consts(k=8):
    out = [ExactConst.one(), ExactConst(Fraction(-1)), ExactConst.i(), ExactConst(Fraction(0))]
    for _ in range(k):
        roots = frozenset(p for p in (2, 3, 5) if _rng.random() < 0.4)
        out.append(ExactConst(Fraction(_rng.choice([-3, -1, 1, 2, 5]), _rng.choice([1, 2, 7])),
                              _rng.randint(0, 3), roots))
    return out


def _floats(k=4):
    return _FLOATS + [_rng.uniform(-3, 3) for _ in range(k)]


def _complexes(k=6):
    return _SIGNED_ZERO_COMPLEX + [complex(_rng.uniform(-3, 3), _rng.uniform(-3, 3))
                                   for _ in range(k)]


def _bits(v):
    """Type and value of a scalar, with the sign of every zero."""
    if type(v) in (complex, float):
        v = complex(v)
        return type(v).__name__, v.real.hex(), v.imag.hex()
    if type(v) is ExactConst:
        return "ExactConst", v.rat, v.ipow, v.roots
    return type(v).__name__, v


def _same(got, want, *operands):
    assert _bits(got) == _bits(want), operands


def _pairs(xs, ys):
    return [(x, y) for x in xs for y in ys]


RATIONAL_OR_COMPLEX = _fractions() + _floats() + _complexes()
NONZERO = [v for v in RATIONAL_OR_COMPLEX if v != 0]
PREFACTORS = _exact_consts() + _floats() + _complexes()


# -- the scalars functions against the helpers they replaced -----------------

def test_add_sub_and_neg_match_tate_and_spherical():
    for x, y in _pairs(RATIONAL_OR_COMPLEX, _ints() + RATIONAL_OR_COMPLEX):
        _same(add(x, y), tate_plus(x, y), x, y)
        _same(sub(x, y), spherical_sub(x, y), x, y)
    for x in RATIONAL_OR_COMPLEX:
        _same(neg(x), tate_neg(x), x)


def test_weil_shifts():
    for twist in RATIONAL_OR_COMPLEX:
        for base in (Fraction(1, 2), Fraction(3), Fraction(5, 2)):
            _same(add(base, twist), weil_shift(base, twist), base, twist)
        _same(sub(mul(2, twist), 1), weil_twice_shift(twist), twist)


def test_mul_matches_doubling_const_mul():
    for a, b in _pairs(_exact_consts(), _exact_consts() + _fractions() + _ints() + _complexes()):
        _same(mul(a, b), doubling_const_mul(a, b), a, b)


def test_mul_and_inv_match_the_prefactor_helpers():
    for x, y in _pairs(PREFACTORS, PREFACTORS):
        _same(mul(x, y), mero_pref_mul(x, y), x, y)
        _same(mul(x, y), ratfunc_scalar_mul(x, y), x, y)
    for x in _exact_consts() + _complexes():
        if x != 0:
            _same(inv(x), mero_pref_inv(x), x)


def test_rat_power_matches_mero_and_ratfunc():
    for beta in RATIONAL_OR_COMPLEX:
        form = LinForm(1, beta)
        for base in (Fraction(3), Fraction(1, 5), Fraction(9, 4), Fraction(7)):
            _same(rat_power(base, form.beta), mero_const_power(base, form), base, beta)
    # q^-beta alone differs from _q_power_exact in the sign of a zero imaginary
    # part when beta is a rational but not a half-integer (-Fraction, then
    # complex, against complex, then -); its one use, the coefficient z q^-beta
    # of an L-atom, is bit for bit the same for every z an LAtom can hold
    for z, beta in _pairs(_nonzero_fractions() + _complexes(), RATIONAL_OR_COMPLEX):
        z, beta = _beta_norm(z), LinForm(1, beta).beta
        for q in (3, 5, 9):
            _same(mul(z, rat_power(q, neg(beta))), ratfunc_l_coeff(z, q, beta), z, q, beta)
    # an exponential atom's constant part, which the canonical form keeps at 0
    for scalar in PREFACTORS:
        for r, k in ((1, 1), (-2, 1), (1, -1), (3, 2)):
            _same(mul(scalar, power(rat_power(5, mul(Fraction(r), Fraction(0))), k)),
                  ratfunc_scalar_mul(scalar, ratfunc_pow_any(
                      ratfunc_q_power_exact(5, ratfunc_times(Fraction(-r), Fraction(0))), k)),
                  scalar, r, k)


def test_rat_power_of_a_base_outside_the_float_range():
    big, tiny = Fraction(10 ** 400), Fraction(1, 10 ** 400)
    for base, e in ((big, Fraction(1, 3)), (tiny, Fraction(-1, 3)), (big, 0.001 + 0j)):
        want = cmath.exp(complex(e) * 400 * cmath.log(10) * (1 if base > 1 else -1))
        assert cmath.isclose(rat_power(base, e), want, rel_tol=1e-12)
    # inside the range the float path is kept, bit for bit
    for base in (Fraction(3), Fraction(1, 5), Fraction(10 ** 300, 7)):
        assert rat_power(base, Fraction(1, 3)) == cmath.exp(complex(Fraction(1, 3)) * cmath.log(float(base)))


def test_power_matches_ratfunc_and_the_mero_twist():
    for v in _exact_consts() + _floats() + _complexes():
        for k in (0, 1, 2, 3, -1, -2):
            if v != 0 or k >= 0:
                _same(power(v, k), ratfunc_pow_any(v, k), v, k)
    for pref, z in _pairs(_exact_consts() + _complexes(), _nonzero_fractions() + _complexes()):
        for n in (0, 1, -1, 2, -3):
            if z != 0 or n >= 0:
                _same(mul(pref, power(z, n)), mero_twist_const(pref, z, n), pref, z, n)


def test_ratfunc_times_neg_and_complex():
    for r, beta in _pairs(_fractions(), RATIONAL_OR_COMPLEX):
        _same(mul(r, beta), ratfunc_times(r, beta), r, beta)
    for v in _exact_consts() + _complexes():
        _same(neg(v), ratfunc_neg(v), v)
        _same(complex(v), ratfunc_to_cx(v), v)


def test_character_arithmetic():
    for a, b in _pairs(RATIONAL_OR_COMPLEX, RATIONAL_OR_COMPLEX):
        _same(add(a, b), char_mul_t(a, b), a, b)
    for z in NONZERO:
        _same(inv(z), char_inverse_z(z), z)
    for t in NONZERO:
        for sgn in (1, -1):
            for x in (Fraction(2), Fraction(-3, 4), Fraction(1, 7), Fraction(-25)):
                _same(mul(sgn, rat_power(abs(x), t)), char_eval_real(sgn, x, t), sgn, x, t)


def test_exact_or_complex_matches_characters_and_mero():
    for v in _ints() + RATIONAL_OR_COMPLEX + [10.0 ** 300, complex(-7.0, 0.0)]:
        _same(exact_or_complex(v), characters_exact_or_complex(v), v)
        _same(exact_or_complex(v), mero_beta_exact(v), v)
    half = Fraction(1, 2)
    assert exact_or_complex(half) is half  # not rewrapped


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), complex(1, float("inf")),
                                 complex(float("-inf"), 0), complex(float("nan"), 0)])
def test_a_character_refuses_a_non_finite_z_or_t(bad):
    q5 = LocalField.padic(5)
    for z, t in ((bad, 0), (1, bad)):
        with pytest.raises(ValueError, match="must be finite"):
            MultCharacter(q5, MultCharacter.trivial(q5).quad, z, t)
    with pytest.raises(ValueError, match="must be finite"):
        MultCharacter.norm_power(LocalField.real(), bad)


def test_the_rule():
    assert all(map(is_exact, [0, 3, Fraction(1, 3), ExactConst.i()]))
    assert not any(map(is_exact, [0.0, 2.0, 1j, complex(2, 0)]))
    # an int operand stays exact, where three of the old helpers made it complex
    _same(add(0, Fraction(1, 2)), Fraction(1, 2))
    _same(neg(2), -2)
    _same(inv(2), Fraction(1, 2))
    _same(power(2, -2), Fraction(1, 4))
    _same(rat_power(3, 1), ExactConst(Fraction(3)))
    _same(rat_power(3, Fraction(1, 3)), cmath.exp(complex(1 / 3) * cmath.log(3.0)))
