"""ExactConst as a value: equality, hashing, memo keys and repr on a seeded
table built through every constructor and operation."""

import random
from fractions import Fraction

from lfactors import memo
from lfactors.exactconst import ExactConst


def _table(rng: random.Random) -> list[ExactConst]:
    """Seeded constants, each value reached along several routes."""
    out = []
    for _ in range(20):
        rat = Fraction(rng.choice([1, -1, 2, -3, 5, 0]), rng.choice([1, 2, 3, 7]))
        ipow, roots = rng.randint(-3, 5), frozenset(rng.sample([2, 3, 5, 7], rng.randint(0, 2)))
        x = ExactConst(rat, ipow, roots)
        y = ExactConst(-rat, ipow + 2, roots)  # i^2 = -1
        base, k = Fraction(rng.choice([2, 3, 6, 10]), rng.choice([1, 5, 9])), rng.randint(-3, 3)
        half = ExactConst.half_power(base, k)
        out += [x, y, ExactConst.of(rat), ExactConst.of(rat.numerator), half,
                half * half, ExactConst.of(base) ** k, x * half, half * x, x ** 2, x * x]
        if rat:
            out += [x.inverse(), x ** -1, x * x.inverse(), ExactConst.one() * (x ** -2) * x * x]
    return out


def test_equal_values_compare_and_hash_alike():
    table = _table(random.Random(1801))
    for x in table:
        cx = complex(x)
        for y in table:
            cy = complex(y)
            equal = x == y
            assert equal == (y == x) == (abs(cx - cy) <= 1e-9 * max(abs(cx), abs(cy), 1)), (x, y)
            assert equal == (memo.key_of(x) == memo.key_of(y)), (x, y)
            if equal:
                assert hash(x) == hash(y) and repr(x) == repr(y) and str(x) == str(y)
    assert len(set(table)) == len({repr(x) for x in table}) > 30


def test_rational_values_equal_their_int_or_fraction():
    for x in _table(random.Random(1796)):
        assert type(x.rat) is Fraction and x.ipow in (0, 1)
        rational = x.ipow == 0 and not x.roots
        assert (x == x.rat) == (x.rat == x) == rational == x.is_rational
        if rational and x.rat.denominator == 1:
            assert x == x.rat.numerator and x.rat.numerator == x
    assert ExactConst(3) == 3 and ExactConst(3, 0, frozenset([5])) != 3


def test_rational_values_hash_as_their_int_or_fraction():
    """A rational constant is found in a set or dict keyed by its int or
    Fraction, and the other way round; an irrational one is not."""
    assert 3 in {ExactConst(3)} and ExactConst(3) in {3} and ExactConst(3) in {Fraction(3)}
    assert {Fraction(-1, 2): "x"}[ExactConst(Fraction(-1, 2))] == "x"
    assert {ExactConst(0): "zero"}[0] == "zero" and len({ExactConst(5), 5, Fraction(5)}) == 1
    assert 3 not in {ExactConst(3, 0, frozenset([5]))} and ExactConst(3, 1) not in {3}
    for x in _table(random.Random(1797)):
        if x.is_rational:
            assert hash(x) == hash(x.rat) and x.rat in {x} and x in {x.rat: 1}
            if x.rat.denominator == 1:
                assert x.rat.numerator in {x} and x in {x.rat.numerator}


def test_repr_is_pinned():
    assert repr(ExactConst(Fraction(-3, 2), 1, frozenset({2, 5}))) == \
        "ExactConst(rat=Fraction(-3, 2), ipow=1, roots=frozenset({2, 5}))"
    assert repr(ExactConst(Fraction(-3, 2), 3, frozenset({5, 2}))) == \
        "ExactConst(rat=Fraction(3, 2), ipow=1, roots=frozenset({2, 5}))"
    assert repr(ExactConst()) == "ExactConst(rat=Fraction(1, 1), ipow=0, roots=frozenset())"
    assert repr(ExactConst(0, 1, frozenset({3}))) == \
        "ExactConst(rat=Fraction(0, 1), ipow=0, roots=frozenset())"
