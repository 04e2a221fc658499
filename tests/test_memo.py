"""The per-call memo: inside a scope a builder returns what it built before for
equal, equally typed arguments; nothing outlives the scope or crosses threads,
and a memoised verify pass reports what an unmemoised one does."""

import copy
import pickle
import threading
from collections import Counter
from dataclasses import astuple, dataclass
from fractions import Fraction

import pytest

from lfactors import doubling, memo, tate, verify
from lfactors.characters import AddCharacter, MultCharacter, char_eval, char_inverse, char_mul
from lfactors.doubling import GLChar, Induced, RegularNilpotentData, TrivialRep, gamma_factor
from lfactors.fields import LocalField, SquareClass
from lfactors.gj import gj_L, gj_gamma_norm
from lfactors.hermitian import HermitianSpace
from lfactors.quaternion import QuatMatrix, QuaternionAlgebra
from lfactors.spherical import SphericalData, spherical_zeta
from lfactors.verify import run_verify

Q5 = LocalField.padic(5)
PSI = AddCharacter.standard(Q5)
# equal and hashing alike, but spelled s+1/2 and s+[0.5+0.0i]
HALF = MultCharacter.norm_power(Q5, Fraction(1, 2))
HALF_C = MultCharacter.norm_power(Q5, 0.5 + 0j)
BUILDERS = [(tate.tate_gamma, (PSI,)), (tate.tate_L, ()), (tate.tate_eps, (PSI.rescale(5),)),
            (lambda chi, *a: gj_gamma_norm(2, chi, *a), (PSI,)),
            (lambda chi: gj_L(2, chi), ()), (char_eval, (Fraction(25),))]
TRIV = MultCharacter.trivial(Q5)
KERNEL = TrivialRep(HermitianSpace(QuaternionAlgebra(Q5, 2, 5), "hermitian", 0))
# builders above the characters, each fed a twist chi through a new datum
DATA = {"glchar": lambda chi: gamma_factor(GLChar(1, chi), TRIV, PSI),
        "induced": lambda chi: gamma_factor(Induced((GLChar(1, chi),), KERNEL), TRIV, PSI),
        "spherical": lambda chi: spherical_zeta(
            SphericalData(Q5, "hermitian", 1, 0, (chi.t,))).value_over_vol()}


@dataclass(frozen=True)
class Box:
    x: object
    memo_key = memo.MemoKey()


@dataclass(frozen=True)
class Crate:  # a Box by another name
    x: object
    memo_key = memo.MemoKey()


@pytest.fixture
def builds(monkeypatch):
    """The characters tate_gamma has built, one entry per build (each build
    inverts its character once, for the dual L)."""
    seen = []

    def counting(chi):
        seen.append(chi)
        return char_inverse(chi)

    monkeypatch.setattr(tate, "char_inverse", counting)
    return seen


def test_rational_and_complex_twists_keep_their_spelling_in_one_scope():
    assert HALF == HALF_C and hash(HALF) == hash(HALF_C)
    spelled_apart = 0
    for build, rest in BUILDERS:
        want = [str(build(chi, *rest)) for chi in (HALF, HALF_C)]
        spelled_apart += want[0] != want[1]
        for order in ((0, 1), (1, 0)):
            with memo.scope():
                got = [str(build((HALF, HALF_C)[i], *rest)) for i in order * 2]
            assert got == [want[i] for i in order * 2]
    assert spelled_apart == len(BUILDERS) - 1  # gj_L's shifts land on integers, spelled alike
    assert "s+1/2" in str(tate.tate_gamma(HALF, PSI))
    assert "s+[0.5+0.0i]" in str(tate.tate_gamma(HALF_C, PSI))


@pytest.mark.parametrize("build", DATA.values(), ids=DATA)
def test_data_with_rational_and_complex_twists_keep_their_spelling(build):
    want = [str(build(chi)) for chi in (HALF, HALF_C)]
    assert want[0] != want[1]
    for order in ((0, 1), (1, 0)):
        with memo.scope():
            got = [str(build((HALF, HALF_C)[i])) for i in order * 2]
        assert got == [want[i] for i in order * 2]


def test_a_value_keeps_its_key_through_a_copy_or_a_pickle():
    rep = Induced((GLChar(1, HALF_C),), KERNEL)
    key = rep.memo_key
    for copied in (copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
        assert copied == rep and copied.memo_key == key and hash(copied.memo_key) == hash(key)
    assert copied.memo_key != Induced((GLChar(1, HALF),), KERNEL).memo_key


@pytest.mark.parametrize("seed", [1, 7])
def test_a_memoised_pass_reports_what_an_unmemoised_one_does(seed):
    assert run_verify("all", seed).to_json() == run_verify.__wrapped__("all", seed).to_json()


def _leaves(key):
    if type(key) is tuple:
        for part in key:
            yield from _leaves(part)
    else:
        yield key


def test_every_key_of_a_verify_pass_has_plain_leaves():
    """A key is a plain tuple of ints, strs, floats, complexes, bools, None and
    types after its builder, so CPython hashes and compares it in C: every
    value class a builder takes keys through its memo_key."""
    with memo.scope():
        run_verify.__wrapped__("all", 1)
        keys = list(memo._MEMO.get())
    leaves = [leaf for key in keys for leaf in _leaves(key[1:])]
    assert len(keys) > 1000 and all(callable(key[0]) for key in keys)
    assert {type(leaf) for leaf in leaves if not isinstance(leaf, type)} <= {
        int, str, float, complex, bool, type(None)}
    keyed = {leaf for leaf in leaves if isinstance(leaf, type)}
    assert {LocalField, SquareClass, AddCharacter, MultCharacter, QuaternionAlgebra, QuatMatrix,
            HermitianSpace, RegularNilpotentData, Induced, Fraction} <= keyed


def test_gamma_factor_is_built_once_per_distinct_key(monkeypatch):
    asked, built = [], 0
    lookup, product = doubling.gamma_factor, doubling._product

    def asking(*args):
        asked.append(tuple(map(memo.key_of, args)))
        return lookup(*args)

    def building(rep, omega, build):
        nonlocal built
        built += build.__qualname__.startswith("gamma_factor.")  # not an L-factor
        return product(rep, omega, build)

    for module in (doubling, verify):
        monkeypatch.setattr(module, "gamma_factor", asking)
    monkeypatch.setattr(doubling, "_product", building)
    run_verify("all", 1)
    assert built == len(set(asked)) < len(asked)


def test_nothing_outlives_a_verify_pass(builds):
    for check in verify.SUITES["tate"]:  # outside a scope every call builds
        check(7)
    unscoped = len(builds)
    builds.clear()
    first = run_verify("tate", 7).to_json()
    once = len(builds)
    # tate-psi-rescaling asks for gamma(chi, psi) once per psi scale: one build a pass
    assert 0 < once < unscoped
    assert run_verify("tate", 7).to_json() == first
    assert builds == builds[:once] * 2


def test_threads_keep_their_own_memo(builds):
    chars = {"a": MultCharacter.trivial(Q5), "b": HALF}
    both_built = threading.Barrier(2)

    def work(name, other):
        with memo.scope():
            tate.tate_gamma(chars[name], PSI)
            both_built.wait(timeout=10)
            tate.tate_gamma(chars[other], PSI)  # built by the other thread only
            tate.tate_gamma(chars[name], PSI)   # this thread's own entry

    threads = [threading.Thread(target=work, args=pair) for pair in (("a", "b"), ("b", "a"))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(map(str, builds)) == sorted(map(str, list(chars.values()) * 2))


def test_no_scope_no_cache(builds):
    first, second = tate.tate_gamma(HALF, PSI), tate.tate_gamma(HALF, PSI)
    assert first == second and first is not second
    assert builds == [HALF, HALF]
    with memo.scope():
        assert tate.tate_gamma(HALF, PSI) is tate.tate_gamma(HALF, PSI)
    assert len(builds) == 3


# -- the key path ------------------------------------------------------------

def test_a_key_is_built_once_per_object_its_type_first(monkeypatch):
    keyed, key = Counter(), memo.Key

    def counting(obj):
        keyed[id(obj)] += 1
        return key(obj)

    monkeypatch.setattr(memo, "Key", counting)
    chi = MultCharacter(LocalField.padic(5), SquareClass(LocalField.padic(5), "1"), 2, Fraction(1, 2))
    with memo.scope():
        for _ in range(3):
            chi.memo_key, memo.key_of(chi), memo.key_of((chi, chi.field)), tate.tate_L(chi)
    assert keyed[id(chi)] == 1 and set(keyed.values()) == {1}
    field = (LocalField, (str, "nonarch"), (int, 5), (int, 1))
    assert chi.memo_key == memo.key_of(chi) == (
        MultCharacter, field, (SquareClass, field, (str, "1")), (Fraction, 2, 1), (Fraction, 1, 2))


@pytest.mark.parametrize("a, b", [(Box(1), Crate(1)), (Box(Box(1)), Box(Crate(1))),
                                  (Box(1), Box(1.0)), (Box(1), Box(True)),
                                  (Box(Fraction(1, 2)), Box(0.5 + 0j))])
def test_equal_values_of_other_types_key_apart(a, b):
    assert astuple(a) == astuple(b)
    assert memo.key_of(a) != memo.key_of(b)
    with memo.scope():
        assert memo.per_call(repr)(a) == repr(a) and memo.per_call(repr)(b) == repr(b)


def test_a_tuple_of_keyed_values_never_keys_as_a_keyed_value():
    for value in (Box(1), Box((1, 2)), Box(HALF), HALF, Q5):
        assert memo.key_of((value,)) != memo.key_of(Box(value))
        assert memo.key_of((value, value)) != memo.key_of(Box((value, value))) != memo.key_of(value)


# -- the memoised character algebra ------------------------------------------

# z = 2+0j is stored as z = 2 (an integer-valued complex is made exact); z = 3/2 is not
Z2, Z2_C, Z3_2, Z3_2_C = (MultCharacter(Q5, SquareClass(Q5, "1"), z)
                          for z in (2, 2 + 0j, Fraction(3, 2), 1.5 + 0j))
ALGEBRA = {"char_mul": lambda: char_mul(HALF, Z3_2), "char_inverse": lambda: char_inverse(HALF),
           "trivial": lambda: MultCharacter.trivial(LocalField.padic(5)),
           "standard": lambda: AddCharacter.standard(LocalField.padic(5))}


@pytest.mark.parametrize("build", ALGEBRA.values(), ids=ALGEBRA)
def test_the_character_algebra_builds_once_per_scope(build):
    with memo.scope():
        assert build() is build()
    first, second = build(), build()
    assert first == second and first is not second


def test_character_algebra_keeps_each_spelling_of_z_and_t():
    assert HALF == HALF_C and Z3_2 == Z3_2_C and repr(Z2) == repr(Z2_C)
    pairs = [(HALF, Z3_2), (HALF_C, Z3_2), (HALF, Z3_2_C), (HALF_C, Z3_2_C)]
    for op in (char_mul, lambda x, y: char_mul(y, x), lambda x, y: char_inverse(char_mul(x, y)),
               lambda x, y: (char_inverse(x), char_inverse(y))):
        want = [repr(op(*pair)) for pair in pairs]
        assert len(set(want)) == len(pairs)
        for order in (range(4), range(3, -1, -1)):  # pairs compare equal: index them
            with memo.scope():
                got = {i: [repr(op(*pairs[i])) for _ in range(2)] for i in order}
            assert [got[i] for i in range(4)] == [[text] * 2 for text in want]
