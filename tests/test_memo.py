"""The per-call memo: inside a scope a builder returns what it built before for
equal, equally typed arguments; nothing outlives the scope or crosses threads,
and a memoised verify pass reports what an unmemoised one does."""

import copy
import pickle
import threading
from fractions import Fraction

import pytest

from lfactors import doubling, memo, tate, verify
from lfactors.characters import AddCharacter, MultCharacter, char_eval, char_inverse
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
