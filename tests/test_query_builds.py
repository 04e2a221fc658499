"""Work a query does once: each local factor is built once per query and its
memo is gone when it returns, q is factored once per process, an induced datum
takes no reduced norm beyond its kernel, and an exact result is printed
whatever its size."""

import hashlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

from lfactors import doubling, exactconst, memo, quaternion
from lfactors.doubling import UnsupportedPairError
from lfactors.query import QueryValidationError, run_query

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_P5 = {"kind": "nonarch", "p": "5"}


def _n3_doc() -> dict:
    """The q5-division-hermitian-n3 document of the padic-exact corpus."""
    corpus = json.loads((PERFBENCH / "corpus" / "padic-exact.json").read_text())
    return next(e["doc"] for e in corpus if e["name"] == "q5-division-hermitian-n3")


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wraps every binding of module.name in the lfactors modules (a module
    that imported the function holds its own) and returns the list that
    records, per call, the caller's function name and the arguments."""
    fn, calls = getattr(module, name), []

    def counted(*args):
        calls.append((sys._getframe(1).f_code.co_name, args))
        return fn(*args)

    for mod in [m for key, m in sys.modules.items() if key.startswith("lfactors")]:
        if getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_factor_is_built_once_per_query(monkeypatch):
    """Counts builds, not lookups: a build of gamma or L runs _product once, and
    a build of R runs _omega_s_power once.  Without run_query's memo scope gamma
    is built twice (for gamma and epsilon), L three times and R twice (R and c)."""
    doc = _n3_doc()
    assert doc["outputs"] == ["gamma", "L", "epsilon", "root_number", "R", "c", "T"]
    products = _count_calls(monkeypatch, doubling, "_product")
    powers = _count_calls(monkeypatch, doubling, "_omega_s_power")
    out = json.loads(json.dumps(run_query(doc)))
    # gamma once; L once, and found again as the dual L of epsilon (the trivial
    # representation with the trivial omega is self-dual)
    assert sorted(caller for caller, _ in products) == ["gamma_factor", "l_factor"]
    assert [caller for caller, _ in powers].count("correction_R") == 1  # c takes R at psi_1
    out["results"]["root_number"].pop("value")  # the golden keeps only the exact root number
    golden = PERFBENCH / "golden" / "padic-exact" / "q5-division-hermitian-n3.json"
    assert out == json.loads(golden.read_text(encoding="utf-8"))


def test_a_query_leaves_no_memo_behind():
    doc = _n3_doc()
    assert memo._MEMO.get() is None
    first = json.dumps(run_query(doc))
    assert memo._MEMO.get() is None
    assert json.dumps(run_query(doc)) == first
    herm = {"kind": "trivial", "space": {"type": "hermitian", "diag": ["1"]}}
    refused = [({"field": _P5, "rep": herm, "outputs": ["nothing"]}, QueryValidationError),
               ({"field": _P5, "rep": herm, "omega": {"quad": "p"}}, UnsupportedPairError)]
    for doc, error in refused:
        with pytest.raises(error):
            run_query(doc)
        assert memo._MEMO.get() is None


_N0 = {"kind": "trivial", "space": {"type": "hermitian", "n": 0}}


@pytest.mark.parametrize("blocks, omega_t, want", [
    # omega's t = 1/2 prints as such in R and c; the block's 0.5+0j sums with it to exact 1 and 0
    ([[0.5, 0]], "1/2", {
        "gamma": "Lnf(5; 1; -s-1/2) * Lnf(5; 1; -s+1/2)^3 * Lnf(5; 1; -s+3/2)"
                 " / (Lnf(5; 1; s-1/2) * Lnf(5; 1; s+1/2)^3 * Lnf(5; 1; s+3/2))",
        "L": "Lnf(5; 1; s-1/2) * Lnf(5; 1; s+1/2)^3 * Lnf(5; 1; s+3/2)",
        "epsilon": "1",
        "R": "Lnf(5; 1; -s) / Lnf(5; 1; s+1)",
        "c": "Lnf(5; 1; s+1) * Lnf(5; 1; 2s-1) * Lnf(5; 1; 2s+1)"
             " / (Lnf(5; 1; -2s) * Lnf(5; 1; -2s+2) * Lnf(5; 1; -s))",
        "T": "1"}),
    # equal twists 1/2 and 0.5+0j of two blocks meet in one memo: the complex one keeps its prefactor
    (["1/2", [0.5, 0]], "0", {
        "gamma": "[1.0+0.0i] * Lnf(5; 1; -s)^2 * Lnf(5; 1; -s+1)^5 * Lnf(5; 1; -s+2)^2"
                 " / (Lnf(5; 1; s-1)^2 * Lnf(5; 1; s)^5 * Lnf(5; 1; s+1)^2)",
        "L": "Lnf(5; 1; s-1)^2 * Lnf(5; 1; s)^5 * Lnf(5; 1; s+1)^2",
        "epsilon": "[1.0+0.0i]"}),
])
def test_rational_and_complex_twists_print_as_before(blocks, omega_t, want):
    """A rational twist and an equal complex one print apart; one query's memo
    holds both, and the texts are those the unmemoised query printed."""
    for order in (blocks, blocks[::-1]):
        doc = {"field": _P5, "omega": {"t": omega_t}, "outputs": list(want),
               "rep": {"kind": "induced", "kernel": _N0,
                       "blocks": [{"m": 1, "chi": {"t": t}} for t in order]}}
        assert {name: r["text"] for name, r in run_query(doc)["results"].items()} == want


def test_q_is_factored_once_per_process(monkeypatch):
    q = 999983 ** 166  # q near 10^996: trial division takes about a second
    doc = {"field": {"kind": "nonarch", "p": "999983", "f": 166},
           "rep": {"kind": "gl_char", "m": 1, "chi": {}}, "outputs": ["gamma", "L", "epsilon"]}
    exactconst.factorization.cache_clear()
    calls = _count_calls(monkeypatch, exactconst, "factor_int")
    out = run_query(doc)
    assert [args for _, args in calls].count((q,)) == 1
    assert all(out["results"][name]["rational_in_X"] for name in doc["outputs"])


def test_induced_query_takes_no_reduced_norm_beyond_its_kernel(monkeypatch):
    """The kernel <1> plus four GL_32 blocks lives on a 257-dimensional
    space; its 256 hyperbolic dimensions are a count, not Gram matrix rows."""
    doc = {"field": {"kind": "nonarch", "p": "5"}, "outputs": ["R", "T", "root_number"],
           "rep": {"kind": "induced", "blocks": [{"m": 32, "chi": {}}] * 4,
                   "kernel": {"kind": "trivial", "space": {"type": "hermitian", "diag": ["1"]}}}}
    calls = _count_calls(monkeypatch, quaternion, "matrix_reduced_norm")
    out = run_query(doc)
    assert calls and {(X.rows, X.cols) for _, (X,) in calls} == {(1, 1)}
    assert out["results"]["root_number"]["exact"] == "1"
    assert out["results"]["R"]["rational_in_X"] is not None


def test_real_spaces_are_built_once(monkeypatch):
    """A second query on the same real datum reuses its space: no reduced norm."""
    for rep in ({"kind": "sp_highest_weight", "lambda": [2, 1, 0]}, {"kind": "skew_char", "l": 3}):
        doc = {"field": {"kind": "real"}, "rep": rep, "outputs": ["R", "T", "root_number"]}
        run_query(doc)
        calls = _count_calls(monkeypatch, quaternion, "matrix_reduced_norm")
        run_query(doc)
        assert calls == []


def _trial_division(n: int) -> dict[int, int]:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d], n = out.get(d, 0) + 1, n // d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factor_int_finds_prime_powers_by_integer_roots():
    for n in range(1, 2001):
        assert exactconst.factor_int(n) == _trial_division(n), n
    for powers in ({2: 12, 3: 5}, {5: 7}, {3: 4, 7: 2}, {2: 30}, {11: 3, 13: 3}, {101: 6}):
        n = 1
        for prime, e in powers.items():
            n *= prime ** e
        assert exactconst.factor_int(n) == _trial_division(n) == powers
    assert exactconst.factor_int(999983 ** 166) == {999983: 166}
    rng = random.Random(166)  # the k-th root the perfect-power test relies on
    for _ in range(300):
        n, k = rng.randrange(1, 10 ** rng.randint(1, 400)), rng.randint(2, 60)
        r = exactconst._iroot(n, k)
        assert r ** k <= n < (r + 1) ** k, (n, k)


def _spherical_doc(r: int) -> dict:
    return {"field": {"kind": "nonarch", "p": "5"},
            "spherical": {"form_type": "hermitian", "r": r, "n0": 1, "exponents": ["0"] * r},
            "outputs": ["spherical"]}


def test_large_spherical_result_is_pinned():
    """d_V at r = 40: a product of 41 binomials, with integers of up to 2,322
    digits, pinned by the SHA-256 of the text the dict-of-QiSqrt expansion
    printed."""
    d_v = run_query(_spherical_doc(40))["results"]["spherical"]["d_v"]["rational_in_X"]
    assert len(d_v) == 185874
    assert hashlib.sha256(d_v.encode()).hexdigest() == (
        "7cae8740bb5bf7dd34e0e7ddc8706f3ac3a2d6f24aefdb997a1b507d394ba64a")


def test_large_exact_result_is_printed_not_null():
    """Expanding d_V at r = 25 yields integers longer than 640 digits."""
    doc = _spherical_doc(25)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        d_v = run_query(doc)["results"]["spherical"]["d_v"]["rational_in_X"]
        assert max(len(digits) for digits in re.findall(r"\d+", d_v)) > 640
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
