"""Work a query does once: each local factor is built once per query, q is
factored once per process, an induced datum takes no reduced norm beyond its
kernel, and an exact result is printed whatever its size."""

import hashlib
import json
import random
import re
import sys
from pathlib import Path

from lfactors import doubling, exactconst, quaternion
from lfactors.query import run_query

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    entry = next(e for e in json.loads((PERFBENCH / "corpus" / "padic-exact.json").read_text())
                 if e["name"] == "q5-division-hermitian-n3")
    assert entry["doc"]["outputs"] == ["gamma", "L", "epsilon", "root_number", "R", "c", "T"]
    products = _count_calls(monkeypatch, doubling, "_product")
    corrections = _count_calls(monkeypatch, doubling, "correction_R")
    out = json.loads(json.dumps(run_query(entry["doc"])))
    # gamma once; L once, and again as the dual L of epsilon unless reused (the
    # trivial representation with the trivial omega is self-dual)
    assert sorted(caller for caller, _ in products) == ["gamma_factor", "l_factor"]
    assert len(corrections) == 1  # R, and c at psi_1 from the same R
    out["results"]["root_number"].pop("value")  # the golden keeps only the exact root number
    golden = PERFBENCH / "golden" / "padic-exact" / "q5-division-hermitian-n3.json"
    assert out == json.loads(golden.read_text(encoding="utf-8"))


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
