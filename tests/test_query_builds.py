"""Work a query does once: each local factor is built once per query, q is
factored once per process, and an exact result is printed whatever its size."""

import json
import re
import sys
from pathlib import Path

from lfactors import doubling, exactconst
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


def test_large_exact_result_is_printed_not_null():
    """Expanding d_V at r = 25 yields integers longer than 640 digits."""
    doc = {"field": {"kind": "nonarch", "p": "5"},
           "spherical": {"form_type": "hermitian", "r": 25, "n0": 1, "exponents": ["0"] * 25},
           "outputs": ["spherical"]}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        d_v = run_query(doc)["results"]["spherical"]["d_v"]["rational_in_X"]
        assert max(len(digits) for digits in re.findall(r"\d+", d_v)) > 640
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
