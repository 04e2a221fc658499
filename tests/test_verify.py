"""The verify report: the comparison paths, the JSON on stdout, that every
check can fail, and the structure of the report for seeds 1 and 7.

The structure snapshot lives in tests/data/verify_snapshot.json.  Regenerate
it, only when a change to the checks or their sampling is intended, with

    PYTHONPATH=src python tests/test_verify.py
"""

import json
from fractions import Fraction
from pathlib import Path

from lfactors import mero, tate
from lfactors.cli import main
from lfactors.exactconst import ExactConst
from lfactors.fields import LocalField
from lfactors.mero import LinForm, MeroExpr, mero_mul
from lfactors.verify import SUITES, compare, run_verify

Q5 = LocalField.padic(5)
S = LinForm(Fraction(1), Fraction(0))
SNAPSHOT = Path(__file__).resolve().parent / "data" / "verify_snapshot.json"
SNAPSHOT_SEEDS = (1, 7)


def test_compare_paths():
    L = MeroExpr.l_atom(5, 1, S)
    off = MeroExpr.const(ExactConst(Fraction(1000001, 1000000)))
    assert compare(L, L, Q5, 7, 1e-9) == ("exact", 1, 0.0, True)
    assert compare(L, L * off, Q5, 7, 1e-9) == ("exact", 1, 0.0, False)
    # (1 - c X)(1 + c X) = 1 - c^2 X^2 with c = 5^(-3/10), a complex coefficient
    form = LinForm(Fraction(1), Fraction(3, 10))
    lhs = mero_mul(MeroExpr.l_atom(5, 1, form), MeroExpr.l_atom(5, -1, form))
    rhs = MeroExpr.l_atom(5, 1, LinForm(Fraction(2), Fraction(3, 5)))
    assert compare(lhs, rhs, Q5, 7, 1e-9) == ("inexact", 1, 0.0, True)
    assert compare(lhs, rhs * off, Q5, 7, 1e-9) == ("inexact", 1, 0.0, False)

    dup = mero_mul(MeroExpr.gamma_r(S), MeroExpr.gamma_r(LinForm(Fraction(1), Fraction(1))))
    path, samples, err, ok = compare(dup, MeroExpr.gamma_c(S), LocalField.real(), 7, 1e-10)
    assert (path, samples, ok) == ("sampled", 24, True) and err < 1e-10
    path, samples, err, ok = compare(dup, MeroExpr.gamma_c(S) * off, LocalField.real(), 7, 1e-10)
    assert (path, samples, ok) == ("sampled", 24, False) and abs(err - 1e-6) < 1e-9

    # the relative error is measured against max(1, |rhs|)
    assert compare(1e6 + 0.5, 1e6, None, 7, 1e-6) == ("close", 1, 0.5 / 1e6, True)
    assert compare(1 + 2e-9, 1.0, None, 7, 1e-9)[::3] == ("close", False)
    assert compare(1e-10j, 0j, None, 7, 1e-9) == ("close", 1, 1e-10, True)

    # exact numbers and expressions given no field are compared with ==
    assert compare(Fraction(1, 3), Fraction(1, 3), None, 7, 1e-9) == ("equal", 1, 0.0, True)
    assert compare(L, L * off, None, 7, 1e-9) == ("equal", 1, 0.0, False)
    assert compare((1, 2), (1, 3), None, 7, 1e-9) == ("equal", 1, 0.0, False)


def test_verify_json_is_alone_on_stdout(capsys):
    assert main(["verify", "--suite", "tate", "--json"]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["passed"] and report["suite"] == "tate"
    fe = report["checks"][0]
    assert fe == {"name": "tate-functional-equation", "passed": True, "samples": 90,
                  "mismatches": 0, "max_error": 0.0, "paths": {"exact": 18, "sampled": 3}}
    assert "[pass] tate-functional-equation: 90 samples" in err
    assert err.rstrip().endswith("all checks passed")


def test_corrupt_fails_every_check():
    report = run_verify("all", corrupt=True)
    names = [check.name for checks in SUITES.values() for check in checks]
    assert len(names) == 24 and [r.name for r in report.results] == names
    assert [r.name for r in report.results if r.passed or r.mismatches < 1] == []


def test_roundtrip_check_reads_complex_parts(monkeypatch):
    """The expression-roundtrip check draws complex betas, L-atom values and
    prefactors, so a reader that swaps a complex number's parts fails it."""
    assert list(run_verify("mero").lines()) == [
        "[pass] expression-roundtrip: 40 samples, 0 mismatches, max err 0.00e+00 (equal 40)"]
    read = mero._text_value

    def swapped(text):
        value = read(text)
        return value[::-1] if isinstance(value, tuple) else value

    monkeypatch.setattr(mero, "_text_value", swapped)
    report = run_verify("mero")
    assert not report.passed and report.results[0].mismatches > 0


def _epsilon_product_mismatches(monkeypatch, name, fault):
    """Run the tate suite with `fault` planted as tate.<name>; it must fail, and
    the epsilon-product check must see the fault at each of its seven negative d."""
    monkeypatch.setattr(tate, name, fault)
    report = run_verify("tate")
    assert not report.passed
    return next(r.mismatches for r in report.results if r.name == "tate-epsilon-product")


def test_conjugated_gauss_sum_fails_verify(monkeypatch):
    """-i sqrt p for p = 3 mod 4 keeps |g|, eps^2 and eps(chi) eps(chi^{-1}), but
    not Tate's global product of local root numbers."""
    def conjugated(p):
        return ExactConst(Fraction(1), -(p % 4 == 3), frozenset([p]))
    assert _epsilon_product_mismatches(monkeypatch, "gauss_sum", conjugated) == 7


def test_p_adic_psi_of_the_other_sign_fails_verify(monkeypatch):
    """tate_eps reading psi_a as psi_{-a} over Q_p keeps every local identity."""
    plain = tate.tate_eps

    def flipped(chi, psi):
        return plain(chi, psi if chi.field.is_real else psi.inverse())
    assert _epsilon_product_mismatches(monkeypatch, "tate_eps", flipped) == 7


def _structure(checks: list[dict]) -> list[dict]:
    """The checks of a report's JSON without their max_error, whose last
    digits depend on the platform's libm."""
    return [{k: v for k, v in check.items() if k != "max_error"} for check in checks]


def test_verify_report_structure_matches_snapshot():
    """Each check's name, verdict, sample and mismatch counts and path counts
    are pinned for two seeds; max_error is bounded by the check's tolerance."""
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert sorted(expected) == [str(seed) for seed in SNAPSHOT_SEEDS]
    tols = {check.name: check.tol for checks in SUITES.values() for check in checks}
    for seed in SNAPSHOT_SEEDS:
        checks = run_verify("all", seed).to_json()["checks"]
        assert [c["name"] for c in checks] == list(tols)
        assert all(0 <= c["max_error"] < tols[c["name"]] for c in checks)
        assert _structure(checks) == expected[str(seed)]


if __name__ == "__main__":
    snapshot = {str(seed): _structure(run_verify("all", seed).to_json()["checks"])
                for seed in SNAPSHOT_SEEDS}
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")
