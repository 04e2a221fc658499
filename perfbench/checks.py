"""Correctness checks for benchmark outputs.

Three independent checks, each returning a list of problems (empty = pass):

* golden: the result document without its evaluated numbers must equal,
  byte for byte, the committed golden file for that query document;
* oracle: every evaluated value is recomputed with mpmath from the JSON
  atom tree and must agree to a relative error of 1e-12, the accuracy the
  package promises; a null value must sit on a pole or zero the oracle
  also finds.  Values are never byte-compared, so an evaluation that
  changes the last bits stays correct;
* verify completeness: every suite of the committed golden report must be
  present with all its checks, each passing with at least its golden
  sample count, so that a dropped or shrunken check cannot read as a
  speed-up.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import mpmath

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12
POLE_TOL = 1e-6

mpmath.mp.dps = 20


# -- golden canonical output ------------------------------------------------

def _strip_numbers(node):
    if isinstance(node, dict):
        return {k: _strip_numbers(v) for k, v in node.items()
                if k != "values" and not (k == "value" and node.get("exact") is not None)}
    if isinstance(node, list):
        return [_strip_numbers(v) for v in node]
    return node


def canonical(result: dict) -> str:
    """The result document minus evaluated values, as the golden files store it."""
    return json.dumps(_strip_numbers(result), sort_keys=True, indent=1) + "\n"


def golden_path(workload: str, doc_name: str) -> Path:
    return GOLDEN / workload / f"{doc_name}.json"


def golden_problems(text: str, golden: str | None, doc_name: str) -> list[str]:
    if golden is None:
        return [f"{doc_name}: no golden file"]
    if text != golden:
        return [f"{doc_name}: canonical output differs from golden"]
    return []


# -- numeric oracle -----------------------------------------------------------

def _rat(v) -> mpmath.mpf:
    q = Fraction(v)
    return mpmath.mpf(q.numerator) / q.denominator


def _beta(v):
    return _rat(v) if isinstance(v, str) else mpmath.mpc(v[0], v[1])


def _near_pole(w) -> bool:
    n = mpmath.nint(w.real)
    return n <= 0 and abs(w - n) < POLE_TOL


def exact_const_value(text: str):
    """Value of an exact constant as printed: [rat *] [i] [* sqrt(p)]..."""
    sign = 1
    if text.startswith("-") and not text[1:2].isdigit():
        sign, text = -1, text[1:]
    val = mpmath.mpc(sign)
    for part in text.split(" * "):
        if part == "i":
            val *= 1j
        elif part.startswith("sqrt("):
            val *= mpmath.sqrt(int(part[5:-1]))
        else:
            val *= _rat(part)
    return val


def _atom_factor(atom: dict, s):
    """One atom's value at s (power not applied), or None at a pole or zero."""
    z = _rat(atom["arg"]["alpha"]) * s + _beta(atom["arg"]["beta"])
    kind = atom["type"]
    if kind == "exp":
        return mpmath.power(_rat(atom["base"]), z)
    if kind == "gammaR":
        return None if _near_pole(z / 2) else mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2)
    if kind == "gammaC":
        return None if _near_pole(z) else 2 * (2 * mpmath.pi) ** (-z) * mpmath.gamma(z)
    if kind == "lnf":
        w = 1 - _beta(atom["z"]) * mpmath.power(int(atom["q"]), -z)
        return None if abs(w) < POLE_TOL else 1 / w
    raise ValueError(f"unknown atom type {kind!r}")


def oracle_value(tree: dict, s: complex, cache: dict | None = None):
    """The expression's value at s, or None at a pole or zero of an atom.
    cache maps (atom, s) to the atom's value, shared across payloads."""
    cache = {} if cache is None else cache
    pref = tree["prefactor"]
    if pref["kind"] == "exact":
        val = _rat(pref["rat"]) * mpmath.mpc(1j) ** int(pref["ipow"])
        for p in pref["roots"]:
            val *= mpmath.sqrt(int(p))
    else:
        val = mpmath.mpc(pref["re"], pref["im"])
    for side, sign in (("numerator", 1), ("denominator", -1)):
        for atom in tree[side]:
            key = (json.dumps({k: v for k, v in atom.items() if k != "power"}, sort_keys=True), s)
            if key not in cache:
                cache[key] = _atom_factor(atom, mpmath.mpc(s))
            factor = cache[key]
            if factor is None:
                return None
            val *= factor ** (sign * int(atom["power"]))
    return val


def _value_problems(where: str, got, want) -> list[str]:
    if got is None or want is None:
        if (got is None) != (want is None):
            return [f"{where}: null mismatch (program {got}, oracle {'pole' if want is None else 'finite'})"]
        return []
    err = abs(mpmath.mpc(got[0], got[1]) - want) / abs(want)
    if err > REL_TOL:
        return [f"{where}: relative error {float(err):.3e} > {REL_TOL}"]
    return []


def _payloads(node, path=""):
    if isinstance(node, dict):
        if "tree" in node:
            yield path, node
        for k, v in node.items():
            if isinstance(v, dict):
                yield from _payloads(v, f"{path}/{k}")


def oracle_problems(result: dict, points: list, doc_name: str) -> list[str]:
    problems: list[str] = []
    cache: dict = {}
    for path, payload in _payloads(result.get("results", {})):
        values = payload.get("values")
        if points and (values is None or len(values) != len(points)):
            problems.append(f"{doc_name}{path}: expected {len(points)} values")
            continue
        for (re, im), got in zip(points, values or []):
            want = oracle_value(payload["tree"], complex(re, im), cache)
            problems += _value_problems(f"{doc_name}{path} at {re:+.4f}{im:+.4f}i", got, want)
    rn = result.get("results", {}).get("root_number")
    if rn is not None and rn.get("exact") is not None:
        problems += _value_problems(f"{doc_name}/root_number", rn["value"],
                                    exact_const_value(rn["exact"]))
    return problems


# -- verify completeness --------------------------------------------------------

def load_verify_golden() -> dict:
    return json.loads((GOLDEN / "verify-all.json").read_text(encoding="utf-8"))


def verify_problems(report: dict, suites_present, golden: dict) -> list[str]:
    """report is Report.to_json(); suites_present the keys of verify.SUITES."""
    problems = []
    checks = {c["name"]: c for c in report.get("checks", [])}
    for suite, expected in golden["suites"].items():
        if suite not in suites_present:
            problems.append(f"suite {suite} missing from the verify registry")
        for name, samples in expected.items():
            check = checks.get(name)
            if check is None:
                problems.append(f"{suite}: check {name} missing from the report")
            elif not check["passed"]:
                problems.append(f"{suite}: check {name} failed")
            elif check["samples"] < samples:
                problems.append(f"{suite}: check {name} ran {check['samples']} samples, "
                                f"golden {samples}")
    problems += [f"check {c['name']} failed" for c in report.get("checks", [])
                 if not c["passed"] and not any(c["name"] in e for e in golden["suites"].values())]
    if not report.get("passed", False) and not problems:
        problems.append("report not passed")
    return problems
