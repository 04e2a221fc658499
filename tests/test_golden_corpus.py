"""The benchmark's query corpus reproduces its golden files byte for byte.

Every document of perfbench/corpus/<workload>.json is run without
evaluation points; its canonical JSON (sorted keys, indent 1, evaluated
values removed, as perfbench/regen_golden.py writes it) must equal
perfbench/golden/<workload>/<document>.json.  The test only reads those
files.
"""

import json
from pathlib import Path

import pytest

from lfactors.query import run_query

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _documents():
    for corpus in sorted((PERFBENCH / "corpus").glob("*.json")):
        for entry in json.loads(corpus.read_text(encoding="utf-8")):
            yield pytest.param(corpus.stem, entry, id=f"{corpus.stem}/{entry['name']}")


def _strip_values(node):
    """Drops evaluated numbers: payload `values`, and the `value` of an exact root number."""
    if isinstance(node, dict):
        return {k: _strip_values(v) for k, v in node.items()
                if k != "values" and not (k == "value" and node.get("exact") is not None)}
    if isinstance(node, list):
        return [_strip_values(v) for v in node]
    return node


@pytest.mark.parametrize("workload, entry", _documents())
def test_corpus_matches_golden(workload, entry):
    doc = {k: v for k, v in entry["doc"].items() if k != "eval_points"}
    text = json.dumps(_strip_values(run_query(doc)), sort_keys=True, indent=1) + "\n"
    golden = PERFBENCH / "golden" / workload / f"{entry['name']}.json"
    assert text == golden.read_text(encoding="utf-8")


def test_corpus_is_complete():
    assert len(list(_documents())) >= 17
