"""Regenerate the golden files from the code in this checkout.

    python3 perfbench/regen_golden.py

Writes golden/<workload>/<document>.json (canonical query output without
evaluated values) for each query corpus, and golden/verify-all.json (the
checks of every verify suite with their sample counts).  The benchmark
never runs this itself: regenerating the goldens is an explicit change
that a reviewer sees in the diff.
"""

from __future__ import annotations

import json
import sys

from checks import GOLDEN, canonical, golden_path
from worker import HERE, SRC, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    from lfactors.query import run_query
    from lfactors.verify import SUITES, run_verify

    for workload, spec in WORKLOADS.items():
        if spec["kind"] != "query":
            continue
        corpus = json.loads((HERE / "corpus" / f"{workload}.json").read_text(encoding="utf-8"))
        for entry in corpus:
            path = golden_path(workload, entry["name"])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(canonical(run_query(entry["doc"])), encoding="utf-8")
            print(f"wrote {path.relative_to(HERE)}")
    suites = {}
    for suite in SUITES:
        report = run_verify(suite, seed=7)
        if not report.passed:
            print(f"error: suite {suite} fails; not writing a golden report", file=sys.stderr)
            return 1
        suites[suite] = {r.name: r.samples for r in report.results}
    (GOLDEN / "verify-all.json").write_text(
        json.dumps({"seed": 7, "suites": suites}, indent=1) + "\n", encoding="utf-8")
    print("wrote golden/verify-all.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
