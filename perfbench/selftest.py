"""Show that the benchmark's correctness checks can fail.

    python3 perfbench/selftest.py

Each case drives the worker's closed loop with an operation whose output
has been tampered with, and expects exactly one failed operation; the
untampered control of each case must pass.  Exit code 0 when every case
behaves as expected.
"""

from __future__ import annotations

import copy
import sys

from worker import SRC, Loop, QueryWorkload, VerifyWorkload


def failed_ops(workload, op) -> int:
    getattr(workload, "seen", {}).clear()  # outputs of earlier cases
    loop = Loop(workload)
    loop.run(0, op=op)
    loop.finish()
    return loop.failed


def single(workload, doc_name: str):
    workload.ops = [op for op in workload.ops if op[0] == doc_name]
    return workload


def tampered(workload, edit):
    def op(i):
        out = copy.deepcopy(workload.call(i))
        edit(out)
        return out
    return op


def main() -> int:
    sys.path.insert(0, str(SRC))
    from lfactors.verify import CheckResult, Report
    from checks import load_verify_golden

    padic = single(QueryWorkload("padic-exact", seed=1), "q5-glchar-irrational-twist")
    arch = single(QueryWorkload("arch-eval", seed=1), "sp-weight-210")

    def perturb_text(out):
        out["results"]["gamma"]["text"] = out["results"]["gamma"]["text"].replace("5", "7", 1)

    def perturb_value(out):
        re, im = out["results"]["gamma"]["values"][0]
        out["results"]["gamma"]["values"][0] = [re * (1 + 1e-9), im * (1 + 1e-9)]

    golden = load_verify_golden()["suites"]

    def report(drop_suite=None, shrink=False):
        results = [CheckResult(name, True, samples - 1 if shrink and suite == "spherical" else samples, 0.0)
                   for suite, checks in golden.items() if suite != drop_suite
                   for name, samples in checks.items()]
        return Report("all", 1, results)

    verify = VerifyWorkload("verify-all", seed=1)
    cases = [
        ("golden text, untouched", padic, padic.call, 0),
        ("golden text with one character changed", padic, tampered(padic, perturb_text), 1),
        ("values, untouched", arch, arch.call, 0),
        ("one value off by a relative 1e-9", arch, tampered(arch, perturb_value), 1),
        ("verify report with every suite", verify, lambda i: report(), 0),
        ("verify report missing the gj suite", verify, lambda i: report(drop_suite="gj"), 1),
        ("verify report with one spherical sample fewer", verify,
         lambda i: report(shrink=True), 1),
    ]
    ok = True
    for label, workload, op, want in cases:
        got = failed_ops(workload, op)
        good = got == want
        ok &= good
        print(f"[{'pass' if good else 'FAIL'}] {label}: {got} failed operation(s), expected {want}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
