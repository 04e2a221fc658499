"""One benchmark worker: a fresh interpreter that sets up a workload and
drives it as a closed loop with one client.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload padic-exact --seed 1 --seconds 25 \
        --trace 0 --mode run

The worker times, from its own files, the calls into the public functions
of lfactors; nothing in the package is changed.  It prints one JSON line.
In `setup` mode it stops where the first timed operation would start.

A shared host can change speed by 20-40% within seconds: on a 2-core
Xeon virtual machine a fixed piece of pure-Python work took 4.2 ms in one
second and 7.2 ms in the next, in CPU time as in wall time.  So that two
runs of the same code read the same, an untraced worker runs a speed
meter: every PERIOD_S a timer signal runs calibration_unit(), a fixed
piece of work that lives in this file and never changes with the package,
and records how long it took.  Every timed interval is then scaled to the
reference speed, at which the unit takes REF_UNIT_S: its raw time (the
meter's own time taken out) times REF_UNIT_S times the mean speed (1 / the
unit's time) sampled within WINDOW_S of the interval.  The raw times are
reported alongside.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# tail: the percentile reported as latency_tail_ms, the highest one with at
# least ten samples beyond it at the fixed run length on the seed commit.
WORKLOADS = {
    "padic-exact": {"kind": "query", "points": (2, 4), "tail": 85},
    "arch-eval": {"kind": "query", "points": (128, 128), "tail": 99},
    "verify-all": {"kind": "verify", "tail": 100},
}
# The working strip: the sampling region of the package's own numeric checks.
STRIP_RE = (-3.0, 3.0)
STRIP_IM = (1.0, 4.0)


def clock() -> float:
    """A clock shared by all processes on the machine, so that the parent
    can time a worker from spawn to its first operation."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_unit():
    """The meter's fixed work: exact rational arithmetic and dict updates,
    the kind of pure-Python work the package does.  About 0.4 ms."""
    s = Fraction(0)
    for k in range(1, 30):
        s += Fraction(1, k * k + 1)
    d: dict[int, int] = {}
    for k in range(1500):
        d[k % 97] = d.get(k % 97, 0) + k
    return s


class SpeedMeter:
    """Samples the host's speed from a timer signal; see the module doc."""

    PERIOD_S = 0.025
    WINDOW_S = 0.1
    REF_UNIT_S = 4e-4  # a round figure near the unit's median time on that 2-core machine

    def __init__(self):
        self.at = array("d")     # when each sample ended
        self.took = array("d")   # how long the unit took
        self.stolen = 0.0        # time spent in the meter so far
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        t = clock()
        calibration_unit()
        t1 = clock()
        self.at.append(t1)
        self.took.append(t1 - t)
        self.stolen += clock() - t
        self.busy = False

    def scale(self, start: float, end: float) -> float:
        """REF_UNIT_S over the unit's time around [start, end]: the mean of
        the speeds sampled within WINDOW_S of it, or of the two samples
        nearest to it when the window holds none (a signal waits while a
        long call into C code runs)."""
        lo = bisect.bisect_left(self.at, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, end + self.WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), lo + 1
        return self.REF_UNIT_S * statistics.fmean(1 / d for d in self.took[lo:hi])


class QueryWorkload:
    """Warm run_query over a committed corpus.  The seed fixes the query
    order and draws the evaluation points of every document."""

    def __init__(self, name: str, seed: int):
        from lfactors.query import run_query
        self.name = name
        self.run_query = run_query
        corpus = json.loads((HERE / "corpus" / f"{name}.json").read_text(encoding="utf-8"))
        rng = random.Random(seed)
        rng.shuffle(corpus)
        lo, hi = WORKLOADS[name]["points"]
        self.ops = []
        for entry in corpus:
            points = [[rng.uniform(*STRIP_RE), rng.uniform(*STRIP_IM)]
                      for _ in range(rng.randint(lo, hi))]
            self.ops.append((entry["name"], dict(entry["doc"], eval_points=points)))
        self.goldens = {}
        self.seen: dict[tuple[int, str], int] = {}

    def call(self, i: int):
        return self.run_query(self.ops[i][1])

    def check(self, i: int, out) -> list[str]:
        """Golden comparison now; values are kept for the oracle at the end."""
        # imported here, after set-up, so that mpmath stays out of setup_s
        from checks import canonical, golden_path, golden_problems
        doc_name = self.ops[i][0]
        if doc_name not in self.goldens:
            path = golden_path(self.name, doc_name)
            self.goldens[doc_name] = path.read_text(encoding="utf-8") if path.exists() else None
        key = (i, json.dumps(out.get("results")))
        self.seen[key] = self.seen.get(key, 0) + 1
        return golden_problems(canonical(out), self.goldens[doc_name], doc_name)

    def deferred_failures(self, problems: list[str]) -> int:
        """Oracle check of every distinct output seen; returns failed operations."""
        from checks import oracle_problems
        failed = 0
        for (i, results), count in self.seen.items():
            name, doc = self.ops[i]
            found = oracle_problems({"results": json.loads(results)}, doc["eval_points"], name)
            if found:
                failed += count
                problems += found
        return failed


class VerifyWorkload:
    """run_verify("all", seed), checked for completeness against the golden report."""

    def __init__(self, name: str, seed: int):
        from lfactors import verify
        self.name, self.seed, self.verify = name, seed, verify
        self.ops = [("run_verify-all", None)]
        self.golden = None

    def call(self, i: int):
        return self.verify.run_verify("all", self.seed)

    def check(self, i: int, report) -> list[str]:
        from checks import load_verify_golden, verify_problems
        if self.golden is None:
            self.golden = load_verify_golden()
        return verify_problems(report.to_json(), set(self.verify.SUITES), self.golden)

    def deferred_failures(self, problems: list[str]) -> int:
        return 0


class Loop:
    """Closed loop, one client: the next operation starts when the previous
    one has returned and its output has been checked.  Only the call itself
    is timed, without the time a speed meter took meanwhile.  The loop runs
    whole passes over the operations, so that every document weighs the
    same in the latency percentiles, and starts passes until the budget is
    spent."""

    def __init__(self, workload, meter: SpeedMeter | None = None):
        self.w = workload
        self.meter = meter
        self.spans: list[tuple[float, float, float]] = []  # start, end, operation time
        self.pass_ends: list[int] = []  # len(spans) after each whole pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, budget: float, op=None):
        start = clock()
        meter = self.meter
        while not self.pass_ends or clock() - start < budget:
            for i in range(len(self.w.ops)):
                stolen = meter.stolen if meter else 0.0
                t = clock()
                try:
                    out = op(i) if op else self.w.call(i)
                    err = None
                except Exception:  # a failing operation is counted, never fatal
                    out, err = None, traceback.format_exc(limit=3)
                t1 = clock()
                self.spans.append((t, t1, t1 - t - ((meter.stolen - stolen) if meter else 0.0)))
                self.attempted += 1
                found = [f"{self.w.ops[i][0]}: exception\n{err}"] if err else self.w.check(i, out)
                if found:
                    self.failed += 1
                    self.problems += found
            self.pass_ends.append(len(self.spans))

    def latencies(self, scaled: bool = False) -> list[float]:
        """Operation times; scaled to the meter's reference speed if asked."""
        if not scaled:
            return [dt for _, _, dt in self.spans]
        return [dt * self.meter.scale(t, t1) for t, t1, dt in self.spans]

    def pass_times(self, scaled: bool = False) -> list[float]:
        """Operation time of each whole pass."""
        lat = self.latencies(scaled)
        return [sum(lat[a:b]) for a, b in zip([0] + self.pass_ends, self.pass_ends)]

    def finish(self):
        self.failed += self.w.deferred_failures(self.problems)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args()

    started = clock()
    meter = None if args.trace else SpeedMeter()
    if meter:
        meter.start()
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import lfactors.cli  # noqa: F401  (the cold start every `lc` invocation pays)
    import_s = clock() - t0
    modules = len(sys.modules)
    scipy_loaded = int("scipy" in sys.modules)

    cls = QueryWorkload if WORKLOADS[args.workload]["kind"] == "query" else VerifyWorkload
    workload = cls(args.workload, args.seed)
    if cls is QueryWorkload:  # warm-up: every document once, untimed and unchecked
        for i in range(len(workload.ops)):
            workload.call(i)
    first_op_at = clock()
    out = {"first_op_at": first_op_at}
    if meter:
        # the parent subtracts the meter's time and scales the set-up time
        out.update(setup_stolen=meter.stolen, setup_scale=meter.scale(started, first_op_at))
    if args.mode == "setup":
        if meter:
            meter.stop()
        print(json.dumps(out))
        return 0

    out.update(import_s=import_s, modules=modules, scipy_loaded=scipy_loaded)
    if not args.trace:
        loop = Loop(workload, meter)
        loop.run(args.seconds)
        meter.stop()
        out.update(latencies=loop.latencies(scaled=True), pass_times=loop.pass_times(scaled=True),
                   raw_latencies=loop.latencies(), raw_pass_times=loop.pass_times(),
                   unit_ms=[1e3 * d for d in meter.took])
    else:
        # Untraced and traced halves over whole passes; the difference of
        # their median pass times is the tracing overhead.
        from tracing import Tracer
        plain = Loop(workload)
        plain.run(args.seconds / 2)
        tracer = Tracer()
        tracer.install(getattr(getattr(workload, "verify", None), "SUITES", None))
        op = tracer.wrap("op", workload.call)
        loop = Loop(workload)
        loop.run(args.seconds / 2, op=op)
        loop.attempted += plain.attempted
        loop.failed += plain.failed
        loop.problems += plain.problems
        passes = len(loop.pass_ends)
        layers = tracer.metrics(passes)
        layers.update({"cli.import_s": import_s, "cli.import.modules": modules,
                       "cli.import.scipy_loaded": scipy_loaded,
                       "trace.overhead_s": statistics.median(loop.pass_times())
                       - statistics.median(plain.pass_times())})
        totals = tracer.layer_totals()
        totals.pop("op", None)
        out.update(layers=layers, absent=tracer.absent,
                   top_self=sorted(((v["self_s"] / passes, k) for k, v in totals.items()),
                                   reverse=True)[:6],
                   spans=len(tracer.starts))
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    loop.finish()
    out.update(attempted=loop.attempted, failed=loop.failed,
               problems=loop.problems[:20],
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
