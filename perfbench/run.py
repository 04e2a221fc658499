"""The lfactors benchmark.

    python3 perfbench/run.py --workload padic-exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload run spawns fresh worker
interpreters one after another (no threads, no concurrent workers): some
that stop after set-up, then one that also drives the closed loop.  The
set-up time is the median over all of them.  Every end-to-end time is
scaled to the reference speed of the worker's speed meter (see worker.py);
the raw medians are printed on the lines above the result.  With --trace 1
a single worker runs untraced and then traced, without the meter, and the
per-layer metrics are printed instead of the end-to-end ones.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 when a result is printed, and 1 when no result could be
measured (for instance when the package sources are missing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from worker import SRC, WORKLOADS, SpeedMeter, clock
from tracing import per_layer_units

HERE = Path(__file__).resolve().parent
# Set-up-only workers: at least two, and more while they have taken less
# than SETUP_SECONDS in all, so that a short set-up gets more samples.
SETUP_SECONDS = 5.0
SETUP_MAX_WORKERS = 8
WORKER_TIMEOUT_S = 170


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def header(args) -> str:
    return (f"# lfactors benchmark  workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace}\n"
            f"# sha={git_sha(Path.cwd())} python={platform.python_version()} "
            f"numpy={version('numpy')} scipy={version('scipy')} mpmath={version('mpmath')} "
            f"nproc={len(os.sched_getaffinity(0))}")


def spawn(args, mode: str) -> tuple[float, dict]:
    """Run one worker to completion; returns (spawn time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    t_spawn = clock()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_time(t_spawn: float, res: dict, scaled: bool) -> float:
    """Spawn to first operation, without the meter's time; scaled if asked."""
    raw = res["first_op_at"] - t_spawn - res["setup_stolen"]
    return raw * res["setup_scale"] if scaled else raw


def end_to_end(args, setups: list[tuple[float, dict]], res: dict) -> dict[str, tuple[float, str]]:
    lat = res["latencies"]
    tail_pct = WORKLOADS[args.workload]["tail"]
    tail, beyond = nearest_rank(lat, tail_pct)
    print(f"# {len(lat)} operations in {len(res['pass_times'])} passes; "
          f"tail = p{tail_pct} with {beyond} samples beyond it"
          + ("" if beyond >= 10 else " (fewer than ten: too few operations in a run)"))
    unit = res["unit_ms"]
    q1, _, q3 = statistics.quantiles(unit, n=4)
    print(f"# speed meter: {len(unit)} samples, unit median {statistics.median(unit):.4f} ms "
          f"(IQR {q1:.4f}-{q3:.4f} ms, reference {1e3 * SpeedMeter.REF_UNIT_S:.4f} ms)")
    raw = res["raw_latencies"]
    print(f"# raw, unscaled: p50 {1e3 * statistics.median(raw):.3f} ms, "
          f"p{tail_pct} {1e3 * nearest_rank(raw, tail_pct)[0]:.3f} ms, "
          f"{len(raw) / sum(raw):.4f} 1/s, pass {statistics.median(res['raw_pass_times']):.4f} s, "
          f"setup {statistics.median(setup_time(t, r, False) for t, r in setups):.4f} s")
    return {
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "verify_wall_s": (statistics.median(res["pass_times"]), "s"),
        "setup_s": (statistics.median(setup_time(t, r, True) for t, r in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict[str, tuple[float, str]]:
    if res["absent"]:
        print(f"# absent at this commit (reported as 0): {', '.join(res['absent'])}")
    print(f"# {res['spans']} spans recorded; largest self time per pass: "
          + ", ".join(f"{name} {t:.4f} s" for t, name in res["top_self"]))
    return {name: (res["layers"][name], unit) for name, unit in per_layer_units().items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "lfactors" / "__init__.py").exists():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 1
    print(header(args), flush=True)

    setups = []  # (spawn time, worker result)
    if not args.trace:
        while len(setups) < 2 or (sum(setup_time(t, r, False) for t, r in setups) < SETUP_SECONDS
                                  and len(setups) < SETUP_MAX_WORKERS):
            setups.append(spawn(args, "setup"))
    setups.append(spawn(args, "run"))
    res = setups[-1][1]
    metrics = per_layer(res) if args.trace else end_to_end(args, setups, res)

    for problem in res["problems"]:
        print(f"# FAILED {problem}")
    print(f"# error_rate {res['failed'] / res['attempted']:.6f} "
          f"({res['failed']} of {res['attempted']} operations failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
