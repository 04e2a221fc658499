"""Spans and counters recorded around calls into the lfactors layers.

The tracer patches every module binding of a wrapped function (a module
that did `from .ratfunc import as_rational_in_X` holds its own binding),
records one span per call in memory -- name, start, end, parent -- and
turns the spans into per-layer metrics when the run ends.  A name that
does not exist in the code under test is reported as absent, not as an
error, so the same benchmark runs against older and newer commits.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# module -> functions wrapped in a span named "<module>.<function>"
SPAN_FUNCTIONS = {
    "ratfunc": ["as_rational_in_X"],
    "mero": ["equals_numeric", "max_rel_error", "format_expr", "to_json"],
    "doubling": ["gamma_factor", "l_factor", "epsilon_factor", "correction_R",
                 "normalization_c", "t_factor", "rep_space"],
    "tate": ["gauss_sum", "tate_gamma"],
    "weil": ["weil_gamma"],
    "gj": ["gj_gamma_norm"],
    "quaternion": ["matrix_reduced_norm", "regular_representation_det"],
    "hermitian": ["discriminant", "kottwitz_sign"],
    "fields": ["hilbert_symbol", "square_class"],
    "spherical": ["spherical_zeta", "gamma_spherical", "xi_symmetry_holds",
                  "resolve_hermitian_m"],
}
SAMPLING = ("mero.equals_numeric", "mero.max_rel_error")
# The fourteen suites of `lc verify --suite all`; see golden/verify-all.json.
VERIFY_SUITES = ("hilbert", "reduced_norm", "morita", "mero", "duplication", "tate",
                 "functional_equation", "self_duality", "psi_dependence",
                 "a_independence", "root_numbers", "minimal_cases", "spherical", "gj")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in SPAN_FUNCTIONS.items() for fn in fns]
    return names[:1] + ["mero.eval"] + names[1:]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in span_names():
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
        if name == "ratfunc.as_rational_in_X":
            units.update({"ratfunc.reductions": "count", "ratfunc.exact_share": "ratio",
                          "ratfunc.unsupported": "count"})
        elif name == "mero.eval":
            units["mero.eval.us_per_point"] = "us"
        elif name == SAMPLING[-1]:
            units["mero.sampling.evals_per_sample"] = "ratio"
    units.update({f"verify.{suite}.total_s": "s" for suite in VERIFY_SUITES})
    units.update({"cli.import_s": "s", "cli.import.modules": "count",
                  "cli.import.scipy_loaded": "count", "trace.overhead_s": "s"})
    return units


class Tracer:
    """In-memory span recorder.  Span i has name names[name_ids[i]], start
    starts[i], end ends[i], parent span parents[i] (-1 for none) and
    outermost[i] = 1 unless a span of the same name encloses it; the arrays
    keep a long traced run to a few bytes per span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.outermost = array("b")
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counts = {"reductions": 0, "exact": 0, "unsupported": 0,
                       "sampling_evals": 0, "sampling_accepted": 0}
        self.absent: list[str] = []
        self._sampling_owner = -1
        self._pending_ok = False

    # -- recording ---------------------------------------------------------
    def wrap(self, name: str, fn, on_return=None, on_raise=None):
        stack, active = self.stack, self.active
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, outermost = self.parents, self.outermost
        self.names.append(name)
        name_id = len(self.names) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            depth = active.get(name, 0)
            active[name] = depth + 1
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            outermost.append(depth == 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
                active[name] = depth
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def span_name(self, idx: int) -> str:
        return self.names[self.name_ids[idx]]

    # -- patching ----------------------------------------------------------
    def install(self, verify_suites: dict | None = None):
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "lfactors" or name.startswith("lfactors."))}
        for short, fns in SPAN_FUNCTIONS.items():
            home = mods.get(f"lfactors.{short}")
            for fn_name in fns:
                orig = getattr(home, fn_name, None) if home else None
                if orig is None:
                    self.absent.append(f"{short}.{fn_name}")
                    continue
                hooks = {}
                if (short, fn_name) == ("ratfunc", "as_rational_in_X"):
                    hooks = {"on_return": self._count_exact, "on_raise": self._count_unsupported}
                wrapped = self.wrap(f"{short}.{fn_name}", orig, **hooks)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
        self._patch_methods(mods)
        if verify_suites is not None:
            for suite, fns in verify_suites.items():
                fns[:] = [self.wrap(f"verify.{suite}", fn) for fn in fns]

    def _patch_methods(self, mods):
        mero = mods.get("lfactors.mero")
        expr_cls = getattr(mero, "MeroExpr", None)
        if expr_cls is not None and hasattr(expr_cls, "eval"):
            expr_cls.eval = self.wrap("mero.eval", expr_cls.eval)
        else:
            self.absent.append("mero.eval")
        if expr_cls is not None and hasattr(expr_cls, "eval_log"):
            expr_cls.eval_log = self._counting_eval_log(expr_cls.eval_log)
        else:
            self.absent.append("mero.sampling.evals_per_sample")
        ratfunc_cls = getattr(mods.get("lfactors.ratfunc"), "RatFunc", None)
        if ratfunc_cls is not None:
            ratfunc_cls.__init__ = self._counting_init(ratfunc_cls.__init__)
        else:
            self.absent.append("ratfunc.reductions")

    def _count_exact(self, result):
        self.counts["exact"] += bool(getattr(result, "is_exact", False))

    def _count_unsupported(self, exc):
        if type(exc).__name__ == "UnsupportedExpressionError":
            self.counts["unsupported"] += 1

    def _counting_init(self, init):
        counts = self.counts

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            counts["reductions"] += 1
            return init(obj, *args, **kwargs)
        return counted

    def _counting_eval_log(self, eval_log):
        """Counts evaluations made by the numeric sampling loops.  A sample is
        accepted when both sides of the comparison evaluate without hitting a
        pole; evals_per_sample is 2 when no point had to be resampled."""
        stack, counts = self.stack, self.counts

        @functools.wraps(eval_log)
        def counted(expr, s):
            owner = stack[-1] if stack else -1
            if owner < 0 or self.span_name(owner) not in SAMPLING:
                return eval_log(expr, s)
            if owner != self._sampling_owner:
                self._sampling_owner, self._pending_ok = owner, False
            counts["sampling_evals"] += 1
            try:
                out = eval_log(expr, s)
            except ArithmeticError:
                self._pending_ok = False
                raise
            if self._pending_ok:
                counts["sampling_accepted"] += 1
            self._pending_ok = not self._pending_ok
            return out
        return counted

    # -- reporting ---------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s (outermost spans of a name only) and self_s per span name."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                covered[self.parents[i]] += durations[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            agg = out.setdefault(self.span_name(i), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            if self.outermost[i]:
                agg["total_s"] += durations[i]
            agg["self_s"] += durations[i] - covered[i]
        return out

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass over the workload's operations."""
        totals = self.layer_totals()
        units = per_layer_units()
        out = {name: 0.0 for name in units}
        for name in span_names() + [f"verify.{s}" for s in VERIFY_SUITES]:
            agg = totals.get(name)
            if agg is None:
                continue
            for key in ("calls", "total_s", "self_s"):
                if f"{name}.{key}" in out:
                    out[f"{name}.{key}"] = agg[key] / passes
        conv = totals.get("ratfunc.as_rational_in_X", {}).get("calls", 0)
        out["ratfunc.reductions"] = self.counts["reductions"] / passes
        out["ratfunc.exact_share"] = self.counts["exact"] / conv if conv else 0.0
        out["ratfunc.unsupported"] = self.counts["unsupported"] / passes
        ev = totals.get("mero.eval")
        out["mero.eval.us_per_point"] = 1e6 * ev["total_s"] / ev["calls"] if ev else 0.0
        acc = self.counts["sampling_accepted"]
        out["mero.sampling.evals_per_sample"] = self.counts["sampling_evals"] / acc if acc else 0.0
        return out

    def write_spans(self, path):
        """All spans as gzip-compressed CSV, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.starts)):
                fh.write(f"{i},{self.span_name(i)},{self.starts[i] - t0:.7f},"
                         f"{self.ends[i] - t0:.7f},{self.parents[i]}\n")
