"""Span tracing of the ergodist layers, installed from outside the package.

``install`` replaces each public function of the traced modules (and the
few private table builders named below) with a wrapper that records a span
and layer counters, in every ergodist module namespace that holds the
function by name, so calls between modules are traced too. Spans live in
flat arrays in memory; ``layer_metrics`` turns them into per-layer counts
and self times (a span's duration minus the part covered by its child
spans) and ``save`` writes them out when the run ends.

Spans inside forked pool workers stay in the workers and are lost; the
parent's wait on the pool shows as self time of ``efficiency.risk``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("numerics", "model", "simulate", "estimators", "efficiency", "harness")

# Span names for functions whose layer metric groups them; every other
# public function gets "<module>.<function>".
SPAN_NAMES = {
    ("simulate", "simulate_path"): "simulate",
    ("estimators", "estimate_curve"): "estimators.curve",
    ("estimators", "kernel"): "estimators.kernel",
    ("estimators", "primitive"): "estimators.primitive",
    ("estimators", "check_weight_conditions"): "estimators.conditions",
    ("numerics", "integrate"): "numerics.integrate",
    ("numerics", "compensated_sum"): "numerics.compensated_sum",
    ("efficiency", "efficiency_bound"): "efficiency.bound",
    ("efficiency", "local_variance"): "efficiency.local_variance",
    ("efficiency", "_local_variance_at"): "efficiency.local_variance",
    ("efficiency", "influence_moment_finite"): "efficiency.screens",
    ("efficiency", "weight_moment_finite"): "efficiency.screens",
    ("efficiency", "empirical_risk"): "efficiency.risk",
    ("efficiency", "representation_discrepancy"): "efficiency.representation",
    ("harness", "run_experiment"): "harness.run_experiment",
}

# Per-model table builders, keyed by the cache entry each one fills: a call
# that finds its table cold is a "model.tables" span; a warm call is not
# traced at all, because these run once per integrand evaluation.
TABLE_BUILDERS = (
    ("normalizing_constant", "g"),
    ("_cdf_table", "cdf_table"),
    ("_exponent_table", "exp_table"),
)


PER_LAYER = [
    ("simulate.paths", "count", "lower"),
    ("simulate.unique_path_ratio", "ratio", "higher"),
    ("simulate.steps", "count", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.steps_per_s", "1/s", "higher"),
    ("simulate.exploded", "count", "lower"),
    ("estimators.curves", "count", "lower"),
    ("estimators.curve.self_s", "s", "lower"),
    ("estimators.curve.points_per_s", "1/s", "higher"),
    ("estimators.kernel.calls", "count", "lower"),
    ("estimators.kernel.self_s", "s", "lower"),
    ("estimators.kernel.us_per_call_p50", "us", "lower"),
    ("estimators.kernel.us_per_call_p90", "us", "lower"),
    ("estimators.primitive.builds", "count", "lower"),
    ("estimators.primitive.self_s", "s", "lower"),
    ("estimators.conditions.self_s", "s", "lower"),
    ("numerics.integrate.calls", "count", "lower"),
    ("numerics.integrate.evals", "count", "lower"),
    ("numerics.integrate.evals_per_call", "count", "lower"),
    ("numerics.integrate.self_s", "s", "lower"),
    ("numerics.integrate.nonconverged", "count", "lower"),
    ("numerics.compensated_sum.items", "count", "lower"),
    ("numerics.compensated_sum.self_s", "s", "lower"),
    ("model.tables.build_s", "s", "lower"),
    ("model.invariant_cdf.calls", "count", "lower"),
    ("model.invariant_quantile.calls", "count", "lower"),
    ("model.invariant_quantile.self_s", "s", "lower"),
    ("efficiency.bound.calls", "count", "lower"),
    ("efficiency.bound.self_s", "s", "lower"),
    ("efficiency.local_variance.calls", "count", "lower"),
    ("efficiency.local_variance.self_s", "s", "lower"),
    ("efficiency.screens.self_s", "s", "lower"),
    ("efficiency.risk.calls", "count", "lower"),
    ("efficiency.risk.self_s", "s", "lower"),
    ("efficiency.representation.self_s", "s", "lower"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("harness.output_bytes", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    """In-memory span store plus the counters measured at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.seeds: set[int] = set()
        self.output_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, span: str, before=None, after=None):
        """Span around ``fn``; ``before(args, kwargs)`` may replace the
        arguments, ``after(args, result)`` records counters."""
        nid = self._id(span)

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_table(self, fn, key: str):
        nid = self._id("model.tables")

        def traced(model, *args, **kwargs):
            if _table_warm(model._cache.get(key), key, args):
                return fn(model, *args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(model, *args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced


def _table_warm(table, key: str, args) -> bool:
    if table is None:
        return False
    if key != "exp_table":
        return True
    # the exponent table is rebuilt wider when asked to cover more
    halfwidth = args[0]
    return table.lo <= -halfwidth and table.hi >= halfwidth


def _wrappers(tracer: Tracer, mods: dict) -> dict:
    """Wrapper factories for the functions whose layer metrics need counters
    beyond the span; every other function gets a plain ``tracer.wrap``."""
    counts = tracer.counts

    def integrate(fn, span):
        def count_evals(args, kwargs):
            f = args[0]

            def counted(x):
                counts["integrate.evals"] += 1
                return f(x)

            return (counted, *args[1:]), kwargs

        def count_nonconverged(args, result):
            if not result.converged:
                counts["integrate.nonconverged"] += 1

        return tracer.wrap(fn, span, count_evals, count_nonconverged)

    def compensated_sum(fn, span):
        def count_items(args, kwargs):
            xs = args[0]
            if hasattr(xs, "__len__"):
                counts["compensated_sum.items"] += len(xs)
                return args, kwargs

            def counted(it):
                for v in it:
                    counts["compensated_sum.items"] += 1
                    yield v

            return (counted(xs), *args[1:]), kwargs

        return tracer.wrap(fn, span, count_items)

    def simulate_path(fn, span):
        simulation_error = mods["simulate"].SimulationError

        def count_steps(args, kwargs):
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            counts["simulate.paths"] += 1
            n_burn = round(cfg.burn_in_T / cfg.dt) if cfg.burn_in_T > 0.0 else 0
            counts["simulate.steps"] += cfg.n_steps + n_burn
            tracer.seeds.add(int(cfg.seed))
            return args, kwargs

        def counting_explosions(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except simulation_error:
                counts["simulate.exploded"] += 1
                raise

        return tracer.wrap(counting_explosions, span, count_steps)

    def estimate_curve(fn, span):
        def count_points(args, result):
            counts["estimators.curves"] += 1
            counts["estimators.curve.points"] += len(args[0].values) - 1

        return tracer.wrap(fn, span, after=count_points)

    def primitive(fn, span):
        def counting_builds(wf, *args, **kwargs):
            before = {k: id(v) for k, v in wf._cache.items()}
            result = fn(wf, *args, **kwargs)
            if {k: id(v) for k, v in wf._cache.items()} != before:
                counts["estimators.primitive.builds"] += 1
            return result

        return tracer.wrap(counting_builds, span)

    return {
        ("numerics", "integrate"): integrate,
        ("numerics", "compensated_sum"): compensated_sum,
        ("simulate", "simulate_path"): simulate_path,
        ("estimators", "estimate_curve"): estimate_curve,
        ("estimators", "primitive"): primitive,
    }


def _traced_functions(mname: str, mod):
    """The module's own public functions plus the private ones SPAN_NAMES
    names."""
    for name, obj in vars(mod).items():
        if not inspect.isfunction(obj):
            continue
        if (mname, name) in SPAN_NAMES or (
                not name.startswith("_") and obj.__module__ == mod.__name__):
            yield name, obj


def install(tracer: Tracer) -> None:
    """Patch every traced function in every ergodist namespace holding it."""
    package = importlib.import_module("ergodist")
    mods = {m: importlib.import_module(f"ergodist.{m}") for m in MODULES}
    wrappers = _wrappers(tracer, mods)
    replacements: dict[int, object] = {}
    for mname, mod in mods.items():
        for fname, fn in _traced_functions(mname, mod):
            span = SPAN_NAMES.get((mname, fname), f"{mname}.{fname}")
            replacements[id(fn)] = wrappers.get((mname, fname), tracer.wrap)(fn, span)
    for fname, key in TABLE_BUILDERS:
        fn = vars(mods["model"]).get(fname)
        if fn is not None:
            replacements[id(fn)] = tracer.wrap_table(fn, key)

    for ns in [package, *mods.values()]:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and id(obj) in replacements:
                setattr(ns, attr, replacements[id(obj)])


def _spans(tracer: Tracer):
    return (np.array(tracer.name, dtype=np.int32), np.array(tracer.parent, dtype=np.int32),
            np.array(tracer.start, dtype=float), np.array(tracer.end, dtype=float))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times; layers that did not run read 0."""
    name, parent, start, end = _spans(tracer)
    n_names = len(tracer.names)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - covered
    calls = np.bincount(name, minlength=n_names)
    self_by_name = np.bincount(name, weights=self_time, minlength=n_names)

    def nid(span):
        return tracer._ids.get(span)

    def n_calls(span):
        i = nid(span)
        return int(calls[i]) if i is not None else 0

    def self_s(span):
        i = nid(span)
        return float(self_by_name[i]) if i is not None else 0.0

    def durations(span):
        i = nid(span)
        return dur[name == i] if i is not None else np.zeros(0)

    c = tracer.counts
    m: dict[str, float] = {}
    paths = c["simulate.paths"]
    m["simulate.paths"] = paths
    m["simulate.unique_path_ratio"] = len(tracer.seeds) / paths if paths else 0.0
    m["simulate.steps"] = c["simulate.steps"]
    m["simulate.self_s"] = self_s("simulate")
    m["simulate.steps_per_s"] = c["simulate.steps"] / self_s("simulate") if paths else 0.0
    m["simulate.exploded"] = c["simulate.exploded"]

    m["estimators.curves"] = c["estimators.curves"]
    m["estimators.curve.self_s"] = self_s("estimators.curve")
    curve_s = self_s("estimators.curve")
    m["estimators.curve.points_per_s"] = c["estimators.curve.points"] / curve_s if curve_s else 0.0
    m["estimators.kernel.calls"] = n_calls("estimators.kernel")
    m["estimators.kernel.self_s"] = self_s("estimators.kernel")
    kd = durations("estimators.kernel") * 1e6
    m["estimators.kernel.us_per_call_p50"] = float(np.percentile(kd, 50)) if kd.size else 0.0
    m["estimators.kernel.us_per_call_p90"] = float(np.percentile(kd, 90)) if kd.size else 0.0
    m["estimators.primitive.builds"] = c["estimators.primitive.builds"]
    m["estimators.primitive.self_s"] = self_s("estimators.primitive")
    m["estimators.conditions.self_s"] = self_s("estimators.conditions")

    icalls = n_calls("numerics.integrate")
    m["numerics.integrate.calls"] = icalls
    m["numerics.integrate.evals"] = c["integrate.evals"]
    m["numerics.integrate.evals_per_call"] = c["integrate.evals"] / icalls if icalls else 0.0
    m["numerics.integrate.self_s"] = self_s("numerics.integrate")
    m["numerics.integrate.nonconverged"] = c["integrate.nonconverged"]
    m["numerics.compensated_sum.items"] = c["compensated_sum.items"]
    m["numerics.compensated_sum.self_s"] = self_s("numerics.compensated_sum")

    # Table builds nest (the CDF table needs G, G may need the exponent
    # table); count each outermost build once, children included.
    tables = nid("model.tables")
    build_s = 0.0
    if tables is not None:
        for idx in np.flatnonzero(name == tables):
            p = parent[idx]
            while p >= 0 and name[p] != tables:
                p = parent[p]
            if p < 0:
                build_s += float(dur[idx])
    m["model.tables.build_s"] = build_s
    m["model.invariant_cdf.calls"] = n_calls("model.invariant_cdf")
    m["model.invariant_quantile.calls"] = n_calls("model.invariant_quantile")
    m["model.invariant_quantile.self_s"] = self_s("model.invariant_quantile")

    m["efficiency.bound.calls"] = n_calls("efficiency.bound")
    m["efficiency.bound.self_s"] = self_s("efficiency.bound")
    m["efficiency.local_variance.calls"] = n_calls("efficiency.local_variance")
    m["efficiency.local_variance.self_s"] = self_s("efficiency.local_variance")
    m["efficiency.screens.self_s"] = self_s("efficiency.screens")
    m["efficiency.risk.calls"] = n_calls("efficiency.risk")
    m["efficiency.risk.self_s"] = self_s("efficiency.risk")
    m["efficiency.representation.self_s"] = self_s("efficiency.representation")
    m["harness.run_experiment.self_s"] = self_s("harness.run_experiment")
    m["harness.output_bytes"] = tracer.output_bytes
    m["trace.spans"] = len(dur)
    return m


def save(tracer: Tracer, path: str, extra: dict) -> None:
    """Write every span (name, parent, start, end) and the counters."""
    name, parent, start, end = _spans(tracer)
    np.savez(path, name=name, parent=parent, start=start, end=end,
             names=np.array(tracer.names), meta=np.array(json.dumps(
                 {"counts": dict(tracer.counts), **extra}, sort_keys=True)))
