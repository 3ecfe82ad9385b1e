"""The benchmark workloads: inputs made from a seed, a timed section, checks.

Each workload is a ``Workload`` of three functions:

* ``setup(seed, small)`` builds the inputs (counted in ``setup_s``);
* ``run(inputs)`` is the timed section; it calls only the public API. A
  generator ``run`` pauses at each ``yield`` (outside the clock) and
  returns its outputs;
* ``check(inputs, outputs)`` returns an ``Outcome``: the operations
  attempted and failed, and every failed check as a message. The checks
  compare with ``oracles`` (computed apart from the package) or with
  properties the method must have.

``small`` shrinks replication counts and horizons for the self-test.
"""

from __future__ import annotations

import hashlib
import math
import os
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Package functions are called through their modules, so that the tracer's
# patched module attributes see every call the benchmark makes.
from ergodist import efficiency, estimators, harness, model, simulate

# Experiments write here, relative to the checkout root. The name is fixed
# because result.json echoes output_dir, so its digest depends on it.
OUT_ROOT = ".perfbench_out"
# Relative accuracy asked of a local variance R(x, x) wherever R is above
# 1e-9 of its peak. The experiments' local_bound column misses 1e-5 (2.3e-5
# at x = 1.6 for the quartic well): its fixed grid does not hold the kink
# of the influence function at y = x as a node.
LOCAL_RTOL = 1e-4
LOCAL_ATOL_OF_PEAK = 1e-9


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable


def _digests(outdir: str) -> dict[str, str]:
    names = sorted(n for n in os.listdir(outdir) if n == "result.json"
                   or (n.startswith("risk_") and n.endswith(".csv")))
    out = {}
    for n in names:
        with open(os.path.join(outdir, n), "rb") as fh:
            out[n] = hashlib.sha256(fh.read()).hexdigest()
    return out


def output_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir))


# ---------------------------------------------------------------------------
# Monte Carlo experiments
# ---------------------------------------------------------------------------

# Coefficient of variation of one path's scaled integrated risk, measured
# at 1.09-1.45 over 150 paths for every estimator of both experiments.
RISK_CV = 1.5
MC_SIGMAS = 5.0


def mc_window(replications: int) -> float:
    """Allowed |ratio - 1|: MC_SIGMAS standard errors of the mean of
    `replications` per-path risks."""
    return MC_SIGMAS * RISK_CV / math.sqrt(replications)


def _experiment_setup(name: str, raw: dict, seed: int, small: dict | None) -> dict:
    outdir = os.path.join(OUT_ROOT, name)
    raw = {**raw, "sim": {**raw["sim"], "seed": seed}, "output_dir": outdir}
    if small is not None:
        raw = {**raw, "replications": small["replications"],
               "sim": {**raw["sim"], "T": small["T"]}}
    return {"cfg": harness.ExperimentConfig.from_dict(raw), "outdir": outdir}


def _experiment_run(inputs: dict):
    return harness.run_experiment(inputs["cfg"])


def _experiment_check(inputs: dict, result, law, nu_bound: float,
                      ratio_tags: tuple[str, ...]) -> Outcome:
    import oracles

    cfg = inputs["cfg"]
    reps = result.reports
    aborted = sum(rep.aborted for rep in reps.values())
    out = Outcome(attempted=cfg.replications * len(cfg.estimators), failed=aborted)
    out.expect(aborted == 0, f"{aborted} replications aborted")
    seeds = [tuple(s) for s in result.path_seeds.values()]
    out.expect(all(s == seeds[0] for s in seeds), "path seeds differ across estimators")
    out.expect(len(set(seeds[0])) == cfg.replications, "path seeds are not distinct")

    xs = np.asarray(cfg.grid)
    R = oracles.local_variance(law, xs)
    peak = float(np.max(R))
    w = mc_window(cfg.replications)
    for tag, rep in reps.items():
        out.expect(oracles.close(rep.bound, nu_bound, rtol=1e-6),
                   f"{tag}: bound {rep.bound!r} vs oracle {nu_bound!r}")
        err = np.abs(np.asarray(rep.local_bound) - R)
        out.expect(bool(np.all(err <= LOCAL_RTOL * R + LOCAL_ATOL_OF_PEAK * peak)),
                   f"{tag}: local_bound off the oracle by up to {float(np.max(err))!r}")
        out.expect(rep.ratio >= 1.0 - w,
                   f"{tag}: scaled risk below the bound: ratio {rep.ratio:.4f} < {1.0 - w:.4f}")
        if tag in ratio_tags:
            out.expect(abs(rep.ratio - 1.0) <= w,
                       f"{tag}: ratio {rep.ratio:.4f} outside 1 +/- {w:.4f}")
    out.info["ratios"] = {tag: round(rep.ratio, 6) for tag, rep in reps.items()}
    out.info["digests"] = _digests(inputs["outdir"])
    return out


_OU_EXPERIMENT = {
    "model": {"family": "ou", "params": {"theta": 1.0, "s": 1.0}},
    "estimators": ["edf", "unbiased:exp:delta=1", "unbiased:poly:p=1"],
    "sim": {"T": 100.0, "dt": 0.005},
    "replications": 60,
    "nu": "gauss:0,1",
    "grid": {"lo": -5.0, "hi": 5.0, "count": 81},
    "workers": 1,
}

_QUARTIC_EXPERIMENT = {
    "model": {"family": "quartic", "params": {}},
    "estimators": ["edf", "unbiased:exp:delta=1", "unbiased:poly:p=2"],
    "sim": {"T": 100.0, "dt": 0.005},
    "replications": 60,
    "nu": "uniform:-2,2",
    "grid": {"lo": -2.5, "hi": 2.5, "count": 51},
    "workers": 2,
}


def experiment_ou_setup(seed: int, small: bool) -> dict:
    return _experiment_setup("experiment_ou", _OU_EXPERIMENT, seed,
                             {"replications": 16, "T": 10.0} if small else None)


def experiment_ou_check(inputs: dict, result) -> Outcome:
    import oracles

    law = oracles.ou_law(1.0, 1.0)
    return _experiment_check(inputs, result, law, oracles.bound_gaussian(law, 0.0, 1.0),
                             ("edf", "unbiased_exp"))


def experiment_quartic_setup(seed: int, small: bool) -> dict:
    return _experiment_setup("experiment_quartic_2w", _QUARTIC_EXPERIMENT, seed,
                             {"replications": 16, "T": 10.0} if small else None)


def experiment_quartic_check(inputs: dict, result) -> Outcome:
    import oracles

    law = oracles.quartic_law()
    return _experiment_check(inputs, result, law, oracles.bound_uniform(law, -2.0, 2.0),
                             ("edf", "unbiased_exp"))


# ---------------------------------------------------------------------------
# tables and bounds: the quadrature-side CLI traffic
# ---------------------------------------------------------------------------

_NUS = {"gauss": "gauss:0,1", "uniform": "uniform:-2,2", "point": "point:-1=0.25;0=0.5;1=0.25"}
_WEIGHTS = ("unbiased:exp:delta=1", "unbiased:poly:p=2")


def custom_ou() -> model.DiffusionModel:
    """OU(theta=1, s=1) without the catalog fast paths, so every quadrature
    fallback (exponent table, scalar sigma) runs."""
    return model.DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                                diffusion_sq=lambda x: 1.0, label="custom_ou")


def tables_setup(seed: int, small: bool) -> dict:
    rng = np.random.default_rng(seed)
    n_pairs = 40 if small else 150
    return {
        "cdf_xs": np.linspace(-3.0, 3.0, 21 if small else 61),
        "levels": np.arange(1, 100) / 100.0,
        "lv_xs": np.linspace(-3.0, 3.0, 7 if small else 31),
        "pairs": rng.uniform(-50.0, 50.0, size=(n_pairs, 2)),
        # the poly:p=2 screens on the custom model cost seconds at any size
        "weights": _WEIGHTS[:1] if small else _WEIGHTS,
    }


class _Calls:
    """Runs public calls, recording each failure instead of stopping."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def __call__(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a raised call is a failed operation, reported below
            self.errors.append(traceback.format_exc(limit=2))
            return None


def tables_run(inputs: dict):
    """A generator: it pauses between groups of calls, where the round times
    the machine's speed; the longest group takes about 3 s."""
    call = _Calls()
    results = {}
    for label, m in (("quartic", model.quartic_well()), ("custom_ou", custom_ou())):
        r: dict = {}
        r["ergodicity"] = call(model.check_ergodicity, m, 1.0)
        r["g"] = call(model.normalizing_constant, m)
        r["cdf"] = [call(model.invariant_cdf, m, float(x)) for x in inputs["cdf_xs"]]
        r["density"] = [call(model.invariant_density, m, float(x)) for x in inputs["cdf_xs"]]
        r["quantile"] = [call(model.invariant_quantile, m, float(u)) for u in inputs["levels"]]
        nus = {k: efficiency.parse_nu(spec) for k, spec in _NUS.items()}
        r["bound"] = {k: call(efficiency.efficiency_bound, m, nu) for k, nu in nus.items()}
        r["local_variance"] = [call(efficiency.local_variance, m, float(x))
                               for x in inputs["lv_xs"]]
        r["influence_moment"] = call(efficiency.influence_moment_finite, m, nus["gauss"])
        yield
        r["weights"] = {}
        for spec in inputs["weights"]:
            wf = estimators.parse_estimator(spec).weight
            moment = call(efficiency.weight_moment_finite, wf, m, nus["gauss"])
            yield
            r["weights"][spec] = (moment, call(estimators.check_weight_conditions, wf, m, 0.0))
            yield
        r["kernels"] = {}
        for p in (2, 3):
            wf = estimators.parse_estimator(f"unbiased:poly:p={p}").weight
            r["kernels"][p] = [call(estimators.kernel, wf, m, float(x), float(y))
                               for x, y in inputs["pairs"]]
        results[label] = r
        yield
    results["calls"] = call
    return results


def tables_check(inputs: dict, results: dict) -> Outcome:
    from scipy import stats

    import oracles

    call = results["calls"]
    # A raised call counts as failed; the checks below cover the others.
    out = Outcome(attempted=call.attempted, failed=len(call.errors))
    if call.errors:
        out.info["raised"] = [err.strip().splitlines()[-1] for err in call.errors[:3]]
    laws = {"quartic": oracles.quartic_law(), "custom_ou": oracles.ou_law(1.0, 1.0)}
    g_closed = {"quartic": oracles.QUARTIC_G, "custom_ou": math.sqrt(math.pi)}
    for label, law in laws.items():
        r = results[label]
        if r["ergodicity"] is not None:
            out.expect(r["ergodicity"].all_ok(), f"{label}: ergodicity screen failed")
        if r["g"] is not None:
            out.expect(oracles.close(r["g"], g_closed[label], rtol=1e-9),
                       f"{label}: G {r['g']!r} vs {g_closed[label]!r}")
        xs = inputs["cdf_xs"]
        F = law.cdf(xs)
        f = law.pdf(xs)
        for i, x in enumerate(xs):
            if r["cdf"][i] is not None:
                out.expect(abs(r["cdf"][i] - F[i]) <= 1e-9,
                           f"{label}: F({x:g}) {r['cdf'][i]!r} vs {F[i]!r}")
            if r["density"][i] is not None:
                out.expect(oracles.close(r["density"][i], f[i], rtol=1e-8),
                           f"{label}: f({x:g}) {r['density'][i]!r} vs {f[i]!r}")
        for u, q in zip(inputs["levels"], r["quantile"]):
            if q is None:
                continue
            out.expect(abs(float(law.cdf(q)) - u) <= 1e-9, f"{label}: F(Q({u:g})) != {u:g}")
            if label == "custom_ou":
                ref = stats.norm.ppf(u, scale=math.sqrt(0.5))
                out.expect(abs(q - ref) <= 1e-8, f"{label}: Q({u:g}) {q!r} vs norm.ppf {ref!r}")
        refs = {"gauss": oracles.bound_gaussian(law, 0.0, 1.0),
                "uniform": oracles.bound_uniform(law, -2.0, 2.0),
                "point": oracles.bound_points(law, efficiency.parse_nu(_NUS["point"]).atoms)}
        for k, ref in refs.items():
            if r["bound"][k] is not None:
                out.expect(oracles.close(r["bound"][k], ref, rtol=1e-6),
                           f"{label}: {k} bound {r['bound'][k]!r} vs oracle {ref!r}")
        R = oracles.local_variance(law, inputs["lv_xs"])
        peak = float(np.max(R))
        for x, got, ref in zip(inputs["lv_xs"], r["local_variance"], R):
            if got is not None:
                out.expect(abs(got - ref) <= LOCAL_RTOL * ref + LOCAL_ATOL_OF_PEAK * peak,
                           f"{label}: R({x:g}) {got!r} vs oracle {ref!r}")
        if r["influence_moment"] is not None:
            out.expect(r["influence_moment"][0], f"{label}: influence moment screen failed")
        for spec, (moment, cond) in r["weights"].items():
            if moment is not None:
                out.expect(moment[0], f"{label}: weight moment screen failed for {spec}")
            if cond is not None:
                out.expect(cond.all_ok(), f"{label}: weight conditions failed for {spec}")
        for p, ks in r["kernels"].items():
            for (x, y), k in zip(inputs["pairs"], ks):
                if k is None:
                    continue
                ref = oracles.poly_kernel(p, law.sigma2, float(x), float(y))
                out.expect(abs(k) <= math.pi, f"{label}: |K| > pi for p={p} at ({x:g}, {y:g})")
                out.expect(oracles.close(k, ref, rtol=1e-8, atol=1e-10),
                           f"{label}: K p={p} ({x:g}, {y:g}) {k!r} vs quad {ref!r}")
    return out


# ---------------------------------------------------------------------------
# one long trajectory: the paper's own setting
# ---------------------------------------------------------------------------

_LONG_THETA, _LONG_S = 2.0, 0.5
_LONG_ESTIMATORS = ("edf", "unbiased:exp:delta=1", "unbiased:poly:p=2", "unbiased:const:c=1")
_LONG_XS = (-0.5, 0.0, 0.5)
# A curve's sup error may reach SUP_MULTIPLE * sqrt(max_x R(x, x) / T);
# 30 seeds gave at most 3.6.
SUP_MULTIPLE = 6.0


def residual_allowance(dt: float, horizon: float) -> float:
    """Bound on the representation residual: the O(sqrt(dt)) error of the
    discretized stochastic integral plus the O(dt) per-unit-time bias of the
    Euler scheme, which the sqrt(T) scaling turns into O(sqrt(T) dt). At
    T = 2000, dt = 0.005 this is 0.29; 30 seeds gave at most 0.22."""
    return math.sqrt(dt) + math.sqrt(horizon) * dt


def long_path_setup(seed: int, small: bool) -> dict:
    return {
        "model": model.ornstein_uhlenbeck(_LONG_THETA, _LONG_S),
        "sim": simulate.SimConfig(horizon_T=100.0 if small else 2000.0, dt=0.005, seed=seed,
                         init=1.5, store_wiener=True, burn_in_T=20.0),
        "xs": np.linspace(-1.5, 1.5, 201),
        "weight": estimators.parse_estimator("unbiased:exp:delta=1").weight,
    }


def long_path_run(inputs: dict) -> dict:
    m = inputs["model"]
    path = simulate.simulate_path(m, inputs["sim"])
    curves = {spec: estimators.estimate_curve(path, inputs["xs"], spec, m)
              for spec in _LONG_ESTIMATORS}
    residuals = [efficiency.representation_discrepancy(path, inputs["weight"], m, x)
                 for x in _LONG_XS]
    return {"path": path, "curves": curves, "residuals": residuals}


def long_path_check(inputs: dict, outputs: dict) -> Outcome:
    import oracles

    out = Outcome(attempted=1 + len(_LONG_ESTIMATORS) + len(_LONG_XS), failed=0)
    path = outputs["path"]
    sim = inputs["sim"]
    x, dw = path.values, path.wiener_increments
    step = x[:-1] + (-_LONG_THETA * x[:-1]) * sim.dt + _LONG_S * dw
    out.expect(len(x) == sim.n_steps + 1, "path has the wrong length")
    out.expect(bool(np.all(np.abs(x[1:] - step) <= 1e-12 * (1.0 + np.abs(step)))),
               "path breaks the Euler-Maruyama recursion with its stored increments")

    law = oracles.ou_law(_LONG_THETA, _LONG_S)
    xs = inputs["xs"]
    F = law.cdf(xs)
    scale = math.sqrt(float(np.max(oracles.local_variance(law, xs))) / path.horizon_T)
    sup = {}
    for spec, curve in outputs["curves"].items():
        err = float(np.max(np.abs(curve.values - F)))
        sup[spec] = err / scale
        out.expect(err <= SUP_MULTIPLE * scale,
                   f"{spec}: sup error {err:.3e} > {SUP_MULTIPLE} sqrt(R/T) = "
                   f"{SUP_MULTIPLE * scale:.3e}")
    e = outputs["curves"]["edf"].values
    out.expect(bool(np.all(np.diff(e) >= 0.0) and e[0] >= 0.0 and e[-1] <= 1.0),
               "EDF is not monotone in [0, 1]")
    allowance = residual_allowance(sim.dt, path.horizon_T)
    for xv, res in zip(_LONG_XS, outputs["residuals"]):
        out.expect(math.isfinite(res) and res <= allowance,
                   f"representation residual {res!r} at x={xv:g} > {allowance:.3e}")
    out.info["sup_error_in_sqrt_R_over_T"] = {k: round(v, 4) for k, v in sup.items()}
    out.info["residuals"] = [round(r, 6) for r in outputs["residuals"]]
    return out


WORKLOADS = {
    "experiment_ou": Workload(experiment_ou_setup, _experiment_run, experiment_ou_check),
    "experiment_quartic_2w": Workload(experiment_quartic_setup, _experiment_run,
                                      experiment_quartic_check),
    "tables_and_bounds": Workload(tables_setup, tables_run, tables_check),
    "long_path": Workload(long_path_setup, long_path_run, long_path_check),
}
