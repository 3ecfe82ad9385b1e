"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
the captured output). Monte Carlo checks run at fixed master seeds, so
every number here is reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

from ergodist.estimators import (
    CurveAccumulator,
    as_estimator,
    constant_weight,
    check_weight_conditions,
    dx_weight,
    exponential_weight,
    kernel,
    polynomial_weight,
)
from ergodist.efficiency import (
    boundary_derivative_closed,
    boundary_derivative_direct,
    boundary_function,
    empirical_risk,
    influence_moment_finite,
    nu_gaussian,
    ode_residual,
    representation_discrepancy,
    weight_moment_finite,
    weight_primitive,
)
from ergodist.harness import ExperimentConfig, run_experiment
from ergodist.model import (
    invariant_cdf,
    normalizing_constant,
    ornstein_uhlenbeck,
    stationary_expectation,
)
from ergodist.numerics import QuadratureSpec, integrate
from ergodist.simulate import SimConfig, derive_substream_seed, simulate_path, stream_block

from oracles import ou_invariant_cdf

pytestmark = pytest.mark.acceptance


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_truth_oracle():
    t0 = time.perf_counter()
    ou = ornstein_uhlenbeck()
    xs = np.arange(-3.0, 3.0001, 0.1)
    worst = max(abs(invariant_cdf(ou, float(x)) - ou_invariant_cdf(float(x))) for x in xs)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    report(1, "truth oracle", ok, f"max |F - Phi(x*sqrt2)| = {worst:.3e}, {elapsed:.2f} s")


def test_criterion_02_normalizer():
    t0 = time.perf_counter()
    fresh = ornstein_uhlenbeck()
    err = abs(normalizing_constant(fresh) - math.sqrt(math.pi))
    elapsed = time.perf_counter() - t0
    ok = err < 1e-8 and elapsed < 1.0
    report(2, "normalizer", ok, f"|G - sqrt(pi)| = {err:.3e}, {elapsed:.2f} s")


def test_criterion_03_closed_form_kernels():
    t0 = time.perf_counter()
    ou = ornstein_uhlenbeck()
    rng = np.random.default_rng(2024)
    wf1 = polynomial_weight(1)
    worst_atan = max(
        abs(kernel(wf1, ou, x, y) - (math.atan(x) - math.atan(y)))
        for x, y in rng.uniform(-10, 10, size=(100, 2))
    )
    delta = 1.3
    wfe = exponential_weight(delta)
    worst_exp = max(
        abs(kernel(wfe, ou, x, y) - (math.exp(-delta * y) - math.exp(-delta * x)) / delta)
        for x, y in rng.uniform(-3, 3, size=(100, 2))
    )
    wfc = constant_weight(1.0)
    worst_const = 0.0
    for x in (0.5, 1.0, 2.0):
        for y in (-1.0, 0.3, 1.5, 3.0):
            closed = 2.0 * x * min(y, x) - min(y, x) ** 2
            worst_const = max(worst_const, abs(weight_primitive(wfc, ou, x, y) - closed))
    bound_ok = True
    for p in (1, 2, 3):
        wf = polynomial_weight(p)
        pairs = np.random.default_rng(300 + p).uniform(-50.0, 50.0, size=(1000, 2))
        bound_ok = bound_ok and all(
            abs(kernel(wf, ou, x, y)) <= math.pi + 1e-12 for x, y in pairs
        )
    elapsed = time.perf_counter() - t0
    ok = (worst_atan < 1e-10 and worst_exp < 1e-10 and worst_const < 1e-8
          and bound_ok and elapsed < 5.0)
    report(3, "closed-form kernels", ok,
           f"atan {worst_atan:.1e}, exp {worst_exp:.1e}, const {worst_const:.1e}, "
           f"|K|<=pi {bound_ok}, {elapsed:.2f} s")


def test_criterion_04_proof_identity_suite():
    t0 = time.perf_counter()
    ou = ornstein_uhlenbeck()
    weights = [exponential_weight(1.0), polynomial_weight(1)]
    worst_m = 0.0
    for wf in weights:
        for x in (-1.0, 0.0, 1.0):
            for z in np.linspace(-3.0, 3.0, 13):
                a = boundary_derivative_direct(wf, ou, x, float(z))
                b = boundary_derivative_closed(wf, ou, x, float(z))
                worst_m = max(worst_m, abs(a - b) / max(abs(b), 1e-9))
    probes = [float(y) for y in np.linspace(-2.0, 2.0, 21) if abs(y) > 1e-9][:20]
    worst_ode = max(
        abs(ode_residual(exponential_weight(1.0), ou, 0.0, y)) for y in probes
    )
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    wf = exponential_weight(1.0)
    worst_regroup = 0.0
    for x in (-1.0, 0.0, 1.0):
        for y in (-1.5, 0.5, 1.5):
            total = boundary_function(wf, ou, x, y)
            lo, hi = (0.0, y) if y >= 0 else (y, 0.0)
            segs = [(lo, min(hi, x)), (max(lo, x), hi)] if lo < x < hi else [(lo, hi)]
            single = sum(
                integrate(lambda v: boundary_derivative_closed(wf, ou, x, v), a, b, spec).value
                for a, b in segs
            )
            single = single if y >= 0 else -single
            worst_regroup = max(worst_regroup, abs(total - single))
    elapsed = time.perf_counter() - t0
    ok = worst_m < 1e-6 and worst_ode < 1e-3 and worst_regroup < 1e-9 and elapsed < 30.0
    report(4, "proof identities", ok,
           f"derivative rel {worst_m:.2e}, ode {worst_ode:.2e}, "
           f"regroup {worst_regroup:.2e}, {elapsed:.1f} s")


def streamed_curves(model, sim, n_rep, xs, estimators):
    """Each estimator's curves (one row per replication) of the paths with
    seeds derive_substream_seed(sim.seed, r), r < n_rep, streamed as one
    block; equal bit for bit to simulate_path and estimate_curve per seed."""
    seeds = [derive_substream_seed(sim.seed, r) for r in range(n_rep)]
    acc = CurveAccumulator(xs, [as_estimator(e) for e in estimators], model, n_rep,
                           sim.n_steps, sim.dt)
    assert np.all(stream_block(model, sim, seeds, acc.add) == -1)
    return acc.curves()


def test_criterion_05_unbiasedness():
    t0 = time.perf_counter()
    ou = ornstein_uhlenbeck()
    xs = np.array([-1.0, 0.0, 1.0])
    truth = np.array([invariant_cdf(ou, float(x)) for x in xs])
    master = 1
    sim = SimConfig(horizon_T=50.0, dt=0.01, seed=master)
    n_rep = 400
    (est,) = streamed_curves(ou, sim, n_rep, xs, ["unbiased:exp:delta=1"])
    mean = est.mean(axis=0)
    se = est.std(axis=0, ddof=1) / math.sqrt(n_rep)
    z = np.abs(mean - truth) / se
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(np.abs(mean - truth) <= 3.0 * se))
    report(5, "unbiasedness", ok,
           f"|mean-F|/SE = {np.round(z, 2).tolist()} (<= 3 each), {elapsed:.0f} s")


def test_criterion_06_asymptotic_variance():
    t0 = time.perf_counter()
    ou = ornstein_uhlenbeck()
    xs = np.array([-1.0, 0.0, 1.0])
    truth = np.array([invariant_cdf(ou, float(x)) for x in xs])
    from ergodist.efficiency import local_variance

    R = np.array([local_variance(ou, float(x)) for x in xs])
    master = 7
    sim = SimConfig(horizon_T=100.0, dt=0.005, seed=master)
    n_rep = 400
    e_unb, e_edf = (c - truth for c in
                    streamed_curves(ou, sim, n_rep, xs, ["unbiased:exp:delta=2", "edf"]))
    ratios = {}
    for name, errs in (("unbiased", e_unb), ("edf", e_edf)):
        ratios[name] = 100.0 * errs.var(axis=0, ddof=1) / R
    elapsed = time.perf_counter() - t0
    ok = all(bool(np.all(np.abs(r - 1.0) <= 0.15)) for r in ratios.values())
    report(6, "asymptotic variance", ok,
           f"T*var/R unbiased = {np.round(ratios['unbiased'], 3).tolist()}, "
           f"edf = {np.round(ratios['edf'], 3).tolist()} (each in [0.85, 1.15]), {elapsed:.0f} s")


def test_criterion_07_efficiency_ratio():
    t0 = time.perf_counter()
    ou = ornstein_uhlenbeck()
    grid = np.linspace(-5.0, 5.0, 81)
    master = 21
    sim = SimConfig(horizon_T=100.0, dt=0.005, seed=master)
    nu = nu_gaussian(0.0, 1.0)
    rep_edf = empirical_risk(ou, "edf", nu, sim, 400, grid)
    rep_unb = empirical_risk(ou, "unbiased:exp:delta=1", nu, sim, 400, grid)
    paired = rep_edf.path_seeds == rep_unb.path_seeds
    elapsed = time.perf_counter() - t0
    in_window = all(0.85 <= rep.ratio <= 1.15 for rep in (rep_edf, rep_unb))
    above_floor = all(rep.scaled_risk >= 0.8 * rep.bound for rep in (rep_edf, rep_unb))
    ok = in_window and above_floor and paired
    report(7, "efficiency ratio", ok,
           f"edf {rep_edf.ratio:.4f}, unbiased {rep_unb.ratio:.4f} in [0.85, 1.15], "
           f"floor 0.8 ok {above_floor}, paired {paired}, {elapsed:.0f} s")


def test_criterion_08_pathwise_representation():
    t0 = time.perf_counter()
    ou = ornstein_uhlenbeck()
    wf = exponential_weight(1.0)
    master = 10

    def rms_at(dt: float) -> float:
        vals = []
        for k in range(50):
            cfg = SimConfig(horizon_T=20.0, dt=dt, seed=derive_substream_seed(master, k),
                            init="stationary", store_wiener=True)
            path = simulate_path(ou, cfg)
            vals.append(representation_discrepancy(path, wf, ou, 0.0))
        return math.sqrt(float(np.mean(np.square(vals))))

    coarse = rms_at(1e-3)
    fine = rms_at(5e-4)
    factor = coarse / fine
    elapsed = time.perf_counter() - t0
    ok = coarse < 0.05 and 1.2 <= factor <= 2.8
    report(8, "pathwise representation", ok,
           f"RMS(dt=1e-3) = {coarse:.4f} < 0.05, halving factor {factor:.2f} in [1.2, 2.8], "
           f"{elapsed:.0f} s")


def test_criterion_09_condition_screens():
    t0 = time.perf_counter()
    ou = ornstein_uhlenbeck()
    screens_ok = (
        check_weight_conditions(polynomial_weight(1), ou, 0.0).all_ok()
        and check_weight_conditions(exponential_weight(1.0), ou, 0.0).all_ok()
    )
    wf_const = constant_weight(1.0)
    ratios = []
    for x in (2.0, 4.0, 8.0):
        sq = stationary_expectation(ou, lambda y: dx_weight(wf_const, ou, x, y) ** 2)
        ratios.append(sq / (4.0 * x * x * invariant_cdf(ou, x)))
    growth_ok = all(abs(r - 1.0) < 0.2 for r in ratios)
    nu = nu_gaussian(0.0, 1.0)
    q2_ok, _ = influence_moment_finite(ou, nu)
    q3_ok, _ = weight_moment_finite(exponential_weight(1.0), ou, nu)
    elapsed = time.perf_counter() - t0
    ok = screens_ok and growth_ok and q2_ok and q3_ok and elapsed < 60.0
    report(9, "condition screens", ok,
           f"class conditions {screens_ok}, growth ratios {np.round(ratios, 3).tolist()}, "
           f"moment screens ({q2_ok}, {q3_ok}), {elapsed:.0f} s")


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "exp"
    cfg = ExperimentConfig.from_dict({
        "model": {"family": "ou", "params": {}},
        "estimators": ["edf", "unbiased:exp:delta=1"],
        "sim": {"T": 2.0, "dt": 0.01, "seed": 11},
        "replications": 8,
        "nu": "gauss:0,1",
        "grid": {"lo": -5.0, "hi": 5.0, "count": 21},
        "output_dir": str(out),
        "workers": 1,
    })
    watched = ["result.json", "risk_edf.csv", "risk_unbiased_exp.csv"]
    run_experiment(cfg)
    first = {name: (out / name).read_bytes() for name in watched}
    run_experiment(cfg)
    second = {name: (out / name).read_bytes() for name in watched}
    identical = all(first[name] == second[name] for name in watched)
    ratio_present = "ratio" in json.loads(first["result.json"].decode())["reports"]["edf"]
    elapsed = time.perf_counter() - t0
    ok = identical and ratio_present
    report(10, "determinism", ok,
           f"byte-identical rerun {identical} for {watched}, {elapsed:.1f} s")
