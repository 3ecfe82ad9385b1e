"""Experiment orchestration and the command-line interface.

An experiment runs the Monte Carlo risk measurement for several estimators
over shared replication seeds (common random numbers, so the efficiency
comparison is paired), then persists plot-ready CSV files and a
deterministic JSON report. Wall-clock timing goes to a separate file so a
rerun with one worker is byte-identical output for output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import __version__
from .efficiency import (
    RiskReport,
    empirical_risk,
    efficiency_bound,
    grid_hull_violations,
    influence_moment_finite,
    local_variance,
    boundary_derivative_closed,
    boundary_derivative_direct,
    boundary_function,
    ode_residual,
    parse_nu,
    representation_discrepancy,
    weight_moment_finite,
)
from .errors import (ConfigError, DivergenceError, EvaluationError, RiskRunError,
                     SimulationError, TailError, WorkerError)
from .estimators import as_estimator, check_weight_conditions, parse_estimator
from .model import (
    DiffusionModel,
    _cdf_pair,
    check_ergodicity,
    invariant_density,
    model_from_spec,
)
from .numerics import QuadratureSpec, integrate
from .simulate import SimConfig, simulate_path, write_path_csv

DEFAULT_GRID = (-5.0, 5.0, 81)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    model_spec: dict
    estimators: tuple[str, ...]
    horizon_T: float
    dt: float
    seed: int
    replications: int
    nu_spec: object
    grid_lo: float = DEFAULT_GRID[0]
    grid_hi: float = DEFAULT_GRID[1]
    grid_count: int = DEFAULT_GRID[2]
    output_dir: str = "."
    workers: int | str = 1

    def validate(self) -> None:
        """Raise ConfigError listing *every* violated field."""
        violations: list[str] = []
        try:
            model_from_spec(self.model_spec)
        except (ValueError, TypeError) as exc:
            violations.append(f"model: {exc}")
        if not self.estimators:
            violations.append("estimators: need at least one estimator spec")
        for s in self.estimators:
            try:
                parse_estimator(s)
            except ValueError as exc:
                violations.append(f"estimators: {exc}")
        try:
            SimConfig(horizon_T=self.horizon_T, dt=self.dt, seed=self.seed)
        except ConfigError as exc:
            violations.extend(f"sim: {v}" for v in exc.violations)
        else:
            if self.horizon_T / self.dt > 1e8:
                violations.append(
                    f"sim: T/dt = {self.horizon_T / self.dt!r} exceeds 1e8 (memory guard)")
        if self.replications < 2:
            violations.append(f"replications: must be >= 2, got {self.replications!r}")
        try:
            nu = parse_nu(self.nu_spec)
        except (ValueError, KeyError, TypeError) as exc:
            violations.append(f"nu: {exc}")
            nu = None
        if self.grid_count < 2:
            violations.append(f"grid: count must be >= 2, got {self.grid_count!r}")
        if not -math.inf < self.grid_lo < self.grid_hi < math.inf:
            violations.append(f"grid: need finite lo < hi, got {[self.grid_lo, self.grid_hi]!r}")
        elif nu is not None:
            violations += grid_hull_violations(nu, self.grid_lo, self.grid_hi)
        w = self.workers
        if w != "auto" and (isinstance(w, bool) or not isinstance(w, int) or w < 1):
            violations.append(f"workers: must be a positive integer or 'auto', got {w!r}")
        if violations:
            raise ConfigError(violations)

    def resolved_workers(self) -> int:
        """The worker count; "auto" is the number of CPUs this process may run on."""
        if self.workers == "auto":
            return len(os.sched_getaffinity(0))
        return int(self.workers)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_lo, self.grid_hi, self.grid_count)

    def to_dict(self) -> dict:
        return {
            "model": self.model_spec,
            "estimators": list(self.estimators),
            "sim": {"T": self.horizon_T, "dt": self.dt, "seed": self.seed},
            "replications": self.replications,
            "nu": self.nu_spec if isinstance(self.nu_spec, (str, dict)) else str(self.nu_spec),
            "grid": {"lo": self.grid_lo, "hi": self.grid_hi, "count": self.grid_count},
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError([f"config: must be an object, got {type(raw).__name__}"])
        sim, grid = raw.get("sim", {}), raw.get("grid", {})
        bad = [f"{k}: must be an object, got {v!r}" for k, v in (("sim", sim), ("grid", grid))
               if not isinstance(v, dict)]
        if bad:
            raise ConfigError(bad)
        # a fractional count or seed is refused, not truncated by int()
        bad = [f"{name}: {key}must be a whole number, got {v!r}" for name, key, v in (
            ("replications", "", raw.get("replications")), ("sim", "seed ", sim.get("seed")),
            ("grid", "count ", grid.get("count"))) if isinstance(v, float) and not v.is_integer()]
        out = raw.get("output_dir", ".")
        if not isinstance(out, (str, os.PathLike)):
            bad.append(f"output_dir: must be a path string, got {out!r}")
        if bad:
            raise ConfigError(bad)
        try:
            cfg = cls(
                model_spec=raw["model"],
                estimators=tuple(raw["estimators"]),
                horizon_T=float(sim["T"]),
                dt=float(sim["dt"]),
                seed=int(sim.get("seed", 0)),
                replications=int(raw["replications"]),
                nu_spec=raw.get("nu", "gauss:0,1"),
                grid_lo=float(grid.get("lo", DEFAULT_GRID[0])),
                grid_hi=float(grid.get("hi", DEFAULT_GRID[1])),
                grid_count=int(grid.get("count", DEFAULT_GRID[2])),
                output_dir=str(out),
                workers=raw.get("workers", 1),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError([f"config structure: {exc!r}"]) from exc
        return cfg


@dataclass
class ExperimentResult:
    reports: dict[str, RiskReport]
    wall_clock_s: float
    master_seed: int
    path_seeds: dict[str, list[int]]
    version: str = __version__

    def to_json_dict(self, cfg: ExperimentConfig) -> dict:
        """Deterministic payload: excludes wall-clock (that goes to timing.json)."""
        return {
            "artifact_version": self.version,
            "config": cfg.to_dict(),
            "reports": {tag: rep.to_dict({"estimator": tag}) for tag, rep in self.reports.items()},
            "seed_provenance": {
                "master_seed": self.master_seed,
                "path_seeds": self.path_seeds,
            },
        }


def _dedup_tags(specs: Sequence[str]) -> list[str]:
    tags: list[str] = []
    for s in specs:
        base = as_estimator(s).tag
        tag = base
        k = 2
        while tag in tags:
            tag = f"{base}_{k}"
            k += 1
        tags.append(tag)
    return tags


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every estimator spec with identical replication seeds and persist
    risk_<tag>.csv per estimator plus result.json and timing.json."""
    cfg.validate()
    os.makedirs(cfg.output_dir, exist_ok=True)
    model = model_from_spec(cfg.model_spec)
    nu = parse_nu(cfg.nu_spec)
    sim = SimConfig(horizon_T=cfg.horizon_T, dt=cfg.dt, seed=cfg.seed, init="stationary")
    workers = cfg.resolved_workers()
    xs = cfg.grid
    t0 = time.perf_counter()
    reps = empirical_risk(model, list(cfg.estimators), nu, sim, cfg.replications, xs,
                          workers=workers)
    reports = dict(zip(_dedup_tags(cfg.estimators), reps))
    path_seeds = {tag: list(rep.path_seeds) for tag, rep in reports.items()}
    wall = time.perf_counter() - t0
    result = ExperimentResult(
        reports=reports,
        wall_clock_s=wall,
        master_seed=cfg.seed,
        path_seeds=path_seeds,
    )
    for tag, rep in reports.items():
        with open(os.path.join(cfg.output_dir, f"risk_{tag}.csv"), "w", newline="") as fh:
            _write_csv(fh, ["x", "bias", "scaled_variance", "local_bound"],
                       rep.xs, rep.bias, rep.scaled_variance, rep.local_bound)
    with open(os.path.join(cfg.output_dir, "result.json"), "w") as fh:
        json.dump(result.to_json_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(cfg.output_dir, "timing.json"), "w") as fh:
        json.dump({"wall_clock_s": wall}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


# ---------------------------------------------------------------------------
# CSV writers (17 significant digits, csv-module quoting/line endings)
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{float(v) + 0.0:.17g}"  # + 0.0 normalizes negative zero


def _write_csv(fh, header: list[str], *columns) -> None:
    """A header row, then one row of the columns' values per index."""
    w = csv.writer(fh)
    w.writerow(header)
    for row in zip(*columns):
        w.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_model_arg(text: str) -> dict:
    family, _, rest = text.partition(":")
    params: dict[str, float] = {}
    if rest:
        for piece in rest.split(","):
            key, _, val = piece.partition("=")
            if not val:
                raise ConfigError([f"model: bad parameter {piece!r} (expected key=value)"])
            params[key.strip()] = float(val)
    return {"family": family.strip(), "params": params}


def _parse_grid_arg(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError([f"grid: expected lo:hi:count, got {text!r}"])
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or not -math.inf < lo < hi < math.inf:
        raise ConfigError([f"grid: need finite lo < hi and count >= 1, got {text!r}"])
    return np.linspace(lo, hi, count)


def _thresholds_arg(values: list[float] | None) -> list[float]:
    """The ``--x`` thresholds, 0 when none is given; ConfigError at one
    that is not finite."""
    xs = values or [0.0]
    for x in xs:
        if not math.isfinite(x):
            raise ConfigError([f"x: thresholds must be finite, got {x!r}"])
    return xs


def _model_from_arg(text: str) -> DiffusionModel:
    try:
        return model_from_spec(_parse_model_arg(text))
    except ValueError as exc:
        raise ConfigError([f"model: {exc}"]) from exc


@contextlib.contextmanager
def _out_stream(path: str | None):
    """The file at ``path``, open for writing, or stdout for None or "-"."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _emit(payload: dict, path: str | None) -> None:
    with _out_stream(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_check_model(args) -> int:
    model = _model_from_arg(args.model)
    rep = check_ergodicity(model, args.probe_radius)
    _emit(
        {
            "model": model.label,
            "es_ok": rep.es_ok,
            "vs_diverges": rep.vs_diverges,
            "g_finite": rep.g_finite,
            "g_value": rep.g_value if math.isfinite(rep.g_value) else None,
            "probe_points": rep.probe_points,
        },
        args.out,
    )
    return 0


def _cmd_truth(args) -> int:
    model = _model_from_arg(args.model)
    xs = _parse_grid_arg(args.grid)
    with _out_stream(args.out) as fh:
        _write_csv(fh, ["x", "F", "f"], xs, _cdf_pair(model, xs)[0], invariant_density(model, xs))
    return 0


def _sim_config_from_args(args) -> SimConfig:
    init = "stationary" if args.x0 is None else float(args.x0)
    return SimConfig(
        horizon_T=args.T,
        dt=args.dt,
        seed=args.seed,
        init=init,
        store_wiener=getattr(args, "store_wiener", False),
        burn_in_T=getattr(args, "burn_in", 0.0),
    )


def _cmd_simulate(args) -> int:
    model = _model_from_arg(args.model)
    path = simulate_path(model, _sim_config_from_args(args))
    with _out_stream(args.out) as fh:
        write_path_csv(path, fh)
    return 0


def _cmd_estimate(args) -> int:
    from .estimators import estimate_curve

    model = _model_from_arg(args.model)
    choice = parse_estimator(args.estimator)
    xs = _parse_grid_arg(args.grid)
    path = simulate_path(model, _sim_config_from_args(args))
    curve = estimate_curve(path, xs, choice, model)
    with _out_stream(args.out) as fh:
        _write_csv(fh, ["x", "estimate"], curve.xs, curve.values)
    return 0


def _cmd_bound(args) -> int:
    model = _model_from_arg(args.model)
    nu = parse_nu(args.nu)
    bound = efficiency_bound(model, nu)
    payload: dict = {"model": model.label, "nu": args.nu, "bound": bound}
    if args.grid is not None:
        xs = _parse_grid_arg(args.grid)
        payload["xs"] = [float(v) for v in xs]
        payload["local_bound"] = [float(r) for r in local_variance(model, xs)]
        if args.csv is not None:
            with open(args.csv, "w", newline="") as fh:
                _write_csv(fh, ["x", "local_bound"], payload["xs"], payload["local_bound"])
    _emit(payload, args.out)
    return 0


def _cmd_check_conditions(args) -> int:
    model = _model_from_arg(args.model)
    nu = parse_nu(args.nu)
    xs = _thresholds_arg(args.x)
    payload: dict = {"model": model.label, "nu": args.nu}
    ok_h, val_h = influence_moment_finite(model, nu)
    payload["influence_moment_ok"] = ok_h
    payload["influence_moment"] = val_h if math.isfinite(val_h) else None
    estimators = {}
    for spec in args.estimator:
        choice = parse_estimator(spec)
        if choice.kind != "unbiased":
            continue
        ok_g, val_g = weight_moment_finite(choice.weight, model, nu)
        per_x = {}
        for x in xs:
            rep = check_weight_conditions(choice.weight, model, x)
            per_x[str(x)] = {
                "sq_moment_ok": rep.sq_moment_ok,
                "abs_moment_ok": rep.abs_moment_ok,
                "tail_vanishes": rep.tail_vanishes,
                "sq_moment": rep.sq_moment if math.isfinite(rep.sq_moment) else None,
            }
        estimators[spec] = {
            "weight_moment_ok": ok_g,
            "weight_moment": val_g if math.isfinite(val_g) else None,
            "thresholds": per_x,
        }
    payload["estimators"] = estimators
    _emit(payload, args.out)
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    cfg = ExperimentConfig.from_dict(raw)
    if args.output_dir is not None:
        cfg = replace(cfg, output_dir=args.output_dir)
    run_experiment(cfg)
    return 0


# Tolerances of the integral of the closed-form boundary derivative that
# the regroup check compares with the boundary function's primitives.
_REGROUP_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)


def _cmd_identity_checks(args) -> int:
    model = _model_from_arg(args.model)
    choice = parse_estimator(args.estimator)
    if choice.kind != "unbiased":
        raise ConfigError(["identity checks need a weight-function estimator"])
    wf = choice.weight
    xs = _thresholds_arg(args.x)
    if args.seeds < 0:
        raise ConfigError([f"seeds: must be >= 0, got {args.seeds!r}"])
    zs = _parse_grid_arg(args.z_grid)
    m_rel = 0.0
    regroup = 0.0
    resid = 0.0
    for x in xs:
        for z in zs:
            direct = boundary_derivative_direct(wf, model, x, float(z))
            closed = boundary_derivative_closed(wf, model, x, float(z))
            m_rel = max(m_rel, abs(direct - closed) / max(abs(closed), 1e-12))
            total = boundary_function(wf, model, x, float(z))
            single = integrate(lambda v: boundary_derivative_closed(wf, model, x, v),
                               0.0, float(z), _REGROUP_SPEC, kink=x).value
            regroup = max(regroup, abs(total - single))
            if abs(z) > 1e-9:
                resid = max(resid, abs(ode_residual(wf, model, x, float(z))))
    rms = None
    if args.seeds > 0:
        discs = []
        for k in range(args.seeds):
            cfg = SimConfig(horizon_T=args.T, dt=args.dt, seed=args.seed + k,
                            init="stationary", store_wiener=True)
            path = simulate_path(model, cfg)
            discs.append(representation_discrepancy(path, wf, model, xs[0]))
        rms = math.sqrt(sum(d * d for d in discs) / len(discs))
    _emit(
        {
            "model": model.label,
            "estimator": args.estimator,
            "derivative_identity_max_rel": m_rel,
            "regroup_identity_max_abs": regroup,
            "ode_residual_max_abs": resid,
            "representation_rms": rms,
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodist",
        description="Invariant-CDF estimation for ergodic scalar diffusions: "
        "simulation, estimators, efficiency bounds, Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", required=True,
                       help="catalog model, e.g. ou, ou:theta=2,s=1, quartic, shifted_ou:m=1")

    def add_out(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("check-model", help="ergodicity screen as JSON")
    add_model(p)
    p.add_argument("--probe-radius", type=float, default=1.0)
    add_out(p)
    p.set_defaults(fn=_cmd_check_model)

    p = sub.add_parser("truth", help="invariant CDF and density on a grid (CSV x,F,f)")
    add_model(p)
    p.add_argument("--grid", required=True, help="lo:hi:count")
    add_out(p)
    p.set_defaults(fn=_cmd_truth)

    p = sub.add_parser("simulate", help="simulate one path (CSV t,x[,dW])")
    add_model(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=float, default=None,
                   help="fixed initial value (default: stationary draw)")
    p.add_argument("--burn-in", type=float, default=0.0)
    p.add_argument("--store-wiener", action="store_true")
    add_out(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("estimate", help="simulate and evaluate an estimator curve (CSV x,estimate)")
    add_model(p)
    p.add_argument("--estimator", required=True,
                   help="edf | unbiased:poly:p=<int> | unbiased:exp:delta=<real> | unbiased:const:c=<real>")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--grid", required=True, help="lo:hi:count")
    add_out(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("bound", help="efficiency bound and per-x local variance (JSON)")
    add_model(p)
    p.add_argument("--nu", required=True, help="gauss:m,s | uniform:a,b | point:x=w[;x=w]")
    p.add_argument("--grid", default=None, help="optional lo:hi:count for per-x detail")
    p.add_argument("--csv", default=None, help="optional CSV for the per-x detail")
    add_out(p)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("check-conditions", help="moment/tail condition screens (JSON)")
    add_model(p)
    p.add_argument("--nu", required=True)
    p.add_argument("--estimator", action="append", default=[],
                   help="repeatable; weight-function estimators to screen")
    p.add_argument("--x", action="append", default=None, type=float,
                   help="repeatable threshold probes (default 0)")
    add_out(p)
    p.set_defaults(fn=_cmd_check_conditions)

    p = sub.add_parser("experiment", help="full Monte Carlo risk experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None, help="override the config output_dir")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("identity-checks", help="decomposition identity residuals (JSON)")
    add_model(p)
    p.add_argument("--estimator", required=True)
    p.add_argument("--x", action="append", default=None, type=float)
    p.add_argument("--z-grid", default="-2:2:9")
    p.add_argument("--seeds", type=int, default=0,
                   help="pathwise representation RMS over this many seeds (0 = skip)")
    p.add_argument("--T", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(fn=_cmd_identity_checks)

    # Grid values like -3:3:61 must parse as option values, not flags; no
    # option name here starts with a digit, so widen the negative-number
    # heuristic on every (sub)parser.
    matcher = re.compile(r"^-\d")
    parser._negative_number_matcher = matcher
    for p_sub in sub.choices.values():
        p_sub._negative_number_matcher = matcher
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Entry point: exit 0 on success, 2 on validation errors and on a
    quantity asked for past the tables' tails, 3 on numerical divergence or
    a non-finite or non-positive function value (a finiteness condition
    failed), 4 on simulation explosion or a dead block worker."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, TailError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"finiteness condition failed: {exc}", file=sys.stderr)
        return 3
    except WorkerError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 4
    except (SimulationError, RiskRunError) as exc:
        print(f"simulation explosion: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    raise SystemExit(cli_main())
