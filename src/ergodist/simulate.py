"""Trajectory simulation with a deterministic, splittable randomness contract.

Euler-Maruyama, X_{i+1} = X_i + S(X_i) dt + sigma(X_i) dW_i, with a
per-replication substream seed derived by an avalanche-quality integer
hash, so replications are reproducible and embarrassingly parallel. A path
draws everything from a PCG64 stream seeded with its own seed: first one
uniform for a stationary start (the invariant law's quantile transform),
then its increments dW_i ~ Normal(0, dt), burn-in steps first.

``stream_block`` is the one simulator, and it has one chunk loop. Per
chunk of ``_CHUNK_STEPS`` steps (a single path: per span of
``_SPAN_CHUNKS`` such chunks), burn-in first, it draws each path's
increments from its own stream, scales them by ``sigma_const`` once when
the model sets it (not asking for sigma each step), has a step kernel
fill the chunk's states, marks each path's first non-finite step, and
hands the chunk after burn-in to a consumer: a curve accumulator, which
keeps per-cell sums and no path, or ``simulate_path``, which stores the
one path of a block of one. The vector kernel steps every path of a
block as one numpy vector. The float kernel steps one path as a Python
float: by one list comprehension per span when the model sets
``sigma_const`` and its drift gives a Python float at the span's first
state, else (or when the comprehension raised or its last state is not a
float) by the per-step reference loop, which stops at the first
non-finite state. It runs a block of one,
and each path of a block of a model whose drift or diffusion does not
map a state vector to the values of its scalar calls (one written with
``math.exp``, say). sigma_const * dW_i is the same IEEE product as the
scalar call's, so a path's states depend neither on its block nor on the
kernel, and each is bit-identical to ``simulate_path`` of its seed
alone. A path stays non-finite once it leaves the finite numbers, and
the step it leaves them at is the one ``simulate_path`` reports. A stream
stops, before handing over the chunk, once all its paths have exploded;
until then a vector block hands its exploded paths over with the others.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .errors import ConfigError, SimulationError
from .model import DiffusionModel, invariant_quantile

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    """Time horizon, step, seed, and initialization for one trajectory.

    ``init`` is either the string "stationary" or a fixed starting value
    (a float). The step count is n = round(T/dt); the horizon is redefined
    internally as n*dt so the final step is never ragged.
    """

    horizon_T: float
    dt: float
    seed: int
    init: str | float = "stationary"
    store_wiener: bool = False
    burn_in_T: float = 0.0

    def __post_init__(self) -> None:
        violations = [f"{name} must be finite, got {v!r}" for name, v in (
            ("horizon_T", self.horizon_T), ("dt", self.dt), ("burn_in_T", self.burn_in_T))
            if not math.isfinite(v)]
        if not (self.dt > 0.0 and self.horizon_T > 0.0 and self.dt <= self.horizon_T):
            violations.append(f"need 0 < dt <= horizon_T, got dt={self.dt!r}, T={self.horizon_T!r}")
        elif not violations:  # a non-finite T or dt has no step count
            n = round(self.horizon_T / self.dt)
            if n < 1:
                violations.append("need at least one step")
            elif abs(n * self.dt - self.horizon_T) > 1e-12 * max(1.0, abs(self.horizon_T)):
                violations.append(
                    f"horizon_T must be an integer multiple of dt within 1e-12 relative "
                    f"(T={self.horizon_T!r}, dt={self.dt!r})"
                )
        if isinstance(self.init, str):
            if self.init != "stationary":
                violations.append(f"init must be 'stationary' or a number, got {self.init!r}")
        elif not math.isfinite(float(self.init)):
            violations.append("fixed init must be finite")
        if self.burn_in_T < 0.0:
            violations.append("burn_in_T must be >= 0")
        if self.burn_in_T > 0.0 and self.init == "stationary":
            violations.append("burn-in applies to fixed initialization only")
        if violations:
            raise ConfigError(violations)

    @property
    def n_steps(self) -> int:
        return round(self.horizon_T / self.dt)

    @property
    def effective_T(self) -> float:
        return self.n_steps * self.dt


@dataclass(frozen=True)
class Path:
    """A discretized trajectory on the uniform grid t_i = i*dt."""

    dt: float
    values: np.ndarray
    wiener_increments: np.ndarray | None = None
    seed_used: int = 0

    def __post_init__(self) -> None:
        if self.wiener_increments is not None and len(self.wiener_increments) != self.n_steps:
            raise ValueError("wiener_increments must have exactly n entries")

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def horizon_T(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt


def derive_substream_seed(master_seed: int, replication_index: int) -> int:
    """Stateless avalanche mix of (master_seed, index); distinct per index.

    The index map k -> master + C*k (C odd) is injective mod 2^64 and the
    finalizer is a bijection, so substreams never collide.
    """
    if replication_index < 0:
        raise ValueError("replication_index must be >= 0")
    z = (int(master_seed) + 0x9E3779B97F4A7C15 * (int(replication_index) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _initial_value(model: DiffusionModel, cfg: SimConfig, rng: np.random.Generator) -> float:
    if cfg.init == "stationary":
        u = rng.random()
        if u <= 0.0:
            u = 2.0**-53
        return invariant_quantile(model, u)
    return float(cfg.init)


# Steps of increments a block draws at a time, and of states it hands a
# consumer at a time.
_CHUNK_STEPS = 512
# Chunks a single path draws, steps and hands over at a time: the calls
# per chunk cost a path stepped as a Python float what one chunk of a
# vector block costs every path of it. On a 2-core VM a 404 000-step OU
# path took 38, 34.5, 33 and 32 ms in spans of 1, 2, 4 and 8 chunks; 8
# chunks raised the peak RSS of a run storing it by 0.2 MiB, 4 by 0.08.
_SPAN_CHUNKS = 4
# Points between the start points at which a block checks that drift and
# diffusion vectorize.
_PROBE_POINTS = 1024


def _burn_steps(cfg: SimConfig) -> int:
    return round(cfg.burn_in_T / cfg.dt) if cfg.burn_in_T > 0.0 else 0


def stream_block(model: DiffusionModel, cfg: SimConfig, seeds, consume: Callable) -> np.ndarray:
    """Simulate one path per seed with cfg's horizon, step and
    initialization, storing none of them; returns each path's first
    non-finite step (burn-in steps first) or -1.

    The states after burn-in go to ``consume(cols, start, states, dw)``
    chunk by chunk: ``states`` has shape (steps + 1, paths), its rows the
    states at steps start, ..., start + steps of the block's paths ``cols``,
    and ``dw`` holds the increments between them. A chunk covers steps
    [start, start + _CHUNK_STEPS) of every path at once, or, in a block of
    one or where drift and diffusion do not vectorize, steps [start, start
    + _SPAN_CHUNKS * _CHUNK_STEPS) of one path at a time; an exploded
    path's states are not finite from its explosion on.
    """
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    x0 = np.array([_initial_value(model, cfg, rng) for rng in rngs])
    if len(rngs) > 1 and _vectorizes(model, x0):
        return _stream(model, cfg, _step_vector, x0, rngs, slice(0, len(rngs)), consume)
    return np.array([_stream(model, cfg, _step_float, x0[j:j + 1], rngs[j:j + 1],
                             slice(j, j + 1), consume)[0] for j in range(len(rngs))],
                    dtype=np.int64)


def _vectorizes(model: DiffusionModel, x0: np.ndarray) -> bool:
    """Whether drift and diffusion map a state vector to the values of
    their scalar calls, probed at the start points x0 and at _PROBE_POINTS
    points between them (a numpy power, for one, can differ from a Python
    float's in the last bit)."""
    xs = np.concatenate([x0, np.linspace(x0.min(), x0.max(), _PROBE_POINTS)])
    for fn in (model.drift, model.diffusion):
        try:
            with np.errstate(all="ignore"):
                got = np.asarray(fn(xs), dtype=float)
            want = np.array([float(fn(v)) for v in xs.tolist()])
        except Exception:  # a scalar-only function (math.exp, an if on x, ...)
            return False
        if got.shape not in ((), xs.shape) or not np.array_equal(
                np.broadcast_to(got, xs.shape), want, equal_nan=True):
            return False
    return True


def _stream(model: DiffusionModel, cfg: SimConfig, step: Callable, x: np.ndarray,
            rngs: list, cols: slice, consume: Callable) -> np.ndarray:
    """The paths ``cols`` of a block from start points x, burn-in steps
    first, in chunks of _CHUNK_STEPS steps (of _SPAN_CHUNKS such chunks
    for a single path) that ``step`` fills; returns each one's first
    non-finite step or -1. Chunks restart at the end of burn-in, so the
    chunks handed to ``consume`` start at multiples of _CHUNK_STEPS. A
    block shorter than a chunk holds buffers of its own length. With
    ``model.sigma_const`` set, a chunk's increments are scaled by it once,
    not per step by a call to sigma. Once every path has exploded, the
    stream stops before handing over that chunk."""
    s = model.sigma_const
    sd = math.sqrt(cfg.dt)
    n_burn = _burn_steps(cfg)
    chunk = min(_CHUNK_STEPS * (_SPAN_CHUNKS if len(rngs) == 1 else 1),
                max(n_burn, cfg.n_steps))
    exploded = np.full(len(rngs), -1, dtype=np.int64)
    # each path's standard normals land in its own contiguous row of z and
    # are scaled there: sd z is rng.normal(0, sd)'s value, 0 + sd z
    z = np.empty((len(rngs), chunk))
    sdw = None if s is None else np.empty((chunk, len(rngs)))
    states = np.empty((chunk + 1, len(rngs)))
    states[0] = x
    with np.errstate(all="ignore"):
        for first, total in ((0, n_burn), (n_burn, cfg.n_steps)):
            for start in range(0, total, chunk):
                c = min(chunk, total - start)
                for j, rng in enumerate(rngs):
                    rng.standard_normal(out=z[j, :c])
                dw = z[:, :c].T
                dw *= sd
                step(model, cfg.dt, states[:c + 1],
                     dw if s is None else np.multiply(dw, s, out=sdw[:c]))
                bad = ~np.isfinite(states[1:c + 1])
                new = bad.any(axis=0) & (exploded < 0)
                exploded[new] = first + start + bad.argmax(axis=0)[new]
                if exploded.min() >= 0:
                    return exploded
                if first == n_burn:
                    consume(cols, start, states[:c + 1], dw)
                states[0] = states[c]
    return exploded


def _step_vector(model: DiffusionModel, dt: float, states: np.ndarray, incs: np.ndarray) -> None:
    """Fill rows 1.. of ``states`` from row 0, every column at once, each
    row in place (the sum drift(x) dt + x + inc of :func:`_step_float`,
    its first addition's operands swapped); incs are sigma_const * dW when
    that is set, else dW."""
    drift = model.drift
    sigma = None if model.sigma_const is not None else model.diffusion
    x = states[0]
    for inc, row in zip(incs, states[1:]):
        np.multiply(drift(x), dt, out=row)
        row += x
        row += inc if sigma is None else sigma(x) * inc
        x = row


def _step_float(model: DiffusionModel, dt: float, states: np.ndarray, incs: np.ndarray) -> None:
    """Fill rows 1.. of the one column of ``states`` from row 0, stepping
    a Python float; incs as for :func:`_step_vector`.

    With ``sigma_const`` set and a drift that gives a Python float at the
    chunk's first state, one list comprehension steps the chunk with no
    per-step check. A drift value of another type would pass its type on
    to every later state, so the chunk is kept when nothing raised and
    its last state is a float. Any other chunk is stepped by
    :func:`_step_float_checked`, the reference, so every path, explosion
    step and exception is the reference's. The comprehension runs on past
    an explosion (a non-finite state stays so, and ``_stream`` marks the
    first), so the drift must return or raise at inf and nan, not loop."""
    drift = model.drift
    sigma = None if model.sigma_const is not None else model.diffusion
    col = incs[:, 0].tolist()
    x = x0 = float(states[0, 0])
    rows = None
    if sigma is None:
        try:
            if type(drift(x)) is float:
                rows = [x := x + drift(x) * dt + inc for inc in col]
        except Exception:
            pass
    if rows is None or type(x) is not float:
        rows = _step_float_checked(drift, sigma, dt, x0, col)
    states[1:len(rows) + 1, 0] = np.fromiter(rows, float, len(rows))


def _step_float_checked(drift: Callable, sigma: Callable | None, dt: float, x: float,
                        col: list) -> list:
    """The states after x, one float() per drift and sigma value, up to
    the first non-finite one; an OverflowError is a step to inf."""
    rows = []
    for inc in col:
        try:
            x = x + float(drift(x)) * dt + (inc if sigma is None else float(sigma(x)) * inc)
        except OverflowError:
            x = math.inf
        rows.append(x)
        if not math.isfinite(x):
            break
    return rows


def simulate_path(model: DiffusionModel, cfg: SimConfig) -> Path:
    """Euler-Maruyama trajectory: X_{i+1} = X_i + S(X_i) dt + sigma(X_i) dW_i.

    dW_i ~ Normal(0, dt) from a PCG64 stream seeded with cfg.seed. The same
    (model, cfg) always yields a bit-identical path. Stationary
    initialization consumes one uniform draw before the increments. This is
    the block of one, its state a Python float, stored from the chunks
    :func:`stream_block` hands over. An explosion raises SimulationError
    with its step: counted from the end of burn-in, or, during burn-in,
    counted in burn-in steps.
    """
    values = np.empty(cfg.n_steps + 1)
    wiener = np.empty(cfg.n_steps) if cfg.store_wiener else None

    def store(cols, start, states, dw):
        values[start:start + len(states)] = states[:, 0]
        if wiener is not None:
            wiener[start:start + len(dw)] = dw[:, 0]

    step = int(stream_block(model, cfg, [cfg.seed], store)[0])
    n_burn = _burn_steps(cfg)
    if step >= n_burn:
        raise SimulationError(step - n_burn, f"trajectory exploded at step {step - n_burn}")
    if step >= 0:
        raise SimulationError(step, f"trajectory exploded during burn-in at step {step}")
    return Path(dt=cfg.dt, values=values, wiener_increments=wiener, seed_used=cfg.seed)


def write_path_csv(path: Path, stream: TextIO) -> None:
    """Path CSV: header t,x[,dW]; row i holds dW_i, the final row's dW is empty."""
    writer = csv.writer(stream)
    has_dw = path.wiener_increments is not None
    writer.writerow(["t", "x", "dW"] if has_dw else ["t", "x"])
    times = path.times
    for i, (t, x) in enumerate(zip(times, path.values)):
        row = [f"{t:.17g}", f"{x:.17g}"]
        if has_dw:
            row.append(f"{path.wiener_increments[i]:.17g}" if i < path.n_steps else "")
        writer.writerow(row)
