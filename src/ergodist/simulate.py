"""Trajectory simulation with a deterministic, splittable randomness contract.

Euler-Maruyama, X_{i+1} = X_i + S(X_i) dt + sigma(X_i) dW_i, with a
per-replication substream seed derived by an avalanche-quality integer
hash, so replications are reproducible and embarrassingly parallel. A path
draws everything from a PCG64 stream seeded with its own seed: first one
uniform for a stationary start (the invariant law's quantile transform),
then its increments dW_i ~ Normal(0, dt), burn-in steps first.

``stream_block`` is the one simulator. It steps the paths of a block as
one numpy vector, drawing each path's increments from its own stream in
chunks of ``_CHUNK_STEPS`` steps, and hands each chunk of states to a
consumer: a curve accumulator, which keeps per-cell sums and no path, or
``simulate_block``, which stores the rows, so row j of a block is
bit-identical to the path of seeds[j] alone. A block of one, and every
block of a model whose drift or diffusion does not map a state vector to
the values of its scalar calls (one written with ``math.exp``, say),
steps a Python float per path instead and hands that path over in the
same chunks. A model with ``sigma_const`` set is not asked for sigma
each step: a vector block scales each chunk's increments by it once, and
a Python float path multiplies each increment by it. sigma_const * dW_i
is the same IEEE product either way, so both routes stay bit-identical
to each other and to a model without it. A vector step writes its
states straight into the chunk's rows. A path that
leaves the finite numbers stays non-finite, so a block marks it at its
first non-finite step, the step index that ``simulate_path`` reports,
while the other paths run on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .errors import ConfigError, SimulationError
from .model import DiffusionModel, invariant_quantile, normalizing_constant

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
        violations = []
        if not (self.dt > 0.0 and self.horizon_T > 0.0 and self.dt <= self.horizon_T):
            violations.append(f"need 0 < dt <= horizon_T, got dt={self.dt!r}, T={self.horizon_T!r}")
        else:
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
        normalizing_constant(model)  # fail fast when the model is not ergodic
        u = rng.random()
        if u <= 0.0:
            u = 2.0**-53
        return invariant_quantile(model, u)
    return float(cfg.init)


# Steps of increments a vector block draws at a time, and of states it
# hands a consumer at a time.
_CHUNK_STEPS = 512
# Points between the start points at which a block checks that drift and
# diffusion vectorize.
_PROBE_POINTS = 1024


@dataclass(frozen=True)
class PathBlock:
    """Paths of one block: row j of ``values`` is the path of ``seeds[j]``.

    ``exploded[j]`` is the first step at which path j left the finite
    numbers, counting burn-in steps first, or -1; such a row holds no path.
    """

    dt: float
    values: np.ndarray
    exploded: np.ndarray
    seeds: tuple[int, ...]
    n_burn: int = 0
    wiener_increments: np.ndarray | None = None

    def path(self, j: int) -> Path:
        """Path j, or the SimulationError of its explosion."""
        step = int(self.exploded[j])
        if step >= self.n_burn:
            raise SimulationError(step - self.n_burn,
                                  f"trajectory exploded at step {step - self.n_burn}")
        if step >= 0:
            raise SimulationError(step, f"trajectory exploded during burn-in at step {step}")
        dw = None if self.wiener_increments is None else self.wiener_increments[j]
        return Path(dt=self.dt, values=self.values[j], wiener_increments=dw,
                    seed_used=self.seeds[j])


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
    [start, start + _CHUNK_STEPS) of every path at once, or, where drift
    and diffusion do not vectorize, of one path at a time; an exploded
    path's states are not finite from its explosion on.
    """
    seeds = tuple(int(s) for s in seeds)
    n = cfg.n_steps
    n_burn = _burn_steps(cfg)
    rngs = [np.random.default_rng(s) for s in seeds]
    x0 = [_initial_value(model, cfg, rng) for rng in rngs]
    if len(seeds) > 1 and _vectorizes(model, np.array(x0)):
        return _step_vector(model, np.array(x0), cfg.dt, rngs, n_burn, n, consume)
    sd = math.sqrt(cfg.dt)
    exploded = np.empty(len(seeds), dtype=np.int64)
    row = np.empty(n + 1)
    for j, rng in enumerate(rngs):
        dw_all = rng.normal(0.0, sd, size=n_burn + n)
        exploded[j] = _step_scalar(model, x0[j], cfg.dt, dw_all.tolist(), n_burn, row)
        if exploded[j] >= 0:
            continue
        for start in range(0, n, _CHUNK_STEPS):
            stop = min(start + _CHUNK_STEPS, n)
            consume(slice(j, j + 1), start, row[start:stop + 1, None],
                    dw_all[n_burn + start:n_burn + stop, None])
    return exploded


def simulate_block(model: DiffusionModel, cfg: SimConfig, seeds) -> PathBlock:
    """Simulate one path per seed with cfg's horizon, step and initialization,
    storing the rows :func:`stream_block` hands over.

    Row j is bit-identical to ``simulate_path(model, replace(cfg,
    seed=seeds[j]))``; an exploding path is marked, not raised, and the
    other rows are unaffected.
    """
    seeds = tuple(int(s) for s in seeds)
    values = np.empty((len(seeds), cfg.n_steps + 1))
    wiener = np.empty((len(seeds), cfg.n_steps)) if cfg.store_wiener else None

    def store(cols, start, states, dw):
        values[cols, start:start + len(states)] = states.T
        if wiener is not None:
            wiener[cols, start:start + len(dw)] = dw.T

    exploded = stream_block(model, cfg, seeds, store)
    return PathBlock(dt=cfg.dt, values=values, exploded=exploded, seeds=seeds,
                     n_burn=_burn_steps(cfg), wiener_increments=wiener)


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


def _step_scalar(model: DiffusionModel, x: float, dt: float, dw_list: list,
                 n_burn: int, values: np.ndarray) -> int:
    """One path as a Python float; returns its first non-finite step or -1.
    With ``model.sigma_const`` set, sigma is that constant, not a call."""
    drift = model.drift
    sigma = model.diffusion
    s = model.sigma_const
    n = len(values) - 1
    for i in range(n_burn):
        try:
            x = (x + float(drift(x)) * dt
                 + (float(sigma(x)) if s is None else s) * dw_list[i])
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            return i
    values[0] = x
    for i in range(n):
        try:
            x = (x + float(drift(x)) * dt
                 + (float(sigma(x)) if s is None else s) * dw_list[n_burn + i])
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            return n_burn + i
        values[i + 1] = x
    return -1


def _step_vector(model: DiffusionModel, x: np.ndarray, dt: float, rngs: list,
                 n_burn: int, n: int, consume: Callable) -> np.ndarray:
    """All paths of a block as one vector, burn-in steps first; returns
    each one's first non-finite step or -1. Chunks restart at the end of
    burn-in, so the chunks handed to ``consume`` start at multiples of
    _CHUNK_STEPS. With ``model.sigma_const`` set, a chunk's increments
    are scaled by it once, not per step by a call to sigma."""
    drift = model.drift
    sigma = model.diffusion
    s = model.sigma_const
    sd = math.sqrt(dt)
    m = len(rngs)
    cols = slice(0, m)
    exploded = np.full(m, -1, dtype=np.int64)
    dw = np.empty((_CHUNK_STEPS, m))
    sdw = None if s is None else np.empty_like(dw)
    states = np.empty((_CHUNK_STEPS + 1, m))
    states[0] = x
    with np.errstate(all="ignore"):
        for first, total in ((0, n_burn), (n_burn, n)):
            for start in range(0, total, _CHUNK_STEPS):
                c = min(_CHUNK_STEPS, total - start)
                for j, rng in enumerate(rngs):
                    dw[:c, j] = rng.normal(0.0, sd, size=c)
                incs = dw[:c] if s is None else np.multiply(dw[:c], s, out=sdw[:c])
                for inc, row in zip(incs, states[1:c + 1]):
                    np.add(x + drift(x) * dt, inc if s is not None else sigma(x) * inc, out=row)
                    x = row
                bad = ~np.isfinite(states[1:c + 1])
                new = bad.any(axis=0) & (exploded < 0)
                exploded[new] = first + start + bad.argmax(axis=0)[new]
                if first == n_burn:
                    consume(cols, start, states[:c + 1], dw[:c])
                states[0] = states[c]
    return exploded


def simulate_path(model: DiffusionModel, cfg: SimConfig) -> Path:
    """Euler-Maruyama trajectory: X_{i+1} = X_i + S(X_i) dt + sigma(X_i) dW_i.

    dW_i ~ Normal(0, dt) from a PCG64 stream seeded with cfg.seed. The same
    (model, cfg) always yields a bit-identical path. Stationary
    initialization consumes one uniform draw before the increments. This is
    the block of one: its state is a Python float.
    """
    return simulate_block(model, cfg, [cfg.seed]).path(0)


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
