"""Invariant-CDF estimators evaluated along a discretized trajectory.

Two families:

* the empirical distribution function (time fraction the path spends
  strictly below a threshold), and
* a class of unbiased estimators parameterized by a positive, continuously
  differentiable weight function h:

      estimate(x) = (1/T) * sum_i R_x(X_i) * (X_{i+1} - X_i)
                  + (1/T) * sum_i N_x(X_i) * dt

  with kernel K_x(y) = int_y^x dv / (sigma^2(v) h(v)) and coefficients
  R_x(y) = 2*1{y<x}*K_x(y)*h(y), N_x(y) = 1{y<x}*K_x(y)*h'(y)*sigma^2(y).

The stochastic sum uses strictly left-endpoint evaluation (midpoint rules
would bias the discretization away from the intended stochastic integral),
and the indicator is strict, so grid points equal to x contribute zero.
Estimates are intentionally not clamped to [0, 1]: clamping would destroy
exact unbiasedness at finite T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, EvaluationError
from .model import (
    DiffusionModel,
    _density_integrand,
    _Hermite,
    _positive,
    _running_from,
    _sigma_sq,
    _support,
    _table_panels,
    _vec_call,
    normalizing_constant,
    stationary_expectation,
)
from .numerics import QuadratureSpec, integrate, integrate_panels
from .simulate import _CHUNK_STEPS, Path

# node step of the primitive table, used for custom weights and for models
# without a constant diffusion coefficient: a power of two, so every node
# k * step is exact
_LINEAR_STEP = 2.0**-10
# full chunks of a stored path the curve accumulator takes at a time
_PATH_CHUNKS = 64
# most distance, in cells, of a node from its index under the grid's affine
# map for the curve accumulator to find cells by the map
_MAP_SLACK = 1e-6
# multiple of the model's support halfwidth past which a path is not read
# through a tabulated primitive
_PRIMITIVE_REACH = 4.0
_TABLE_PANEL_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_depth=30)


@dataclass(frozen=True)
class WeightFunction:
    """Positive, continuously differentiable weight with its derivative.

    ``inv_h_primitive`` is an optional closed-form antiderivative of 1/h;
    combined with a constant diffusion coefficient it gives the kernel in
    closed form, which the per-step estimator loops rely on.
    """

    h: Callable
    h_prime: Callable
    kind: str
    params: dict
    inv_h_primitive: Callable | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def tag(self) -> str:
        return f"unbiased_{self.kind}"


def polynomial_weight(p: int = 1) -> WeightFunction:
    """h(u) = 1 + u^(2p). The kernel has a closed form for every p: the
    arctangent for p = 1, partial fractions for p >= 2."""
    p = int(p)
    if p < 1:
        raise ValueError("polynomial weight requires p >= 1")
    two_p = 2 * p
    return WeightFunction(
        h=lambda u: 1.0 + u**two_p,
        h_prime=lambda u: two_p * u ** (two_p - 1),
        kind="poly",
        params={"p": p},
        inv_h_primitive=np.arctan if p == 1 else _poly_inv_h_primitive(p),
    )


def _poly_inv_h_primitive(p: int) -> Callable:
    """Antiderivative of 1/(1 + u^(2p)) for p >= 2, vanishing at 0.

    By partial fractions over the roots exp(i theta_k), theta_k =
    pi(2k+1)/(2p), of u^(2p) = -1, with c_k = cos theta_k, s_k = sin theta_k:

        P(u) = (1/2p) sum_{k<p} [2 s_k atan((u - c_k)/s_k)
                                 - c_k ln(u^2 - 2 u c_k + 1)].

    The roots pair up as c_{p-1-k} = -c_k (and c = 0, s = 1 in the middle
    for odd p), and each pair's logarithms combine into
    2 c_k atanh(2 c_k u/(1 + u^2)). So no u^2 is formed, P is finite and
    within pi/(2p sin(pi/2p)) of 0 for every u (infinities included),
    P(0) = 0 exactly, and it matches QUADPACK quadrature to about 1e-15
    absolute. Terms are added one at a time in place, so an array argument
    costs two temporaries of its size.
    """
    pairs = [(math.cos(t), math.sin(t))
             for t in (math.pi * (2 * k + 1) / (2 * p) for k in range(p // 2))]

    def prim(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        if p % 2:
            np.arctan(u, out=out)
        tmp = np.empty_like(u)
        with np.errstate(divide="ignore", over="ignore"):
            for c, s in pairs:
                for ck in (c, -c):
                    np.subtract(u, ck, out=tmp)
                    tmp /= s
                    np.arctan(tmp, out=tmp)
                    tmp *= s
                    out += tmp
                # u/(1 + u^2) as 1/(u + 1/u): 0 at u = 0 and at +-inf
                np.reciprocal(u, out=tmp)
                tmp += u
                np.reciprocal(tmp, out=tmp)
                tmp *= 2.0 * c
                np.arctanh(tmp, out=tmp)
                tmp *= c
                out += tmp
        out /= p
        return float(out) if out.ndim == 0 else out

    return prim


def exponential_weight(delta: float = 1.0) -> WeightFunction:
    """h(u) = exp(delta*u), delta > 0; kernel (e^{-delta*y} - e^{-delta*x})/delta."""
    delta = float(delta)
    if not delta > 0.0:
        raise ValueError("exponential weight requires delta > 0")
    return WeightFunction(
        h=lambda u: np.exp(delta * u),
        h_prime=lambda u: delta * np.exp(delta * u),
        kind="exp",
        params={"delta": delta},
        # normalized so the primitive vanishes at 0
        inv_h_primitive=lambda u: -np.expm1(-delta * u) / delta,
    )


def constant_weight(c: float = 1.0) -> WeightFunction:
    """h(u) = c. Positivity of h forces c > 0; the kernel is (x - y)/c."""
    c = float(c)
    if not c > 0.0:
        raise ValueError("constant weight requires c > 0 (h must be positive)")
    return WeightFunction(
        h=lambda u: c * np.ones_like(np.asarray(u, dtype=float)) if np.ndim(u) else c,
        h_prime=lambda u: np.zeros_like(np.asarray(u, dtype=float)) if np.ndim(u) else 0.0,
        kind="const",
        params={"c": c},
        inv_h_primitive=lambda u: np.asarray(u, dtype=float) / c if np.ndim(u) else u / c,
    )


def custom_weight(h: Callable, h_prime: Callable, label: str = "custom") -> WeightFunction:
    """Arbitrary positive weight; kernels fall back to quadrature/tabulation."""
    return WeightFunction(h=h, h_prime=h_prime, kind="custom", params={"label": label})


# ---------------------------------------------------------------------------
# kernel primitive: P with P' = 1/(sigma^2 * h)
# ---------------------------------------------------------------------------

class _PrimitiveTable(_Hermite):
    """Tabulated antiderivative of 1/(sigma^2 h), 0 at 0, on the nodes
    k * _LINEAR_STEP that cover [lo, hi] and 0, cubic Hermite between them
    with the exact slopes 1/(sigma^2 h). The panel integrals are summed
    outward from the node at 0 and cells are counted from it, so a wider
    table gives bit for bit the values of a narrower one inside it."""

    def __init__(self, wf: WeightFunction, model: DiffusionModel, lo: float, hi: float):
        below = math.ceil(max(-lo, 0.0) / _LINEAR_STEP)
        nodes = np.arange(-below, math.ceil(max(hi, 0.0) / _LINEAR_STEP) + 1) * _LINEAR_STEP
        panels, slopes = _table_panels(f"primitive table of the {wf.kind} weight", model.label,
                                       _kernel_integrand(wf, model), nodes, _TABLE_PANEL_SPEC)
        super().__init__(nodes, _running_from(panels, below), slopes, origin=below)

    def __call__(self, u):
        lo, hi = np.min(u, initial=self.lo), np.max(u, initial=self.hi)
        if lo < self.lo - 1e-12 or hi > self.hi + 1e-12:
            raise EvaluationError(
                float(lo if lo < self.lo else hi),
                "primitive table queried outside its window (internal rebuild bug)",
            )
        out = super().__call__(u)
        return float(out) if np.ndim(out) == 0 else out


def _kernel_integrand(wf: WeightFunction, model: DiffusionModel) -> Callable:
    """1/(sigma^2 h) on a float or an array."""

    def g(v):
        v = np.asarray(v, dtype=float)
        return 1.0 / (_sigma_sq(model, v) * _positive(wf.h, v, "weight function h"))

    return g


def _closed_primitive(wf: WeightFunction, model: DiffusionModel) -> Callable | None:
    if wf.inv_h_primitive is None or model.sigma_const is None:
        return None
    s2 = model.sigma_const**2
    inv = wf.inv_h_primitive
    return lambda u: inv(u) / s2


def primitive(wf: WeightFunction, model: DiffusionModel, lo: float, hi: float) -> Callable:
    """P with P' = 1/(sigma^2 h), usable on scalars and arrays over [lo, hi].

    Closed form for the built-in weights on a constant-sigma model;
    otherwise (custom weights, or sigma depending on the state) a memoized
    table on a 2^-10 grid, first built over the model's support (the
    distribution table's [lo, hi]) and [lo, hi]. A request past it widens
    it at least twofold and moves none of the values it gave (see
    :class:`_PrimitiveTable`), so no result depends on which path asked
    first.
    """
    closed = _closed_primitive(wf, model)
    if closed is not None:
        return closed
    key = ("primitive", id(model))
    cached = wf._cache.get(key)
    if cached is None:
        s_lo, s_hi = _support(model)
        lo, hi = min(lo, s_lo), max(hi, s_hi)
    else:
        table = cached[1]
        if table.lo <= lo and table.hi >= hi:
            return table
        lo, hi = min(lo, 2.0 * table.lo), max(hi, 2.0 * table.hi)
    table = _PrimitiveTable(wf, model, lo, hi)
    wf._cache[key] = (model, table)
    return table


# ---------------------------------------------------------------------------
# kernel and estimator coefficients (a float or an array of y)
# ---------------------------------------------------------------------------

def kernel(wf: WeightFunction, model: DiffusionModel, x: float, y):
    """K_x(y) = int_y^x dv/(sigma^2(v) h(v)); antisymmetric under swapping.

    For an array of y without a closed form, one panel integration over
    the sorted points {y} and x, summed outward from x, gives every value.
    """
    closed = _closed_primitive(wf, model)
    if np.ndim(y) > 0:
        y = np.asarray(y, dtype=float)
        if closed is not None:
            return closed(x) - closed(y)
        pts, at = np.unique(np.append(y, x), return_inverse=True)
        panels = integrate_panels(_kernel_integrand(wf, model), pts, _TABLE_PANEL_SPEC)[0]
        return -_running_from(panels, int(at[-1]))[at[:-1]].reshape(y.shape)
    if closed is not None:
        return float(closed(x)) - float(closed(y))
    if x == y:
        return 0.0
    a, b = (y, x) if y <= x else (x, y)
    val = integrate(_kernel_integrand(wf, model), a, b).value
    return val if x >= y else -val


def _below(x: float, y, coefficient: Callable):
    """coefficient(y) where y < x and 0 elsewhere, for a float or an array
    of y; an array is read at x in place of each y >= x."""
    if np.ndim(y) == 0:
        return float(coefficient(y)) if y < x else 0.0
    below = np.asarray(y) < x
    return np.where(below, coefficient(np.where(below, y, x)), 0.0)


def dx_weight(wf: WeightFunction, model: DiffusionModel, x: float, y):
    """Coefficient of dX in the estimator: 2*1{y<x}*K_x(y)*h(y); 0 for y >= x."""
    return _below(x, y, lambda v: 2.0 * kernel(wf, model, x, v) * wf.h(v))


def dt_weight(wf: WeightFunction, model: DiffusionModel, x: float, y):
    """Coefficient of dt: 1{y<x}*K_x(y)*h'(y)*sigma^2(y); 0 for y >= x."""
    return _below(x, y, lambda v: kernel(wf, model, x, v) * wf.h_prime(v)
                  * model.diffusion_sq(v))


# ---------------------------------------------------------------------------
# path estimators
# ---------------------------------------------------------------------------

def edf(path: Path, x: float) -> float:
    """Fraction of left grid points strictly below x; always in [0, 1]."""
    left = path.values[:-1]
    return float(np.count_nonzero(left < x)) / len(left)


def unbiased_estimate(path: Path, wf: WeightFunction, model: DiffusionModel, x: float) -> float:
    """Left-endpoint discretization of the weight-function estimator at x:
    its :func:`estimate_curves` curve at the one threshold x.

    Not clamped to [0, 1]: the estimator may leave the unit interval at
    finite T and clamping would break exact unbiasedness.
    """
    if len(path.values) < 2:
        raise ValueError("path needs at least 2 grid points")
    return float(estimate_curves(path, [x], [wf], model)[0].values[0])


@dataclass(frozen=True)
class EstimatorChoice:
    """Dispatch record: the EDF, a weight-function estimator, or a callable."""

    kind: str  # "edf" | "unbiased" | "custom"
    weight: WeightFunction | None = None
    curve_fn: Callable | None = None
    tag: str = "edf"


def parse_estimator(spec: str) -> EstimatorChoice:
    """Parse 'edf' | 'unbiased:poly:p=<int>' | 'unbiased:exp:delta=<real>'
    | 'unbiased:const:c=<real>'."""
    spec = spec.strip()
    if spec == "edf":
        return EstimatorChoice(kind="edf", tag="edf")
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "unbiased":
        raise ValueError(f"bad estimator spec {spec!r}")
    family, arg = parts[1], parts[2]
    if "=" not in arg:
        raise ValueError(f"bad estimator spec {spec!r}: expected key=value, got {arg!r}")
    key, _, raw = arg.partition("=")
    try:
        if family == "poly" and key == "p":
            wf = polynomial_weight(int(raw))
        elif family == "exp" and key == "delta":
            wf = exponential_weight(float(raw))
        elif family == "const" and key == "c":
            wf = constant_weight(float(raw))
        else:
            raise ValueError(f"bad estimator spec {spec!r}")
    except ValueError as exc:
        raise ValueError(f"bad estimator spec {spec!r}: {exc}") from exc
    return EstimatorChoice(kind="unbiased", weight=wf, tag=wf.tag)


def as_estimator(choice) -> EstimatorChoice:
    if isinstance(choice, EstimatorChoice):
        return choice
    if isinstance(choice, str):
        return parse_estimator(choice)
    if isinstance(choice, WeightFunction):
        return EstimatorChoice(kind="unbiased", weight=choice, tag=choice.tag)
    if callable(choice):
        return EstimatorChoice(kind="custom", curve_fn=choice, tag="custom")
    raise ValueError(f"cannot interpret estimator choice {choice!r}")


@dataclass(frozen=True)
class EstimateCurve:
    xs: np.ndarray
    values: np.ndarray
    estimator_tag: str
    horizon_T: float

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.values):
            raise ValueError("xs and values must have equal length")
        if len(self.values) and not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")


class CurveAccumulator:
    """Per-cell sums of a block of paths, fed chunk by chunk, from which
    every EDF and weight-function curve is read; no path is stored.

    A curve value at x sums, over the steps whose left endpoint X_i lies
    below x, a term per step: 1 for the EDF; h dX, P h dX, h' sigma^2 and
    P h' sigma^2 for each weight (P its kernel primitive). A chunk puts
    each X_i in its cell, the number of nodes at or below it
    (``searchsorted(xs, X_i, side="right")``). On a grid that the affine
    map onto its node indices fits (a uniform one), the map guesses the
    cell; ext[c] <= X_i < ext[c + 1], on the grid padded with -inf and
    +inf, confirms the guess, and only the points that fail it (NaN, +inf
    and points within rounding of a node) are searched. Any other grid,
    such as one with a point-mass nu's atoms merged in, on which the map
    would miss most cells, is searched. Each term is
    summed per (path, cell) with one weighted ``bincount`` and added into
    the (statistic, path, cell) sums by one slice add per statistic: a
    streamed chunk's columns are distinct paths, so each sum takes one
    addition per chunk, and the columns of a stored path are added in
    step order. One cumulative sum over the cells gives every curve. The
    per-point work arrays are kept from chunk to chunk. A tabulated
    primitive is built before the first chunk and widened, moving none of
    its values, up to _PRIMITIVE_REACH times the model's support.

    A step that cannot be weighted (not finite, past that reach, or h <= 0
    there) adds nothing: its path is about to explode, or else
    :meth:`curves` raises. So a path that is dropped for exploding can
    neither stop the block nor widen a table without bound.
    """

    def __init__(self, xs: np.ndarray, choices, model: DiffusionModel | None,
                 paths: int, n_steps: int, dt: float):
        self.xs, self.choices, self.model = xs, choices, model
        self.n_steps, self.dt = n_steps, dt
        self.weights = [c.weight for c in choices if c.kind == "unbiased"]
        if self.weights and model is None:
            raise ValueError("weight-function estimators need the model (sigma^2)")
        # row 0 counts the steps (exact in floats), then 4 rows per weight
        self.sums = np.zeros((1 + 4 * len(self.weights), paths, xs.size + 1))
        # the affine map of the grid onto its node indices, kept only if it
        # sends every node within _MAP_SLACK of its index (a uniform grid,
        # not one with point-mass atoms merged in), and the grid padded with
        # -inf and +inf, which bounds every cell
        self._x0 = float(xs[0])
        scale = (xs.size - 1) / (float(xs[-1]) - float(xs[0])) if xs.size > 1 else 0.0
        with np.errstate(all="ignore"):
            fits = np.all(np.abs((xs - self._x0) * scale - np.arange(xs.size)) < _MAP_SLACK)
        self._scale = scale if fits else None
        self._ext = np.concatenate(([-np.inf], xs, [np.inf]))
        self._work: tuple[np.ndarray, ...] = ()
        self.failures: dict[int, float] = {}
        self.reach = math.inf
        for wf in self.weights:
            primitive(wf, model, float(xs[0]), float(xs[-1]))
            if _closed_primitive(wf, model) is None:
                self.reach = _PRIMITIVE_REACH * max(abs(v) for v in (*_support(model),
                                                                     xs[0], xs[-1]))

    def add(self, cols: slice, start: int, states: np.ndarray, dw=None) -> None:
        """The consumer of :func:`stream_block`: the steps between
        consecutive rows of ``states``, shape (steps + 1, paths), of the
        block's paths ``cols``."""
        self._add(cols, states[:-1], states[1:])

    def add_path(self, j: int, values: np.ndarray) -> None:
        """Stored path ``values`` as path j, in the chunks of steps a
        streamed block takes; _PATH_CHUNKS full chunks are added at a time
        as the columns of one array."""
        n = len(values) - 1
        full = n - n % _CHUNK_STEPS
        span = _CHUNK_STEPS * _PATH_CHUNKS
        for a in range(0, full, span):
            b = min(a + span, full)
            self._add(j, values[a:b].reshape(-1, _CHUNK_STEPS).T,
                      values[a + 1:b + 1].reshape(-1, _CHUNK_STEPS).T)
        if full < n:
            self._add(j, values[full:n, None], values[full + 1:, None])

    def _scratch(self, n: int) -> list[np.ndarray]:
        """Work arrays of n points (two float, one index, one flag), kept
        from chunk to chunk so that a chunk allocates few temporaries."""
        if not self._work or self._work[0].size < n:
            self._work = (np.empty(n), np.empty(n), np.empty(n, dtype=np.intp),
                          np.empty(n, dtype=bool))
        return [a[:n] for a in self._work]

    def _cells(self, X: np.ndarray) -> np.ndarray:
        """``searchsorted(xs, X, side="right")``: on a grid the affine map
        fits, the map, clamped to the cells 0..n, where
        ext[c] <= X < ext[c + 1] confirms it, and a search for the points
        that fail (NaN, +inf, and points within about _MAP_SLACK of a cell
        from a node); on any other grid, the search."""
        if self._scale is None:
            return np.searchsorted(self.xs, X, side="right")
        g, _, cell, ok = self._scratch(X.size)
        with np.errstate(all="ignore"):  # inf * 0 and overflow: clamped below
            np.subtract(X, self._x0, out=g)
            g *= self._scale
            g += 1.0
        np.fmax(g, 0.0, out=g)
        np.fmin(g, self.xs.size, out=g)
        np.copyto(cell, g, casting="unsafe")
        np.less_equal(np.take(self._ext, cell, out=g, mode="clip"), X, out=ok)
        ok &= np.less(X, np.take(self._ext[1:], cell, out=g, mode="clip"))
        if not ok.all():
            miss = np.flatnonzero(~ok)
            cell[miss] = np.searchsorted(self.xs, X[miss], side="right")
        return cell

    def _add(self, cols, before: np.ndarray, after: np.ndarray) -> None:
        """Column i of ``before`` and ``after`` (shape (steps, columns)) is
        a chunk of path ``cols.start + i``, or of path ``cols`` for an int,
        whose columns are then added in step order; a step that cannot be
        weighted is read at X = 0, dX = 0 (see the class)."""
        k, cells = before.shape[1], self.sums.shape[2]
        f1, f2, _, _ = self._scratch(before.size)
        X = before.ravel()
        idx = self._cells(X)
        idx.reshape(-1, k)[...] += cells * np.arange(k)

        def put(row, term=None):
            # a streamed chunk's sums take one addition per (path, cell); a
            # stored path's columns are added in step order
            cell_sums = np.bincount(idx, term, minlength=k * cells).reshape(k, cells)
            if isinstance(cols, slice):
                self.sums[row, cols] += cell_sums
            else:
                for part in cell_sums:
                    self.sums[row, cols] += part

        put(0)
        if not self.weights:
            return
        with np.errstate(all="ignore"):
            dX = np.subtract(after, before, out=f1.reshape(before.shape)).ravel()
            bad = np.abs(X, out=f2) > self.reach
            bad |= ~np.isfinite(dX)
            hs = [_vec_call(wf.h, X) for wf in self.weights]
            for h in hs:
                bad |= ~(h > 0.0)
        if bad.any():
            at = np.flatnonzero(bad)  # the rows of a flattened chunk are steps
            at_cols, first = np.unique(at % k, return_index=True)
            paths = np.broadcast_to(np.arange(self.sums.shape[1])[cols], k)
            for j, x in zip(paths[at_cols].tolist(), X[at[first]].tolist()):
                self.failures.setdefault(j, x)
            X, dX = np.where(bad, 0.0, X), np.where(bad, 0.0, dX)
            hs = [_vec_call(wf.h, X) for wf in self.weights]
        lo, hi = float(X.min()), float(X.max())
        s2 = _vec_call(self.model.diffusion_sq, X)
        for w, (wf, h) in enumerate(zip(self.weights, hs)):
            PX = np.asarray(primitive(wf, self.model, lo, hi)(X), dtype=float)
            # the rows h dX, P h dX, h' sigma^2 and P h' sigma^2; a term
            # times P in place is the same product as P times the term
            term = np.multiply(h, dX, out=f2)
            put(1 + 4 * w, term)
            put(2 + 4 * w, np.multiply(term, PX, out=term))
            term = np.multiply(_vec_call(wf.h_prime, X), s2, out=f2)
            put(3 + 4 * w, term)
            put(4 + 4 * w, np.multiply(term, PX, out=term))

    def curves(self, dropped=None) -> list[np.ndarray]:
        """Each estimator's curves on xs, one row per path; a path marked
        in ``dropped`` has no meaningful row. Raises the EvaluationError of
        the first other path with a step that could not be weighted."""
        for j, x in sorted(self.failures.items()):
            if dropped is None or not dropped[j]:
                raise EvaluationError(x, f"path {j} cannot be weighted at x={x!r}: it is not "
                                         f"finite or past {self.reach!r} there, or h <= 0")
        T = self.n_steps * self.dt
        sums = np.cumsum(self.sums[:, :, :-1], axis=2)
        out = []
        weights = iter(zip(self.weights, sums[1:].reshape(-1, 4, *sums.shape[1:])))
        for choice in self.choices:
            if choice.kind == "edf":
                out.append(sums[0] / self.n_steps)
                continue
            wf, (A, B, C, D) = next(weights)
            Px = np.asarray(primitive(wf, self.model, float(self.xs[0]),
                                      float(self.xs[-1]))(self.xs), dtype=float)
            out.append((2.0 * (Px * A - B) + self.dt * (Px * C - D)) / T)
        return out


def estimate_curves(path: Path, xs, estimators, model: DiffusionModel | None = None
                    ) -> list[EstimateCurve]:
    """Evaluate estimators on a strictly increasing grid of thresholds.

    The EDF and the weight-function curves come from one
    :class:`CurveAccumulator` fed the path in the chunks a simulated block
    takes, so they equal bit for bit the curves of a streamed block; a
    custom estimator is called on the path.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and not np.all(np.diff(xs) > 0.0):
        raise ValueError("xs must be sorted strictly increasing")
    choices = [as_estimator(e) for e in estimators]
    if xs.size == 0:
        return [EstimateCurve(xs=xs, values=np.empty(0), estimator_tag=c.tag,
                              horizon_T=path.horizon_T) for c in choices]
    summed = [c for c in choices if c.kind != "custom"]
    acc = CurveAccumulator(xs, summed, model, 1, path.n_steps, path.dt)
    acc.add_path(0, np.ascontiguousarray(path.values, dtype=float))
    rows = iter(acc.curves())
    curves = []
    for choice in choices:
        if choice.kind == "custom":
            values = np.asarray(choice.curve_fn(path, xs), dtype=float)
            if values.shape != xs.shape:
                raise ValueError("custom estimator returned a wrong-shaped curve")
        else:
            values = next(rows)[0]
        curves.append(EstimateCurve(xs=xs, values=values, estimator_tag=choice.tag,
                                    horizon_T=path.horizon_T))
    return curves


def estimate_curve(path: Path, xs, estimator, model: DiffusionModel | None = None) -> EstimateCurve:
    """Evaluate an estimator on a strictly increasing grid of thresholds."""
    return estimate_curves(path, xs, [estimator], model)[0]


# ---------------------------------------------------------------------------
# integrability screen for a weight function at one threshold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightConditionReport:
    """Numerical screen of the estimator-class moment/tail conditions at x.

    A flag is a convergence screen, not a proof: the square moment of the
    dX coefficient times sigma, the absolute moment of the dt coefficient,
    and the vanishing of R*sigma^2*f_S in the left tail.
    """

    x: float
    sq_moment_ok: bool
    abs_moment_ok: bool
    tail_vanishes: bool
    sq_moment: float
    abs_moment: float
    tail_values: list[float]

    def all_ok(self) -> bool:
        return self.sq_moment_ok and self.abs_moment_ok and self.tail_vanishes


def check_weight_conditions(
    wf: WeightFunction,
    model: DiffusionModel,
    x: float,
    tail_base: float = 2.0,
) -> WeightConditionReport:
    sq_ok, sq_val = True, math.nan
    try:
        sq_val = stationary_expectation(
            model, lambda y: dx_weight(wf, model, x, y) ** 2 * float(model.diffusion_sq(y))
        )
        sq_ok = math.isfinite(sq_val)
    except DivergenceError:
        sq_ok = False
    abs_ok, abs_val = True, math.nan
    try:
        abs_val = stationary_expectation(model, lambda y: abs(dt_weight(wf, model, x, y)))
        abs_ok = math.isfinite(abs_val)
    except DivergenceError:
        abs_ok = False

    G = normalizing_constant(model)
    raw = _density_integrand(model)
    tail_values = []
    for k in range(7):
        y = -tail_base * 2.0**k
        tail_values.append(abs(dx_weight(wf, model, x, y)) * float(model.diffusion_sq(y))
                           * raw(y) / G)
    last3 = tail_values[-3:]
    tail_ok = tail_values[-1] < 1e-10 and all(
        last3[i + 1] <= last3[i] + 1e-300 for i in range(len(last3) - 1)
    )
    return WeightConditionReport(
        x=x,
        sq_moment_ok=sq_ok,
        abs_moment_ok=abs_ok,
        tail_vanishes=tail_ok,
        sq_moment=sq_val,
        abs_moment=abs_val,
        tail_values=tail_values,
    )
