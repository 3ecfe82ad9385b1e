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
    _EXP_MAX_HALFWIDTH,
    DiffusionModel,
    _density_integrand,
    _positive,
    _running_table,
    _sigma_sq,
    normalizing_constant,
    stationary_expectation,
)
from .numerics import integrate, on_array
from .simulate import _CHUNK_STEPS, Path

# node step of the primitive table, used for custom weights and for models
# without a constant diffusion coefficient: a power of two, so every node
# k * step is exact
_LINEAR_STEP = 2.0**-10
# full chunks of a stored path the curve accumulator takes at a time
_PATH_CHUNKS = 64
# a path is not read through a tabulated primitive past this many times the
# larger of 16 and the grid's ends, nor past the tables' limit
_PRIMITIVE_REACH = 4.0
# points of a chunk whose missed cells the curve accumulator searches at a
# time: searchsorted takes no output array, so each slice's misses and
# their cells come back in small fresh arrays
_SEARCH_POINTS = 4096


@dataclass(frozen=True)
class WeightFunction:
    """Positive, continuously differentiable weight with its derivative.

    ``h_pair(u, out=None)`` is the one evaluator of h and h': it takes a
    float, a 0-d array or an array and gives (h(u), h'(u)). The built-in
    weights write them into ``out`` (a pair of arrays of u's shape) where
    given, which the curve accumulator keeps from chunk to chunk; a
    constant weight's pair is two scalars, which a reader broadcasts
    through :func:`ergodist.numerics.on_array`. ``inv_h_primitive(u,
    out)``, set only for the built-in weights, is a closed-form
    antiderivative of 1/h, which with a constant sigma gives the kernel in
    closed form. Only the four factories construct a weight.
    """

    kind: str
    params: dict
    h_pair: Callable
    inv_h_primitive: Callable | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def tag(self) -> str:
        return f"unbiased_{self.kind}"


def polynomial_weight(p: int = 1) -> WeightFunction:
    """h(u) = 1 + u^(2p). The kernel has a closed form for every p: the
    arctangent for p = 1, partial fractions for p >= 2.

    h and h' share r = u^(2p-1), formed by multiplication (u times p - 1
    factors u^2): h = 1 + r u and h' = 2p r, with no call to libm ``pow``.
    At p = 1 that is 1 + u u and 2 u, the bits of numpy's ``1 + u**2`` and
    ``2 * u``; at p >= 2 each is within 2p ulp of numpy's ``power``.
    """
    p = int(p)
    if p < 1:
        raise ValueError("polynomial weight requires p >= 1")
    two_p = 2 * p

    def pair(u, out=None):
        h, hp = out or (None, None)
        if p == 1:
            h = np.multiply(u, u, out=h)
            h += 1.0
            return h, np.multiply(two_p, u, out=hp)
        sq = np.multiply(u, u, out=hp)  # u^2, then h' where given
        h = np.multiply(u, sq, out=h)  # r, then h
        for _ in range(p - 2):
            h *= sq
        hp = np.multiply(two_p, h, out=hp)
        h *= u
        h += 1.0
        return h, hp

    return WeightFunction(
        kind="poly",
        params={"p": p},
        inv_h_primitive=np.arctan if p == 1 else _poly_inv_h_primitive(p),
        h_pair=pair,
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
    absolute. Terms are added one at a time in place into ``out`` (fresh
    when not given), through one temporary of u's size; a call with
    ``out`` takes that temporary from one kept from call to call.
    """
    pairs = [(math.cos(t), math.sin(t))
             for t in (math.pi * (2 * k + 1) / (2 * p) for k in range(p // 2))]
    kept = [np.empty(0)]

    def prim(u, out=None):
        u = np.asarray(u, dtype=float)
        if out is None:
            out, tmp = np.empty_like(u), np.empty_like(u)
        else:
            if kept[0].size < u.size:
                kept[0] = np.empty(u.size)
            tmp = kept[0][:u.size].reshape(u.shape)
        if p % 2:
            np.arctan(u, out=out)
        else:
            out.fill(0.0)
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
    """h(u) = exp(delta*u), delta > 0 finite; kernel (e^{-delta*y} - e^{-delta*x})/delta."""
    delta = float(delta)
    if not 0.0 < delta < math.inf:
        raise ValueError(f"exponential weight requires a finite delta > 0, got {delta!r}")

    def pair(u, out=None):
        h, hp = out or (None, None)
        h = np.exp(np.multiply(delta, u, out=h), out=h)
        return h, np.multiply(delta, h, out=hp)

    def inv(u, out=None):  # normalized so the primitive vanishes at 0
        out = np.negative(np.expm1(np.multiply(-delta, u, out=out), out=out), out=out)
        out /= delta
        return out

    return WeightFunction(
        kind="exp",
        params={"delta": delta},
        inv_h_primitive=inv,
        h_pair=pair,
    )


def constant_weight(c: float = 1.0) -> WeightFunction:
    """h(u) = c, c > 0 finite (h must be positive); the kernel is (x - y)/c."""
    c = float(c)
    if not 0.0 < c < math.inf:
        raise ValueError(f"constant weight requires a finite c > 0, got {c!r}")
    return WeightFunction(
        kind="const",
        params={"c": c},
        inv_h_primitive=lambda u, out=None: np.divide(u, c, out=out),
        h_pair=lambda u, out=None: (c, 0.0),
    )


def custom_weight(h: Callable, h_prime: Callable, label: str = "custom") -> WeightFunction:
    """Arbitrary positive weight h with derivative h_prime, each written for
    floats (``math`` functions, an ``if`` on u) or for numpy arrays, and no
    closed-form primitive: a kernel at a float y is a quadrature; array
    kernels, curves, Phi and the weight table read P through
    :func:`primitive_at`, off :func:`primitive`'s table. Its ``h_pair`` is
    two fresh :func:`ergodist.numerics.on_array` reads, arrays of u's
    shape, and ignores ``out``."""
    return WeightFunction(kind="custom", params={"label": label},
                          h_pair=lambda u, out=None: (on_array(h, u), on_array(h_prime, u)))


# ---------------------------------------------------------------------------
# kernel primitive: P with P' = 1/(sigma^2 * h)
# ---------------------------------------------------------------------------

def _kernel_integrand(wf: WeightFunction, model: DiffusionModel) -> Callable:
    """1/(sigma^2 h) on a float or an array."""

    def g(v):
        v = np.asarray(v, dtype=float)
        return 1.0 / (_sigma_sq(model, v) * _positive(lambda u: wf.h_pair(u)[0], v,
                                                      "weight function h"))

    return g


def _closed_primitive(wf: WeightFunction, model: DiffusionModel) -> Callable | None:
    if wf.inv_h_primitive is None or model.sigma_const is None:
        return None
    s2 = model.sigma_const**2
    inv = wf.inv_h_primitive

    def prim(u, out=None):
        out = inv(u, out)
        out /= s2
        return out

    return prim


def primitive(wf: WeightFunction, model: DiffusionModel, lo: float, hi: float) -> Callable:
    """P with P' = 1/(sigma^2 h), usable on scalars and arrays over [lo, hi].

    Closed form for the built-in weights on a constant-sigma model;
    otherwise (custom weights, or sigma depending on the state) the
    model's :func:`ergodist.model._running_table` of 1/(sigma^2 h) on the
    nodes k 2^-10, memoized on the weight per model (stored again only
    when a call builds or grows it) and first built over [lo, hi]. A
    request past it grows it over the request and at least twice its
    span on each side the request passes, moving none of the
    values it gave, so no result depends on which path asked first. It
    reads sigma and the weight only. A request past |y| =
    _EXP_MAX_HALFWIDTH raises TailError before any node is read, and a
    read outside the table EvaluationError; :func:`primitive_at` reads P
    past that limit.
    """
    closed = _closed_primitive(wf, model)
    if closed is not None:
        return closed
    key = ("primitive", id(model))
    cached = wf._cache.get(key, (None, None))[1]
    table = _running_table(f"primitive table of the {wf.kind} weight", model.label,
                           _kernel_integrand(wf, model), lo, hi, _LINEAR_STEP, cached)
    if table is not cached:
        wf._cache[key] = (model, table)
    return table


def primitive_at(wf: WeightFunction, model: DiffusionModel, x, out=None):
    """P(x) = K_x(0) at a float or an array of x: the closed form, written
    into ``out`` (an array of x's shape) where given, or read off
    :func:`primitive` within |x| <= _EXP_MAX_HALFWIDTH and one float
    :func:`kernel` each past it, so no finite moment or Phi fails on the
    table's limit; a tabulated read ignores ``out``. A float x without a
    closed form gives a 0-d array."""
    closed = _closed_primitive(wf, model)
    if closed is not None:
        return closed(x, out)
    x = np.asarray(x, dtype=float)
    lo, hi = (float(x.min()), float(x.max())) if x.size else (math.nan, math.nan)
    if -_EXP_MAX_HALFWIDTH <= lo and hi <= _EXP_MAX_HALFWIDTH:  # every point on the table
        return primitive(wf, model, lo, hi)(x)
    far = np.isfinite(x) & (np.abs(x) > _EXP_MAX_HALFWIDTH)
    near = x[~far]
    px = np.empty(x.shape)
    if near.size:
        px[~far] = primitive(wf, model, float(near.min()), float(near.max()))(near)
    px[far] = [kernel(wf, model, v, 0.0) for v in x[far].tolist()]
    return px


# ---------------------------------------------------------------------------
# kernel and estimator coefficients (a float or an array of y)
# ---------------------------------------------------------------------------

def kernel(wf: WeightFunction, model: DiffusionModel, x: float, y):
    """K_x(y) = int_y^x dv/(sigma^2(v) h(v)); antisymmetric under swapping.

    On an array of y, P(x) - P(y) (:func:`primitive_at`); at a float y
    without a closed form, one quadrature.
    """
    if np.ndim(y) > 0:
        y = np.asarray(y, dtype=float)
        p = primitive_at(wf, model, np.append(y, x))
        return p[-1] - p[:-1].reshape(y.shape)
    closed = _closed_primitive(wf, model)
    if closed is not None:
        px, py = closed(np.array((x, y), dtype=float)).tolist()
        return px - py
    return integrate(_kernel_integrand(wf, model), y, x).value


def _below(x: float, y, coefficient: Callable):
    """coefficient(y) where y < x and 0 elsewhere, for a float or an array
    of y; an array is read at x in place of each y >= x."""
    if np.ndim(y) == 0:
        return float(coefficient(y)) if y < x else 0.0
    below = np.asarray(y) < x
    return np.where(below, coefficient(np.where(below, y, x)), 0.0)


def dx_weight(wf: WeightFunction, model: DiffusionModel, x: float, y):
    """Coefficient of dX in the estimator: 2*1{y<x}*K_x(y)*h(y); 0 for y >= x."""
    return _below(x, y, lambda v: 2.0 * kernel(wf, model, x, v)
                  * on_array(lambda u: wf.h_pair(u)[0], v))


def dt_weight(wf: WeightFunction, model: DiffusionModel, x: float, y):
    """Coefficient of dt: 1{y<x}*K_x(y)*h'(y)*sigma^2(y); 0 for y >= x."""
    return _below(x, y, lambda v: kernel(wf, model, x, v)
                  * on_array(lambda u: wf.h_pair(u)[1], v) * on_array(model.diffusion_sq, v))


# ---------------------------------------------------------------------------
# path estimators
# ---------------------------------------------------------------------------

def unbiased_estimate(path: Path, wf: WeightFunction, model: DiffusionModel, x: float) -> float:
    """Left-endpoint discretization of the weight-function estimator at x:
    its :func:`estimate_curves` curve at the one threshold x.

    Not clamped to [0, 1]: the estimator may leave the unit interval at
    finite T and clamping would break exact unbiasedness.
    """
    return float(estimate_curves(path, [x], [wf], model)[0].values[0])


@dataclass(frozen=True)
class EstimatorChoice:
    """The weight-function estimator of ``weight``, or the EDF for None."""

    weight: WeightFunction | None = None

    @property
    def kind(self) -> str:
        return "edf" if self.weight is None else "unbiased"

    @property
    def tag(self) -> str:
        return "edf" if self.weight is None else self.weight.tag


def parse_estimator(spec: str) -> EstimatorChoice:
    """Parse 'edf' | 'unbiased:poly:p=<int>' | 'unbiased:exp:delta=<real>'
    | 'unbiased:const:c=<real>'."""
    spec = spec.strip()
    if spec == "edf":
        return EstimatorChoice()
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
    return EstimatorChoice(wf)


def as_estimator(choice) -> EstimatorChoice:
    if isinstance(choice, EstimatorChoice):
        return choice
    if isinstance(choice, str):
        return parse_estimator(choice)
    if isinstance(choice, WeightFunction):
        return EstimatorChoice(choice)
    raise ValueError(f"cannot interpret estimator choice {choice!r}")


@dataclass(frozen=True)
class EstimateCurve:
    xs: np.ndarray
    values: np.ndarray
    estimator_tag: str

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.values):
            raise ValueError("xs and values must have equal length")
        if len(self.values) and not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")


class CurveAccumulator:
    """Per-cell sums of a block of paths, fed chunk by chunk, from which
    every EDF and weight-function curve is read; no path is stored.

    A curve value at x sums, over the steps whose left endpoint X_i lies
    below x, a term per step: 1 for the EDF; for each weight (P its kernel
    primitive) u = h dX + (dt/2) h' sigma^2 and P u, whose sums U and V
    give the curve 2 (P(x) U - V)/T. The step counts (the sums' row 0)
    are summed only when an EDF is among the choices, since only the EDF
    reads them. A chunk puts
    each X_i in its cell, the number of nodes at or below it
    (``searchsorted(xs, X_i, side="right")``). On a grid of one node x0
    the cell is 1 unless X_i < x0, which is that search for every X_i,
    NaN and infinities included (for a node that is not NaN). On any
    other grid the affine map of its ends onto 0 and n - 1 guesses the
    cell; ext[c] <= X_i < ext[c + 1], on the grid padded with -inf and
    +inf, confirms the guess, and only the points that fail it are
    searched (NaN, +inf, points within rounding of a node, and on a grid
    that is not uniform, such as one with a point-mass nu's atoms merged
    in, the points the map puts in a neighbouring cell). Each term is
    summed per (path, cell) with one weighted ``bincount`` and added into
    the (statistic, path, cell) sums by one slice add per statistic: a
    streamed chunk's columns are distinct paths, so each sum takes one
    addition per chunk. A single path, stored or streamed, is read in its
    own memory order, as contiguous rows of one chunk each, and its rows'
    sums are added in step order. One cumulative sum over the cells gives
    every curve.

    Every per-point array of a chunk (dX, each term, the cells, the masks,
    and h, h' and P of the built-in weights, whose factories' callables
    write into given arrays) is a work array kept from chunk to chunk, so
    a chunk builds no array of its size; a custom weight's h, h' and
    tabulated P are read fresh. P is read by :func:`primitive_at` alone.
    The arrays handed in are never written.
    A tabulated primitive is built over the grid before the first chunk
    and widened, moving none of its values, up to the reach:
    _PRIMITIVE_REACH times the larger of 16 and the grid's ends, at most
    the tables' limit _EXP_MAX_HALFWIDTH, which reads no drift; only then
    is a chunk's range read.

    A chunk is screened before its weights are read: a step that is not
    finite or past that reach is put at X = 0, dX = 0 in the work arrays;
    then each weight's ``h_pair`` is read once, and a step where h <= 0 is
    put at X = 0 too, so no table is read or widened there. A step whose
    P u is not finite (a closed primitive that overflows where h is still
    positive) is found from the per-(path, cell) sums of P u, which are
    then summed again with its u and P u at 0. Such steps add nothing
    read: their path is about to explode, or else :meth:`curves` raises.
    So a path that is dropped for exploding can neither stop the block
    nor widen a table without bound.
    """

    def __init__(self, xs: np.ndarray, choices, model: DiffusionModel | None,
                 paths: int, n_steps: int, dt: float):
        self.xs, self.choices, self.model = xs, choices, model
        self.n_steps, self.dt = n_steps, dt
        self.weights = [c.weight for c in choices if c.weight is not None]
        self._edf = len(self.weights) < len(choices)
        if self.weights and model is None:
            raise ValueError("weight-function estimators need the model (sigma^2)")
        # row 0 counts the steps (exact in floats) for an EDF, then 2 rows
        # per weight
        self.sums = np.zeros((1 + 2 * len(self.weights), paths, xs.size + 1))
        # the affine map of the grid's ends onto 0 and n - 1 (on a NaN
        # node, whose every point the confirmation misses, any scale), and
        # the grid padded with -inf and +inf, which bounds every cell
        self._x0 = float(xs[0])
        self._scale = (xs.size - 1) / (float(xs[-1]) - self._x0) if xs.size > 1 else 1.0
        self._one_node = xs.size == 1 and self._x0 == self._x0
        self._ext = np.concatenate(([-np.inf], xs, [np.inf]))
        # work rows: dX, a term, X where copied, P, then h and h' per weight
        self._floats = np.empty((4 + 2 * len(self.weights), 0))
        self._index = np.empty(0, dtype=np.intp)
        self._flags = np.empty((2, 0), dtype=bool)
        self.failures: dict[int, float] = {}
        for wf in self.weights:
            primitive(wf, model, float(xs[0]), float(xs[-1]))
        tabulated = any(_closed_primitive(wf, model) is None for wf in self.weights)
        self.reach = min(_PRIMITIVE_REACH * max(16.0, abs(float(xs[0])), abs(float(xs[-1]))),
                         _EXP_MAX_HALFWIDTH) if tabulated else math.inf

    def add(self, cols: slice, start: int, states: np.ndarray, dw=None) -> None:
        """The consumer of :func:`stream_block`: the steps between
        consecutive rows of ``states``, shape (steps + 1, paths), of the
        block's paths ``cols``; a single path's span is added as a stored
        path's, so its sums are the stored path's bit for bit."""
        if states.shape[1] == 1:
            self.add_path(cols.start, states[:, 0])
        else:
            self._add(cols, states[:-1], states[1:])

    def add_path(self, j: int, values: np.ndarray) -> None:
        """Stored path ``values`` as path j, in the chunks of steps a
        streamed block takes: _PATH_CHUNKS full chunks at a time as the
        rows of one array, then the steps past them as one row."""
        n = len(values) - 1
        full = n - n % _CHUNK_STEPS
        span = _CHUNK_STEPS * _PATH_CHUNKS
        for a in range(0, full, span):
            b = min(a + span, full)
            self._add(j, values[a:b].reshape(-1, _CHUNK_STEPS),
                      values[a + 1:b + 1].reshape(-1, _CHUNK_STEPS))
        if full < n:
            self._add(j, values[None, full:n], values[None, full + 1:])

    def _scratch(self, n: int) -> tuple:
        """The work arrays' first n points (see ``_floats``; the cells; two
        flags), kept from chunk to chunk and sized to the largest chunk."""
        if self._index.size < n:
            self._floats = np.empty((self._floats.shape[0], n))
            self._index = np.empty(n, dtype=np.intp)
            self._flags = np.empty((2, n), dtype=bool)
        return self._floats[:, :n], self._index[:n], self._flags[:, :n]

    def _cells(self, X: np.ndarray) -> np.ndarray:
        """``searchsorted(xs, X, side="right")``: on a grid of one node x0,
        not (X < x0); on any other grid, the affine map, clamped to the
        cells 0..n, where ext[c] <= X < ext[c + 1] confirms it, and a
        search for the points that fail, _SEARCH_POINTS points at a time."""
        floats, cell, (ok, above) = self._scratch(X.size)
        if self._one_node:
            np.copyto(cell, np.logical_not(np.less(X, self._x0, out=ok), out=ok))
            return cell
        g = floats[0]
        with np.errstate(all="ignore"):  # inf * 0 and overflow: clamped below
            np.subtract(X, self._x0, out=g)
            g *= self._scale
            g += 1.0
        np.fmax(g, 0.0, out=g)
        np.fmin(g, self.xs.size, out=g)
        np.copyto(cell, g, casting="unsafe")
        np.less_equal(np.take(self._ext, cell, out=g, mode="clip"), X, out=ok)
        ok &= np.less(X, np.take(self._ext[1:], cell, out=g, mode="clip"), out=above)
        if not ok.all():
            np.logical_not(ok, out=ok)
            for a in range(0, X.size, _SEARCH_POINTS):
                miss = np.flatnonzero(ok[a:a + _SEARCH_POINTS]) + a
                cell[miss] = np.searchsorted(self.xs, X[miss], side="right")
        return cell

    @staticmethod
    def _zero(X: np.ndarray, dX: np.ndarray, bad: np.ndarray, copy: np.ndarray) -> np.ndarray:
        """The work row ``copy`` holding X, with X and dX set to 0 at ``bad``."""
        if X is not copy:
            np.copyto(copy, X)
        np.copyto(copy, 0.0, where=bad)
        np.copyto(dX, 0.0, where=bad)
        return copy

    def _add(self, cols, before: np.ndarray, after: np.ndarray) -> None:
        """For a slice ``cols``, column i of ``before`` and ``after``
        (shape (steps, paths)) is a chunk of path ``cols.start + i``; for an
        int, row i (shape (chunks, steps)) is the i-th chunk of path
        ``cols``, so the flattened rows are its steps in order. A path's
        first step that cannot be weighted goes into ``failures`` (see the
        class)."""
        stored = not isinstance(cols, slice)
        k, cells = before.shape[0 if stored else 1], self.sums.shape[2]
        floats, _, (bad, flag) = self._scratch(before.size)
        dX, term, copy, P = floats[:4]
        X = before.reshape(-1)
        idx = self._cells(X)
        offsets = cells * np.arange(k)
        idx.reshape(before.shape)[...] += offsets[:, None] if stored else offsets

        def bins(term=None):
            return np.bincount(idx, term, minlength=k * cells).reshape(k, cells)

        def put(row, cell_sums):
            # a streamed chunk's sums take one addition per (path, cell); a
            # stored path's rows are added in step order
            if stored:
                for part in cell_sums:
                    self.sums[row, cols] += part
            else:
                self.sums[row, cols] += cell_sums

        if self._edf:
            put(0, bins())
        if not self.weights:
            return
        pairs = [(floats[w], floats[w + 1]) for w in range(4, floats.shape[0], 2)]
        with np.errstate(all="ignore"):
            np.subtract(after, before, out=dX.reshape(before.shape))
            np.logical_not(np.isfinite(dX, out=bad), out=bad)
            if self.reach < math.inf:
                bad |= np.greater(np.abs(X, out=term), self.reach, out=flag)
            if bad.any():
                X = self._zero(X, dX, bad, copy)
            vals = [wf.h_pair(X, pair) for wf, pair in zip(self.weights, pairs)]
            for h, _ in vals:
                bad |= np.logical_not(np.greater(h, 0.0, out=flag), out=flag)
        failed = bool(bad.any())
        if failed:
            X = self._zero(X, dX, bad, copy)
        # (dt/2) sigma^2, a broadcast scalar for a constant sigma
        half_dt = 0.5 * self.dt
        half_s2 = on_array(lambda y: half_dt * self.model.diffusion_sq(y), X)
        for w, (wf, (h, hp)) in enumerate(zip(self.weights, vals)):
            # the rows u = h dX + (dt/2) h' sigma^2 and P u; P's row holds
            # the second product until the primitive is read into it
            u = np.multiply(h, dX, out=term)
            u += np.multiply(hp, half_s2, out=P)
            with np.errstate(all="ignore"):  # an overflowing P u is screened below
                Pu = np.multiply(u, primitive_at(wf, self.model, X, P), out=P)
            v_sums = bins(Pu)
            if not np.isfinite(v_sums).all():
                over = np.logical_not(np.isfinite(Pu, out=flag), out=flag)
                failed = True
                bad |= over
                np.copyto(u, 0.0, where=over)
                np.copyto(Pu, 0.0, where=over)
                v_sums = bins(Pu)
            put(1 + 2 * w, bins(u))
            put(2 + 2 * w, v_sums)
        if failed:
            at = np.flatnonzero(bad)
            if stored:  # the flattened rows are the path's steps in order
                paths, first = [cols], at[:1]
            else:  # each path's first step is its column's first flattened point
                at_cols, first = np.unique(at % k, return_index=True)
                paths, first = np.arange(self.sums.shape[1])[cols][at_cols].tolist(), at[first]
            for j, x in zip(paths, before.reshape(-1)[first].tolist()):
                self.failures.setdefault(j, x)

    def curves(self, dropped=None) -> list[np.ndarray]:
        """Each estimator's curves on xs, one row per path; a path marked
        in ``dropped`` has no meaningful row. Raises the EvaluationError of
        the first other path with a step that could not be weighted."""
        for j, x in sorted(self.failures.items()):
            if dropped is None or not dropped[j]:
                raise EvaluationError(x, f"path {j} cannot be weighted at x={x!r}: it is not "
                                         f"finite or past {self.reach!r} there, h <= 0, or "
                                         f"P u is not finite")
        T = self.n_steps * self.dt
        sums = np.cumsum(self.sums[:, :, :-1], axis=2)
        out = []
        weights = iter(zip(self.weights, sums[1:].reshape(-1, 2, *sums.shape[1:])))
        for choice in self.choices:
            if choice.weight is None:
                out.append(sums[0] / self.n_steps)
                continue
            wf, (U, V) = next(weights)
            out.append(2.0 * (primitive_at(wf, self.model, self.xs) * U - V) / T)
        return out


def estimate_curves(path: Path, xs, estimators, model: DiffusionModel | None = None
                    ) -> list[EstimateCurve]:
    """Evaluate estimators on a strictly increasing grid of finite
    thresholds; ValueError naming the first threshold that is not finite,
    and for a path with no step.

    Every curve comes from one :class:`CurveAccumulator` fed the path in
    the chunks a simulated block takes, so each equals bit for bit the
    curve of the same path streamed in a block.
    """
    if path.n_steps < 1:
        raise ValueError("path needs at least 2 grid points")
    xs = np.asarray(xs, dtype=float)
    bad = xs[~np.isfinite(xs)]
    if bad.size:
        raise ValueError(f"thresholds must be finite, got {float(bad[0])!r}")
    if xs.size and not np.all(np.diff(xs) > 0.0):
        raise ValueError("xs must be sorted strictly increasing")
    choices = [as_estimator(e) for e in estimators]
    if xs.size == 0:
        values = [np.empty(0)] * len(choices)
    else:
        acc = CurveAccumulator(xs, choices, model, 1, path.n_steps, path.dt)
        acc.add_path(0, np.ascontiguousarray(path.values, dtype=float))
        values = [rows[0] for rows in acc.curves()]
    return [EstimateCurve(xs=xs, values=v, estimator_tag=c.tag) for c, v in zip(choices, values)]


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
    and the vanishing of R*sigma^2*f_S in the left tail (a probe that is
    not finite counts as not vanishing).
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


def check_weight_conditions(wf: WeightFunction, model: DiffusionModel,
                            x: float) -> WeightConditionReport:
    sq_ok, sq_val = True, math.nan
    try:
        sq_val = stationary_expectation(
            model, lambda y: dx_weight(wf, model, x, y) ** 2 * on_array(model.diffusion_sq, y)
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
    with np.errstate(all="ignore"):  # inf * 0 = nan where the kernel overflows far out
        for k in range(7):
            y = -2.0 * 2.0**k
            tail_values.append(abs(dx_weight(wf, model, x, y)) * float(model.diffusion_sq(y))
                               * raw(y) / G)
    last3 = tail_values[-3:]
    tail_ok = bool(all(map(math.isfinite, tail_values)) and tail_values[-1] < 1e-10 and all(
        last3[i + 1] <= last3[i] + 1e-300 for i in range(len(last3) - 1)))
    return WeightConditionReport(
        x=x,
        sq_moment_ok=sq_ok,
        abs_moment_ok=abs_ok,
        tail_vanishes=tail_ok,
        sq_moment=sq_val,
        abs_moment=abs_val,
        tail_values=tail_values,
    )
