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
    _table_panels,
    _vec_call,
    normalizing_constant,
    stationary_expectation,
)
from .numerics import QuadratureSpec, compensated_sum, integrate
from .simulate import Path

# node step of the primitive table, used for custom weights and for models
# without a constant diffusion coefficient
_LINEAR_STEP = 1e-3
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
    """Tabulated antiderivative of 1/(sigma^2 h) on [lo, hi], base point 0,
    cubic Hermite between nodes _LINEAR_STEP apart with the exact slopes
    1/(sigma^2 h)."""

    def __init__(self, wf: WeightFunction, model: DiffusionModel, lo: float, hi: float):
        step = _LINEAR_STEP
        lo = math.floor(min(lo, 0.0) / step) * step
        hi = math.ceil(max(hi, 0.0) / step) * step
        n = int(round((hi - lo) / step))
        nodes = lo + step * np.arange(n + 1)
        panels, slopes = _table_panels(f"primitive table of the {wf.kind} weight", model.label,
                                       _kernel_integrand(wf, model), nodes, _TABLE_PANEL_SPEC)
        super().__init__(nodes, _running_from(panels, int(round((0.0 - lo) / step))), slopes)

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        if arr.size and (arr.min() < self.lo - 1e-12 or arr.max() > self.hi + 1e-12):
            raise EvaluationError(
                float(arr.min() if arr.min() < self.lo else arr.max()),
                "primitive table queried outside its window (internal rebuild bug)",
            )
        out = super().__call__(arr)
        return float(out) if np.ndim(u) == 0 else out


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
    table on a 1e-3 grid, cubic Hermite between its nodes.
    """
    closed = _closed_primitive(wf, model)
    if closed is not None:
        return closed
    key = ("primitive", id(model))
    cached = wf._cache.get(key)
    if cached is not None:
        _, table = cached
        if table.lo <= lo and table.hi >= hi:
            return table
    if cached is not None:
        _, old = cached
        lo = min(lo, 2.0 * old.lo)
        hi = max(hi, 2.0 * old.hi)
    table = _PrimitiveTable(wf, model, lo - 1.0, hi + 1.0)
    wf._cache[key] = (model, table)
    return table


# ---------------------------------------------------------------------------
# kernel and estimator coefficients (scalar contracts)
# ---------------------------------------------------------------------------

def kernel(wf: WeightFunction, model: DiffusionModel, x: float, y: float) -> float:
    """K_x(y) = int_y^x dv/(sigma^2(v) h(v)); antisymmetric under swapping."""
    closed = _closed_primitive(wf, model)
    if closed is not None:
        return float(closed(x)) - float(closed(y))
    if x == y:
        return 0.0
    a, b = (y, x) if y <= x else (x, y)
    val = integrate(_kernel_integrand(wf, model), a, b).value
    return val if x >= y else -val


def dx_weight(wf: WeightFunction, model: DiffusionModel, x: float, y: float) -> float:
    """Coefficient of dX in the estimator: 2*1{y<x}*K_x(y)*h(y); 0 for y >= x."""
    if y >= x:
        return 0.0
    return 2.0 * kernel(wf, model, x, y) * float(wf.h(y))


def dt_weight(wf: WeightFunction, model: DiffusionModel, x: float, y: float) -> float:
    """Coefficient of dt: 1{y<x}*K_x(y)*h'(y)*sigma^2(y); 0 for y >= x."""
    if y >= x:
        return 0.0
    return kernel(wf, model, x, y) * float(wf.h_prime(y)) * float(model.diffusion_sq(y))


# ---------------------------------------------------------------------------
# path estimators
# ---------------------------------------------------------------------------

def edf(path: Path, x: float) -> float:
    """Fraction of left grid points strictly below x; always in [0, 1]."""
    left = path.values[:-1]
    return float(np.count_nonzero(left < x)) / len(left)


def unbiased_estimate(path: Path, wf: WeightFunction, model: DiffusionModel, x: float) -> float:
    """Left-endpoint discretization of the weight-function estimator at x.

    Not clamped to [0, 1]: the estimator may leave the unit interval at
    finite T and clamping would break exact unbiasedness.
    """
    if len(path.values) < 2:
        raise ValueError("path needs at least 2 grid points")
    left = path.values[:-1]
    dX = np.diff(path.values)
    dt = path.dt
    T = path.horizon_T
    lo = float(min(left.min(), x))
    hi = float(max(left.max(), x))
    P = primitive(wf, model, lo, hi)
    mask = left < x
    if not mask.any():
        return 0.0
    y = left[mask]
    h = _vec_call(wf.h, y)
    if not np.all(h > 0.0):
        bad = float(y[int(np.argmin(h > 0.0))])
        raise EvaluationError(bad, f"weight function must be positive, got h({bad!r}) <= 0")
    K = float(P(x)) - np.asarray(P(y), dtype=float)
    s2 = _vec_call(model.diffusion_sq, y)
    hp = _vec_call(wf.h_prime, y)
    ito = compensated_sum(2.0 * K * h * dX[mask])
    leb = compensated_sum(K * hp * s2)
    return (ito + dt * leb) / T


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


def _unbiased_curve_values(
    path: Path, wf: WeightFunction, model: DiffusionModel, xs: np.ndarray,
    order: np.ndarray, k: np.ndarray,
) -> np.ndarray:
    """Shared-pass evaluation: one sort plus prefix sums serves every x.

    For each x the two sums only involve grid points with X_i < x, so after
    ordering the left endpoints (``order``, a stable argsort) all cutoffs
    become prefix-sum lookups at ``k``, the count of left endpoints below x.
    """
    left = path.values[:-1]
    dX = np.diff(path.values)
    dt = path.dt
    T = path.horizon_T
    lo = float(min(left.min(), xs.min()))
    hi = float(max(left.max(), xs.max()))
    P = primitive(wf, model, lo, hi)
    h = _vec_call(wf.h, left)
    if not np.all(h > 0.0):
        bad = float(left[int(np.argmin(h > 0.0))])
        raise EvaluationError(bad, f"weight function must be positive, got h({bad!r}) <= 0")
    hp = _vec_call(wf.h_prime, left)
    s2 = _vec_call(model.diffusion_sq, left)
    Pl = np.asarray(P(left), dtype=float)

    a = h * dX
    b = Pl * a
    c = hp * s2
    d = Pl * c
    zero = np.zeros(1)
    A = np.concatenate([zero, np.cumsum(a[order])])
    B = np.concatenate([zero, np.cumsum(b[order])])
    C = np.concatenate([zero, np.cumsum(c[order])])
    D = np.concatenate([zero, np.cumsum(d[order])])
    Px = np.asarray(P(xs), dtype=float)
    return (2.0 * (Px * A[k] - B[k]) + dt * (Px * C[k] - D[k])) / T


def estimate_curves(path: Path, xs, estimators, model: DiffusionModel | None = None
                    ) -> list[EstimateCurve]:
    """Evaluate estimators on a strictly increasing grid of thresholds.

    The EDF and the weight-function curves share one sort of the path's
    left endpoints.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and not np.all(np.diff(xs) > 0.0):
        raise ValueError("xs must be sorted strictly increasing")
    choices = [as_estimator(e) for e in estimators]
    if xs.size == 0:
        return [EstimateCurve(xs=xs, values=np.empty(0), estimator_tag=c.tag,
                              horizon_T=path.horizon_T) for c in choices]
    left = path.values[:-1]
    if any(c.kind == "unbiased" for c in choices):
        order = np.argsort(left, kind="stable")
        k = np.searchsorted(left[order], xs, side="left")
    elif any(c.kind == "edf" for c in choices):
        k = np.searchsorted(np.sort(left), xs, side="left")
    curves = []
    for choice in choices:
        if choice.kind == "edf":
            values = k / len(left)
        elif choice.kind == "unbiased":
            if model is None:
                raise ValueError("weight-function estimators need the model (sigma^2)")
            values = _unbiased_curve_values(path, choice.weight, model, xs, order, k)
        else:
            values = np.asarray(choice.curve_fn(path, xs), dtype=float)
            if values.shape != xs.shape:
                raise ValueError("custom estimator returned a wrong-shaped curve")
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
