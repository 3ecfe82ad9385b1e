"""Asymptotic efficiency: the local minimax variance, the global bound, the
error-decomposition identities behind it, and Monte Carlo risk measurement.

The central object is the influence numerator

    infl(x, y) = F_S(x ^ y) - F_S(x) * F_S(y)      (^ = minimum)

whose weighted second moment

    R(x, x) = 4 * integral of infl(x, y)^2 / (sigma^2(y) f_S(y)) dy

is the asymptotic variance of efficient estimators at threshold x, and
whose nu-integral is the asymptotic lower bound for the scaled integrated
mean square error of any estimator. R, the bound, the influence primitive
and its moment screen are all read off four running integrals that each
model tabulates once on the nodes of its distribution table (see
``_influence_table``). The weight primitive reads two more, per weight, on
nodes k 2^-8 that grow on demand and read sigma and the weight only, not
the drift (``_weight_table``); its moment screen reads them at the
distribution table's nodes. The module also implements, as executable
identities, the decomposition of the scaled estimation error into a
vanishing boundary term plus a stochastic integral with the influence
ratio as integrand, and numerical screens of the moment conditions under
which that decomposition applies.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DivergenceError, RiskRunError, TailError, WorkerError
from .estimators import (
    _PATH_CHUNKS,
    CurveAccumulator,
    EstimatorChoice,
    WeightFunction,
    _below,
    as_estimator,
    dx_weight,
    kernel,
    primitive_at,
    unbiased_estimate,
)
from .model import (
    DiffusionModel,
    _cdf_pair,
    _cdf_table,
    _Hermite,
    _running_table,
    _simpson_panels,
    _summed_on,
    invariant_cdf,
    invariant_density,
    normalizing_constant,
    scale_exponent,
)
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    compensated_sum,
    integrate,
    integrate_line,
    on_array,
)
from .simulate import _CHUNK_STEPS, Path, SimConfig, derive_substream_seed, stream_block

# relaxed tolerances for condition screens (flags, not truth values)
_SCREEN_OUTER = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6, max_depth=32, tail_tol=1e-9)
_INCREMENT_SPEC = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-12, max_depth=30)
# The direct boundary-derivative integral cancels down to values several
# orders below its integrand, so relative accuracy of the ratio needs a
# deep absolute tolerance.
_DIRECT_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# weighting measure for the integrated risk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuMeasure:
    """Finite measure weighting the integrated risk: gaussian, uniform, or
    a finite collection of point masses."""

    kind: str
    mean: float = 0.0
    sd: float = 1.0
    a: float = 0.0
    b: float = 1.0
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "uniform", "point_masses"):
            raise ValueError(f"unknown nu kind {self.kind!r}")
        params = (self.mean, self.sd, self.a, self.b, *(v for atom in self.atoms for v in atom))
        if not all(map(math.isfinite, params)):
            raise ValueError(f"{self.kind} nu requires finite parameters")
        if self.kind == "gaussian" and not self.sd > 0.0:
            raise ValueError("gaussian nu requires sd > 0")
        if self.kind == "uniform" and not self.a < self.b:
            raise ValueError("uniform nu requires a < b")
        if self.kind == "point_masses":
            if not self.atoms:
                raise ValueError("point-mass nu requires at least one atom")
            if any(w < 0.0 for _, w in self.atoms):
                raise ValueError("point-mass weights must be >= 0")
        tm = self.total_mass
        if not (math.isfinite(tm) and tm > 0.0):
            raise ValueError(f"total mass must be finite and positive, got {tm!r}")

    @property
    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms)) if self.kind == "point_masses" else 1.0

    def density(self, x):
        """Lebesgue density (gaussian/uniform kinds only)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            z = (x - self.mean) / self.sd
            return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))
        if self.kind == "uniform":
            inside = (x >= self.a) & (x <= self.b)
            return np.where(inside, 1.0 / (self.b - self.a), 0.0)
        raise ValueError("point-mass nu has no density")

    def mass_outside(self, lo: float, hi: float) -> float:
        if self.kind == "gaussian":
            zlo = (lo - self.mean) / (self.sd * math.sqrt(2.0))
            zhi = (hi - self.mean) / (self.sd * math.sqrt(2.0))
            return 0.5 * (2.0 + math.erf(zlo) - math.erf(zhi))
        if self.kind == "uniform":
            width = self.b - self.a
            covered = max(0.0, min(hi, self.b) - max(lo, self.a))
            return (width - covered) / width
        return float(sum(w for x, w in self.atoms if not lo <= x <= hi))


def nu_gaussian(mean: float = 0.0, sd: float = 1.0) -> NuMeasure:
    return NuMeasure(kind="gaussian", mean=mean, sd=sd)


def nu_uniform(a: float, b: float) -> NuMeasure:
    return NuMeasure(kind="uniform", a=a, b=b)


def nu_point_masses(atoms: Sequence[tuple[float, float]]) -> NuMeasure:
    return NuMeasure(kind="point_masses", atoms=tuple((float(x), float(w)) for x, w in atoms))


# the keys a dict nu spec of each kind may hold besides "kind"
_NU_KEYS = {"gaussian": ("mean", "sd"), "uniform": ("a", "b"), "point_masses": ("atoms",)}


def parse_nu(spec) -> NuMeasure:
    """Parse 'gauss:m,s' | 'uniform:a,b' | 'point:x=w[;x=w...]' or a dict;
    ValueError on a dict key its kind does not take."""
    if isinstance(spec, NuMeasure):
        return spec
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind not in _NU_KEYS:
            raise ValueError(f"bad nu spec {spec!r}")
        unknown = [k for k in spec if k != "kind" and k not in _NU_KEYS[kind]]
        if unknown:
            raise ValueError(f"{kind} nu spec has unknown keys {unknown!r}; "
                             f"it takes {list(_NU_KEYS[kind])!r}")
        if kind == "gaussian":
            return nu_gaussian(float(spec.get("mean", 0.0)), float(spec.get("sd", 1.0)))
        if kind == "uniform":
            return nu_uniform(float(spec["a"]), float(spec["b"]))
        return nu_point_masses([(float(x), float(w)) for x, w in spec["atoms"]])
    name, _, args = str(spec).partition(":")
    if name in ("gauss", "gaussian"):
        m, s = (args.split(",") + ["1"])[:2] if args else ("0", "1")
        return nu_gaussian(float(m), float(s))
    if name == "uniform":
        a, b = args.split(",")
        return nu_uniform(float(a), float(b))
    if name == "point":
        atoms = []
        for piece in args.split(";"):
            x, _, w = piece.partition("=")
            atoms.append((float(x), float(w) if w else 1.0))
        return nu_point_masses(atoms)
    raise ValueError(f"bad nu spec {spec!r}")


# ---------------------------------------------------------------------------
# running integrals of the influence layer, tabulated once per model
# ---------------------------------------------------------------------------

# Where r = 1/(sigma^2 f_S) would exceed 1/_RATIO_FLOOR, the influence-ratio
# integrands are taken as 0, so r cannot overflow; F and Fbar, summed from
# their own tails, keep their ratios to f_S accurate down to the floor.
_RATIO_FLOOR = 1e-280


def _integrands(model: DiffusionModel, ys: np.ndarray) -> np.ndarray:
    """The rows F^2 r, F r, Fbar^2 r, Fbar r at ys, Fbar = 1 - F, where
    r = 1/(sigma^2 f_S) = G(S) exp(-scale exponent) is set to 0 where it
    would exceed 1/_RATIO_FLOOR."""
    F, Fbar = _cdf_pair(model, ys)
    with np.errstate(over="ignore"):
        r = normalizing_constant(model) * np.exp(-scale_exponent(model, ys))
    r[~(r <= 1.0 / _RATIO_FLOOR)] = 0.0
    return np.stack([F * F * r, F * r, Fbar * Fbar * r, Fbar * r])


def _influence_table(model: DiffusionModel) -> _Hermite:
    """The model's influence table, on the nodes of its distribution
    table: the rows A = int_lo^t F^2 r, C1 = int_lo^t F r,
    B = int_t^hi Fbar^2 r and C2 = int_t^hi Fbar r (r as in
    :func:`_integrands`), each the running integral of its exact slope
    (F^2 r, F r, -Fbar^2 r, -Fbar r) over Simpson panels between nodes,
    based at the first node for A and C1 and at the last for B and C2, so
    each is summed from the tail where it is small."""
    cached = model._cache.get("influence_table")
    if cached is not None:
        return cached
    t = _cdf_table(model)
    rows = _integrands(model, t.nodes)
    steps = _simpson_panels(lambda v: _integrands(model, v), t.nodes, rows)
    zero = np.zeros((2, 1))
    cum = np.concatenate((_summed_on(zero, steps[:2]), _summed_on(zero, steps[2:, ::-1])[:, ::-1]))
    rows[2:] *= -1.0
    table = _Hermite(t.nodes, cum, rows)
    model._cache["influence_table"] = table
    return table


def _running(model: DiffusionModel, ts):
    """F, Fbar and the running integrals A, C1, B, C2 at each point of ts
    (clipped to the tables), read off the distribution and influence
    tables."""
    F, Fbar = _cdf_pair(model, ts)
    return F, Fbar, _influence_table(model)(ts)


# ---------------------------------------------------------------------------
# influence numerator and the variance bound
# ---------------------------------------------------------------------------

def influence_numerator(model: DiffusionModel, x: float, y):
    """F_S(min(x, y)) - F_S(x) * F_S(y) at a float y (a float) or on an
    array of y (an array of its shape).

    Evaluated as F(y) * (1 - F(x)) for y <= x and F(x) * (1 - F(y))
    otherwise, with 1 - F read from the distribution table's right-tail
    sums, so the value keeps relative accuracy deep in both tails. An
    array reads one table row per point, F(y) or 1 - F(y), and a NaN y
    takes the second branch."""
    fx, sx = _cdf_pair(model, float(x))
    if isinstance(y, np.ndarray):
        above = ~(y <= x)
        out = _cdf_pair(model, y, above)
        out *= np.where(above, fx, sx)
        return out
    fy, sy = _cdf_pair(model, float(y))
    return fy * sx if y <= x else fx * sy


def local_variance(model: DiffusionModel, x):
    """Asymptotic variance R(x, x) = 4*int infl(x,y)^2/(sigma^2(y) f_S(y)) dy
    at a scalar x (a float) or a 1-d array of x (an array).

    Splitting the integral at y = x gives 4 [Fbar(x)^2 A(x) + F(x)^2 B(x)]
    with the running integrals A and B of the model's influence table, so
    no kink lies inside a panel. R is 0 outside the distribution table's
    support.
    """
    F, Fbar, (A, _, B, _) = _running(model, x)
    # a table read deep in a tail can undershoot its running integral
    R = np.maximum(4.0 * (Fbar * Fbar * A + F * F * B), 0.0)
    return R if np.ndim(x) else float(R)


def efficiency_bound(model: DiffusionModel, nu: NuMeasure) -> float:
    """Global bound: the nu-integral of the local variance R(x, x).

    Exact weighted sum for point masses. For gaussian and uniform nu, one
    adaptive G7/K15 integral of R (from :func:`local_variance`) times the
    nu density over the nu support (a gaussian cut at mean +/- 10 sd)
    within the distribution table, outside which R is 0; a RuntimeWarning
    names the model and nu when it did not converge.
    """
    if nu.kind == "point_masses":
        return compensated_sum(w * local_variance(model, x) for x, w in nu.atoms)
    half = 10.0 * nu.sd
    a, b = (nu.a, nu.b) if nu.kind == "uniform" else (nu.mean - half, nu.mean + half)
    t = _cdf_table(model)
    lo = max(a, t.lo)
    hi = max(lo, min(b, t.hi))
    result = integrate(lambda x: local_variance(model, x) * nu.density(x), lo, hi,
                       DEFAULT_QUADRATURE)
    if not result.converged:
        warnings.warn(f"efficiency bound of {model.label} under {nu!r}: quadrature did not "
                      f"converge on {[lo, hi]!r} (error estimate {result.error_estimate!r})",
                      RuntimeWarning, stacklevel=2)
    return result.value


# ---------------------------------------------------------------------------
# error-decomposition machinery (executable identities)
# ---------------------------------------------------------------------------

def influence_primitive(model: DiffusionModel, x: float, y: float) -> float:
    """2 * int_0^y infl(x, v) / (sigma^2(v) f_S(v)) dv (signed).

    The indicator in infl splits the integral at v = x into
    2 [Fbar(x) (C1(min(y, x)) - C1(min(0, x)))
       + F(x) (C2(max(0, x)) - C2(max(y, x)))]
    with the running integrals C1 and C2 of the model's influence table.
    """
    F, Fbar, run = _running(model, [x, min(y, x), min(0.0, x), max(0.0, x), max(y, x)])
    return float(2.0 * (Fbar[0] * (run[1, 1] - run[1, 2]) + F[0] * (run[3, 3] - run[3, 4])))


def _weight_table(wf: WeightFunction, model: DiffusionModel, lo: float, hi: float) -> _Hermite:
    """The weight table of ``wf`` that covers [lo, hi]: the rows H = int_0 h
    and Q = int_0 P h (P from :func:`primitive_at`), a
    :func:`ergodist.model._running_table` of Simpson panels on the nodes
    k 2^-8, with the exact slopes h and P h. It reads sigma and the weight
    only. Memoized on the weight, per model, and stored again only when a
    call builds or grows it; a request past the builder's limit raises
    TailError naming the table."""
    key = ("weight_table", id(model))

    def rows(v: np.ndarray) -> np.ndarray:
        h = on_array(lambda u: wf.h_pair(u)[0], v)
        return np.stack([h, primitive_at(wf, model, v) * h])

    cached = wf._cache.get(key, (None, None))[1]
    table = _running_table(f"weight table of the {wf.kind} weight", model.label, rows, lo, hi,
                           2.0**-8, cached, simpson=True)
    if table is not cached:
        wf._cache[key] = (model, table)
    return table


def weight_primitive(wf: WeightFunction, model: DiffusionModel, x: float, y: float) -> float:
    """2 * int_0^y 1{v<x} K_x(v) h(v) dv (signed), read off the weight
    table (:func:`_weight_table`) as 2 P(x) [H(m) - H(b)] - 2 [Q(m) - Q(b)]
    with m = min(y, x), b = min(0, x) and P(x) = K_x(0)
    (:func:`primitive_at`, at any finite x); TailError where m or b is past
    the weight table's limit."""
    m, b = min(y, x), min(0.0, x)
    table = _weight_table(wf, model, min(m, b), max(m, b))
    (Hm, Qm), (Hb, Qb) = table(float(m)), table(float(b))
    px = float(primitive_at(wf, model, x))
    return 2.0 * px * (Hm - Hb) - 2.0 * (Qm - Qb)


def boundary_function(wf: WeightFunction, model: DiffusionModel, x: float, y: float) -> float:
    """Boundary term of the error decomposition; vanishes at y = 0 exactly."""
    if y == 0.0:
        return 0.0
    return weight_primitive(wf, model, x, y) + influence_primitive(model, x, y)


def compensator(wf: WeightFunction, model: DiffusionModel, x: float, y):
    """Centered drift-side coefficient of the error representation:
    1{y<x} K_x(y) [2 h(y) S(y) + h'(y) sigma^2(y)] - F_S(x), at a float y
    (a float) or on an array of y (an array of its shape).

    Its stationary expectation is zero; that is what makes the estimator
    unbiased.
    """

    def coefficient(v):
        h, hp = wf.h_pair(v)
        return kernel(wf, model, x, v) * (2.0 * h * on_array(model.drift, v)
                                          + hp * on_array(model.diffusion_sq, v))

    return _below(x, y, coefficient) - invariant_cdf(model, x)


def boundary_derivative_closed(wf: WeightFunction, model: DiffusionModel, x: float, z):
    """Closed form of the boundary-function derivative, ``dx_weight`` plus
    the influence ratio: 2*1{z<x} h(z) K_x(z) + 2*infl(x, z) / (sigma^2(z)
    f_S(z)), at a float or on an array of z as :func:`compensator`.
    TailError at the first z where f_S(z) underflows below 1e-300."""
    fz = invariant_density(model, z)
    low = np.ravel(fz < 1e-300)
    if low.any():
        raise TailError(f"invariant density underflows at z={float(np.ravel(z)[low.argmax()])!r}")
    out = (dx_weight(wf, model, x, z)
           + 2.0 * influence_numerator(model, x, z) / (on_array(model.diffusion_sq, z) * fz))
    return out if isinstance(z, np.ndarray) else float(out)


def boundary_derivative_direct(wf: WeightFunction, model: DiffusionModel,
                               x: float, z: float) -> float:
    """Quadrature form of the boundary-function derivative:
    (2 / (f_S(z) sigma^2(z))) * int_{-inf}^z compensator(v) f_S(v) dv.

    Equals the closed form by an integration-by-parts identity; both are
    exposed so the identity can be verified numerically.
    """
    table = _cdf_table(model)
    if z <= table.lo:
        return 0.0
    integrand = lambda v: compensator(wf, model, x, v) * invariant_density(model, v)
    total = integrate(integrand, table.lo, z, _DIRECT_SPEC, kink=x).value
    fz = invariant_density(model, z)
    if fz < 1e-300:
        raise TailError(f"invariant density underflows at z={z!r}")
    return 2.0 * total / (fz * float(model.diffusion_sq(z)))


def ode_residual(wf: WeightFunction, model: DiffusionModel, x: float, y: float) -> float:
    """Finite-difference residual of M'(y) S(y) + M''(y) sigma^2(y)/2 = c(y)
    with step h = 1e-4.

    The central differences of the boundary function M are formed from its
    one-panel increments (M(y+h) - M(y) is exactly the integral of M' over
    [y, y+h]), which keeps quadrature noise out of the h^-2 amplification.
    """
    step = 1e-4
    mker = lambda v: boundary_derivative_closed(wf, model, x, v)
    up = integrate(mker, y, y + step, _INCREMENT_SPEC).value
    down = integrate(mker, y - step, y, _INCREMENT_SPEC).value
    d1 = (up + down) / (2.0 * step)
    d2 = (up - down) / (step * step)
    return (d1 * float(model.drift(y)) + 0.5 * d2 * float(model.diffusion_sq(y))
            - compensator(wf, model, x, y))


# ---------------------------------------------------------------------------
# pathwise decomposition check
# ---------------------------------------------------------------------------

def _influence_ratio_vec(model: DiffusionModel, x: float, ys: np.ndarray) -> np.ndarray:
    """2 * (F(x) F(y) - F(min(x, y))) / (sigma(y) f_S(y)) on an array.

    The numerator is -infl(x, y), from :func:`influence_numerator`."""
    return (-2.0 * influence_numerator(model, x, ys)
            / (on_array(model.diffusion, ys) * invariant_density(model, ys)))


def representation_discrepancy(path: Path, wf: WeightFunction, model: DiffusionModel,
                               x: float) -> float:
    """|scaled error - its decomposition| along one stored trajectory.

    Left side: sqrt(T) * (estimate(x) - F_S(x)). Right side: the boundary
    increment (M(X_T) - M(X_0))/sqrt(T) plus the discretized stochastic
    integral of the influence ratio against the stored Wiener increments.
    The residual is the discretization error, O(sqrt(dt)). The influence
    ratio is read one span of :meth:`CurveAccumulator.add_path` at a time,
    so the table reads hold one span's temporaries.
    """
    if path.wiener_increments is None:
        raise ValueError("representation check requires a path with stored Wiener increments")
    T = path.horizon_T
    est = unbiased_estimate(path, wf, model, x)
    lhs = math.sqrt(T) * (est - invariant_cdf(model, x))
    m_end = boundary_function(wf, model, x, float(path.values[-1]))
    m_start = boundary_function(wf, model, x, float(path.values[0]))
    terms = np.empty(path.wiener_increments.size)
    for a in range(0, terms.size, _CHUNK_STEPS * _PATH_CHUNKS):
        b = min(a + _CHUNK_STEPS * _PATH_CHUNKS, terms.size)
        np.multiply(_influence_ratio_vec(model, x, path.values[a:b]),
                    path.wiener_increments[a:b], out=terms[a:b])
    mart = compensated_sum(terms)
    rhs = (m_end - m_start) / math.sqrt(T) + mart / math.sqrt(T)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# moment-condition screens (double quadrature, flags only)
# ---------------------------------------------------------------------------

def influence_moment_finite(model: DiffusionModel, nu: NuMeasure) -> tuple[bool, float]:
    """Screen: nu-integral of E[(influence primitive at xi)^2] converges.

    The primitive at a table node y is read off the running integrals C1
    and C2 (see :func:`influence_primitive`): a C1(y) + b for y <= x and
    c C2(y) + d above, with a, b, c, d from the tables at x, min(0, x) and
    max(0, x). So E[g^2] at each x is a quadratic in them over prefix sums
    of mass, mass C1 and mass C1^2 and suffix sums of mass, mass C2 and
    mass C2^2, built once. Each running integral is summed from its own
    tail, so it is small where the mass is and large only where the mass
    is negligible. Divergence is declared only via the tail-doubling
    criterion of the outer quadrature, so a very slowly diverging integral
    may pass; this is a screen, not a proof.
    """
    table = _influence_table(model)
    ys, mass = table.nodes, _trapezoid_weights(_cdf_table(model).values[0])
    below = _moment_sums(mass, table.values[1])
    above = _moment_sums(mass[::-1], table.values[3, ::-1])[:, ::-1]

    def inner(x: np.ndarray) -> np.ndarray:
        F, Fbar, run = _running(model, np.stack([x, np.minimum(x, 0.0), np.maximum(x, 0.0)]))
        F, Fbar = F[0], Fbar[0]
        (C1x, C1m, _), (C2x, _, C2p) = run[1], run[3]
        k = np.searchsorted(ys, x, "right")
        low = _quadratic(below[:, k], 2.0 * Fbar, 2.0 * (F * (C2p - C2x) - Fbar * C1m))
        high = _quadratic(above[:, k], -2.0 * F, 2.0 * (Fbar * (C1x - C1m) + F * C2p))
        return low + high

    return _nu_weighted_screen(inner, nu, f"influence moment screen of {model.label}")


def weight_moment_finite(wf: WeightFunction, model: DiffusionModel,
                         nu: NuMeasure) -> tuple[bool, float]:
    """Screen: nu-integral of E[(weight primitive at xi)^2] converges.

    With u = 2 P(x) (:func:`primitive_at`), the primitive
    (:func:`weight_primitive`) at a table
    node y below x is u H(y) - 2 Q(y) + v, v = 2 Q(b) - u H(b) at
    b = min(0, x), and at the nodes from x on it is its value at x. So
    E[g^2] at each x is a quadratic in u and v over six prefix sums of
    mass times 1, H, Q, H^2, H Q and Q^2, built once. The weight table is
    based at 0, so H and Q are small where g is. The nodes are the
    distribution table's, and the weight table is read at x clipped into
    that table's span.
    """
    t = _cdf_table(model)
    table = _weight_table(wf, model, t.lo, t.hi)
    mass = _trapezoid_weights(t.values[0])
    H, Q = table(t.nodes)
    sums = _moment_sums(mass, H, 2.0 * Q)
    mass_above = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])

    def inner(x: np.ndarray) -> np.ndarray:
        u = 2.0 * primitive_at(wf, model, x)
        (Hx, Hb), (Qx, Qb) = table(np.clip(np.stack([x, np.minimum(x, 0.0)]), t.lo, t.hi))
        cut = u * Hx - 2.0 * Qx
        v = 2.0 * Qb - u * Hb
        k = np.searchsorted(t.nodes, x, "left")  # the nodes below x
        s = sums[:, k]
        return (u * (u * s[2] - 2.0 * s[4]) + s[5] + v * (v * s[0] + 2.0 * (u * s[1] - s[3]))
                + mass_above[k] * (cut + v) ** 2)

    return _nu_weighted_screen(inner, nu,
                               f"weight moment screen of the {wf.kind} weight on {model.label}")


def _moment_sums(mass: np.ndarray, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Rows mass, mass a and mass a^2, then (given b) mass b, mass a b and
    mass b^2, summed: column k holds the sums over the first k nodes. A
    product is formed as (mass a) a, which cannot overflow where mass is
    small and a large."""
    out = np.zeros((3 if b is None else 6, mass.size + 1))
    rows = out[:, 1:]
    rows[0] = mass
    np.multiply(mass, a, out=rows[1])
    np.multiply(rows[1], a, out=rows[2])
    if b is not None:
        np.multiply(mass, b, out=rows[3])
        np.multiply(rows[1], b, out=rows[4])
        np.multiply(rows[3], b, out=rows[5])
    np.cumsum(rows, axis=1, out=rows)
    return out


def _quadratic(s: np.ndarray, a, b):
    """sum(mass (a c + b)^2) from s = (sum mass, sum mass c, sum mass c^2)."""
    return a * (a * s[2] + 2.0 * b * s[1]) + b * b * s[0]


def _nu_weighted_screen(inner: Callable[[np.ndarray], np.ndarray], nu: NuMeasure,
                        what: str) -> tuple[bool, float]:
    """The nu-integral of ``inner`` (read on an array of x): a compensated
    sum over point masses, else one adaptive integral, of inner over [a, b]
    times the uniform density or of inner times the gaussian density over
    the whole line, which warns, naming ``what`` and nu, when it did not
    converge. A divergence suspected by the tail doubling gives
    (False, nan)."""
    if nu.kind == "point_masses":
        xs, ws = np.array(nu.atoms).T
        value = compensated_sum(ws * inner(xs))
        return math.isfinite(value), value
    try:
        if nu.kind == "uniform":
            result = integrate(inner, nu.a, nu.b, _SCREEN_OUTER)
            value = 1.0 / (nu.b - nu.a) * result.value
        else:
            result = integrate_line(lambda x: inner(x) * nu.density(x), _SCREEN_OUTER)
            value = result.value
    except DivergenceError:
        return False, math.nan
    if not result.converged:
        warnings.warn(f"{what} under {nu!r}: outer quadrature did not converge "
                      f"(error estimate {result.error_estimate!r})", RuntimeWarning, stacklevel=3)
    return math.isfinite(value), value


# ---------------------------------------------------------------------------
# Monte Carlo integrated risk
# ---------------------------------------------------------------------------

@dataclass
class RiskReport:
    """Per-threshold bias/variance and the scaled integrated risk vs bound."""

    xs: np.ndarray
    bias: np.ndarray
    scaled_variance: np.ndarray
    local_bound: np.ndarray
    scaled_risk: float
    bound: float
    ratio: float
    replications: int
    horizon_T: float
    dt: float
    estimator_tag: str
    path_seeds: list[int]
    aborted: int = 0

    def __post_init__(self) -> None:
        if not self.scaled_risk >= 0.0:
            raise ValueError("scaled risk must be >= 0")
        if not self.bound > 0.0:
            raise ValueError("bound must be > 0")
        n = len(self.xs)
        if not (len(self.bias) == len(self.scaled_variance) == len(self.local_bound) == n):
            raise ValueError("report arrays must share the grid length")

    def to_dict(self, config: dict | None = None) -> dict:
        return {
            "xs": [float(v) for v in self.xs],
            "bias": [float(v) for v in self.bias],
            "scaled_variance": [float(v) for v in self.scaled_variance],
            "local_bound": [float(v) for v in self.local_bound],
            "scaled_risk": self.scaled_risk,
            "bound": self.bound,
            "ratio": self.ratio,
            "aborted": self.aborted,
            "config": dict(config or {}),
        }


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Half of each step of ``grid`` to each of its two ends. On a table's
    F these are its node masses: half of each panel's probability to each
    of its nodes, so sum(mass * g) is E[g(xi)] on the nodes."""
    return np.convolve(np.diff(grid), [0.5, 0.5])


def _nu_quad_weights(nu: NuMeasure, grid: np.ndarray) -> np.ndarray:
    """Weights making sum(w * e(grid)^2) the nu-integral of e^2 on the grid."""
    if nu.kind == "point_masses":
        w = np.zeros_like(grid)
        for x, wt in nu.atoms:
            idx = int(np.searchsorted(grid, x))
            if idx >= len(grid) or grid[idx] != x:
                raise ConfigError([f"evaluation grid is missing nu atom at x={x!r}"])
            w[idx] += wt
        return w
    return _trapezoid_weights(grid) * np.asarray(nu.density(grid), dtype=float)


@dataclass(frozen=True)
class _RiskContext:
    model: DiffusionModel
    choices: tuple[EstimatorChoice, ...]
    sim: SimConfig
    eval_xs: np.ndarray
    truth: np.ndarray


def _block_errors(ctx: _RiskContext, reps: range) -> list[list[np.ndarray] | None]:
    """Simulate replications ``reps`` as one block; per replication, each
    estimator's error curve, or None where the path exploded.

    The paths stream through one :class:`CurveAccumulator` and are not
    stored.
    """
    seeds = [derive_substream_seed(ctx.sim.seed, r) for r in reps]
    acc = CurveAccumulator(ctx.eval_xs, ctx.choices, ctx.model, len(seeds),
                           ctx.sim.n_steps, ctx.sim.dt)
    exploded = stream_block(ctx.model, ctx.sim, seeds, acc.add)
    curves = acc.curves(exploded >= 0)
    return [None if exploded[j] >= 0 else [v[j] - ctx.truth for v in curves]
            for j in range(len(seeds))]


def grid_hull_violations(nu: NuMeasure, lo: float, hi: float) -> list[str]:
    """[violation] if the grid hull [lo, hi] misses 1e-6 of nu's mass or more, else []."""
    outside = nu.mass_outside(lo, hi)
    if outside < 1e-6 * nu.total_mass:
        return []
    return [f"grid hull [{lo!r}, {hi!r}] misses nu mass {outside!r} "
            "(must be < 1e-6 of the total)"]


def empirical_risk(
    model: DiffusionModel,
    estimator,
    nu: NuMeasure,
    sim: SimConfig,
    replications: int,
    xs,
    workers: int = 1,
) -> RiskReport | list[RiskReport]:
    """Monte Carlo integrated risk of estimators against the bound.

    ``estimator`` is one estimator (a spec such as "edf", a weight
    function or an :class:`EstimatorChoice`), or a list of them, which
    gives a list of reports in the same order. Simulates ``replications``
    stationary paths with deterministic substream seeds, each once, as
    one block of ceil(replications / workers) paths per worker stepped as
    one vector. Every estimator curve on the fixed grid (shared paths and
    evaluation points reduce comparison variance) is read off per-cell
    sums streamed from the block, which stores no path. Reports per-x
    bias, the variance of sqrt(T)-scaled errors, the scaled integrated
    risk rho = T * mean over reps of the nu-integral of squared error, and
    the ratio to the quadrature bound. With ``workers > 1`` each block
    runs in a forked child (see :func:`_run_blocks`). A path's curves do
    not depend on the other paths of its block, and reductions run in
    replication order with compensated summation, so results do not depend
    on how replications are split into blocks or on worker scheduling.

    Replications whose path explodes are dropped; more than 1% of them
    aborting fails the run.
    """
    xs = np.asarray(xs, dtype=float)
    violations = []
    if replications < 2:
        violations.append(f"replications must be >= 2, got {replications}")
    if xs.size < 2:
        violations.append("grid needs at least 2 points")
    elif not np.all(np.diff(xs) > 0.0):
        violations.append("grid must be sorted strictly increasing")
    if xs.size >= 2:
        violations += grid_hull_violations(nu, float(xs[0]), float(xs[-1]))
    if violations:
        raise ConfigError(violations)

    single = not isinstance(estimator, (list, tuple))
    choices = tuple(as_estimator(e) for e in ([estimator] if single else estimator))
    eval_xs = xs
    if nu.kind == "point_masses":
        eval_xs = np.unique(np.concatenate([xs, [x for x, _ in nu.atoms]]))
    truth = _cdf_pair(model, eval_xs)[0]
    weights = _nu_quad_weights(nu, eval_xs)
    sim_r = replace(sim, init="stationary", store_wiener=False)
    ctx = _RiskContext(model=model, choices=choices, sim=sim_r, eval_xs=eval_xs, truth=truth)

    size = -(-replications // max(1, workers))
    blocks = [range(a, min(a + size, replications)) for a in range(0, replications, size)]
    errors = [e for b in _run_blocks(ctx, blocks, workers) for e in b]

    kept = [e for e in errors if e is not None]
    aborted = replications - len(kept)
    if aborted > 0.01 * replications:
        raise RiskRunError(
            f"{aborted}/{replications} replications aborted (explosions); run failed"
        )
    if len(kept) < 2:
        raise RiskRunError("fewer than 2 replications completed")

    T = sim.effective_T
    keep_idx = np.searchsorted(eval_xs, xs)
    local_bound = local_variance(model, xs)
    bound = efficiency_bound(model, nu)
    seeds = [derive_substream_seed(sim.seed, r) for r in range(replications)]
    reports = []
    for i, choice in enumerate(choices):
        E = np.vstack([e[i] for e in kept])  # (reps, grid)
        R = E.shape[0]
        n_eval = E.shape[1]
        bias_eval = np.array([compensated_sum(E[:, j]) / R for j in range(n_eval)])
        var_eval = np.array([
            compensated_sum((E[:, j] - bias_eval[j]) ** 2) / (R - 1) for j in range(n_eval)
        ])
        risk_each = [compensated_sum(weights * E[r] * E[r]) for r in range(R)]
        scaled_risk = T * compensated_sum(risk_each) / R
        reports.append(RiskReport(
            xs=xs,
            bias=bias_eval[keep_idx],
            scaled_variance=T * var_eval[keep_idx],
            local_bound=local_bound,
            scaled_risk=scaled_risk,
            bound=bound,
            ratio=scaled_risk / bound,
            replications=R,
            horizon_T=T,
            dt=sim.dt,
            estimator_tag=choice.tag,
            path_seeds=list(seeds),
            aborted=aborted,
        ))
    return reports[0] if single else reports


def _run_blocks(ctx: _RiskContext, blocks: list[range], workers: int) -> list:
    """Each block's :func:`_block_errors`, in block order.

    With ``workers > 1`` and more than one block, each block runs in a
    forked child that inherits ``ctx`` and pickles ``(ok, value)`` (the
    block's curves, or the exception it raised) into a pipe; the parent
    only reads and waits. The first exception in block order is raised
    again in the parent, and a child that ends without a result raises
    :class:`WorkerError`. Every child is waited for, and killed first if
    the parent stops early. Otherwise the blocks run here, one by one.
    """
    if workers < 2 or len(blocks) < 2 or not hasattr(os, "fork"):
        return [_block_errors(ctx, b) for b in blocks]
    pids: list[int] = []
    fds: list[int] = []
    payloads: list[bytes] = []
    try:
        for reps in blocks:
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _block_child(ctx, reps, w)
                pids.append(pid)
            finally:
                os.close(w)
        for r in fds:
            with open(r, "rb", closefd=False) as f:
                payloads.append(f.read())
    finally:
        for r in fds:
            os.close(r)
        if len(payloads) < len(pids):  # stopped early: do not wait out a busy child
            import signal  # only here: its import builds enums a run does not need

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    results = []
    for reps, status, payload in zip(blocks, statuses, payloads):
        if status != 0:
            raise WorkerError(
                f"the worker for replications {reps.start}..{reps.stop - 1} ended without "
                f"a result (wait status {status}, exit code "
                f"{os.waitstatus_to_exitcode(status)})"
            )
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results.append(value)
    return results


def _block_child(ctx: _RiskContext, reps: range, w: int) -> None:
    """The body of a forked block worker: write the pickled ``(ok, value)``
    of block ``reps`` to fd ``w`` and exit 0, or exit 1 without a result.
    It never returns into the caller's stack and never flushes the stdio
    buffers it inherited."""
    code = 1
    try:
        try:
            result = (True, _block_errors(ctx, reps))
        except Exception as exc:
            result = (False, exc)
        with open(w, "wb", closefd=False) as f:
            f.write(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)
