"""Independent oracles used to freeze expected values.

Everything here is deliberately computed by a different route than the
package under test: power series, exact rational arithmetic, dense
trapezoid rules on closed-form densities, and scipy's own distribution
functions. Values asserted in the tests were produced by these oracles.
The last nine are the exception, test-only helpers built on the package:
``occupation_mean`` and ``martingale_weight``, quantities it never
computes; ``edf``, the EDF at one threshold straight from its definition;
``step_float_per_step``, the float kernel as one checked step at a time;
``stored_block``, which keeps the rows that ``stream_block`` hands over;
``influence_moment_direct`` and ``weight_moment_direct``, the moment
screens by a full pass over the table's nodes at each outer point;
``weight_primitive_quadrature``, the weight primitive by adaptive
quadrature of its integrand; and ``fsum_representation_residual``, the
representation residual with its martingale sum taken by ``math.fsum``
over Python floats.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ergodist.efficiency import (_SCREEN_OUTER, _influence_ratio_vec, _influence_table,
                                 _running, _trapezoid_weights, boundary_function,
                                 kinked_integral)
from ergodist.errors import DivergenceError, EvaluationError
from ergodist.estimators import kernel, primitive, unbiased_estimate
from ergodist.model import _cdf_table, invariant_cdf
from ergodist.numerics import (DEFAULT_QUADRATURE, compensated_sum, integrate, integrate_line,
                               on_array)
from ergodist.simulate import stream_block


def erf_series(x: float) -> float:
    """erf via its alternating Maclaurin series with term recursion.

    Accurate to ~1e-12 for |x| <= 5, which covers every probe used here.
    """
    if x < 0.0:
        return -erf_series(-x)
    if x > 5.9:
        return 1.0
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18 * (1.0 + abs(total)) and n < 200:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf(z: float) -> float:
    """Standard normal CDF from the series erf; oracle for gaussian laws."""
    return 0.5 * (1.0 + erf_series(z / math.sqrt(2.0)))


def ou_invariant_cdf(x: float) -> float:
    """Invariant CDF of dX = -X dt + dW: a centered gaussian with variance 1/2."""
    return normal_cdf(x * math.sqrt(2.0))


def ou_invariant_density(x: float) -> float:
    return math.exp(-x * x) / math.sqrt(math.pi)


def growing_exponential_integral(x: float) -> float:
    """int_0^x exp(t^2) dt via the series sum x^(2n+1) / (n! (2n+1))."""
    total = 0.0
    term = x
    n = 0
    while abs(term / (2 * n + 1)) > 1e-17 * (1.0 + abs(total)) and n < 300:
        total += term / (2 * n + 1)
        n += 1
        term *= x * x / n
    return total


def exact_fraction_sum(xs) -> float:
    """Sum in exact rational arithmetic, rounded once at the end; each
    distinct value is added once, times its count (the same rational)."""
    counts = Counter(float(v) for v in xs)
    return float(sum(Fraction(v) * c for v, c in counts.items()))


def _ou_law_grid(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and 1 - F of OU(1, 1)'s invariant law N(0, 1/2) on a grid, from
    scipy's normal distribution."""
    from scipy.stats import norm

    root2 = math.sqrt(2.0)
    return norm.cdf(ys * root2), norm.sf(ys * root2)


def _ou_influence_grid(x: float, ys: np.ndarray, law=None) -> np.ndarray:
    """infl(x, y) on a grid in the cancellation-free product form, using
    scipy's normal distribution (independent of the package under test);
    ``law`` is :func:`_ou_law_grid` of ys where already formed."""
    from scipy.stats import norm

    root2 = math.sqrt(2.0)
    F, S = _ou_law_grid(ys) if law is None else law
    Fx = float(norm.cdf(x * root2))
    Sx = float(norm.sf(x * root2))
    return np.where(ys <= x, F * Sx, Fx * S)


def trapezoid_local_variance(x: float, lo: float = -8.0, hi: float = 8.0,
                             n: int = 1_000_001) -> float:
    """Dense trapezoid rule for the OU local variance R(x, x)."""
    ys = np.linspace(lo, hi, n)
    f = np.exp(-ys * ys) / math.sqrt(math.pi)
    infl = _ou_influence_grid(x, ys)
    return float(np.trapezoid(4.0 * infl * infl / f, ys))


def trapezoid_ou_bound_gaussian_nu(n_x: int = 1601, n_y: int = 200_001) -> float:
    """Dense double trapezoid for the OU bound with standard gaussian weight;
    the law on the inner grid is formed once for every x."""
    from scipy.stats import norm

    ys = np.linspace(-8.0, 8.0, n_y)
    f = np.exp(-ys * ys) / math.sqrt(math.pi)
    law = _ou_law_grid(ys)
    xs = np.linspace(-8.0, 8.0, n_x)
    R = np.empty_like(xs)
    for i, x in enumerate(xs):
        infl = _ou_influence_grid(float(x), ys, law)
        R[i] = np.trapezoid(4.0 * infl * infl / f, ys)
    return float(np.trapezoid(R * norm.pdf(xs), xs))


def trapezoid_influence_primitive(x: float, y: float, n: int = 2_000_001) -> float:
    """Dense trapezoid for 2 * int_0^y infl(x,v)/f(v) dv on the OU model."""
    from scipy.stats import norm

    lo, hi = (0.0, y) if y >= 0.0 else (y, 0.0)
    vs = np.linspace(lo, hi, n)
    F = norm.cdf(vs * math.sqrt(2.0))
    Fbar = norm.sf(vs * math.sqrt(2.0))
    f = np.exp(-vs * vs) / math.sqrt(math.pi)
    Fx = norm.cdf(x * math.sqrt(2.0))
    Sx = norm.sf(x * math.sqrt(2.0))
    # product form: F(min) - F(x) F(v) cancels in the right tail
    infl = np.where(vs <= x, F * Sx, Fx * Fbar)
    val = float(np.trapezoid(2.0 * infl / f, vs))
    return val if y >= 0.0 else -val


def gaussian_log_law(sd: float):
    """(log F, log(1 - F), log f) of the centered gaussian with sd ``sd``,
    from scipy's normal distribution: the invariant law of OU(theta, s)
    with sd = s / sqrt(2 theta)."""
    from scipy.stats import norm

    return lambda y: (norm.logcdf(y, scale=sd), norm.logsf(y, scale=sd),
                      norm.logpdf(y, scale=sd))


def quartic_log_law(y: np.ndarray):
    """(log F, log(1 - F), log f) of the quartic well's invariant law, with
    density exp(-y^4/2) / G and G = 2^(-3/4) Gamma(1/4).

    int_|y|^inf exp(-t^4/2) dt = 2^(-7/4) Gamma(1/4, y^4/2), so the tail
    beyond |y| holds Q(1/4, y^4/2) / 2, with Q the regularized upper
    incomplete gamma function of scipy.special."""
    from scipy.special import gammaincc

    tail = 0.5 * gammaincc(0.25, 0.5 * y ** 4)
    small, large = np.log(tail), np.log1p(-tail)
    right = y >= 0.0
    logf = -0.5 * y ** 4 - math.log(2.0 ** -0.75 * math.gamma(0.25))
    return np.where(right, large, small), np.where(right, small, large), logf


def trapezoid_local_variance_grid(log_law, sigma2: float, halfwidth: float,
                                  n: int = 400_001) -> tuple[np.ndarray, np.ndarray]:
    """(ys, R(y, y)) on n uniform nodes of [-halfwidth, halfwidth] for a law
    with constant diffusion sigma2, given by ``log_law`` (as above):

        R(y, y) = 4 [(1 - F(y))^2 int_{-hw}^y F^2/(sigma2 f)
                     + F(y)^2 int_y^{hw} (1 - F)^2/(sigma2 f)]

    Each one-sided integral is a cumulative trapezoid sum from its own
    tail, and its integrand is formed from logs, so nothing cancels or
    overflows."""
    ys = np.linspace(-halfwidth, halfwidth, n)
    logF, logS, logf = log_law(ys)
    left = np.exp(2.0 * logF - logf) / sigma2
    right = np.exp(2.0 * logS - logf) / sigma2
    half = 0.5 * (ys[1] - ys[0])
    below = np.concatenate([[0.0], np.cumsum(half * (left[1:] + left[:-1]))])
    above = np.concatenate([np.cumsum((half * (right[1:] + right[:-1]))[::-1])[::-1], [0.0]])
    F, S = np.exp(logF), np.exp(logS)
    return ys, 4.0 * (S * S * below + F * F * above)


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between a sample and a CDF."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = len(s)
    F = np.array([cdf(v) for v in s])
    d_plus = np.max(np.arange(1, n + 1) / n - F)
    d_minus = np.max(F - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided KS critical value."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0) / n)


def brownian_bridge_refine(dw: np.ndarray, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Split each Wiener increment into two conditionally-correct halves.

    Given W(t+dt) - W(t) = dw, the midpoint increment is gaussian with mean
    dw/2 and variance dt/4, so the two halves are dw/2 +/- a fresh
    N(0, dt/4) draw. The refined array realizes the same Brownian path.
    """
    half = 0.5 * dw + rng.normal(0.0, math.sqrt(0.25 * dt), size=len(dw))
    out = np.empty(2 * len(dw))
    out[0::2] = half
    out[1::2] = dw - half
    return out


def occupation_mean(path, g) -> float:
    """Left-endpoint Riemann approximation (1/n) * sum_i g(X_{t_i}), i < n."""
    left = path.values[:-1]
    vals = on_array(g, left)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmin(np.isfinite(vals)))
        raise EvaluationError(float(left[bad]), f"g returned {vals[bad]!r} at x={left[bad]!r}")
    return float(np.mean(vals))


def martingale_weight(wf, model, x: float, y: float) -> float:
    """Coefficient of dW in the raw error representation:
    2 * 1{y<x} h(y) K_x(y) sigma(y)."""
    if y >= x:
        return 0.0
    return 2.0 * float(wf.h_pair(y)[0]) * kernel(wf, model, x, y) * float(model.diffusion(y))


def edf(path, x: float) -> float:
    """Fraction of left grid points strictly below x; always in [0, 1]."""
    left = path.values[:-1]
    return float(np.count_nonzero(left < x)) / len(left)


def step_float_per_step(model, dt: float, states: np.ndarray, incs: np.ndarray) -> None:
    """The float kernel stepped one Python float at a time, each drift and
    sigma value converted by float(), up to the first non-finite state,
    an OverflowError a step to inf: a drop-in for ``simulate._step_float``
    and the reference for its chunk comprehension."""
    drift = model.drift
    sigma = None if model.sigma_const is not None else model.diffusion
    x = float(states[0, 0])
    rows = []
    for inc in incs[:, 0].tolist():
        try:
            x = x + float(drift(x)) * dt + (inc if sigma is None else float(sigma(x)) * inc)
        except OverflowError:
            x = math.inf
        rows.append(x)
        if not math.isfinite(x):
            break
    states[1:len(rows) + 1, 0] = rows


class StoredBlock(NamedTuple):
    values: np.ndarray
    wiener_increments: np.ndarray
    exploded: np.ndarray


def stored_block(model, cfg, seeds) -> StoredBlock:
    """The states and increments ``stream_block`` hands over, as rows: row
    j is the path of seeds[j], NaN where it was not handed over, and
    ``exploded`` is what ``stream_block`` returns."""
    values = np.full((len(seeds), cfg.n_steps + 1), np.nan)
    wiener = np.full((len(seeds), cfg.n_steps), np.nan)

    def record(cols, start, states, dw):
        values[cols, start:start + len(states)] = states.T
        wiener[cols, start:start + len(dw)] = dw.T

    exploded = stream_block(model, cfg, seeds, record)
    return StoredBlock(values, wiener, exploded)


def influence_moment_direct(model, nu) -> tuple[bool, float]:
    """The influence-moment screen with the influence primitive formed at
    every table node for each outer point x, one float call per x."""
    table = _influence_table(model)
    ys, mass = table.nodes, _trapezoid_weights(_cdf_table(model).values[0])
    C1, C2 = table.values[1], table.values[3]

    def inner(x: float) -> float:
        F, Fbar, run = _running(model, [x, min(0.0, x), max(0.0, x)])
        c1 = np.where(ys <= x, C1, run[1, 0]) - run[1, 1]
        c2 = run[3, 2] - np.where(ys > x, C2, run[3, 0])
        g = 2.0 * (Fbar[0] * c1 + F[0] * c2)
        return float((mass * g * g).sum())

    return _direct_outer(inner, nu)


def weight_moment_direct(wf, model, nu) -> tuple[bool, float]:
    """The weight-moment screen with the weight primitive formed at every
    table node for each outer point x, one float call per x, straight from
    its integrand 2 (P(x) - P(v)) h(v) 1{v < x}: Simpson on each panel
    between nodes, the panels that hold x and 0 split at that point."""
    table = _cdf_table(model)
    ys, step, mass = table.nodes, table.step, _trapezoid_weights(table.values[0])
    P = primitive(wf, model, table.lo, table.hi)
    mids = ys[:-1] + 0.5 * step
    Pys, Pmids = P(ys), P(mids)
    h = lambda u: wf.h_pair(u)[0]
    hys, hmids = on_array(h, ys), on_array(h, mids)

    def inner(x: float) -> float:
        if x <= table.lo:
            return 0.0  # every node is at or above x, and so is 0
        px = float(P(x)) if x <= table.hi else kernel(wf, model, x, 0.0)

        def part(a: float, b: float) -> float:  # Simpson on [a, b], below x
            f = lambda v: 2.0 * (px - float(P(v))) * float(h(v))
            return (b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b))

        def running(t: float) -> float:  # the integral from lo to min(t, x)
            t = min(t, x)
            k = min(int(np.searchsorted(ys, t, "right")) - 1, ys.size - 2)
            return cum[k] + part(float(ys[k]), t)

        below = ys <= x
        fy = 2.0 * (px - Pys) * hys
        fm = 2.0 * (px - Pmids) * hmids
        panels = np.where(below[1:], step / 6.0 * (fy[:-1] + 4.0 * fm + fy[1:]), 0.0)
        cum = np.concatenate([[0.0], np.cumsum(panels)])
        g = np.where(below, cum, running(x) if x < table.hi else 0.0) - running(0.0)
        return float((mass * g * g).sum())

    return _direct_outer(inner, nu)


def weight_primitive_quadrature(wf, model, x: float, y: float) -> float:
    """2 * int_0^y 1{v<x} K_x(v) h(v) dv (signed) by adaptive quadrature,
    one float kernel call per point, split at x."""

    def integrand(v: float) -> float:
        if v >= x:
            return 0.0
        return 2.0 * kernel(wf, model, x, v) * float(wf.h_pair(v)[0])

    return kinked_integral(integrand, 0.0, y, x, DEFAULT_QUADRATURE)


def _direct_outer(inner, nu) -> tuple[bool, float]:
    try:
        if nu.kind == "point_masses":
            value = compensated_sum(w * inner(x) for x, w in nu.atoms)
        elif nu.kind == "uniform":
            dens = nu.mass / (nu.b - nu.a)
            value = dens * integrate(inner, nu.a, nu.b, _SCREEN_OUTER).value
        else:
            value = integrate_line(lambda x: inner(x) * float(nu.density(x)),
                                   _SCREEN_OUTER).value
    except DivergenceError:
        return False, math.nan
    return math.isfinite(value), value


def fsum_representation_residual(path, wf, model, x: float) -> float:
    """``representation_discrepancy`` from the same terms, its martingale
    sum taken by ``math.fsum`` over the whole path as Python floats."""
    T = path.horizon_T
    lhs = math.sqrt(T) * (unbiased_estimate(path, wf, model, x) - invariant_cdf(model, x))
    boundary = (boundary_function(wf, model, x, float(path.values[-1]))
                - boundary_function(wf, model, x, float(path.values[0])))
    terms = _influence_ratio_vec(model, x, path.values[:-1]) * path.wiener_increments
    mart = math.fsum(terms.tolist())
    return abs(lhs - (boundary / math.sqrt(T) + mart / math.sqrt(T)))
