"""Independent oracles used to freeze expected values.

Everything here is deliberately computed by a different route than the
package under test: power series, exact rational arithmetic, dense
trapezoid rules on closed-form densities, and scipy's own distribution
functions. Values asserted in the tests were produced by these oracles.
The last four are the exception, test-only helpers built on the package:
``occupation_mean`` and ``martingale_weight``, quantities it never
computes; ``edf``, the EDF at one threshold straight from its definition;
and ``stored_block``, which keeps the rows that ``stream_block`` hands
over.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ergodist.errors import EvaluationError
from ergodist.estimators import kernel
from ergodist.numerics import on_array
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
    """Sum in exact rational arithmetic, rounded once at the end."""
    return float(sum(Fraction(float(v)) for v in xs))


def _ou_influence_grid(x: float, ys: np.ndarray) -> np.ndarray:
    """infl(x, y) on a grid in the cancellation-free product form, using
    scipy's normal distribution (independent of the package under test)."""
    from scipy.stats import norm

    root2 = math.sqrt(2.0)
    F = norm.cdf(ys * root2)
    S = norm.sf(ys * root2)
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
    """Dense double trapezoid for the OU bound with standard gaussian weight."""
    from scipy.stats import norm

    ys = np.linspace(-8.0, 8.0, n_y)
    f = np.exp(-ys * ys) / math.sqrt(math.pi)
    xs = np.linspace(-8.0, 8.0, n_x)
    R = np.empty_like(xs)
    for i, x in enumerate(xs):
        infl = _ou_influence_grid(float(x), ys)
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
    return 2.0 * float(wf.h(y)) * kernel(wf, model, x, y) * float(model.diffusion(y))


def edf(path, x: float) -> float:
    """Fraction of left grid points strictly below x; always in [0, 1]."""
    left = path.values[:-1]
    return float(np.count_nonzero(left < x)) / len(left)


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
