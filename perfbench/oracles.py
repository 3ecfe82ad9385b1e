"""Reference values computed apart from the ergodist package.

Nothing here imports ergodist. The invariant laws come from closed forms
(scipy.stats for the gaussian laws, the regularized incomplete gamma
function for the quartic well), the local variance

    R(x, x) = 4 * [Fbar(x)^2 * int_{-inf}^x F^2/(sigma^2 f)
                   + F(x)^2 * int_x^inf Fbar^2/(sigma^2 f)]

from cumulative trapezoid sums on a dense grid, and single kernels from
scipy.integrate.quad.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, special, stats


@dataclass(frozen=True)
class Law:
    """An invariant law with a constant diffusion coefficient.

    ``log_tails(x)`` returns (log F(x), log(1 - F(x))) and ``logpdf`` the
    log density, vectorized and accurate deep in both tails; ``halfwidth``
    bounds the dense grids (beyond it the mass is far below every
    tolerance used by the checks).
    """

    sigma2: float
    log_tails: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    logpdf: Callable[[np.ndarray], np.ndarray]
    halfwidth: float

    def cdf(self, x):
        return np.exp(self.log_tails(np.asarray(x, dtype=float))[0])

    def sf(self, x):
        return np.exp(self.log_tails(np.asarray(x, dtype=float))[1])

    def pdf(self, x):
        return np.exp(self.logpdf(np.asarray(x, dtype=float)))


def ou_law(theta: float, s: float) -> Law:
    """dX = -theta X dt + s dW: centered gaussian with variance s^2 / (2 theta)."""
    sd = s / math.sqrt(2.0 * theta)
    return Law(
        sigma2=s * s,
        log_tails=lambda x: (stats.norm.logcdf(x, scale=sd), stats.norm.logsf(x, scale=sd)),
        logpdf=lambda x: stats.norm.logpdf(x, scale=sd),
        halfwidth=12.0 * sd,
    )


QUARTIC_G = 2.0 ** -0.75 * math.gamma(0.25)


def _quartic_log_tails(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # int_|x|^inf exp(-t^4/2) dt = 2^(-7/4) * Gamma(1/4, x^4/2), so the
    # smaller tail is Q(1/4, x^4/2) / 2 with Q the regularized upper gamma
    x = np.asarray(x, dtype=float)
    half_q = 0.5 * special.gammaincc(0.25, 0.5 * x ** 4)
    with np.errstate(divide="ignore"):
        small, large = np.log(half_q), np.log1p(-half_q)
    right = x >= 0.0
    return np.where(right, large, small), np.where(right, small, large)


def quartic_law() -> Law:
    """dX = -X^3 dt + dW: density exp(-x^4/2) / G with G = 2^(-3/4) Gamma(1/4)."""
    return Law(
        sigma2=1.0,
        log_tails=_quartic_log_tails,
        logpdf=lambda x: -0.5 * np.asarray(x, dtype=float) ** 4 - math.log(QUARTIC_G),
        halfwidth=4.0,
    )


_DENSE_NODES = 400_001


@dataclass(frozen=True)
class _Cumulative:
    """The two one-sided integrals of R(x, x) at every node of a dense grid."""

    ys: np.ndarray
    left: np.ndarray   # F^2 / (sigma^2 f)
    right: np.ndarray  # Fbar^2 / (sigma^2 f)
    below: np.ndarray  # int_{-L}^{y} left
    above: np.ndarray  # int_{y}^{L} right


def _integrands(law: Law, ys: np.ndarray):
    logF, logFbar = law.log_tails(ys)
    logf = law.logpdf(ys)
    with np.errstate(under="ignore", over="ignore"):
        left = np.exp(2.0 * logF - logf) / law.sigma2
        right = np.exp(2.0 * logFbar - logf) / law.sigma2
    return np.exp(logF), np.exp(logFbar), left, right


@functools.lru_cache(maxsize=4)
def _cumulative(law: Law) -> _Cumulative:
    ys = np.linspace(-law.halfwidth, law.halfwidth, _DENSE_NODES)
    _, _, left, right = _integrands(law, ys)
    # Each side accumulates from its own tail, where the integrand is tiny;
    # a difference of whole-line totals would cancel catastrophically.
    below = integrate.cumulative_trapezoid(left, ys, initial=0.0)
    above = -integrate.cumulative_trapezoid(right[::-1], ys[::-1], initial=0.0)[::-1]
    return _Cumulative(ys, left, right, below, above)


def local_variance(law: Law, xs) -> np.ndarray:
    """R(x, x) at each x in [-halfwidth, halfwidth] by the trapezoid rule on
    a dense grid with x added as a node, so no interpolation enters."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and float(np.max(np.abs(xs))) > law.halfwidth:
        raise ValueError(f"local_variance needs |x| <= {law.halfwidth}")
    c = _cumulative(law)
    k = np.clip(np.searchsorted(c.ys, xs, side="right") - 1, 0, len(c.ys) - 2)
    F, Fbar, left, right = _integrands(law, xs)
    below = c.below[k] + 0.5 * (xs - c.ys[k]) * (c.left[k] + left)
    above = c.above[k + 1] + 0.5 * (c.ys[k + 1] - xs) * (right + c.right[k + 1])
    return 4.0 * (Fbar * Fbar * below + F * F * above)


def bound_gaussian(law: Law, mean: float, sd: float, nodes: int = 4001) -> float:
    """int R(x, x) dN(mean, sd^2)(x) by trapezoid over mean +/- 10 sd, cut
    to the law's halfwidth, beyond which R is negligible."""
    xs = np.linspace(max(mean - 10.0 * sd, -law.halfwidth),
                     min(mean + 10.0 * sd, law.halfwidth), nodes)
    R = local_variance(law, xs)
    return float(np.trapezoid(R * stats.norm.pdf(xs, loc=mean, scale=sd), xs))


def bound_uniform(law: Law, a: float, b: float, nodes: int = 4001) -> float:
    """int R(x, x) dx / (b - a) over [a, b] by trapezoid."""
    xs = np.linspace(a, b, nodes)
    return float(np.trapezoid(local_variance(law, xs), xs)) / (b - a)


def bound_points(law: Law, atoms) -> float:
    xs = np.array([x for x, _ in atoms])
    ws = np.array([w for _, w in atoms])
    return float(np.dot(ws, local_variance(law, xs)))


def poly_kernel(p: int, sigma2: float, x: float, y: float) -> float:
    """K_x(y) = int_y^x dv / (sigma^2 (1 + v^(2p))) by scipy quad."""
    if x == y:
        return 0.0
    a, b = min(x, y), max(x, y)
    val, _ = integrate.quad(lambda v: 1.0 / (sigma2 * (1.0 + v ** (2 * p))), a, b,
                            epsabs=1e-13, epsrel=1e-12, limit=200,
                            points=[0.0] if a < 0.0 < b else None)
    return val if x >= y else -val


def close(value: float, reference: float, rtol: float, atol: float = 0.0) -> bool:
    return bool(math.isfinite(value) and abs(value - reference) <= atol + rtol * abs(reference))
