"""Deterministic numerical kernels shared by every other module.

Adaptive Gauss-Kronrod quadrature (panels, finite and whole-line),
monotone function inversion, and exactly rounded summation. All routines
are pure functions of their inputs and safe to call concurrently.

Quadrature is one vectorized G7/K15 panel integrator in the style of
QUADPACK (Piessens et al., 1983). Each round evaluates every active
subinterval of every panel on its 15 Kronrod nodes in one integrand call
(panels are taken ``_CHUNK_INTERVALS`` subintervals at a time). With
|K15 - G7| as a subinterval's error estimate, a subinterval is accepted
when that is within its share of its panel's width times the panel's
tolerance ``max(abs_tol, rel_tol * |estimate|)``; the others are bisected.
:func:`integrate` is the one finite-interval front end (signed, split at
a kink), and :func:`_doubling` the one whole-line tail search, behind
:func:`integrate_line` and the model's support.

An integrand is read on a 1-D array of abscissae by :func:`on_array`, the
one array-call contract of the package: an array of the same shape or a
scalar (broadcast), with float calls one at a time when the array call
fails, so integrands written with ``math`` functions or ``if`` still work.
An OverflowError there, or any non-finite value, raises EvaluationError
with the abscissa.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import BracketError, DivergenceError, EvaluationError

Func = Callable[[float], float]

# Halfwidth of the core of a whole-line search, and the most shells
# [L, 2L] it takes on one side before it declares divergence.
_LINE_HALFWIDTH = 8.0
_LINE_SHELLS = 21


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the quadrature routines.

    Defaults are tight enough that quadrature "truth" values dominate Monte
    Carlo noise by several orders of magnitude. ``tail_tol`` bounds each
    side's last shell of a whole-line integral; tails of about x^-2 or
    heavier need a looser one to stop within the shells allowed.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 40
    tail_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be > 0")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be > 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (self.tail_tol > 0.0):
            raise ValueError("tail_tol must be > 0")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    converged: bool


DEFAULT_QUADRATURE = QuadratureSpec()


# Gauss-Kronrod 7/15 rule on [-1, 1] (Piessens et al., 1983, QUADPACK qk15):
# nodes from the edge in, Kronrod weights, Gauss weights of the odd nodes.
_XK = [0.99145537112081264, 0.94910791234275852, 0.86486442335976907, 0.74153118559939444,
       0.58608723546769113, 0.40584515137739717, 0.20778495500789847, 0.0]
_WK = [0.022935322010529225, 0.063092092629978553, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782]
_WG = [0.0, 0.12948496616886969, 0.0, 0.27970539148927667,
       0.0, 0.38183005050511894, 0.0, 0.41795918367346939]
_GK_NODES = np.array([-x for x in _XK[:-1]] + _XK[::-1])
_GK_WEIGHTS = np.array(_WK + _WK[-2::-1])
_GK_DIFF = _GK_WEIGHTS - np.array(_WG + _WG[-2::-1])

# Subintervals integrated together: panels are taken this many at a time,
# which bounds every per-round array (a node array is 60 KiB) however many
# panels a table has.
_CHUNK_INTERVALS = 512
# Equal subintervals a single integral starts from, so narrow features
# cannot slip between the nodes of one wide interval.
_FIRST_SPLIT = 4
# Subintervals one panel may hold. An integrand noisy at the tolerance
# would otherwise be bisected everywhere each round, doubling its points
# up to max_depth; a panel stops, not converged, before passing the cap.
_PANEL_CAP = 1 << 14
# Items of an array compensated_sum handles at a time, so no temporary of
# the array's size is built.
_SUM_SPAN = 32768
# Arrays of this many items or more are summed by error-free extraction
# (_extracted_sum) before fsum is tried: on a 2-core x86 VM the extraction
# (about 15 us fixed cost) matched fsum over Python floats near 400 items,
# and took 1.7 ms where fsum took 24 ms at 400 000.
_EXTRACT_MIN_ITEMS = 512
# The range of max|x| the extraction takes: within it both splitting
# constants and every split part stay normal and finite.
_EXTRACT_RANGE = (2.0**-900, 2.0**900)
_EPS = 2.0**-53


def on_array(f: Func, x) -> np.ndarray:
    """``f`` on the array ``x`` (any shape, 0-d included) as a float array
    of x's shape.

    One array call; a scalar result is broadcast as a read-only view. If
    that call raises TypeError, ValueError or OverflowError, or returns
    another shape, each element goes through a float call, so functions
    written with ``math`` functions or an ``if`` on x still work. An
    OverflowError in a float call raises EvaluationError with the abscissa.
    """
    x = np.asarray(x, dtype=float)
    try:
        y = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError, OverflowError):
        y = None
    if y is not None and y.shape != x.shape:
        y = np.broadcast_to(y, x.shape) if y.ndim == 0 else None
    if y is None:
        y = np.empty(x.shape)
        for i, t in enumerate(x.ravel().tolist()):
            try:
                y.flat[i] = f(t)
            except OverflowError as exc:
                raise EvaluationError(t, f"function overflowed at x={t!r}") from exc
    return y


def _evaluate(f: Func, x: np.ndarray) -> np.ndarray:
    """``f`` on the abscissae ``x`` by :func:`on_array`; EvaluationError at
    the first non-finite value."""
    y = on_array(f, x)
    bad = ~np.isfinite(y)
    if bad.any():
        i = int(np.argmax(bad))
        xi, yi = float(x[i]), float(y[i])
        raise EvaluationError(xi, f"integrand returned {yi!r} at x={xi!r}")
    return y


def integrate_panels(
    f: Func, edges, spec: QuadratureSpec = DEFAULT_QUADRATURE, split: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive G7/K15 integrals of ``f`` over the panels between ``edges``.

    Returns ``(values, errors, converged)``, one entry per panel. Each
    panel starts as ``split`` equal subintervals; each round calls ``f``
    once on the nodes of every active subinterval of up to
    ``_CHUNK_INTERVALS`` of them, accepts a subinterval by the per-panel
    tolerance (module docstring) and bisects the others, for at most
    ``spec.max_depth`` rounds. A panel has converged when its summed error
    estimate is within its tolerance; one whose bisection would take it
    past ``_PANEL_CAP`` subintervals stops there and has not converged.
    """
    edges = np.asarray(edges, dtype=float)
    if not np.isfinite(edges).all():
        raise EvaluationError(float(edges[~np.isfinite(edges)][0]), "non-finite integration limit")
    if (edges[1:] < edges[:-1]).any():
        raise ValueError(f"integration edges must be nondecreasing, got {edges!r}")
    n = edges.size - 1
    block = max(1, _CHUNK_INTERVALS // split)
    if n > block:
        values, errors, converged = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
        for s in range(0, n, block):
            values[s:s + block], errors[s:s + block], converged[s:s + block] = \
                integrate_panels(f, edges[s:s + block + 1], spec, split)
        return values, errors, converged
    width = edges[1:] - edges[:-1]
    cuts = edges[:-1, None] + width[:, None] * (np.arange(split + 1) / split)
    cuts[:, -1] = edges[1:]
    lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    owner = np.repeat(np.arange(n), split)
    values = np.zeros(n)
    errors = np.zeros(n)
    capped = np.zeros(n, dtype=bool)
    for depth in range(spec.max_depth + 1):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        x = mid[:, None] + half[:, None] * _GK_NODES
        y = _evaluate(f, x.ravel()).reshape(x.shape)
        k = (y * _GK_WEIGHTS).sum(axis=1) * half
        e = np.abs((y * _GK_DIFF).sum(axis=1) * half)
        tol = np.maximum(spec.abs_tol,
                         spec.rel_tol * np.abs(values + np.bincount(owner, k, minlength=n)))
        done = (e * width[owner] <= tol[owner] * (hi - lo)) | (mid <= lo) | (mid >= hi)
        if depth == spec.max_depth:
            done[:] = True
        else:
            # a panel whose bisection would pass the cap keeps what it has
            over = 2 * np.bincount(owner[~done], minlength=n) > _PANEL_CAP
            capped |= over
            done |= over[owner]
        values += np.bincount(owner[done], k[done], minlength=n)
        errors += np.bincount(owner[done], e[done], minlength=n)
        rest = ~done
        if not rest.any():
            break
        lo, hi, mid, owner = lo[rest], hi[rest], mid[rest], owner[rest]
        lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(owner, 2)
    converged = errors <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(values))
    return values, errors, converged & ~capped


def integrate(f: Func, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE,
              kink: float | None = None) -> QuadResult:
    """The signed integral of ``f`` from a to b (limits in either order):
    :func:`integrate_panels` on one panel, or on two split at ``kink`` when
    it lies strictly between the limits, each started from
    ``_FIRST_SPLIT`` subintervals. Swapping the limits negates the value
    exactly.

    Depth exhaustion yields ``converged=False`` rather than an error.
    """
    if a == b and math.isfinite(a):
        return QuadResult(0.0, 0.0, True)
    lo, hi = (a, b) if a <= b else (b, a)
    edges = [lo, kink, hi] if kink is not None and lo < kink < hi else [lo, hi]
    values, errors, conv = (r.tolist() for r in integrate_panels(f, edges, spec, _FIRST_SPLIT))
    value = sum(values)
    return QuadResult(value if a <= b else -value, sum(errors), all(conv))


def _doubling(f: Func, spec: QuadratureSpec, stop: Callable[[float, float], bool]
              ) -> tuple[QuadResult, list[QuadResult], list[QuadResult]]:
    """The whole-line tail search: ``f`` integrated on the core [-8, 8],
    then on each side's shells [L, 2L] outward, L = 8 * 2^k, left side
    first, each side ending with its first shell s for which
    ``stop(s, total)`` holds, total being the core and the shells before s
    that ended no side. Returns (core, left shells, right shells);
    DivergenceError after _LINE_SHELLS shells on one side."""
    core = integrate(f, -_LINE_HALFWIDTH, _LINE_HALFWIDTH, spec)
    total = core.value
    sides = []
    for side in (-1.0, 1.0):
        shells = []
        for k in range(_LINE_SHELLS):
            L = side * _LINE_HALFWIDTH * 2.0**k
            shells.append(integrate(f, min(L, 2.0 * L), max(L, 2.0 * L), spec))
            if stop(shells[-1].value, total):
                break
            total += shells[-1].value
        else:
            raise DivergenceError(f"tail shells did not fall off by |x| = {2.0 * abs(L)!r}; "
                                  "integral is divergence-suspected")
        sides.append(shells)
    return core, *sides


def integrate_line(f: Func, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> QuadResult:
    """Integral of ``f`` over the whole real line by :func:`_doubling`, each
    side stopping at its first shell of magnitude at most ``spec.tail_tol``:
    the core, the left shells and the right shells, summed in that order.
    """
    core, left, right = _doubling(f, spec, lambda shell, _: abs(shell) <= spec.tail_tol)
    parts = [core, *left, *right]
    # the error allows for the truncated mass beyond each side's last shell
    return QuadResult(sum(p.value for p in parts),
                      sum(p.error_estimate for p in parts) + 2.0 * spec.tail_tol,
                      all(p.converged for p in parts))


def invert_monotone(f: Func, target: float, lo: float, hi: float, tol: float) -> float:
    """Solve f(x) = target for nondecreasing ``f`` on [lo, hi].

    Bracketing bisection with secant acceleration; the bracket is never
    lost. Returns x with ``|f(x) - target| <= tol``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    if lo > hi:
        raise BracketError(f"empty bracket [{lo!r}, {hi!r}]")
    flo = float(f(lo))
    fhi = float(f(hi))
    if abs(flo - target) <= tol:
        return lo
    if abs(fhi - target) <= tol:
        return hi
    if target < flo or target > fhi:
        raise BracketError(f"target {target!r} outside [f(lo), f(hi)] = [{flo!r}, {fhi!r}]")
    a, b, fa, fb = lo, hi, flo, fhi
    use_secant = True
    for _ in range(400):
        x = 0.5 * (a + b)
        if use_secant and fb > fa:
            xs = a + (target - fa) * (b - a) / (fb - fa)
            # Keep the secant candidate strictly interior to preserve progress.
            if a < xs < b:
                x = xs
        fx = float(f(x))
        if abs(fx - target) <= tol:
            return x
        if fx < target:
            a, fa = x, fx
        else:
            b, fb = x, fx
        # Alternate secant with plain bisection so flat stretches cannot stall.
        use_secant = not use_secant
        if b - a <= math.ulp(max(abs(a), abs(b), 1.0)):
            break
    best = 0.5 * (a + b)
    if abs(float(f(best)) - target) <= tol:
        return best
    raise BracketError(
        f"inversion stalled: bracket [{a!r}, {b!r}] collapsed without |f(x) - target| <= {tol!r}"
    )


def _extracted_sum(flat: np.ndarray) -> float | None:
    """math.fsum of the 1-D float array ``flat`` by two error-free
    extractions (Rump, Ogita and Oishi 2008, ExtractVector), or None when it
    cannot be certified.

    With n items and 2^e > max|x|, sigma1 = 2^(k + e) for 2^k >= n + 2 and
    sigma2 = 2^k eps sigma1 (eps = 2^-53). Each extraction splits an item
    x exactly into q = (x + sigma) - sigma, a multiple of eps sigma, and
    p = x - q with |p| <= eps sigma; sums of the q are exact in any order.
    The residuals p after both are summed in floats, with error at most
    B = 2 (n + 2) eps sum|p|. Rounding to nearest is monotone, so if
    fsum(t1, t2, rest, -B) equals fsum(t1, t2, rest, +B), it is the exactly
    rounded total. Returns None when they differ, the total is zero (its
    sign is fsum's), or max|x| is not finite or outside _EXTRACT_RANGE.
    Works _SUM_SPAN items at a time in two span-sized buffers.
    """
    n = flat.size
    q, p = np.empty(min(n, _SUM_SPAN)), np.empty(min(n, _SUM_SPAN))
    top = 0.0
    for a in range(0, n, _SUM_SPAN):
        x = flat[a:a + _SUM_SPAN]
        span_top = float(np.abs(x, out=q[:x.size]).max())
        if not span_top <= _EXTRACT_RANGE[1]:  # nan fails too
            return None
        top = max(top, span_top)
    if top < _EXTRACT_RANGE[0]:
        return None
    k, e = (n + 1).bit_length(), math.frexp(top)[1]
    sigma1 = math.ldexp(1.0, k + e)
    sigma2 = math.ldexp(_EPS * sigma1, k)
    t1 = t2 = rest = size = 0.0
    for a in range(0, n, _SUM_SPAN):
        x = flat[a:a + _SUM_SPAN]
        qs, ps = q[:x.size], p[:x.size]
        np.add(x, sigma1, out=qs)
        qs -= sigma1
        t1 += float(qs.sum())
        np.subtract(x, qs, out=ps)
        np.add(ps, sigma2, out=qs)
        qs -= sigma2
        t2 += float(qs.sum())
        ps -= qs
        rest += float(ps.sum())
        size += float(np.abs(ps, out=ps).sum())
    bound = 2.0 * (n + 2) * _EPS * size
    total = math.fsum((t1, t2, rest, -bound))
    if total != 0.0 and total == math.fsum((t1, t2, rest, bound)):
        return total
    return None


def compensated_sum(xs: Iterable[float]) -> float:
    """Exactly rounded sum, always ``math.fsum``'s value (Shewchuk 1997);
    order-independent.

    Used for all Monte Carlo reductions. An array of _EXTRACT_MIN_ITEMS
    items or more is first summed in numpy by :func:`_extracted_sum`,
    which returns fsum's value bit for bit when its error bound certifies
    it. Otherwise (a shorter array, an uncertified total, a zero total,
    or non-finite, tiny or huge items) an array is handed to ``fsum`` as
    Python floats _SUM_SPAN at a time, in order, so a long one is never
    held as one list. Non-finite inputs propagate to a non-finite total
    (the plain left-to-right sum) and emit a diagnostic warning naming the
    first offender; a finite sum that overflows is nan.
    """
    if isinstance(xs, np.ndarray):
        flat = np.asarray(xs, dtype=float).ravel()
        if flat.size >= _EXTRACT_MIN_ITEMS:
            total = _extracted_sum(flat)
            if total is not None:
                return total
        items = lambda: itertools.chain.from_iterable(
            flat[a:a + _SUM_SPAN].tolist() for a in range(0, flat.size, _SUM_SPAN))
    else:
        xs = list(xs)
        items = lambda: xs
    try:
        total = math.fsum(items())
    except (OverflowError, ValueError):  # a finite overflow, or inf + -inf
        total = math.nan
    if math.isfinite(total):
        return total
    vals = [float(v) for v in items()]
    first_bad = next(((i, v) for i, v in enumerate(vals) if not math.isfinite(v)), None)
    if first_bad is None:
        return math.nan
    total = functools.reduce(operator.add, vals, 0.0)
    warnings.warn(
        f"compensated_sum: non-finite input {first_bad[1]!r} at position {first_bad[0]}; "
        f"total propagated as {total!r}",
        RuntimeWarning,
        stacklevel=2,
    )
    return total
