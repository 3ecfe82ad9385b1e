"""Scalar diffusion models and their invariant law.

A model is dX_t = S(X_t) dt + sigma(X_t) dW_t with drift ``S`` and known
positive diffusion coefficient ``sigma``. When the scale function diverges
at both infinities and the normalizer

    G(S) = integral over R of exp{2 * int_0^x S/sigma^2} / sigma^2(x) dx

is finite, the process is ergodic with invariant density

    f_S(y) = exp{2 * int_0^y S/sigma^2} / (G(S) * sigma^2(y)).

This module computes the scale exponent and scale function, G(S), the
invariant density/CDF/quantile, stationary expectations, and a numerical
ergodicity screen. G(S), F, 1 - F and the quantile all read one
distribution table per model, whose mass is G(S). Per-model caches are
write-once; racing writers compute identical values, so instances are
safe for concurrent reads.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import (
    DivergenceError,
    EvaluationError,
    ExponentOverflowError,
    TailError,
)
from .numerics import (
    _LINE_HALFWIDTH,
    QuadratureSpec,
    _doubling,
    _evaluate,
    compensated_sum,
    integrate,
    integrate_line,
    integrate_panels,
    invert_monotone,
    on_array,
)

# exp argument beyond which float64 overflows
_EXP_LIMIT = 709.0
# per-panel tolerance for cumulative tables (errors accumulate across panels)
_PANEL_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_depth=30)
_CDF_PANELS = 8192
# node step of a custom model's exponent table
_EXP_STEP = 1.0 / 128.0
# the halfwidth past which no running table grows: a request past it
# raises TailError, or for the exponent table DivergenceError (a law too
# wide to tabulate)
_EXP_MAX_HALFWIDTH = 1024.0
# a tail shell holding at most this share of the mass integrated so far
# ends the support search on its side
_TAIL_MASS = 1e-13


@dataclass(frozen=True)
class DiffusionModel:
    """Drift/diffusion function handles plus metadata.

    The functions may be written for floats (``math`` functions, an ``if``
    on x) or for numpy arrays: every array read of them goes through
    :func:`ergodist.numerics.on_array`, which falls back to float calls.
    ``sigma_const`` and ``scale_exponent_closed`` are optional fast paths:
    catalog models carry the constant diffusion value and the closed-form
    scale exponent 2*int_0^y S/sigma^2; custom models fall back to
    quadrature. ``sigma_const``, when set, must equal ``diffusion(x)`` at
    every x: the simulator then scales the increments by it in place of
    calling ``diffusion``, and the kernels read it in closed form.
    """

    drift: Callable[[Any], Any]
    diffusion: Callable[[Any], Any]
    diffusion_sq: Callable[[Any], Any]
    label: str = "custom"
    sigma_const: float | None = None
    scale_exponent_closed: Callable[[Any], Any] | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class ErgodicityReport:
    es_ok: bool
    vs_diverges: bool
    g_finite: bool
    g_value: float
    probe_points: list[float]

    def all_ok(self) -> bool:
        return self.es_ok and self.vs_diverges and self.g_finite


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def ornstein_uhlenbeck(theta: float = 1.0, s: float = 1.0) -> DiffusionModel:
    """Mean-reverting model S(x) = -theta*x with constant diffusion s."""
    if not (theta > 0.0 and s > 0.0):
        raise ValueError("ornstein_uhlenbeck requires theta > 0 and s > 0")
    s2 = s * s
    return DiffusionModel(
        drift=lambda x: -theta * x,
        diffusion=lambda x: s,
        diffusion_sq=lambda x: s2,
        label=f"ou(theta={theta:g},s={s:g})",
        sigma_const=s,
        scale_exponent_closed=lambda y: (-theta / s2) * y * y,
    )


def quartic_well() -> DiffusionModel:
    """Non-Gaussian stress model S(x) = -x^3 with unit diffusion."""
    return DiffusionModel(
        drift=lambda x: -(x * x * x),
        diffusion=lambda x: 1.0,
        diffusion_sq=lambda x: 1.0,
        label="quartic",
        sigma_const=1.0,
        scale_exponent_closed=lambda y: -0.5 * y * y * y * y,
    )


def shifted_ou(m: float = 1.0) -> DiffusionModel:
    """Off-center mean reversion S(x) = -(x - m) with unit diffusion."""
    if not abs(m) <= 20.0:
        # G(S) carries a factor exp(m^2); keep it inside float range.
        raise ValueError("shifted_ou requires |m| <= 20")
    return DiffusionModel(
        drift=lambda x: -(x - m),
        diffusion=lambda x: 1.0,
        diffusion_sq=lambda x: 1.0,
        label=f"shifted_ou(m={m:g})",
        sigma_const=1.0,
        scale_exponent_closed=lambda y: y * (2.0 * m - y),
    )


MODEL_FAMILIES: dict[str, Callable[..., DiffusionModel]] = {
    "ou": ornstein_uhlenbeck,
    "quartic": quartic_well,
    "shifted_ou": shifted_ou,
}


def model_from_spec(spec: dict) -> DiffusionModel:
    """Build a catalog model from {"family": ..., "params": {...}}."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError("model spec must be a dict with a 'family' key")
    family = spec["family"]
    if family not in MODEL_FAMILIES:
        raise ValueError(f"unknown model family {family!r}; known: {sorted(MODEL_FAMILIES)}")
    params = spec.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ValueError("model spec 'params' must be a dict")
    try:
        return MODEL_FAMILIES[family](**params)
    except TypeError as exc:
        raise ValueError(f"bad params for model family {family!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

def _positive(fn: Callable, y, name: str) -> np.ndarray:
    """``fn`` on a float or an array by :func:`on_array`; EvaluationError
    where it is not positive and finite."""
    v = on_array(fn, y)
    ok = np.logical_and(v > 0.0, np.isfinite(v))
    if np.count_nonzero(ok) != ok.size:
        i = int(np.argmin(ok))
        yi, vi = float(np.ravel(y)[i]), float(np.ravel(v)[i])
        raise EvaluationError(yi, f"{name} must be positive and finite, got {vi!r} at y={yi!r}")
    return v


def _sigma_sq(model: DiffusionModel, y):
    return _positive(model.diffusion_sq, y, "sigma^2")


def _checked_exp(e: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """exp(e), or ExponentOverflowError at the first y where e saturates."""
    over = e > _EXP_LIMIT
    if over.any():
        i = int(np.argmax(over))
        yi, ei = float(ys.flat[i]), float(e.flat[i])
        raise ExponentOverflowError(yi, f"scale exponent {ei!r} saturates exp at y={yi!r}")
    return np.exp(e)


def _running_from(panels: np.ndarray, k0: int) -> np.ndarray:
    """Node values of a running integral based at node ``k0``, accumulated
    outward from it, given the integrals over the panels between nodes
    (one such sum per row of 2-d panels): the one rule for every table's
    node values. A row summed from the last node, such as 1 - F, is given
    its negated panels (int_t^hi g = int_hi^t -g)."""
    vals = np.zeros(panels.shape[:-1] + (panels.shape[-1] + 1,))
    np.cumsum(panels[..., k0:], axis=-1, out=vals[..., k0 + 1:])
    np.cumsum(panels[..., :k0][..., ::-1], axis=-1, out=vals[..., :k0][..., ::-1])
    np.negative(vals[..., :k0], out=vals[..., :k0])
    return vals


def _table_panels(what: str, label: str, f: Callable, nodes: np.ndarray,
                  spec: QuadratureSpec) -> np.ndarray:
    """Integrals of ``f`` over a table's panels, with one RuntimeWarning
    naming the x-range of the panels that did not converge. A table reads
    ``f`` at its nodes (:func:`ergodist.numerics._evaluate`) before it
    calls this, so a node it fails at raises before any panel is
    integrated."""
    values, _, converged = integrate_panels(f, nodes, spec)
    bad = np.flatnonzero(~converged)
    if bad.size:
        lo, hi = float(nodes[bad[0]]), float(nodes[bad[-1] + 1])
        warnings.warn(f"{what} of {label}: quadrature did not converge on {bad.size} of "
                      f"{converged.size} panels in [{lo!r}, {hi!r}]", RuntimeWarning, stacklevel=3)
    return values


class _Hermite:
    """Cubic Hermite interpolant on uniform nodes from node values and their
    exact slopes. 2-d ``values`` and ``slopes`` hold several functions as
    rows, interpolated together (the result gets a leading row axis).
    Arguments are clipped to [lo, hi]. Between nodes a smooth g is matched
    to within step^4 max|g''''| / 384, plus the node errors.

    Cells are counted from node ``origin``. A table whose nodes are integer
    multiples of a power-of-two step, counted from its node at 0, puts x in
    the same cell however far it reaches, so widening it moves no value.
    A ``strict`` table raises EvaluationError on a read more than 1e-12
    outside [lo, hi] instead of clipping it. A Python float is read with
    Python floats, by the array route's arithmetic in the same order, so
    the two agree bit for bit; it gives a float, or a tuple of floats for
    several rows, or, given an int ``row`` (``_at(x, row)``), a float of
    that row alone. An array read given ``row``, an integer array of the
    points' shape, reads only row ``row[i]`` at point i (one flat ``take``
    per coefficient) and gives an array of the points' shape, with the
    bits of that row in a read of every row. An array read forms each
    product and difference in place, in the order of the expression in
    :meth:`__call__`'s comment."""

    def __init__(self, nodes: np.ndarray, values: np.ndarray, slopes: np.ndarray,
                 origin: int = 0, strict: bool = False):
        self.nodes, self.values, self.slopes = nodes, values, slopes
        self.lo, self.hi = float(nodes[0]), float(nodes[-1])
        self.step = float(nodes[1] - nodes[0])
        self.origin, self.base, self.strict = origin, float(nodes[origin]), strict
        self._rows = list(zip(values.reshape(-1, nodes.size), slopes.reshape(-1, nodes.size)))

    def cell(self, x):
        """For each x, clipped and flattened: the index k of the node at or
        below it and its distance past that node in steps, s in [0, 1]."""
        x = np.clip(np.ravel(np.asarray(x, dtype=float)), self.lo, self.hi)
        s = np.subtract(x, self.base)
        s /= self.step
        with np.errstate(invalid="ignore"):  # NaN's k, clipped below; its s stays NaN
            k = np.floor(s, out=s).astype(np.intp)
        k += self.origin
        np.clip(k, 0, self.nodes.size - 2, out=k)
        np.subtract(x, self.nodes.take(k, out=s), out=s)
        s /= self.step
        return k, s

    def _at(self, x: float, row: int | None = None):
        x = min(max(x, self.lo), self.hi)
        k = min(max(math.floor((x - self.base) / self.step) + self.origin, 0),
                self.nodes.size - 2)
        s = (x - self.nodes.item(k)) / self.step
        t = 1.0 - s
        a = s * s * (3.0 - 2.0 * s)
        b = self.step * s * t
        if row is not None or self.values.ndim == 1:
            v, m = self._rows[row or 0]
            return (v.item(k) + a * (v.item(k + 1) - v.item(k))
                    + b * (t * m.item(k) - s * m.item(k + 1)))
        return tuple(v.item(k) + a * (v.item(k + 1) - v.item(k))
                     + b * (t * m.item(k) - s * m.item(k + 1)) for v, m in self._rows)

    def __call__(self, x, row=None):
        if self.strict:
            lo, hi = np.min(x, initial=self.lo), np.max(x, initial=self.hi)
            if lo < self.lo - 1e-12 or hi > self.hi + 1e-12:
                raise EvaluationError(float(lo if lo < self.lo else hi),
                                      "table queried outside its span (internal rebuild bug)")
        if row is None and isinstance(x, float) and x == x:
            return self._at(x)
        k, s = self.cell(x)
        v, m = self.values, self.slopes
        shape = v.shape[:-1] + np.shape(x)
        if row is not None:  # node k of row r sits at k + r * nodes in the flat rows
            k += np.ravel(row) * self.nodes.size
            v, m, shape = v.ravel(), m.ravel(), np.shape(x)
        # v_k + s^2 (3 - 2 s) (v_k+1 - v_k) + step s t (t m_k - s m_k+1),
        # t = 1 - s: v_k + a (v_k+1 - v_k) rather than t' v_k + a v_k+1,
        # so equal node values give exactly that value and monotone data
        # stay monotone
        t = np.subtract(1.0, s)
        out = v.take(k, axis=-1)
        k += 1
        dv = v.take(k, axis=-1)
        dv -= out
        a = np.multiply(2.0, s)
        np.subtract(3.0, a, out=a)
        dv *= np.multiply(s, s) * a
        out += dv
        right = m.take(k, axis=-1)
        right *= s
        k -= 1
        dm = m.take(k, axis=-1)
        dm *= t
        dm -= right
        np.multiply(self.step, s, out=a)
        a *= t
        dm *= a
        out += dm
        return out.reshape(shape)


def _simpson_panels(f: Callable, nodes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The Simpson integrals of the rows of ``f`` over each panel between
    the uniform ``nodes``, given the rows at the nodes; ``f`` is read at
    the panel midpoints."""
    step = nodes[1] - nodes[0]
    return (step / 6.0) * (rows[:, :-1] + 4.0 * f(nodes[:-1] + 0.5 * step) + rows[:, 1:])


def _summed_on(end: np.ndarray, panels: np.ndarray, seeded: bool) -> np.ndarray:
    """The running sums of ``panels`` in order along the last axis, going on
    from ``end`` when ``seeded``: a cumulative sum adds in order, so these
    are the bits the sums over the panels before them and these give."""
    if not seeded:
        return np.cumsum(panels, axis=-1)
    return np.cumsum(np.concatenate((end, panels), axis=-1), axis=-1)[..., 1:]


def _running_table(what: str, label: str, g: Callable, lo: float, hi: float, step: float,
                   cached: _Hermite | None = None, scale: float = 1.0,
                   simpson: bool = False) -> _Hermite:
    """``cached`` if it covers [lo, hi]; else a strict table of
    scale * int_0^y g on the nodes k * step (step a power of two) that
    cover [lo, hi], 0, one panel at least and, given ``cached``, its span
    with each end the request passes at least doubled, up to
    |y| = _EXP_MAX_HALFWIDTH: panel integrals
    summed outward from the node at 0, the exact slopes scale * g and cells
    counted from that node, so growth moves no read of the narrower table
    (see :class:`_Hermite`). The panels are adaptive, ``what`` naming the
    table in the non-convergence warning, or, given ``simpson``, the
    Simpson sums of the rows of g. ``scale``, a power of two, multiplies
    the sums, not g, so the panel tolerances meet g itself. A span that is
    not finite raises EvaluationError naming the table, and one past
    |y| = _EXP_MAX_HALFWIDTH TailError naming it, before any node is read.

    Given ``cached``, the table grows by its new panels only: g is read at
    the new nodes, then integrated over the new panels past each end the
    request passes, one call a side, and the running sums go on in order
    from the cached end values. A panel's integral does not depend on the
    other panels, so every value and slope has the bits of a fresh build
    over the whole span."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise EvaluationError(hi if math.isfinite(lo) else lo,
                              f"{what} of {label} asked for over [{lo!r}, {hi!r}], "
                              "which is not a finite span")
    limit = _EXP_MAX_HALFWIDTH
    if max(-lo, hi) > limit:
        raise TailError(f"{what} of {label} asked for over [{lo!r}, {hi!r}], past the table "
                        f"limit |y| <= {limit!r}")
    if cached is not None:
        if cached.lo <= lo and hi <= cached.hi:
            return cached
        lo = max(min(lo, 2.0 * cached.lo), -limit) if lo < cached.lo else cached.lo
        hi = min(max(hi, 2.0 * cached.hi), limit) if hi > cached.hi else cached.hi
    below = math.ceil(max(-lo, 0.0) / step)
    above = max(math.ceil(max(hi, 0.0) / step), int(below == 0))
    nodes = np.arange(-below, above + 1) * step
    read = g if simpson else lambda v: _evaluate(g, v)
    if cached is None:
        rows = read(nodes)
        panels = (_simpson_panels(g, nodes, rows) if simpson
                  else _table_panels(what, label, g, nodes, _PANEL_SPEC))
        return _Hermite(nodes, scale * _running_from(panels, below), scale * rows, below,
                        strict=True)
    # n_left new nodes before the cached ones and n_right after them; each
    # side's panels end at the cached node it meets, whose g and running
    # sum are its slope and value over scale, exactly as scale is a power
    # of two
    old_above = cached.nodes.size - 1 - cached.origin
    n_left, n_right = below - cached.origin, above - old_above
    left, right = nodes[:n_left + 1], nodes[nodes.size - 1 - n_right:]
    rows_left = read(left[:-1]) if n_left else None
    rows_right = read(right[1:]) if n_right else None
    values, slopes = [cached.values], [cached.slopes]
    if n_left:
        panels = (_simpson_panels(g, left, np.concatenate(
                      (rows_left, cached.slopes[..., :1] / scale), axis=-1)) if simpson
                  else _table_panels(what, label, g, left, _PANEL_SPEC))
        run = _summed_on(-cached.values[..., :1] / scale, panels[..., ::-1], cached.origin > 0)
        values.insert(0, -scale * run[..., ::-1])
        slopes.insert(0, scale * rows_left)
    if n_right:
        panels = (_simpson_panels(g, right, np.concatenate(
                      (cached.slopes[..., -1:] / scale, rows_right), axis=-1)) if simpson
                  else _table_panels(what, label, g, right, _PANEL_SPEC))
        values.append(scale * _summed_on(cached.values[..., -1:] / scale, panels, old_above > 0))
        slopes.append(scale * rows_right)
    return _Hermite(nodes, np.concatenate(values, axis=-1), np.concatenate(slopes, axis=-1),
                    below, strict=True)


# ---------------------------------------------------------------------------
# scale exponent: 2 * int_0^y S/sigma^2
# ---------------------------------------------------------------------------

def _exponent_table(model: DiffusionModel, halfwidth: float) -> _Hermite:
    """Scale-exponent table of a custom model: the :func:`_running_table`
    of 2 S/sigma^2 on the nodes k/128 of [-w, w], w >= halfwidth.

    A query past its edge grows it over the query and twice its span,
    moving no value it gave. A query past |y| = _EXP_MAX_HALFWIDTH raises
    DivergenceError here, before the builder's TailError: the law is too
    wide to tabulate. :func:`scale_exponent` asks for the table that
    covers its points before it reads them.
    """
    if not halfwidth <= _EXP_MAX_HALFWIDTH:
        raise DivergenceError(
            f"scale exponent of {model.label} asked for at |y| = {halfwidth!r}, past the "
            f"table limit {_EXP_MAX_HALFWIDTH!r}: the law is too wide or not ergodic")
    w = max(halfwidth, _LINE_HALFWIDTH)
    integrand = lambda v: on_array(model.drift, v) / _sigma_sq(model, v)
    table = model._cache["exp_table"] = _running_table(
        "scale exponent table", model.label, integrand, -w, w, _EXP_STEP,
        model._cache.get("exp_table"), scale=2.0)
    return table


def scale_exponent(model: DiffusionModel, y):
    """Signed exponent 2*int_0^y S(v)/sigma^2(v) dv at a float (a float) or
    on an array (an array of its shape): the model's closed form when
    present, else its exponent table."""
    ys = np.asarray(y, dtype=float)
    if model.scale_exponent_closed is not None:
        e = on_array(model.scale_exponent_closed, ys)
    else:
        e = _exponent_table(model, float(np.max(np.abs(ys), initial=0.0)))(ys)
    return e if isinstance(y, np.ndarray) else float(e)


# ---------------------------------------------------------------------------
# scale function V_S
# ---------------------------------------------------------------------------

def scale_function(model: DiffusionModel, x: float) -> float:
    """V_S(x) = int_0^x exp{-2*int_0^y S/sigma^2} dy (signed)."""

    def integrand(y):
        y = np.asarray(y, dtype=float)
        return _checked_exp(-scale_exponent(model, y), y)

    return integrate(integrand, 0.0, x).value


# ---------------------------------------------------------------------------
# normalizer, density, CDF
# ---------------------------------------------------------------------------

def _density_integrand(model: DiffusionModel) -> Callable:
    """The unnormalized invariant density exp(scale exponent)/sigma^2, on a
    float or an array."""

    def g(y):
        y = np.asarray(y, dtype=float)
        return _checked_exp(scale_exponent(model, y), y) / _sigma_sq(model, y)

    return g


def normalizing_constant(model: DiffusionModel) -> float:
    """G(S): the mass of the model's distribution table (:func:`_cdf_table`),
    built when cold. Raises :class:`DivergenceError` as that build does: the
    model is then not ergodic along the probed range."""
    if "g" not in model._cache:
        _cdf_table(model)
    return model._cache["g"]


def invariant_density(model: DiffusionModel, y):
    """f_S(y) = exp{scale exponent}/(sigma^2(y) G(S)) at a float or on an
    array: the tables' unnormalized density over the cached G(S)."""
    g = normalizing_constant(model)
    return _density_integrand(model)(y) / g


def _support(model: DiffusionModel) -> tuple[float, float]:
    """[lo, hi] of the model's distribution table, found without G(S) by
    :func:`ergodist.numerics._doubling`: each side ends with its first shell
    that holds at most _TAIL_MASS of the mass integrated before it.
    DivergenceError when the exponent overflows or a tail does not fall off."""
    cached = model._cache.get("support")
    if cached is not None:
        return cached
    try:
        _, left, right = _doubling(_density_integrand(model), _PANEL_SPEC,
                                   lambda shell, total: shell <= _TAIL_MASS * total)
    except ExponentOverflowError as exc:
        raise DivergenceError(f"invariant law divergence-suspected: {exc}") from exc
    cached = model._cache["support"] = (-_LINE_HALFWIDTH * 2.0**len(left),
                                        _LINE_HALFWIDTH * 2.0**len(right))
    return cached


def _cdf_table(model: DiffusionModel) -> _Hermite:
    """The model's distribution table: _CDF_PANELS + 1 nodes over its
    support (:func:`_support`), with the rows F and 1 - F, based at the
    first and the last node so each keeps its relative accuracy in its own
    tail, and their exact slopes f and -f. Its mass, the compensated sum of
    its panel integrals, is G(S), cached under "g"; DivergenceError when
    that is not finite and positive."""
    cached = model._cache.get("cdf_table")
    if cached is not None:
        return cached
    lo, hi = _support(model)
    nodes = np.linspace(lo, hi, _CDF_PANELS + 1)
    density = _density_integrand(model)
    f = _evaluate(density, nodes)
    panels = _table_panels("CDF table", model.label, density, nodes, _PANEL_SPEC)
    g = compensated_sum(panels)
    if not 0.0 < g < math.inf:
        raise DivergenceError(f"normalizer must be finite and positive, got {g!r}")
    panels, f = panels / g, f / g
    F, Fbar = _running_from(panels, 0), _running_from(-panels, panels.size)
    np.maximum.accumulate(F, out=F)
    np.minimum.accumulate(Fbar, out=Fbar)
    model._cache["g"] = g
    table = model._cache["cdf_table"] = _Hermite(nodes, np.stack([F, Fbar]), np.stack([f, -f]))
    return table


def _cdf_pair(model: DiffusionModel, xs, row=None):
    """F_S and 1 - F_S at xs, clamped to [0, 1], from the distribution
    table: a tuple of two floats for a float, else the two rows of one
    array; given ``row`` (see :class:`_Hermite`), F where it is 0 and
    1 - F where it is 1, in one array of xs's shape."""
    pair = _cdf_table(model)(xs, row)
    if isinstance(pair, tuple):
        return tuple(min(max(v, 0.0), 1.0) for v in pair)
    return np.clip(pair, 0.0, 1.0, out=pair)


def invariant_cdf(model: DiffusionModel, x: float) -> float:
    """F_S(x) from the model's distribution table, clamped to [0, 1]; the
    table's end values outside its support [lo, hi]. A float reads the
    row F alone, with the bits of the array read."""
    if isinstance(x, float) and x == x:
        return float(min(max(_cdf_table(model)._at(x, 0), 0.0), 1.0))
    return float(_cdf_pair(model, x)[0])


def invariant_quantile(model: DiffusionModel, u: float) -> float:
    """x with |F_S(x) - u| <= 1e-10: bracketed by two nodes of the
    distribution table, then inverted on its F."""
    if not (0.0 < u < 1.0):
        raise ValueError(f"quantile level must lie in (0, 1), got {u!r}")
    t = _cdf_table(model)
    F = t.values[0]
    if u <= F[0] + 1e-12 or u >= F[-1] - 1e-12:
        raise TailError(
            f"quantile level {u!r} is deeper than the quadrature truncation "
            f"range [{float(F[0])!r}, {float(F[-1])!r}] supports"
        )
    k = min(max(int(np.searchsorted(F, u)), 1), F.size - 1)
    return invert_monotone(lambda x: invariant_cdf(model, x), u,
                           float(t.nodes[k - 1]), float(t.nodes[k]), 1e-10)


def stationary_expectation(model: DiffusionModel, g: Callable[[float], float]) -> float:
    """E[g(xi)] = int g(z) f_S(z) dz for xi with the invariant law.

    Raises :class:`DivergenceError` when the moment does not exist: either
    the tail doubling fails to converge, or g grows so fast against the
    invariant density that the integrand leaves the floating range first.
    """
    G = normalizing_constant(model)
    raw = _density_integrand(model)
    try:
        return integrate_line(lambda z: np.asarray(g(z), dtype=float) * raw(z) / G).value
    except EvaluationError as exc:
        raise DivergenceError(
            f"moment integrand invalid or overflowing at z={exc.abscissa!r}; "
            "the moment is treated as nonexistent"
        ) from exc


# ---------------------------------------------------------------------------
# ergodicity screen
# ---------------------------------------------------------------------------

def check_ergodicity(model: DiffusionModel, probe_radius: float) -> ErgodicityReport:
    """Numerical screen (not a proof) of the ergodicity conditions.

    es_ok: the growth ratio (x*S(x) + sigma^2(x)) / (1 + x^2), its terms
    divided by max(|x|, 1) so none overflows, stays bounded above (-inf
    included) along doubling probe radii (its max fits a finite growth
    constant). vs_diverges: |V_S(+/-L)| increases strictly along L =
    probe_radius*2^k; exponent saturation counts as divergence, silently.
    g_finite: the distribution table was built, and its mass G(S) is
    finite and positive. A probe radius whose largest probe 2^6 *
    probe_radius is not finite raises ValueError naming the largest
    usable radius, sys.float_info.max / 2^6.
    """
    if not probe_radius > 0.0:
        raise ValueError("probe_radius must be > 0")
    if not math.isfinite(probe_radius * 2.0**6):
        raise ValueError(f"probe_radius must be at most {sys.float_info.max / 2.0**6!r}, so "
                         f"that its largest probe, 2^6 times it, is finite; got {probe_radius!r}")
    radii = [probe_radius * 2.0**k for k in range(7)]

    def growth_ratio(y: float) -> float:
        k = max(abs(y), 1.0)
        s, s2 = float(model.drift(y)), float(_sigma_sq(model, y))
        return (y / k * s + s2 / k) / (1.0 / k + y / k * y)

    es_ok = True
    for sign in (+1.0, -1.0):
        seq = [growth_ratio(sign * r) for r in radii]
        if any(math.isnan(v) or v == math.inf for v in seq):
            es_ok = False
            continue
        inner_max = max(seq[:-1])
        # 10% headroom: a bounded ratio may plateau, a violating one doubles.
        if seq[-1] > inner_max + 0.1 * max(abs(inner_max), 1.0):
            es_ok = False

    vs_diverges = True
    for sign in (+1.0, -1.0):
        prev = 0.0
        for r in radii:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    v = abs(scale_function(model, sign * r))
            except ExponentOverflowError:
                break  # saturation: |V_S| off the float range counts as divergence
            if not v > prev:
                vs_diverges = False
                break
            prev = v

    try:
        g_value = normalizing_constant(model)
        g_finite = True
    except DivergenceError:
        g_value = math.nan
        g_finite = False

    return ErgodicityReport(
        es_ok=es_ok,
        vs_diverges=vs_diverges,
        g_finite=g_finite,
        g_value=g_value,
        probe_points=radii,
    )
