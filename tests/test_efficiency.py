import hashlib
import json
import math
import os
import pickle
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from ergodist import efficiency
from ergodist.errors import (
    ConfigError,
    EvaluationError,
    ExponentOverflowError,
    RiskRunError,
    SimulationError,
    TailError,
    WorkerError,
)
from ergodist.estimators import (
    as_estimator,
    constant_weight,
    custom_weight,
    dx_weight,
    estimate_curves,
    exponential_weight,
    parse_estimator,
    polynomial_weight,
    primitive,
    unbiased_estimate,
)
from ergodist.efficiency import (
    boundary_derivative_closed,
    boundary_derivative_direct,
    boundary_function,
    compensator,
    efficiency_bound,
    empirical_risk,
    influence_moment_finite,
    influence_numerator,
    influence_primitive,
    local_variance,
    nu_gaussian,
    nu_point_masses,
    nu_uniform,
    ode_residual,
    parse_nu,
    representation_discrepancy,
    weight_moment_finite,
    weight_primitive,
)
from ergodist.harness import cli_main
from ergodist.model import (
    _EXP_MAX_HALFWIDTH,
    DiffusionModel,
    _cdf_table,
    _support,
    invariant_cdf,
    invariant_density,
    normalizing_constant,
    ornstein_uhlenbeck,
    quartic_well,
    shifted_ou,
    stationary_expectation,
)
from ergodist.numerics import QuadratureSpec
from ergodist.simulate import Path, SimConfig, derive_substream_seed, simulate_path

from oracles import (
    fsum_representation_residual,
    gaussian_log_law,
    influence_moment_direct,
    martingale_weight,
    quartic_log_law,
    trapezoid_influence_primitive,
    trapezoid_local_variance,
    trapezoid_local_variance_grid,
    trapezoid_ou_bound_gaussian_nu,
    weight_moment_direct,
    weight_primitive_quadrature,
)
from test_harness import _PINNED_NUMPY

# values produced by the dense-trapezoid oracles in oracles.py
R_AT_ZERO = 0.3465735903226393  # equals log(2)/2 analytically
R_AT_HALF = 0.2321665465737416
R_AT_ONE = 0.07188116961985334
RHO_GAUSS = 0.16977582786380457
H_ZERO_ONE = 0.5736185530892727


class TestNuMeasure:
    def test_gaussian_total_mass(self):
        nu = nu_gaussian(0.0, 1.0)
        assert nu.total_mass == 1.0
        assert float(nu.density(0.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_uniform_requires_ordered_endpoints(self):
        with pytest.raises(ValueError):
            nu_uniform(2.0, 1.0)

    def test_point_masses_nonnegative(self):
        with pytest.raises(ValueError):
            nu_point_masses([(0.0, -1.0)])
        nu = nu_point_masses([(0.0, 0.5), (1.0, 1.5)])
        assert nu.total_mass == 2.0

    def test_mass_outside_gaussian(self):
        nu = nu_gaussian(0.0, 1.0)
        assert nu.mass_outside(-5.0, 5.0) < 1e-6
        assert nu.mass_outside(-3.0, 3.0) > 1e-6

    def test_mass_outside_uniform_and_points(self):
        assert nu_uniform(0.0, 2.0).mass_outside(0.0, 1.0) == pytest.approx(0.5)
        nu = nu_point_masses([(0.0, 1.0), (4.0, 1.0)])
        assert nu.mass_outside(-1.0, 1.0) == 1.0

    @pytest.mark.parametrize(
        "spec,kind",
        [("gauss:0,1", "gaussian"), ("gaussian:1,2", "gaussian"),
         ("uniform:-1,1", "uniform"), ("point:0=1;2=0.5", "point_masses")],
    )
    def test_parse_strings(self, spec, kind):
        assert parse_nu(spec).kind == kind

    def test_parse_dicts(self):
        nu = parse_nu({"kind": "gaussian", "mean": 1.0, "sd": 2.0})
        assert nu.mean == 1.0 and nu.sd == 2.0
        nu = parse_nu({"kind": "point_masses", "atoms": [(0.5, 1.0)]})
        assert nu.atoms == ((0.5, 1.0),)

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "gaussian", "sdd": 3.0}, "sdd"),
        ({"kind": "gaussian", "mean": 0.0, "sd": 1.0, "mass": 1.0}, "mass"),
        ({"kind": "uniform", "a": -1.0, "b": 1.0, "mass": 2.0}, "mass"),
        ({"kind": "point_masses", "atoms": [(0.0, 1.0)], "sd": 1.0}, "sd"),
    ])
    def test_parse_dict_rejects_unknown_keys(self, spec, key):
        with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
            parse_nu(spec)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_nu("lebesgue")


class TestInfluenceNumerator:
    def test_diagonal_is_variance_of_indicator(self, ou):
        for x in (-1.0, 0.0, 2.0):
            fx = invariant_cdf(ou, x)
            assert influence_numerator(ou, x, x) == pytest.approx(fx * (1 - fx), abs=1e-10)
            assert influence_numerator(ou, x, x) >= 0.0

    def test_far_tail_vanishes(self, ou):
        assert abs(influence_numerator(ou, -12.0, 1.0)) < 1e-9
        assert abs(influence_numerator(ou, -12.0, -12.0)) < 1e-9

    def test_ou_probe_value(self, ou):
        # F(0) - F(0) F(1) = 0.5 * (1 - Phi(sqrt 2))
        assert influence_numerator(ou, 0.0, 1.0) == pytest.approx(0.039324801762571, abs=1e-9)

    def test_symmetric_in_arguments(self, ou):
        for x, y in [(-0.5, 1.2), (0.7, -2.0)]:
            assert influence_numerator(ou, x, y) == pytest.approx(
                influence_numerator(ou, y, x), abs=1e-12
            )

    def test_tails_relative_accuracy(self, ou):
        # F(y)(1 - F(0)) left of 0 and F(0)(1 - F(y)) right of it, N(0, 1/2) law
        from scipy.stats import norm

        ys = np.linspace(-6.0, 6.0, 1201)
        z = ys * math.sqrt(2.0)
        ref = np.where(ys <= 0.0, 0.5 * norm.cdf(z), 0.5 * norm.sf(z))
        got = np.array([influence_numerator(ou, 0.0, float(y)) for y in ys])
        assert np.max(np.abs(got / ref - 1.0)) <= 5e-8

    @pytest.mark.parametrize("name", ["ou", "quartic"])
    def test_array_matches_float_calls_bitwise(self, ou, quartic, name):
        # an array reads F(y) for y <= x and 1 - F(y) elsewhere, NaN
        # included; the bits are those of the float reads, at y == x and
        # its neighbours, at +-inf and NaN, and at both table ends and past
        model = {"ou": ou, "quartic": quartic}[name]
        table = _cdf_table(model)
        ends = [table.lo, table.hi, table.lo - 1.0, table.hi + 1.0]
        ys = np.concatenate([np.linspace(-20.0, 20.0, 2001), [-0.0, 0.7, 1e-300, -1e-300],
                             [np.inf, -np.inf, np.nan, -1e300, 1e300], ends])
        for x in (-3.0, 0.0, 0.7, 5.0, float(table.nodes[4000]), *ends):
            at = np.concatenate([ys, [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]])
            got = influence_numerator(model, x, at)
            expect = np.array([influence_numerator(model, x, float(y)) for y in at])
            assert got.shape == at.shape
            assert np.array_equal(got, expect, equal_nan=True)
            assert np.array_equal(np.isnan(got), np.isnan(at))


class TestLocalVariance:
    def test_matches_trapezoid_oracle(self, ou):
        live = trapezoid_local_variance(0.0)
        assert live == pytest.approx(R_AT_ZERO, rel=1e-9)  # oracle regression guard
        assert local_variance(ou, 0.0) == pytest.approx(live, rel=1e-6)
        assert local_variance(ou, 0.0) == pytest.approx(math.log(2.0) / 2.0, rel=1e-6)

    def test_off_center_values(self, ou):
        assert local_variance(ou, 0.5) == pytest.approx(R_AT_HALF, rel=1e-6)
        assert local_variance(ou, 1.0) == pytest.approx(R_AT_ONE, rel=1e-6)

    def test_far_tail_vanishes(self, ou):
        assert local_variance(ou, -12.0) < 1e-8

    @pytest.mark.parametrize("x", [0.5, 1.0])
    def test_symmetry_of_symmetric_model(self, ou, x):
        assert local_variance(ou, x) == pytest.approx(local_variance(ou, -x), abs=1e-8)

    def test_positive_in_the_bulk(self, ou):
        for x in np.linspace(-3, 3, 13):
            assert local_variance(ou, float(x)) > 0.0

    @pytest.mark.parametrize("x", [-4.75, -4.0, -3.0, 3.0, 4.0, 4.75])
    def test_tails_match_trapezoid_oracle(self, ou, x):
        assert local_variance(ou, x) == pytest.approx(trapezoid_local_variance(x), rel=1e-5)

    # (model, its law for the oracle, sigma^2, oracle halfwidth, README's
    # relative accuracy wherever R is at least 1e-9 of its peak)
    @pytest.mark.parametrize("model, law, sigma2, halfwidth, rel", [
        (ornstein_uhlenbeck(1.0, 1.0), gaussian_log_law(math.sqrt(0.5)), 1.0,
         12.0 * math.sqrt(0.5), 1.8e-8),
        (quartic_well(), quartic_log_law, 1.0, 4.0, 4.7e-7),
        (ornstein_uhlenbeck(5.0, 0.2), gaussian_log_law(0.2 / math.sqrt(10.0)), 0.04,
         12.0 * 0.2 / math.sqrt(10.0), 1.1e-4),
    ], ids=["ou", "quartic", "ou_narrow"])
    def test_matches_dense_trapezoid_oracle_where_R_matters(self, model, law, sigma2,
                                                           halfwidth, rel):
        ys, R = trapezoid_local_variance_grid(law, sigma2, halfwidth)
        xs, Rx = ys[::100], R[::100]
        keep = Rx >= 1e-9 * R.max()
        got = local_variance(model, xs[keep])
        assert np.max(np.abs(got / Rx[keep] - 1.0)) <= rel

    def test_risk_and_cli_local_bound_are_local_variance(self, ou, tmp_path):
        xs = np.linspace(-5.0, 5.0, 21)
        sim = SimConfig(horizon_T=1.0, dt=0.01, seed=3)
        rep = empirical_risk(ou, "edf", nu_gaussian(0, 1), sim, 3, xs)
        assert np.array_equal(rep.local_bound, local_variance(ou, xs))
        out = tmp_path / "bound.json"
        rc = cli_main(["bound", "--model", "ou", "--nu", "gauss:0,1", "--grid", "-5:5:21",
                       "--out", str(out)])
        assert rc == 0
        assert json.load(open(out))["local_bound"] == local_variance(ou, xs).tolist()


class TestEfficiencyBound:
    def test_single_point_mass_reduces_to_local_variance(self, ou):
        nu = nu_point_masses([(0.5, 1.0)])
        assert efficiency_bound(ou, nu) == pytest.approx(local_variance(ou, 0.5), rel=1e-12)

    def test_two_symmetric_atoms(self, ou):
        nu = nu_point_masses([(-1.0, 1.0), (1.0, 1.0)])
        assert efficiency_bound(ou, nu) == pytest.approx(2.0 * local_variance(ou, 1.0), rel=1e-7)

    def test_gaussian_nu_matches_double_trapezoid_oracle(self, ou):
        live = trapezoid_ou_bound_gaussian_nu(n_x=801, n_y=100_001)
        assert live == pytest.approx(RHO_GAUSS, rel=1e-7)
        assert efficiency_bound(ou, nu_gaussian(0.0, 1.0)) == pytest.approx(live, rel=1e-5)

    def test_unconverged_bound_warns(self, ou, monkeypatch):
        monkeypatch.setattr(efficiency, "DEFAULT_QUADRATURE",
                            QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_depth=1))
        nu = nu_gaussian(0.0, 1.0)
        with pytest.warns(RuntimeWarning, match="did not converge") as record:
            efficiency_bound(ou, nu)
        [warning] = record
        assert ou.label in str(warning.message) and repr(nu) in str(warning.message)

    def test_uniform_nu(self, ou):
        val = efficiency_bound(ou, nu_uniform(-1.0, 1.0))
        # density 1/2 on [-1, 1]; R is bounded by its center value there
        assert 0.0 < val < local_variance(ou, 0.0)

    def test_translation_invariance_of_shifted_model(self, ou):
        # shifting the drift center and the weighting measure together must
        # leave the bound unchanged
        from ergodist.model import shifted_ou

        moved = efficiency_bound(shifted_ou(1.0), nu_gaussian(1.0, 1.0))
        centered = efficiency_bound(ou, nu_gaussian(0.0, 1.0))
        assert moved == pytest.approx(centered, rel=1e-6)


class TestInfluencePrimitive:
    def test_zero_at_origin(self, ou):
        assert influence_primitive(ou, 0.0, 0.0) == 0.0

    def test_matches_trapezoid_oracle(self, ou):
        live = trapezoid_influence_primitive(0.0, 1.0)
        assert live == pytest.approx(H_ZERO_ONE, rel=1e-10)
        assert influence_primitive(ou, 0.0, 1.0) == pytest.approx(live, rel=1e-6)

    @pytest.mark.parametrize("x, y", [(0.0, 6.0), (0.0, 7.0), (2.5, 6.0)])
    def test_right_tail_matches_trapezoid_oracle(self, ou, x, y):
        # deep in the right tail, where F(min) - F(x) F(y) would cancel
        assert influence_primitive(ou, x, y) == pytest.approx(
            trapezoid_influence_primitive(x, y), rel=1e-8)

    def test_integrand_sign_on_right_of_center(self, ou):
        # for x = 0 and v > 0 the numerator is F(0)(1 - F(v)) > 0, so the
        # primitive increases to the right of the origin
        vals = [influence_primitive(ou, 0.0, y) for y in (0.5, 1.0, 2.0)]
        assert all(v > 0.0 for v in vals)
        assert vals[0] < vals[1] < vals[2]
        assert influence_numerator(ou, 0.0, 0.7) > 0.0

    def test_odd_symmetry_at_center(self, ou):
        assert influence_primitive(ou, 0.0, -1.0) == pytest.approx(
            -influence_primitive(ou, 0.0, 1.0), rel=1e-9
        )


def _closed_weight_rows(spec: str, y: float) -> tuple[float, float, float]:
    """H = int_0^y h, Q = int_0^y P h and P(y) in closed form on a model
    with sigma = 1, for the weights poly:p=1 and exp:delta=1."""
    if spec == "poly:p=1":
        H = y + y ** 3 / 3.0
        return H, math.atan(y) * H - y * y / 6.0 - math.log1p(y * y) / 3.0, math.atan(y)
    return math.expm1(y), math.expm1(y) - y, -math.expm1(-y)


class TestWeightPrimitive:
    def test_zero_at_origin(self, ou, wf_exp):
        assert weight_primitive(wf_exp, ou, 1.0, 0.0) == 0.0

    def test_warm_call_keeps_every_cache_entry(self, ou):
        # a table is stored only when its builder built or grew it: a warm
        # call, inside the tables, leaves each (model, table) entry the
        # same object
        wf = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
        weight_primitive(wf, ou, 1.5, -2.0)
        before = dict(wf._cache)
        assert set(before) == {("primitive", id(ou)), ("weight_table", id(ou))}
        primitive(wf, ou, -1.0, 1.0)
        weight_primitive(wf, ou, 1.0, -1.5)
        assert all(wf._cache[k] is v for k, v in before.items()) and wf._cache == before

    @pytest.mark.parametrize("spec", ["poly:p=1", "exp:delta=1"])
    def test_table_rows_match_closed_forms(self, ou, spec):
        # the whole [-16, 16] table, tails included, at and between nodes
        wf = parse_estimator(f"unbiased:{spec}").weight
        table = efficiency._weight_table(wf, ou, -16.0, 16.0)
        assert table.lo == -16.0 and table.hi == 16.0 and table(0.0) == (0.0, 0.0)
        ys = np.concatenate([table.nodes, np.linspace(-16.0, 16.0, 10_007)])
        got = table(ys)
        expect = np.array([_closed_weight_rows(spec, float(y))[:2] for y in ys]).T
        assert np.max(np.abs(got - expect) / np.maximum(np.abs(expect), 1.0)) < 1e-10

    @pytest.mark.parametrize("spec", ["poly:p=1", "exp:delta=1"])
    def test_matches_closed_form_over_the_table(self, ou, spec):
        # Phi = 2 P(x) [H(m) - H(b)] - 2 [Q(m) - Q(b)], m = min(y, x),
        # b = min(0, x), relative to the size of the terms it combines: deep
        # in the left tail of exp, P(x) is near -e^16 and H near -1
        wf = parse_estimator(f"unbiased:{spec}").weight
        pts = np.linspace(-16.0, 16.0, 65).tolist()
        worst = 0.0
        for x in pts:
            Hb, Qb, _ = _closed_weight_rows(spec, min(0.0, x))
            Px = _closed_weight_rows(spec, x)[2]
            for y in pts:
                Hm, Qm, _ = _closed_weight_rows(spec, min(y, x))
                expect = 2.0 * Px * (Hm - Hb) - 2.0 * (Qm - Qb)
                scale = max(2.0 * abs(Px) * (abs(Hm) + abs(Hb)), 2.0 * (abs(Qm) + abs(Qb)), 1.0)
                worst = max(worst, abs(weight_primitive(wf, ou, x, y) - expect) / scale)
        assert worst < 1e-10

    @pytest.mark.parametrize("label", ["ou", "ou_narrow", "ou_wide", "quartic", "custom_ou",
                                       "wavy", "shifted_up", "shifted_down"])
    def test_table_matches_quadrature_on_a_grid(self, label):
        # against the adaptive quadrature it replaced, on every law of the
        # sweep: the table's nodes k 2^-8 do not follow the law, so neither
        # does its accuracy
        model = TestMomentScreens.SWEEP_MODELS[label]()
        for spec in ("exp:delta=1", "poly:p=1", "poly:p=2", "const:c=1"):
            wf = parse_estimator(f"unbiased:{spec}").weight
            for x in np.linspace(-3.0, 3.0, 7).tolist():
                for y in np.linspace(-3.0, 3.0, 9).tolist():
                    assert weight_primitive(wf, model, x, y) == pytest.approx(
                        weight_primitive_quadrature(wf, model, x, y), rel=1e-11, abs=1e-15)

    def test_outside_the_table(self, ou, wf_exp):
        # past the law's support [-16, 16] the weight table grows to the
        # point asked for: Phi reads no law
        assert weight_primitive(wf_exp, ou, 40.0, 1.5) == pytest.approx(
            weight_primitive_quadrature(wf_exp, ou, 40.0, 1.5), rel=1e-12)
        assert weight_primitive(wf_exp, ou, -40.0, 3.0) == 0.0
        for x, y in ((1.0, -40.0), (0.0, -20.0)):
            assert weight_primitive(wf_exp, ou, x, y) == pytest.approx(
                weight_primitive_quadrature(wf_exp, ou, x, y), rel=1e-12)

    def test_far_x_reads_p_by_quadrature(self, ou):
        # P(x) past |x| = 1024 is one float kernel, and the weight table
        # needs [min(m, b), max(m, b)] only: a custom h = 1 + u^2 gives the
        # closed poly:p=1 values
        wf = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
        for x, y in ((1500.0, 1.0), (3000.0, -2.5)):
            assert weight_primitive(wf, ou, x, y) == pytest.approx(
                weight_primitive(polynomial_weight(1), ou, x, y), rel=1e-12)
            assert boundary_function(wf, ou, x, y) == pytest.approx(
                boundary_function(polynomial_weight(1), ou, x, y), rel=1e-12)

    def test_far_or_not_finite_y_raises_naming_the_table(self, ou, wf_exp):
        # no running table grows past the builder's limit, so a far y
        # raises instead of asking for some 10^9 nodes
        for x, y in ((0.0, -1e6), (-2.0 * _EXP_MAX_HALFWIDTH, 3.0)):
            with pytest.raises(TailError, match="weight table of the exp weight"):
                weight_primitive(wf_exp, ou, x, y)
        for x, y in ((1.0, -math.inf), (0.5, math.nan)):
            with pytest.raises(EvaluationError, match="weight table of the exp weight"):
                weight_primitive(wf_exp, ou, x, y)
        assert weight_primitive(wf_exp, ou, 0.0, math.inf) == 0.0

    def test_an_overflowing_weight_names_the_table(self, ou):
        # h = e^{100 y} overflows past y ~ 7.09, so the weight table's rows
        # are not finite there: the table raises naming itself, no NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvaluationError, match="weight table of the exp weight of ou.*"
                               "integrand not finite at y=7.1015625"):
                weight_primitive(exponential_weight(100.0), ou, 7.2, 7.1)

    def test_constant_weight_closed_form(self, ou):
        wf = constant_weight(1.0)
        # 2x(y^x) - (y^x)^2 for thresholds right of the origin
        assert weight_primitive(wf, ou, 1.0, 2.0) == pytest.approx(1.0, abs=1e-8)
        assert weight_primitive(wf, ou, 2.0, 1.0) == pytest.approx(3.0, abs=1e-8)

    def test_constant_weight_closed_form_on_grid(self, ou):
        wf = constant_weight(3.0)
        for x in (0.5, 1.5):
            for y in (-1.0, 0.25, 0.8, 2.5):
                closed = 2.0 * x * min(y, x) - min(y, x) ** 2
                assert weight_primitive(wf, ou, x, y) == pytest.approx(closed, abs=1e-8)

    def test_matches_dx_weight_integral(self, ou, wf_exp):
        from scipy.integrate import quad

        expect = quad(lambda v: dx_weight(wf_exp, ou, 1.0, v), 0.0, 2.0,
                      points=[1.0], epsabs=1e-12)[0]
        assert weight_primitive(wf_exp, ou, 1.0, 2.0) == pytest.approx(expect, abs=1e-9)


def _drift_blind(model: DiffusionModel) -> DiffusionModel:
    """``model`` with a drift that raises on every call and no closed scale
    exponent, so neither the drift nor the law can be read."""

    def drift(x):
        raise RuntimeError("the drift was read")

    return replace(model, drift=drift, scale_exponent_closed=None, label="blind", _cache={})


class TestDriftBlindEstimatorSide:
    # the estimators are for an unknown drift: curves and Phi read sigma
    # and the weight only, so a model whose drift cannot be read gives the
    # bits of the real model
    WEIGHTS = ("unbiased:exp:delta=1", "unbiased:poly:p=2",
               custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u))

    @pytest.mark.parametrize("make", [lambda: ornstein_uhlenbeck(1.0, 1.0),
                                      lambda: wavy_model(np)], ids=["sigma_const", "wavy"])
    def test_curves_and_phi_match_the_real_model(self, make):
        real = make()
        blind = _drift_blind(real)
        with pytest.raises(RuntimeError):
            normalizing_constant(blind)
        path = simulate_path(real, SimConfig(horizon_T=20.0, dt=0.01, seed=5))
        xs = np.linspace(-2.0, 2.0, 21)
        choices = ["edf", *self.WEIGHTS]
        for got, want in zip(estimate_curves(path, xs, choices, blind),
                             estimate_curves(path, xs, choices, real)):
            assert np.array_equal(got.values, want.values)
        points = [(x, y) for x in (-1.5, 0.0, 1.0, 18.0) for y in (-20.0, -3.0, 0.5, 20.0)]
        for w in self.WEIGHTS:
            wf = as_estimator(w).weight
            for x, y in points:
                assert weight_primitive(wf, blind, x, y) == weight_primitive(wf, real, x, y)

    def test_tabulated_phi_does_not_depend_on_which_table_came_first(self):
        # a custom weight on a model without sigma_const: P and the weight
        # table are both tabulated. Phi read from cold, growing the tables
        # point by point, equals Phi read after both were built wide
        points = [(x, y) for x in (-1.5, 0.0, 1.0, 18.0) for y in (-20.0, -3.0, 0.5, 20.0)]
        values = []
        for wide in (False, True):
            m = wavy_model(np)
            wf = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
            if wide:
                weight_primitive(wf, m, 200.0, -300.0)
            values.append([weight_primitive(wf, m, x, y) for x, y in points])
        assert values[0] == values[1]

    @pytest.mark.parametrize("spec", ["poly:p=1", "exp:delta=1"])
    def test_phi_is_bit_equal_across_a_drift_vicinity(self, spec):
        # OU(0.2, 1) has the support [-32, 32], the others [-16, 16]
        wf = parse_estimator(f"unbiased:{spec}").weight
        points = [(x, y) for x in (-2.0, -0.5, 0.0, 1.5) for y in (-3.0, -0.7, 0.4, 2.5)]
        values = [[weight_primitive(wf, ornstein_uhlenbeck(theta, 1.0), x, y) for x, y in points]
                  for theta in (1.0, 0.8, 1.25, 0.2)]
        assert all(v == values[0] for v in values[1:])


class TestBoundaryFunction:
    def test_zero_at_origin(self, ou, wf_exp):
        assert boundary_function(wf_exp, ou, 0.5, 0.0) == 0.0

    def test_equals_sum_of_primitives(self, ou, wf_exp):
        for x, y in [(0.0, 1.0), (-1.0, 2.0), (1.0, -1.5)]:
            total = boundary_function(wf_exp, ou, x, y)
            assert total == pytest.approx(
                weight_primitive(wf_exp, ou, x, y) + influence_primitive(ou, x, y), abs=1e-12
            )

    @pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
    def test_regroup_identity_single_vs_split_quadrature(self, ou, wf_exp, x):
        # integrating the derivative kernel in one pass must agree with the
        # two-primitive regrouping to 1e-9
        from ergodist.numerics import QuadratureSpec, integrate

        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
        for y in (-1.0, 0.5, 1.5):
            lo, hi = (0.0, y) if y >= 0 else (y, 0.0)
            pieces = []
            for a, b in ([(lo, min(hi, x)), (max(lo, x), hi)] if lo < x < hi else [(lo, hi)]):
                pieces.append(integrate(
                    lambda v: boundary_derivative_closed(wf_exp, ou, x, v), a, b, spec).value)
            single = math.copysign(1.0, y) * sum(pieces) if y != 0 else 0.0
            assert boundary_function(wf_exp, ou, x, y) == pytest.approx(single, abs=1e-9)


class TestBoundaryDerivative:
    def test_closed_form_at_center(self, ou, wf_exp):
        # threshold at the median: indicator term dies, remaining term is
        # 2 * 0.25 / f(0) = sqrt(pi) / 2
        assert boundary_derivative_closed(wf_exp, ou, 0.0, 0.0) == pytest.approx(
            0.5 * math.sqrt(math.pi), abs=1e-9
        )

    def test_above_threshold_reduces_to_influence_ratio(self, ou, wf_exp):
        z = 1.5
        x = 0.5
        expect = 2.0 * influence_numerator(ou, x, z) / invariant_density(ou, z)
        assert boundary_derivative_closed(wf_exp, ou, x, z) == pytest.approx(expect, rel=1e-10)

    def test_direct_tail_probe_vanishes(self, ou, wf_exp):
        z = -12.0
        m = boundary_derivative_direct(wf_exp, ou, 0.0, z)
        assert abs(m * invariant_density(ou, z)) < 1e-9

    @pytest.mark.parametrize("wf_name", ["exp", "poly"])
    @pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
    def test_direct_matches_closed(self, ou, wf_exp, wf_poly, wf_name, x):
        wf = {"exp": wf_exp, "poly": wf_poly}[wf_name]
        for z in np.linspace(-3.0, 3.0, 13):
            a = boundary_derivative_direct(wf, ou, x, float(z))
            b = boundary_derivative_closed(wf, ou, x, float(z))
            assert abs(a - b) <= 1e-6 * max(abs(b), 1e-9)


class TestCompensatorAndMartingaleWeight:
    def test_above_threshold_values(self, ou, wf_exp):
        x = 0.5
        fx = invariant_cdf(ou, x)
        assert compensator(wf_exp, ou, x, 2.0) == pytest.approx(-fx, abs=1e-12)
        assert martingale_weight(wf_exp, ou, x, 2.0) == 0.0

    @pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
    def test_compensator_is_centered(self, ou, wf_exp, x):
        val = stationary_expectation(ou, lambda y: compensator(wf_exp, ou, x, y))
        assert abs(val) < 2e-6

    def test_martingale_weight_is_dx_weight_times_sigma(self, ou, wf_exp):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y = rng.uniform(-3, 3, 2)
            expect = dx_weight(wf_exp, ou, x, y) * 1.0
            assert martingale_weight(wf_exp, ou, x, y) == pytest.approx(expect, abs=1e-12)


class TestOdeResidual:
    @pytest.mark.parametrize("wf_name", ["exp", "poly"])
    def test_residual_small_at_probes(self, ou, wf_exp, wf_poly, wf_name):
        wf = {"exp": wf_exp, "poly": wf_poly}[wf_name]
        probes = [y for y in np.linspace(-2.0, 2.0, 21) if abs(y) > 1e-9][:20]
        for x in (-1.0, 0.0, 1.0):
            for y in probes:
                assert abs(ode_residual(wf, ou, x, float(y))) < 1e-3


class TestIdentityCoefficientsOnArrays:
    ZS = np.concatenate([np.linspace(-3.0, 3.0, 25), [0.7, -0.0]])
    WEIGHTS = ["exp:delta=1", "poly:p=1", "poly:p=2", "poly:p=3", "const:c=2.5"]
    MODELS = {"ou": lambda: ornstein_uhlenbeck(2.0, 0.5), "quartic": quartic_well,
              "custom_ou": lambda: DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                                                  diffusion_sq=lambda x: 1.0, label="custom_ou")}

    @staticmethod
    def weights():
        yield from (parse_estimator(f"unbiased:{spec}").weight
                    for spec in TestIdentityCoefficientsOnArrays.WEIGHTS)
        yield custom_weight(lambda u: 1.0 + u**4, lambda u: 4.0 * u**3)

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_array_equals_float_calls(self, label):
        # bit for bit where the kernel has a closed form; where it is a
        # quadrature (a custom weight, or a model without a constant
        # sigma), an array takes the kernel's panel route and a float its
        # own adaptive quadrature, which agree to rounding
        model = self.MODELS[label]()
        for wf in self.weights():
            exact = wf.inv_h_primitive is not None and model.sigma_const is not None
            for x in (-1.0, 0.0, 0.7):
                for fn in (compensator, boundary_derivative_closed):
                    got = fn(wf, model, x, self.ZS)
                    want = [fn(wf, model, x, float(z)) for z in self.ZS]
                    assert isinstance(got, np.ndarray) and got.shape == self.ZS.shape
                    assert all(type(w) is float for w in want)
                    if exact:
                        assert np.array_equal(got, want)
                    else:
                        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_tail_error_names_the_first_underflowing_z(self, ou, wf_exp):
        zs = np.array([0.0, 1.0, -40.0, 45.0])
        with pytest.raises(TailError, match=r"z=-40\.0"):
            boundary_derivative_closed(wf_exp, ou, 0.0, zs)

    def _record(self, monkeypatch, module, names):
        shapes = {name: [] for name in names}
        for name, seen in shapes.items():
            real = getattr(module, name)

            def recorded(wf, model, x, y, real=real, seen=seen):
                seen.append(np.shape(y))
                return real(wf, model, x, y)

            monkeypatch.setattr(module, name, recorded)
        return shapes

    @staticmethod
    def all_arrays(shapes):
        return shapes and all(len(s) == 1 and s[0] >= 7 for s in shapes)

    def test_direct_and_ode_integrands_reach_them_as_arrays(self, ou, wf_poly, monkeypatch):
        shapes = self._record(monkeypatch, efficiency,
                              ["compensator", "boundary_derivative_closed"])
        boundary_derivative_direct(wf_poly, ou, 0.5, 1.0)
        assert self.all_arrays(shapes["compensator"])
        shapes["compensator"].clear()
        ode_residual(wf_poly, ou, 0.5, -0.5)
        assert self.all_arrays(shapes["boundary_derivative_closed"])
        assert shapes["compensator"] == [()]  # the residual's own value at y

    def test_regroup_integrand_reaches_them_as_arrays(self, tmp_path, monkeypatch):
        from ergodist import harness

        shapes = self._record(monkeypatch, harness, ["boundary_derivative_closed"])
        rc = cli_main(["identity-checks", "--model", "ou", "--estimator", "unbiased:poly:p=2",
                       "--x", "0.5", "--z-grid", "-1:1:3", "--out", str(tmp_path / "idc.json")])
        assert rc == 0
        seen = shapes["boundary_derivative_closed"]
        assert seen.count(()) == 3  # the derivative identity's one call per z
        assert self.all_arrays([s for s in seen if s != ()])


class TestRepresentationDiscrepancy:
    def test_requires_increments(self, ou, wf_exp):
        path = Path(dt=0.1, values=np.zeros(11))
        with pytest.raises(ValueError):
            representation_discrepancy(path, wf_exp, ou, 0.0)

    def test_frozen_path_above_threshold(self, ou, wf_exp):
        # constant path at 5 with real Wiener increments: with the threshold
        # deep in the left tail everything in the identity vanishes
        rng = np.random.default_rng(9)
        n = 200
        path = Path(dt=0.01, values=np.full(n + 1, 5.0),
                    wiener_increments=rng.normal(0.0, 0.1, n))
        assert representation_discrepancy(path, wf_exp, ou, -12.0) < 1e-8

    def test_single_path_discrepancy_is_small(self, ou, wf_exp):
        cfg = SimConfig(horizon_T=10.0, dt=1e-3, seed=123, init="stationary",
                        store_wiener=True)
        path = simulate_path(ou, cfg)
        assert representation_discrepancy(path, wf_exp, ou, 0.0) < 0.1

    @pytest.fixture(scope="class")
    def long_path(self):
        # 100 000 steps: the martingale sum takes the array extraction
        cfg = SimConfig(horizon_T=500.0, dt=0.005, seed=21, init=1.5, store_wiener=True)
        return simulate_path(ornstein_uhlenbeck(), cfg)

    def test_long_path_residual_equals_fsum_residual(self, ou, wf_exp, long_path):
        for x in (-0.5, 0.0, 0.5):
            assert representation_discrepancy(long_path, wf_exp, ou, x) == \
                fsum_representation_residual(long_path, wf_exp, ou, x)

    # float.hex of representation_discrepancy and unbiased_estimate on
    # long_path, measured with numpy 2.4.6; the oracle above reads the
    # package's own influence ratio and estimate, so it cannot see their
    # bits move
    _PINNED_RESIDUAL_BITS = {
        -0.5: ("0x1.7f7e7338370f0p-8", "0x1.f6f811c26c78fp-3"),
        0.0: ("0x1.c5b6292c62480p-8", "0x1.049c7a747ec66p-1"),
        0.5: ("0x1.242ba6413fd40p-7", "0x1.8b50497265308p-1"),
    }

    def test_long_path_residual_matches_pinned_bits(self, ou, wf_exp, long_path):
        if np.__version__ != _PINNED_NUMPY:
            pytest.skip(f"bits pinned with numpy {_PINNED_NUMPY}, running {np.__version__}")
        for x, (residual, estimate) in self._PINNED_RESIDUAL_BITS.items():
            assert representation_discrepancy(long_path, wf_exp, ou, x).hex() == residual
            assert unbiased_estimate(long_path, wf_exp, ou, x).hex() == estimate

    # sha256 of each curve's values on long_path, 195 chunks of 512 steps
    # and a tail of 160, measured with numpy 2.4.6
    _PINNED_CURVE_SHA256 = {
        "edf": "093da1c7b8ae0435f498d1a912b1439021ecb42b3f0a33e872b9917265120a2c",
        "unbiased:exp:delta=1": "634b063d72cb63193eb294199679f1b99008b1f2107d8dfaec8d91f184e276b3",
        "unbiased:poly:p=2": "07d5724051eaebdbbed7196bad641e678979be8ec327f58ff8bbe6b451b3cbe7",
        "unbiased:const:c=1": "561d64a3c63d4e4aeef98434b967c494efd934d1617e7eec05735ffc513d636d",
    }

    def test_long_path_curves_match_pinned_digests(self, ou, long_path):
        if np.__version__ != _PINNED_NUMPY:
            pytest.skip(f"bits pinned with numpy {_PINNED_NUMPY}, running {np.__version__}")
        specs = list(self._PINNED_CURVE_SHA256)
        curves = estimate_curves(long_path, np.linspace(-1.5, 1.5, 201), specs, ou)
        got = {spec: hashlib.sha256(c.values.tobytes()).hexdigest()
               for spec, c in zip(specs, curves)}
        assert got == self._PINNED_CURVE_SHA256


@pytest.mark.slow
class TestMartingaleTermDominance:
    def test_boundary_term_shrinks_and_martingale_variance_matches(self, ou, wf_exp):
        x = 0.0
        n_seeds = 40
        boundary_ms = {}
        mart_vars = {}
        for T in (25.0, 50.0, 100.0):
            bs, ms = [], []
            for k in range(n_seeds):
                cfg = SimConfig(horizon_T=T, dt=0.01,
                                seed=derive_substream_seed(13, k), store_wiener=True)
                p = simulate_path(ou, cfg)
                dm = (boundary_function(wf_exp, ou, x, float(p.values[-1]))
                      - boundary_function(wf_exp, ou, x, float(p.values[0])))
                bs.append(dm * dm / T)
                from ergodist.efficiency import _influence_ratio_vec
                from ergodist.numerics import compensated_sum

                psi = _influence_ratio_vec(ou, x, p.values[:-1])
                ms.append(compensated_sum(psi * p.wiener_increments) / math.sqrt(T))
            boundary_ms[T] = float(np.mean(bs))
            mart_vars[T] = float(np.var(ms, ddof=1))
        assert boundary_ms[25.0] > boundary_ms[50.0] > boundary_ms[100.0]
        for T in (50.0, 100.0):
            assert abs(mart_vars[T] / R_AT_ZERO - 1.0) < 0.15


class TestMomentScreens:
    def test_influence_moment_gaussian_nu(self, ou):
        ok, val = influence_moment_finite(ou, nu_gaussian(0.0, 1.0))
        assert ok and val > 0.0

    @pytest.mark.parametrize("wf_factory", [
        lambda: exponential_weight(1.0),
        lambda: polynomial_weight(1),
        lambda: constant_weight(1.0),
    ], ids=["exp", "poly", "const"])
    def test_weight_moment_gaussian_nu(self, ou, wf_factory):
        ok, val = weight_moment_finite(wf_factory(), ou, nu_gaussian(0.0, 1.0))
        assert ok and val > 0.0

    def test_point_mass_nu_screen(self, ou, wf_exp):
        ok, val = weight_moment_finite(wf_exp, ou, nu_point_masses([(0.0, 1.0)]))
        assert ok and val > 0.0

    def test_point_mass_past_the_limit(self, ou):
        # an atom at 2000 reads P there by quadrature: the custom twin of
        # poly:p=1 screens as the closed weight does
        nu = nu_point_masses([(2000.0, 0.5), (-1.0, 0.5)])
        ok, val = weight_moment_finite(custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u),
                                       ou, nu)
        ok_closed, val_closed = weight_moment_finite(polynomial_weight(1), ou, nu)
        assert ok and ok_closed and val == pytest.approx(val_closed, rel=1e-10)

    def test_quartic_model_screen(self, quartic):
        ok, _ = influence_moment_finite(quartic, nu_gaussian(0.0, 1.0))
        assert ok

    SWEEP_MODELS = {
        "ou": lambda: ornstein_uhlenbeck(1.0, 1.0),
        "ou_narrow": lambda: ornstein_uhlenbeck(5.0, 0.2),
        "ou_wide": lambda: ornstein_uhlenbeck(0.2, 3.0),
        "quartic": quartic_well,
        "custom_ou": lambda: DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                                            diffusion_sq=lambda x: 1.0, label="custom_ou"),
        "shifted_up": lambda: shifted_ou(20.0),
        "shifted_down": lambda: shifted_ou(-20.0),
        "wavy": lambda: wavy_model(np),
    }
    # every table's nodes, hence every digest, rest on these supports
    SUPPORTS = {
        "ou": (-16.0, 16.0),
        "ou_narrow": (-16.0, 16.0),
        "ou_wide": (-128.0, 128.0),
        "quartic": (-16.0, 16.0),
        "custom_ou": (-16.0, 16.0),
        "shifted_up": (-16.0, 64.0),
        "shifted_down": (-64.0, 16.0),
        "wavy": (-16.0, 16.0),
    }

    @pytest.mark.parametrize("label", sorted(SWEEP_MODELS))
    def test_support_is_pinned(self, label):
        assert _support(self.SWEEP_MODELS[label]()) == self.SUPPORTS[label]

    @pytest.mark.parametrize("label", sorted(SWEEP_MODELS))
    def test_screens_match_direct_passes(self, label):
        # every screen against its full pass over the table's nodes at each
        # outer point; a screen that warns fails the test (pyproject.toml)
        model = self.SWEEP_MODELS[label]()
        for spec in ("gauss:0,1", "uniform:-2,2", "point:-1=0.25;0=0.5;1=0.25"):
            nu = parse_nu(spec)
            pairs = [(influence_moment_finite(model, nu), influence_moment_direct(model, nu))]
            for w in ("exp:delta=1", "poly:p=1", "poly:p=2", "const:c=1"):
                wf = parse_estimator(f"unbiased:{w}").weight
                pairs.append((weight_moment_finite(wf, model, nu),
                              weight_moment_direct(wf, model, nu)))
            for (ok, value), (ok_direct, value_direct) in pairs:
                assert ok is ok_direct
                assert value == pytest.approx(value_direct, rel=1e-8)

    def test_constant_weight_screen_is_exact_far_from_the_mass(self):
        # on shifted_ou(20) nearly all the mass lies above every x that nu
        # weights, and the primitive of the const weight at xi > x is x^2
        # for x > 0 and 0 for x <= 0, so the screen is the nu-integral of
        # x^4 over x > 0
        model, wf = shifted_ou(20.0), constant_weight(1.0)
        for spec, exact in (("gauss:0,1", 1.5), ("uniform:-2,2", 1.6),
                            ("point:-1=0.25;0=0.5;1=0.25", 0.25)):
            ok, value = weight_moment_finite(wf, model, parse_nu(spec))
            assert ok and value == pytest.approx(exact, rel=1e-10)

    def test_outer_integrand_reaches_inner_as_arrays(self, ou, wf_exp, monkeypatch):
        # one call per round of the outer quadrature, where a call per
        # point made about 250 per screen
        shapes = []
        real = efficiency._nu_weighted_screen

        def counting(inner, nu, what):
            def counted(x):
                shapes.append(np.shape(x))
                return inner(x)

            return real(counted, nu, what)

        monkeypatch.setattr(efficiency, "_nu_weighted_screen", counting)
        counts = []
        for nu in (nu_gaussian(0.0, 1.0), nu_uniform(-2.0, 2.0)):
            for screen in (lambda: influence_moment_finite(ou, nu),
                           lambda: weight_moment_finite(wf_exp, ou, nu)):
                shapes.clear()
                assert screen()[0]
                assert all(len(s) == 1 and s[0] >= 15 for s in shapes)
                counts.append(len(shapes))
        assert max(counts) <= 10, counts  # 4 (gauss) and 1 (uniform) here

    @pytest.mark.parametrize("nu", [nu_gaussian(0.0, 1.0), nu_uniform(-2.0, 2.0)],
                             ids=["gauss", "uniform"])
    def test_unconverged_screen_warns(self, ou, wf_exp, nu, monkeypatch):
        monkeypatch.setattr(efficiency, "_SCREEN_OUTER",
                            QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_depth=1))
        for screen, what in ((lambda: influence_moment_finite(ou, nu), "influence moment"),
                             (lambda: weight_moment_finite(wf_exp, ou, nu), "exp weight")):
            with pytest.warns(RuntimeWarning, match="did not converge") as record:
                screen()
            message = str(record[0].message)
            assert what in message and ou.label in message and nu.kind in message


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="blocks run serially")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEmpiricalRisk:
    def grid(self):
        return np.linspace(-5.0, 5.0, 21)

    def test_point_mass_nu_reduces_to_atom_mse(self, ou):
        from ergodist.estimators import estimate_curve

        atom = 0.37
        nu = nu_point_masses([(atom, 2.0)])
        sim = SimConfig(horizon_T=2.0, dt=0.01, seed=6)
        rep = empirical_risk(ou, "edf", nu, sim, 5, self.grid())
        truth = invariant_cdf(ou, atom)
        errs = []
        for r in range(5):
            cfg = replace(sim, seed=derive_substream_seed(6, r))
            p = simulate_path(ou, cfg)
            e = estimate_curve(p, np.array([atom]), "edf").values[0] - truth
            errs.append(2.0 * e * e)
        assert rep.scaled_risk == pytest.approx(2.0 * float(np.mean(errs)), rel=1e-12)

    def test_nu_coverage_precondition(self, ou):
        sim = SimConfig(horizon_T=1.0, dt=0.01, seed=1)
        with pytest.raises(ConfigError):
            empirical_risk(ou, "edf", nu_gaussian(0, 1), sim, 3, np.linspace(-3, 3, 11))

    def test_replication_floor(self, ou):
        sim = SimConfig(horizon_T=1.0, dt=0.01, seed=1)
        with pytest.raises(ConfigError):
            empirical_risk(ou, "edf", nu_gaussian(0, 1), sim, 1, self.grid())

    @pytest.mark.parametrize("xs, bad", [([-np.inf, 0.0, 10.0], "-inf"),
                                         ([-10.0, 0.0, np.inf], "inf"),
                                         ([-10.0, np.nan, 10.0], "nan")])
    def test_non_finite_grid_point_refused_before_any_path(self, ou, monkeypatch, xs, bad):
        # the grid is checked before any path is drawn
        drawn = []
        monkeypatch.setattr(efficiency, "stream_block", lambda *a: drawn.append(a))
        sim = SimConfig(horizon_T=1.0, dt=0.01, seed=1)
        with pytest.raises(ConfigError) as err:
            empirical_risk(ou, "edf", nu_uniform(-1.0, 1.0), sim, 4, np.array(xs))
        assert f"grid points must be finite, got {bad}" in err.value.violations
        assert drawn == []

    def test_exploding_replications_fail_the_run(self, quartic):
        sim = SimConfig(horizon_T=10.0, dt=1.0, seed=2)
        with pytest.raises(RiskRunError):
            empirical_risk(quartic, "edf", nu_gaussian(0, 1), sim, 50, self.grid())

    @pytest.mark.slow
    def test_uniform_nu_risk_near_bound(self, ou):
        rep = empirical_risk(ou, "edf", nu_uniform(-2.0, 2.0),
                             SimConfig(horizon_T=50.0, dt=0.01, seed=9), 200,
                             np.linspace(-3.0, 3.0, 61))
        assert 0.8 <= rep.ratio <= 1.2

    def test_deterministic_given_seed(self, ou):
        sim = SimConfig(horizon_T=1.0, dt=0.01, seed=44)
        a = empirical_risk(ou, "edf", nu_gaussian(0, 1), sim, 4, self.grid())
        b = empirical_risk(ou, "edf", nu_gaussian(0, 1), sim, 4, self.grid())
        assert a.scaled_risk == b.scaled_risk
        assert np.array_equal(a.bias, b.bias)
        assert a.path_seeds == b.path_seeds

    def test_estimator_list_matches_single_runs_bitwise(self, ou):
        sim = SimConfig(horizon_T=2.0, dt=0.01, seed=12)
        specs = ["edf", "unbiased:exp:delta=1", "unbiased:poly:p=1"]
        reports = empirical_risk(ou, specs, nu_gaussian(0, 1), sim, 6, self.grid())
        assert [rep.estimator_tag for rep in reports] == [
            "edf", "unbiased_exp", "unbiased_poly"]
        for spec, rep in zip(specs, reports):
            one = empirical_risk(ou, spec, nu_gaussian(0, 1), sim, 6, self.grid())
            assert rep.scaled_risk == one.scaled_risk
            assert rep.bound == one.bound and rep.ratio == one.ratio
            for field in ("bias", "scaled_variance", "local_bound"):
                assert np.array_equal(getattr(rep, field), getattr(one, field))
            assert rep.path_seeds == one.path_seeds

    def test_errors_do_not_depend_on_block_split(self, ou):
        # seven replications as one block and as blocks of 3, 3 and 1 give
        # the same error curves bit for bit, and 1 or 3 workers the same
        # report
        sim = SimConfig(horizon_T=1.0, dt=0.01, seed=8)
        specs = ["edf", "unbiased:exp:delta=1", "unbiased:poly:p=1"]
        grid = self.grid()
        ctx = efficiency._RiskContext(
            model=ou, choices=tuple(as_estimator(s) for s in specs), sim=sim, eval_xs=grid,
            truth=np.array([invariant_cdf(ou, float(x)) for x in grid]))
        whole = efficiency._block_errors(ctx, range(7))
        split = [e for reps in (range(0, 3), range(3, 6), range(6, 7))
                 for e in efficiency._block_errors(ctx, reps)]
        assert len(whole) == len(split) == 7
        for a, b in zip(whole, split):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
        one = empirical_risk(ou, specs, nu_gaussian(0, 1), sim, 7, grid, workers=1)
        three = empirical_risk(ou, specs, nu_gaussian(0, 1), sim, 7, grid, workers=3)
        for a, b in zip(one, three):
            assert a.scaled_risk == b.scaled_risk
            assert np.array_equal(a.bias, b.bias)
            assert np.array_equal(a.scaled_variance, b.scaled_variance)
        _assert_no_child_left()

    @needs_fork
    def test_tabulated_primitive_reports_match_in_forked_workers(self):
        # a custom weight on a model without sigma_const, fresh objects per
        # run, so each forked child grows its primitive table from cold:
        # 2 workers give the 1-worker reports bit for bit
        sim = SimConfig(horizon_T=2.0, dt=0.01, seed=6)
        runs = []
        for workers in (1, 2):
            w = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
            runs.append(empirical_risk(wavy_model(np), ["edf", w, "unbiased:exp:delta=1"],
                                       nu_gaussian(0, 1), sim, 6, self.grid(), workers=workers))
        for a, b in zip(*runs):
            assert a.scaled_risk == b.scaled_risk and a.bound == b.bound
            for field in ("bias", "scaled_variance", "local_bound"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        _assert_no_child_left()

    @pytest.mark.parametrize("exc", [
        EvaluationError(-1.5, "weight function h must be positive and finite"),
        EvaluationError(2.0),
        ExponentOverflowError(3.0, "scale exponent overflowed"),
        SimulationError(7, "trajectory exploded at step 7"),
        ConfigError(["replications must be >= 2, got 1", "grid needs at least 2 points"]),
    ], ids=lambda e: type(e).__name__)
    def test_errors_survive_pickle(self, exc):
        # a block worker sends its exception to the parent pickled
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("exc", [
        EvaluationError(2.0), ConfigError(["grid needs at least 2 points"]),
        RiskRunError("3/10 replications aborted"), WorkerError("the worker ended"),
    ], ids=lambda e: type(e).__name__)
    def test_errors_survive_every_pickle_protocol(self, exc, protocol):
        # one __reduce__ on the base class rebuilds each without __init__
        back = pickle.loads(pickle.dumps(exc, protocol=protocol))
        assert type(back) is type(exc) and back.args == exc.args and vars(back) == vars(exc)

    @needs_fork
    def test_worker_error_matches_serial(self, ou):
        # h = 1 - u^2/2 turns negative in the tails: each block raises in
        # its weight table, and 2 workers raise what 1 worker raises
        w = custom_weight(lambda u: 1 - 0.5 * u * u, lambda u: -u)
        sim = SimConfig(horizon_T=5.0, dt=0.01, seed=3)
        raised = []
        for workers in (1, 2):
            with pytest.raises(EvaluationError) as err:
                empirical_risk(ou, w, nu_gaussian(0, 1), sim, 6, np.linspace(-5.0, 5.0, 11),
                               workers=workers)
            raised.append((type(err.value), str(err.value), err.value.abscissa))
        assert raised[0] == raised[1]
        assert raised[0][1].startswith("weight function h must be positive and finite")
        _assert_no_child_left()

    @needs_fork
    def test_worker_without_result_fails_the_run(self, ou, monkeypatch):
        real = efficiency._block_errors

        def dies_after_first(ctx, reps):
            if reps.start > 0:
                os._exit(5)
            return real(ctx, reps)

        monkeypatch.setattr(efficiency, "_block_errors", dies_after_first)
        sim = SimConfig(horizon_T=1.0, dt=0.01, seed=8)
        with pytest.raises(RiskRunError, match=r"replications 3\.\.5 ended without a result "
                                               r"\(wait status \d+, exit code 5\)"):
            empirical_risk(ou, "edf", nu_gaussian(0, 1), sim, 6, self.grid(), workers=2)
        _assert_no_child_left()

    @needs_fork
    def test_stopped_parent_kills_its_workers(self, ou, monkeypatch):
        # the second block would run for a minute; a timer stops the parent
        # while it reads, and the worker is killed, not waited out
        real = efficiency._block_errors

        def stalls_after_first(ctx, reps):
            if reps.start > 0:
                time.sleep(60.0)
            return real(ctx, reps)

        class Stopped(Exception):
            pass

        def stop(signum, frame):
            raise Stopped

        monkeypatch.setattr(efficiency, "_block_errors", stalls_after_first)
        previous = signal.signal(signal.SIGALRM, stop)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(Stopped):
                empirical_risk(ou, "edf", nu_gaussian(0, 1), SimConfig(1.0, 0.01, 8), 6,
                               self.grid(), workers=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30.0
        _assert_no_child_left()

    def test_exploded_path_is_dropped_mid_chunk(self):
        # x' = x^3 from 0 with these seeds throws the fourth path off at
        # step 32 of 40, inside the first chunk; its replication has no
        # curves and the other three keep theirs bit for bit
        blowup = DiffusionModel(drift=lambda x: x * x * x, diffusion=lambda x: 1.0,
                                diffusion_sq=lambda x: 1.0, sigma_const=1.0, label="blowup")
        grid = np.linspace(-1.0, 1.0, 5)
        ctx = efficiency._RiskContext(
            model=blowup, choices=(as_estimator("edf"), as_estimator("unbiased:exp:delta=1")),
            sim=SimConfig(horizon_T=2.0, dt=0.05, seed=0, init=0.0), eval_xs=grid,
            truth=np.zeros(grid.size))
        four = efficiency._block_errors(ctx, range(4))
        assert four[3] is None
        for a, b in zip(four[:3], efficiency._block_errors(ctx, range(3))):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
            assert all(np.all(np.isfinite(u)) for u in a)

    def test_report_dict_schema(self, ou):
        sim = SimConfig(horizon_T=1.0, dt=0.01, seed=3)
        rep = empirical_risk(ou, "edf", nu_gaussian(0, 1), sim, 3, self.grid())
        d = rep.to_dict({"estimator": "edf"})
        assert set(d) == {"xs", "bias", "scaled_variance", "local_bound",
                          "scaled_risk", "bound", "ratio", "aborted", "config"}
        assert d["aborted"] == 0
        assert len(d["xs"]) == len(d["local_bound"]) == 21
        assert d["bound"] > 0.0


def wavy_model(lib):
    """The custom model of tests/test_simulate.py (state-dependent sigma),
    written with ``lib`` = numpy for arrays or ``lib`` = math for floats."""
    return DiffusionModel(
        drift=lambda x: -lib.tanh(x) - 0.5 * x,
        diffusion=lambda x: 1.0 + 0.25 * lib.cos(x),
        diffusion_sq=lambda x: (1.0 + 0.25 * lib.cos(x)) ** 2,
        label=f"wavy_{lib.__name__}",
    )


class TestFloatWrittenFunctions:
    def test_math_twin_matches_numpy_twin(self):
        # a model and a weight written with math functions are read on
        # arrays through their float calls, and give the numbers of their
        # numpy-written twins
        def run(lib):
            model = wavy_model(lib)
            nu = nu_gaussian(0.0, 1.0)
            weight = custom_weight(lambda u: lib.exp(0.5 * u), lambda u: 0.5 * lib.exp(0.5 * u))
            sim = SimConfig(horizon_T=2.0, dt=0.01, seed=4)
            reports = empirical_risk(model, ["edf", "unbiased:exp:delta=1", weight], nu, sim, 3,
                                     np.linspace(-5.0, 5.0, 21))
            values = [local_variance(model, np.linspace(-3.0, 3.0, 13)),
                      [efficiency_bound(model, nu)],
                      [influence_moment_finite(model, nu)[1]],
                      [weight_moment_finite(weight, model, nu)[1]]]
            for rep in reports:
                values += [rep.bias, rep.scaled_variance, [rep.scaled_risk, rep.bound]]
            return values

        for got, expect in zip(run(math), run(np), strict=True):
            np.testing.assert_allclose(got, expect, rtol=1e-9, atol=0.0)
