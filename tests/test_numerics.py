import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergodist import estimators, model, numerics
from ergodist.errors import BracketError, DivergenceError, EvaluationError
from ergodist.numerics import (
    QuadratureSpec,
    compensated_sum,
    integrate,
    integrate_line,
    integrate_panels,
    invert_monotone,
)

from oracles import erf_series, exact_fraction_sum


class TestQuadratureSpec:
    def test_defaults_valid(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10 and spec.tail_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"rel_tol": -1e-3},
            {"max_depth": 0},
            {"tail_tol": 0.0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestIntegrate:
    def test_zero_integrand(self):
        res = integrate(lambda x: 0.0, 0.0, 1.0)
        assert res.value == 0.0 and res.error_estimate == 0.0 and res.converged

    def test_constant_integrand(self):
        res = integrate(lambda x: 1.0, 2.0, 5.0)
        assert res.value == pytest.approx(3.0, abs=1e-12)
        assert res.converged

    def test_gaussian_integral(self):
        # frozen from the series erf oracle: erf(6) ~ 1 to < 1e-16
        target = math.sqrt(math.pi) * erf_series(6.0)
        res = integrate(lambda x: math.exp(-x * x), -6.0, 6.0)
        assert res.converged
        assert res.value == pytest.approx(target, abs=1e-10)

    def test_empty_interval(self):
        assert integrate(lambda x: 5.0, 1.0, 1.0).value == 0.0

    @pytest.mark.parametrize("kink", [None, 0.9])
    def test_reversed_limits_negate(self, kink):
        f = lambda x: np.sin(3.0 * x) + x * x
        forward = integrate(f, 0.2, 1.7, kink=kink)
        backward = integrate(f, 1.7, 0.2, kink=kink)
        assert backward.value == -forward.value
        assert backward.error_estimate == forward.error_estimate
        assert backward.converged and forward.converged

    def test_kink_inside_splits_into_two_panels(self):
        f = lambda x: np.where(x < 0.9, np.sin(3.0 * x), x * x)
        values, _, _ = integrate_panels(f, [0.2, 0.9, 1.7], numerics.DEFAULT_QUADRATURE,
                                        numerics._FIRST_SPLIT)
        assert integrate(f, 0.2, 1.7, kink=0.9).value == values[0] + values[1]

    @pytest.mark.parametrize("kink", [0.2, 1.7, -3.0, 5.0])
    def test_kink_at_or_outside_a_limit_ignored(self, kink):
        f = lambda x: np.sin(3.0 * x) + x * x
        assert integrate(f, 0.2, 1.7, kink=kink) == integrate(f, 0.2, 1.7)

    def test_kernel_at_its_own_threshold_is_zero(self):
        # a custom weight has no closed primitive: the scalar quadrature path
        wf = estimators.custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
        m = model.DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                                 diffusion_sq=lambda x: 1.0, label="custom")
        assert estimators.kernel(wf, m, 0.7, 0.7) == 0.0

    def test_nonfinite_integrand_reports_abscissa(self):
        with pytest.raises(EvaluationError) as err:
            integrate(lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0)
        assert err.value.abscissa > 0.5

    def test_jump_discontinuity_converges_by_subdivision(self):
        res = integrate(lambda x: 1.0 if x < 0.3 else 0.0, 0.0, 1.0,
                        QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8))
        assert res.value == pytest.approx(0.3, abs=1e-7)

    def test_depth_exhaustion_flags_not_converged(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_depth=2)
        res = integrate(lambda x: 1.0 if x < 1.0 / 3.0 else 0.0, 0.0, 1.0, spec)
        assert not res.converged

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_split_additivity(self, c):
        f = lambda x: math.sin(3.0 * x) + x * x
        whole = integrate(f, 0.0, 1.0)
        parts = integrate(f, 0.0, c)
        parts2 = integrate(f, c, 1.0)
        assert whole.value == pytest.approx(
            parts.value + parts2.value,
            abs=whole.error_estimate + parts.error_estimate + parts2.error_estimate + 1e-12,
        )

    def test_converged_respects_error_contract(self):
        res = integrate(lambda x: math.exp(x), 0.0, 3.0)
        assert res.converged
        assert res.error_estimate <= max(1e-10, 1e-10 * abs(res.value))


class TestIntegratePanels:
    EDGES = np.linspace(-1.0, 2.0, 7)

    @pytest.mark.parametrize(
        "f, g, points",
        [
            (lambda x: np.exp(-x * x) * np.cos(3.0 * x),
             lambda x: math.exp(-x * x) * math.cos(3.0 * x), None),
            (lambda x: np.abs(x - 0.3) ** 1.5 + np.abs(x - 1.3),
             lambda x: abs(x - 0.3) ** 1.5 + abs(x - 1.3), [0.3, 1.3]),
            (lambda x: np.where(x < 1.0 / 3.0, np.sin(x), 2.0),
             lambda x: math.sin(x) if x < 1.0 / 3.0 else 2.0, [1.0 / 3.0]),
        ],
        ids=["smooth", "kinked", "jump"],
    )
    def test_matches_scipy_quad(self, f, g, points):
        values, errors, converged = integrate_panels(f, self.EDGES)
        assert converged.all() and values.shape == errors.shape == (6,)
        for k, (a, b) in enumerate(zip(self.EDGES[:-1], self.EDGES[1:])):
            inside = [p for p in points or [] if a < p < b] or None
            ref = quad(g, a, b, points=inside, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            assert values[k] == pytest.approx(ref, abs=1e-10)
            assert errors[k] <= max(1e-10, 1e-10 * abs(values[k]))

    def test_panels_sum_to_one_panel_integral(self):
        f = lambda x: np.exp(-0.5 * x * x) / (1.0 + x * x)
        values, _, converged = integrate_panels(f, np.linspace(-8.0, 8.0, 2049))
        assert converged.all()
        whole = integrate(f, -8.0, 8.0)
        assert math.fsum(values) == pytest.approx(whole.value, abs=1e-13)

    def test_scalar_only_integrand_matches_vector_form(self):
        # math functions and an if make the array call raise; the nodes then
        # go one at a time through float calls
        scalar = lambda x: x * x if x < 0.5 else 0.25 - (x - 0.5)
        vector = lambda x: np.where(x < 0.5, x * x, 0.25 - (x - 0.5))
        assert integrate(scalar, -1.0, 2.0) == integrate(vector, -1.0, 2.0)
        got = integrate(lambda x: math.exp(-x) if x > 0.0 else 1.0, -1.0, 3.0).value
        ref = integrate(lambda x: np.where(x > 0.0, np.exp(-x), 1.0), -1.0, 3.0).value
        assert got == pytest.approx(ref, rel=1e-15)

    def test_scalar_result_is_broadcast(self):
        values, _, converged = integrate_panels(lambda x: 2.0, [0.0, 1.0, 3.0])
        assert converged.all()
        assert values == pytest.approx([2.0, 4.0], abs=1e-14)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_value_reports_abscissa(self, bad):
        with pytest.raises(EvaluationError) as err:
            integrate_panels(lambda x: np.where(x > 1.25, bad, 1.0), [0.0, 1.0, 2.0])
        assert 1.25 < err.value.abscissa < 2.0

    def test_overflow_reports_abscissa(self):
        # math.exp overflows past about 709.78: the float calls raise
        # OverflowError, which becomes EvaluationError at that node
        with pytest.raises(EvaluationError) as err:
            integrate(lambda x: math.exp(x), 0.0, 1000.0)
        assert err.value.abscissa > 709.0

        def overflowing(x):
            # raises OverflowError on an array as well as on a float
            return np.array([math.exp(t) for t in np.atleast_1d(x)]).reshape(np.shape(x))

        with pytest.raises(EvaluationError) as err:
            integrate_panels(overflowing, [0.0, 700.0, 800.0])
        assert 709.0 < err.value.abscissa < 800.0

    def test_depth_exhaustion_flags_only_the_failing_panel(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_depth=2)
        _, _, converged = integrate_panels(lambda x: np.where(x < 1.0 / 3.0, 1.0, 0.0),
                                           [0.0, 0.25, 0.5, 1.0], spec)
        assert converged.tolist() == [True, False, True]

    def test_noisy_integrand_stops_at_the_panel_cap(self):
        # noise of 1e-9 relative never meets abs = rel = 1e-12, so about
        # |x| < 2.8 every subinterval is bisected each round; without the
        # cap, depth 16 asked for 1.1 M points in one call
        rng = np.random.default_rng(0)
        sizes = []

        def noisy(x):
            sizes.append(x.size)
            return np.exp(-x * x) * (1.0 + 1e-9 * rng.standard_normal(x.shape))

        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_depth=16)
        value, _, converged = integrate_panels(noisy, [-5.0, 5.0], spec, numerics._FIRST_SPLIT)
        assert not converged[0]
        assert max(sizes) <= 15 * numerics._PANEL_CAP
        assert max(sizes) > 15 * numerics._PANEL_CAP // 4  # the cap, not the depth, stopped it
        assert value[0] == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            integrate_panels(np.exp, [0.0, 1.0, 0.5])
        with pytest.raises(EvaluationError):
            integrate_panels(np.exp, [0.0, math.inf])

    @pytest.mark.parametrize("build", ["cdf", "exponent", "primitive"])
    def test_table_build_calls_once_per_round(self, build, monkeypatch):
        # a custom model has no closed exponent, so every table is quadrature
        m = model.DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                                 diffusion_sq=lambda x: 1.0, label="custom")
        model._support(m)
        calls = []

        def counting(f, edges, spec=numerics.DEFAULT_QUADRATURE, split=1):
            def counted(x):
                counts["calls"] += 1
                return f(x)

            counts = {"calls": 0, "panels": len(edges) - 1, "depth": spec.max_depth}
            calls.append(counts)
            return integrate_panels(counted, edges, spec, split)

        monkeypatch.setattr(model, "integrate_panels", counting)
        if build == "cdf":
            model._cdf_table(m)
        elif build == "exponent":
            model._exponent_table(m, 20.0)
        else:
            estimators.primitive(estimators.custom_weight(lambda u: 1.0 + u * u,
                                                          lambda u: 2.0 * u), m, -3.0, 3.0)
        assert len(calls) == 1
        c = calls[0]
        # one call per bisection round for every block of _CHUNK_INTERVALS panels
        blocks = math.ceil(c["panels"] / numerics._CHUNK_INTERVALS)
        assert c["panels"] >= 2048
        assert c["calls"] <= blocks * (c["depth"] + 1)
        assert c["calls"] <= c["panels"] / 100


class TestIntegrateLine:
    def test_gaussian(self):
        res = integrate_line(lambda x: math.exp(-x * x))
        assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    def test_odd_function(self):
        res = integrate_line(lambda x: x * math.exp(-x * x))
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_divergent_integrand_detected(self):
        with pytest.raises(DivergenceError):
            integrate_line(lambda x: 1.0)

    def test_one_sided_decay_detected(self):
        with pytest.raises(DivergenceError):
            integrate_line(lambda x: math.exp(-x * x) if x < 0.0 else 1.0)

    def test_each_side_stops_at_its_own_first_small_shell(self):
        # the left tail is below tail_tol from the first shell [-16, -8] on;
        # the right one, exp(-x/4), first falls below it on [128, 256]
        seen = []

        def f(x):
            seen.append(np.array(x))
            return np.where(x < 0.0, np.exp(-x * x), np.exp(-0.25 * np.abs(x)))

        res = integrate_line(f)
        xs = np.concatenate(seen)
        assert -16.0 < xs.min() and 128.0 < xs.max() < 256.0
        # the left side's shell is integrated before any right-side shell
        assert np.flatnonzero(xs < -8.0).max() < np.flatnonzero(xs > 8.0).min()
        assert res.value == pytest.approx(0.5 * math.sqrt(math.pi) + 4.0, rel=1e-10)

    def test_even_function_doubling(self):
        full = integrate_line(lambda x: math.exp(-abs(x) ** 3)).value
        half = integrate(lambda x: math.exp(-x**3), 0.0, 40.0).value
        assert full == pytest.approx(2.0 * half, rel=1e-9)


class TestInvertMonotone:
    def test_identity(self):
        assert invert_monotone(lambda x: x, 0.3, 0.0, 1.0, 1e-12) == pytest.approx(0.3, abs=1e-11)

    def test_cube_root(self):
        x = invert_monotone(lambda x: x**3, 8.0, 0.0, 3.0, 1e-10)
        assert x == pytest.approx(2.0, abs=1e-9)

    def test_target_outside_bracket(self):
        with pytest.raises(BracketError):
            invert_monotone(lambda x: x, 2.0, 0.0, 1.0, 1e-10)

    @given(st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, t):
        f = lambda x: x + 0.2 * math.sin(x)  # strictly increasing
        target = f(t)
        x = invert_monotone(f, target, -1.0, 1.0, 1e-11)
        assert f(x) == pytest.approx(target, abs=1e-11)


class TestCompensatedSum:
    def test_cancellation(self):
        assert compensated_sum([1.0, -1.0, 1e-16]) == 1e-16

    def test_empty(self):
        assert compensated_sum([]) == 0.0

    def test_many_tenths(self):
        xs = [0.1] * 10**6
        target = exact_fraction_sum(xs)
        assert compensated_sum(xs) == pytest.approx(target, abs=1e-6)
        assert abs(compensated_sum(xs) - 1e5) < 1e-6

    def test_nonfinite_propagates_with_warning(self):
        with pytest.warns(RuntimeWarning):
            out = compensated_sum([1.0, math.inf, 2.0])
        assert math.isinf(out)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_rational_sum(self, xs):
        target = exact_fraction_sum(xs)
        assert compensated_sum(xs) == pytest.approx(target, abs=1e-9 * (1 + abs(target)))

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=40),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_order_independent(self, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        a = compensated_sum(xs)
        b = compensated_sum(shuffled)
        assert a == pytest.approx(b, abs=1e-12 * (1.0 + abs(a)))

    def test_numpy_array_input(self):
        assert compensated_sum(np.array([0.5, 0.25, 0.25])) == 1.0

    def test_long_array_is_summed_in_spans(self):
        scales = 10.0 ** np.arange(-8, 8).repeat(25_000)
        a = np.random.default_rng(3).standard_normal(400_000) * scales
        tracemalloc.start()
        try:
            total = compensated_sum(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == math.fsum(a.tolist())
        assert peak < 2_000_000  # one list of the whole array took about 13 MB

    @given(st.sampled_from([numerics._EXTRACT_MIN_ITEMS - 1, numerics._EXTRACT_MIN_ITEMS,
                            numerics._EXTRACT_MIN_ITEMS + 1, 5_000, numerics._SUM_SPAN - 1,
                            numerics._SUM_SPAN, numerics._SUM_SPAN + 1,
                            2 * numerics._SUM_SPAN + 7]),
           st.integers(0, 2**32 - 1), st.floats(-300.0, 300.0),
           st.sampled_from(["one_scale", "spread", "cancel", "cancel_to_tiny"]))
    @settings(max_examples=80, deadline=None)
    def test_array_sum_is_fsum_bit_for_bit(self, n, seed, exponent, kind):
        rng = np.random.default_rng(seed)
        if kind == "spread":  # magnitudes from 1e-300 to 1e300 in one array
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        else:
            a = rng.standard_normal(n) * 10.0**exponent
        if kind.startswith("cancel"):  # heavy cancellation: each item meets its negation
            a[n // 2:] = -a[:n - n // 2][::-1]
            a[0] += a[1] * (1e-13 if kind == "cancel" else 1e-300)
        want = math.fsum(a.tolist())
        got = compensated_sum(a)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_long_array_takes_the_extraction(self, monkeypatch):
        # terms like those of a long path's martingale sum
        rng = np.random.default_rng(11)
        a = rng.standard_normal(400_000) * rng.standard_normal(400_000) * 0.07
        seen = []
        real = numerics._extracted_sum

        def recording(flat):
            seen.append(real(flat))
            return seen[-1]

        monkeypatch.setattr(numerics, "_extracted_sum", recording)
        assert compensated_sum(a) == math.fsum(a.tolist())
        assert len(seen) == 1 and seen[0] == math.fsum(a.tolist())
        compensated_sum(a[:numerics._EXTRACT_MIN_ITEMS - 1])
        assert len(seen) == 1

    @pytest.mark.parametrize("case", ["zero_total", "midpoint", "near_overflow", "overflow",
                                      "subnormal"])
    def test_uncertified_arrays_fall_back_to_fsum(self, case):
        n = 2 * numerics._EXTRACT_MIN_ITEMS
        a = np.zeros(n)
        if case == "zero_total":
            a[:n // 2] = np.random.default_rng(2).standard_normal(n // 2)
            a[n // 2:] = -a[:n // 2]
        elif case == "midpoint":  # 2^53 + 1 lies halfway between two floats
            a[:4] = [2.0**53, 1.0, 2.0**-60, -2.0**-60]
        elif case == "near_overflow":
            a[:3] = [1e308, -1e308, 3.0]
        elif case == "overflow":  # a finite sum past the largest float
            a[:2] = 1e308
        else:
            a[:] = 5e-324 * np.arange(n)
        assert numerics._extracted_sum(a) is None
        total = compensated_sum(a)
        if case == "overflow":
            assert math.isnan(total)
        else:
            assert total == math.fsum(a.tolist())
            assert math.copysign(1.0, total) == 1.0
        if case == "midpoint":
            assert total == 2.0**53  # ties to even

    def test_nonfinite_array_keeps_left_to_right_total(self):
        a = np.ones(70_000)
        a[40_000] = math.inf
        with pytest.warns(RuntimeWarning, match="at position 40000"):
            assert compensated_sum(a) == math.inf
        a[50_000] = -math.inf
        with pytest.warns(RuntimeWarning, match="at position 40000"):
            assert math.isnan(compensated_sum(a))
        a[40_000] = a[50_000] = 1.0
        a[60_000] = math.nan
        with pytest.warns(RuntimeWarning, match="at position 60000"):
            assert math.isnan(compensated_sum(a))
