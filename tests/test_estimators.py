import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergodist import estimators
from ergodist import model as model_module
from ergodist.errors import EvaluationError, TailError
from ergodist.estimators import (
    CurveAccumulator,
    as_estimator,
    check_weight_conditions,
    constant_weight,
    custom_weight,
    dt_weight,
    dx_weight,
    estimate_curve,
    estimate_curves,
    exponential_weight,
    kernel,
    parse_estimator,
    polynomial_weight,
    primitive,
    unbiased_estimate,
)
from ergodist.model import (
    DiffusionModel,
    invariant_cdf,
    ornstein_uhlenbeck,
    stationary_expectation,
)
from ergodist.numerics import QuadratureSpec

from oracles import edf, stored_block
from test_model import growth_probes, unconverged_ranges
from ergodist.simulate import (
    Path,
    SimConfig,
    derive_substream_seed,
    simulate_path,
    stream_block,
)


def em_path_from_increments(model, x0, dt, dws):
    values = np.empty(len(dws) + 1)
    values[0] = x0
    x = float(x0)
    for i, dw in enumerate(dws):
        x = x + float(model.drift(x)) * dt + float(model.diffusion(x)) * dw
        values[i + 1] = x
    return Path(dt=dt, values=values)


class TestWeightConstruction:
    def test_polynomial_requires_positive_order(self):
        with pytest.raises(ValueError):
            polynomial_weight(0)

    def test_exponential_requires_positive_rate(self):
        with pytest.raises(ValueError):
            exponential_weight(0.0)

    def test_constant_requires_positive_level(self):
        # h must be positive everywhere, so negative constants are rejected
        with pytest.raises(ValueError):
            constant_weight(-2.0)

    @pytest.mark.parametrize("spec", ["unbiased:exp:delta=inf", "unbiased:exp:delta=nan",
                                      "unbiased:const:c=inf", "unbiased:const:c=nan"])
    def test_parameters_must_be_finite(self, spec):
        with pytest.raises(ValueError, match="finite"):
            parse_estimator(spec)

    @pytest.mark.parametrize(
        "wf",
        [polynomial_weight(1), polynomial_weight(3), exponential_weight(0.7),
         constant_weight(2.5)],
        ids=["poly1", "poly3", "exp", "const"],
    )
    def test_derivative_matches_finite_differences(self, wf):
        h = 1e-6
        for u in (-2.0, -0.5, 0.0, 0.5, 2.0):
            fd = (float(wf.h_pair(u + h)[0]) - float(wf.h_pair(u - h)[0])) / (2.0 * h)
            assert float(wf.h_pair(u)[1]) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_table_checks_its_nodes_before_it_integrates(self):
        # h(0) = 0 at the node 0: the build raises there before it
        # integrates a panel, so no warning on panels that did not converge
        wf = custom_weight(lambda u: u * u, lambda u: 2.0 * u)
        m = DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                           diffusion_sq=lambda x: 1.0, label="custom_ou")
        with pytest.raises(EvaluationError, match="h must be positive and finite, got 0.0"):
            primitive(wf, m, -1.0, 1.0)

    def test_negative_custom_weight_rejected_at_evaluation(self, ou):
        bad = custom_weight(h=lambda u: u, h_prime=lambda u: 1.0)
        path = Path(dt=0.1, values=np.array([-1.0, -0.5, 0.5]))
        with pytest.raises(EvaluationError):
            unbiased_estimate(path, bad, ou, 1.0)


def _ordered_bits(a):
    """float64 bit patterns mapped so that adjacent doubles differ by 1."""
    i = np.asarray(a, dtype=float).view(np.int64)
    return np.where(i < 0, np.int64(-(2**63)) - i, i)


class TestWeightValues:
    # ordinary values, then 0, +-1e-200 (u^2 underflows to 0), +-1e80 (u^(2p)
    # overflows to inf), +-inf and nan
    U = np.concatenate([
        np.random.default_rng(11).normal(0.0, 3.0, 4000),
        np.logspace(-60.0, 30.0, 181), -np.logspace(-60.0, 30.0, 181),
        [0.0, -0.0, 1e-200, -1e-200, 1e80, -1e80, np.inf, -np.inf, np.nan],
    ])

    def pairs(self, wf):
        """h and h' by one read of the array, and by a read of each point
        as a float and as a 0-d array."""
        with np.errstate(all="ignore"):
            yield wf.h_pair(self.U)
            for point in (float, np.array):
                yield tuple(map(np.array, zip(*(wf.h_pair(point(u)) for u in self.U.tolist()))))

    def test_poly_1_is_numpy_square_bit_for_bit(self):
        u = self.U
        with np.errstate(all="ignore"):
            want = (1.0 + u**2, 2 * u)
        for got in self.pairs(polynomial_weight(1)):
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_poly_within_2p_ulp_of_power(self, p):
        u = self.U
        with np.errstate(all="ignore"):
            want = (1.0 + np.power(u, 2 * p), 2 * p * np.power(u, 2 * p - 1))
        for got in self.pairs(polynomial_weight(p)):
            for g, w in zip(got, want):
                finite = np.isfinite(w)
                assert np.array_equal(np.isfinite(g), finite)
                assert np.array_equal(g[~finite], w[~finite], equal_nan=True)
                ulps = np.abs(_ordered_bits(g[finite]) - _ordered_bits(w[finite]))
                assert ulps.max() <= 2 * p

    def test_exp_pair_is_numpy_exp_bit_for_bit(self):
        wf = exponential_weight(0.7)
        with np.errstate(all="ignore"):
            e = np.exp(0.7 * self.U)
            want = (e, 0.7 * e)
        for got in self.pairs(wf):
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True)

    def test_accumulator_marks_the_same_unweightable_steps(self, ou):
        # one chunk of 6 paths x 5 steps on OU (closed primitives, so no
        # reach): exp(-800) = 0 makes h = 0; a non-finite state makes its
        # step's dX, and the next step's X, non-finite; at 1e80 h = inf is
        # positive, but u and P u are infinite there, so that step is marked
        states = np.tile(np.linspace(-1.0, 1.0, 6)[:, None], (1, 6))
        states[2, 1] = -800.0
        states[3, 2] = np.inf
        states[1, 3] = np.nan
        states[4, 4] = 1e80
        states[5, 5] = -np.inf  # the last state is no step's left endpoint
        acc = CurveAccumulator(np.linspace(-2.0, 2.0, 5),
                               [as_estimator(c) for c in ("unbiased:exp:delta=1",
                                                          "unbiased:poly:p=2",
                                                          "unbiased:const:c=1")],
                               ou, 6, 5, 0.1)
        with np.errstate(all="ignore"):
            acc.add(slice(0, 6), 0, states)
        assert acc.failures == {1: -800.0, 2: states[2, 2], 3: states[0, 3], 4: 1e80,
                                5: states[4, 5]}


class TestOutputArrays:
    """The built-in weights' callables write into given arrays the bits
    of their fresh-array calls and of their calls on each float."""

    U = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300,
         np.inf, -np.inf, np.nan],
        np.random.default_rng(5).normal(0.0, 4.0, 3000),
    ])
    WEIGHTS = ["exp:delta=1", "exp:delta=0.7", "poly:p=1", "poly:p=2", "poly:p=3",
               "poly:p=4", "const:c=1", "const:c=2.5"]

    @staticmethod
    def dirty(n):
        return np.full(n, 1234.5), np.full(n, np.nan)

    @pytest.mark.parametrize("spec", WEIGHTS)
    def test_h_pair_into_arrays_matches_fresh_reads(self, spec):
        wf = parse_estimator(f"unbiased:{spec}").weight
        out = self.dirty(self.U.size)
        with np.errstate(all="ignore"):
            got = wf.h_pair(self.U, out)
            fresh = wf.h_pair(self.U)
            floats = zip(*(wf.h_pair(u) for u in self.U.tolist()))
        for g, f, w in zip(got, fresh, floats):
            w = np.array(w)
            assert np.array_equal(np.broadcast_to(g, w.shape), w, equal_nan=True)
            assert np.array_equal(np.broadcast_to(f, w.shape), w, equal_nan=True)
        if wf.kind != "const":
            assert all(g is o for g, o in zip(got, out))

    @pytest.mark.parametrize("spec", WEIGHTS)
    def test_h_pair_takes_a_float_a_0d_array_and_an_array(self, spec):
        wf = parse_estimator(f"unbiased:{spec}").weight
        for u in (0.5, -2.0, 0.0):
            want = [float(np.broadcast_to(w, (1,))[0]) for w in wf.h_pair(np.array([u]))]
            for arg, out in ((u, None), (np.array(u), None),
                             (np.array(u), (np.empty(()), np.empty(())))):
                got = wf.h_pair(arg, out)
                assert [np.shape(g) for g in got] == [(), ()]
                assert [float(g) for g in got] == want

    @pytest.mark.parametrize("spec", WEIGHTS)
    @pytest.mark.parametrize("s", [1.0, 0.7])
    def test_closed_primitive_into_an_array_matches_fresh_call(self, spec, s):
        wf = parse_estimator(f"unbiased:{spec}").weight
        closed = estimators._closed_primitive(wf, ornstein_uhlenbeck(1.0, s))
        # a larger call first, so a kept temporary is read at a smaller size
        for u in (np.concatenate([self.U, self.U]), self.U):
            out, inv_out = self.dirty(u.size)
            with np.errstate(all="ignore"):
                got, want = closed(u, out), closed(u)
                inv_got, inv_want = wf.inv_h_primitive(u, inv_out), wf.inv_h_primitive(u)
            assert got is out
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(inv_got, inv_want, equal_nan=True)


class TestKernel:
    def test_arctan_closed_form(self, ou, wf_poly):
        assert kernel(wf_poly, ou, 0.0, -1.0) == pytest.approx(math.pi / 4.0, abs=1e-10)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = rng.uniform(-10, 10, 2)
            assert kernel(wf_poly, ou, x, y) == pytest.approx(
                math.atan(x) - math.atan(y), abs=1e-10
            )

    def test_exponential_closed_form(self, ou):
        wf = exponential_weight(1.0)
        assert kernel(wf, ou, 1.0, 0.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)
        wf2 = exponential_weight(2.5)
        rng = np.random.default_rng(8)
        for _ in range(100):
            x, y = rng.uniform(-3, 3, 2)
            expect = (math.exp(-2.5 * y) - math.exp(-2.5 * x)) / 2.5
            assert kernel(wf2, ou, x, y) == pytest.approx(expect, rel=1e-10, abs=1e-10)

    def test_constant_closed_form(self, ou):
        wf = constant_weight(2.0)
        assert kernel(wf, ou, 3.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", ["exp:delta=1", "poly:p=1", "poly:p=2", "poly:p=3",
                                      "poly:p=4", "const:c=2"])
    @pytest.mark.parametrize("law", ["ou_1_1", "ou_02_3", "quartic"])
    def test_float_closed_form_matches_the_array_bit_for_bit(self, spec, law, quartic):
        wf = parse_estimator(f"unbiased:{spec}").weight
        m = {"ou_1_1": ornstein_uhlenbeck(1.0, 1.0), "ou_02_3": ornstein_uhlenbeck(0.2, 3.0),
             "quartic": quartic}[law]
        rng = np.random.default_rng(11)
        # magnitudes from 1e-3 to 1e3, so exp:delta=1 overflows to inf at some y
        xs, ys = (rng.uniform(-1.0, 1.0, (2, 200)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, 200)))
        with np.errstate(all="ignore"):
            for i, x in enumerate(xs.tolist()):
                got = kernel(wf, m, x, float(ys[i]))
                assert isinstance(got, float)
                want = kernel(wf, m, x, ys)[i]
                assert np.array_equal(got, want, equal_nan=True), (x, float(ys[i]), got, want)

    def test_quadrature_path_matches_scipy(self, ou):
        # a custom weight has no closed primitive, so the kernel is a signed quadrature
        wf = custom_weight(h=lambda u: 1.0 + u**4, h_prime=lambda u: 4.0 * u**3)
        assert wf.inv_h_primitive is None
        for x, y in [(1.0, -1.0), (0.3, 2.0), (-4.0, 5.0)]:
            expect = quad(lambda u: 1.0 / (1.0 + u**4), y, x, epsabs=1e-12)[0]
            assert kernel(wf, ou, x, y) == pytest.approx(expect, abs=1e-9)

    def test_primitive_table_between_nodes(self, ou):
        # a custom weight is tabulated on a 1e-3 grid; the points are off its nodes
        wf = custom_weight(h=lambda u: 1.0 + u**4, h_prime=lambda u: 4.0 * u**3)
        P = primitive(wf, ou, -3.0, 3.0)
        us = [-2.7182818, -1.2345678, -0.0004999, 0.3333333, 0.7071068, 1.4142136, 2.9999]
        for u in us:
            expect = quad(lambda v: 1.0 / (1.0 + v**4), 0.0, u, epsabs=1e-13, epsrel=1e-13)[0]
            assert P(u) == pytest.approx(expect, abs=1e-11)

    def test_array_kernel_reads_the_primitive_table(self, ou):
        # without a closed primitive an array kernel is P(x) - P(y) read off
        # the one primitive table, grown over x and every y
        wf = custom_weight(h=lambda u: 1.0 + u**4, h_prime=lambda u: 4.0 * u**3)
        ys = np.random.default_rng(5).uniform(-40.0, 30.0, 200)
        got = kernel(wf, ou, 0.4, ys)
        P = primitive(wf, ou, -1.0, 1.0)
        assert P.lo <= ys.min() and ys.max() <= P.hi
        assert np.array_equal(got, P(0.4) - P(ys))

    def test_array_kernel_past_the_limit_is_a_quadrature(self, ou):
        # points past |y| = 1024 read P by one float kernel each, so an
        # array kernel there is finite and the table stays within the limit
        wf = custom_weight(h=lambda u: 1.0 + u * u, h_prime=lambda u: 2.0 * u)
        ys = np.array([-1500.0, -3.0, 2.0, 2000.0])
        for x in (0.4, 1500.0):
            got = kernel(wf, ou, x, ys)
            assert np.allclose(got, np.arctan(x) - np.arctan(ys), rtol=1e-12, atol=1e-14)
            assert got[3] == estimators.primitive_at(wf, ou, x) - kernel(wf, ou, 2000.0, 0.0)
        P = primitive(wf, ou, 0.0, 0.0)
        assert -model_module._EXP_MAX_HALFWIDTH <= P.lo and P.hi <= model_module._EXP_MAX_HALFWIDTH

    def test_far_request_raises_before_any_node_is_read(self, ou):
        # the builder holds the limit: a request at -1e6 would otherwise ask
        # for some 10^9 nodes
        reads = []
        wf = custom_weight(h=lambda u: reads.append(u) or 1.0 + u * u, h_prime=lambda u: 2.0 * u)
        with pytest.raises(TailError, match=r"primitive table of the custom weight .* past the "
                                            r"table limit \|y\| <= 1024\.0"):
            primitive(wf, ou, -1e6, 0.0)
        assert reads == [] and wf._cache == {}

    def test_unconverged_primitive_table_warns(self, ou, monkeypatch):
        # the spec of the table builder both tables share
        monkeypatch.setattr(model_module, "_PANEL_SPEC",
                            QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_depth=1))
        # the kink of h at 1/3 lies inside a 1e-3 table panel
        wf = custom_weight(h=lambda u: 1.0 + np.abs(u - 1.0 / 3.0),
                           h_prime=lambda u: np.sign(u - 1.0 / 3.0))
        with pytest.warns(RuntimeWarning) as record:
            primitive(wf, ou, -1.0, 1.0)
        [(label, lo, hi)] = unconverged_ranges(record, "primitive table of the custom weight")
        assert label == ou.label
        assert lo < 1.0 / 3.0 < hi and hi - lo < 0.01

    def test_diffusion_scaling(self):
        from ergodist.model import ornstein_uhlenbeck

        model = ornstein_uhlenbeck(theta=1.0, s=2.0)
        wf = exponential_weight(1.0)
        base = (math.exp(-0.0) - math.exp(-1.0)) / 1.0
        assert kernel(wf, model, 1.0, 0.0) == pytest.approx(base / 4.0, rel=1e-12)

    @pytest.mark.parametrize("s", [1.0, 2.0])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_polynomial_closed_form_matches_scipy(self, p, s):
        from ergodist.model import ornstein_uhlenbeck

        model = ornstein_uhlenbeck(s=s)
        wf = polynomial_weight(p)
        rng = np.random.default_rng(40 + p)
        for x, y in rng.uniform(-50.0, 50.0, size=(100, 2)):
            a, b = min(x, y), max(x, y)
            ref = quad(lambda u: 1.0 / (s**2 * (1.0 + u ** (2 * p))), a, b, epsabs=1e-14,
                       epsrel=1e-13, limit=200, points=[0.0] if a < 0.0 < b else None)[0]
            assert kernel(wf, model, x, y) == pytest.approx(ref if x >= y else -ref, abs=1e-12)

    @pytest.mark.parametrize("s", [1.0, 2.0])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_polynomial_primitive_bounded_at_huge_arguments(self, p, s):
        from ergodist.model import ornstein_uhlenbeck

        model = ornstein_uhlenbeck(s=s)
        P = primitive(polynomial_weight(p), model, -1e200, 1e200)
        # half the integral of 1/(sigma^2 (1 + u^(2p))) over the line
        half = math.pi / (2 * p * math.sin(math.pi / (2 * p))) / s**2
        us = np.array([-1e200, -1e160, -1e20, -3.0, -1.0, 0.0, 1e-300, 1.0, 3.0, 1e20,
                       1e160, 1e200])
        vals = P(us)
        assert P(0.0) == 0.0
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals) <= half * (1.0 + 1e-12))
        assert vals[-1] == pytest.approx(half, rel=1e-12)
        assert vals[0] == pytest.approx(-half, rel=1e-12)
        assert np.array_equal(vals, [P(float(u)) for u in us])

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_kernel_bound_pi(self, ou, p):
        wf = polynomial_weight(p)
        rng = np.random.default_rng(100 + p)
        for _ in range(1000):
            x, y = rng.uniform(-50.0, 50.0, 2)
            assert abs(kernel(wf, ou, x, y)) <= math.pi + 1e-12

    def test_antisymmetry(self, ou):
        for wf in (polynomial_weight(1), polynomial_weight(2), exponential_weight(1.5)):
            rng = np.random.default_rng(17)
            for _ in range(50):
                x, y = rng.uniform(-5, 5, 2)
                assert kernel(wf, ou, x, y) == pytest.approx(-kernel(wf, ou, y, x), abs=1e-12)

    def test_zero_at_equal_arguments(self, ou, wf_exp):
        assert kernel(wf_exp, ou, 0.7, 0.7) == 0.0


class TestCoefficients:
    def test_dx_weight_vanishes_at_and_above_threshold(self, ou, wf_exp):
        assert dx_weight(wf_exp, ou, 1.0, 1.0) == 0.0
        assert dx_weight(wf_exp, ou, 1.0, 2.0) == 0.0
        assert dt_weight(wf_exp, ou, 1.0, 1.0) == 0.0

    def test_constant_weight_dx_form(self, ou):
        # 2 * 1{y<x} * (x - y), independent of the constant level
        assert dx_weight(constant_weight(1.0), ou, 2.0, 0.0) == pytest.approx(4.0, abs=1e-12)
        assert dx_weight(constant_weight(5.0), ou, 2.0, 0.0) == pytest.approx(4.0, abs=1e-12)

    def test_constant_weight_dt_vanishes(self, ou):
        for x, y in [(2.0, 0.0), (0.0, -3.0), (1.0, 0.99)]:
            assert dt_weight(constant_weight(2.0), ou, x, y) == 0.0

    def test_polynomial_dx_probe(self, ou, wf_poly):
        # 2 * K_0(-1) * h(-1) = 2 * (pi/4) * 2 = pi
        assert dx_weight(wf_poly, ou, 0.0, -1.0) == pytest.approx(math.pi, abs=1e-10)

    def test_exponential_dt_probe(self, ou):
        wf = exponential_weight(1.0)
        expect = (1.0 - math.exp(-1.0)) * 1.0 * 1.0
        assert dt_weight(wf, ou, 1.0, 0.0) == pytest.approx(expect, abs=1e-10)


class TestEdf:
    def test_all_below(self):
        path = Path(dt=0.1, values=np.zeros(11))
        assert edf(path, 1.0) == 1.0

    def test_none_below(self):
        path = Path(dt=0.1, values=np.zeros(11))
        assert edf(path, -1.0) == 0.0

    def test_strict_inequality_at_threshold(self):
        path = Path(dt=0.1, values=np.zeros(11))
        assert edf(path, 0.0) == 0.0

    def test_range(self, ou):
        path = simulate_path(ou, SimConfig(horizon_T=5.0, dt=0.01, seed=3))
        for x in np.linspace(-3, 3, 13):
            assert 0.0 <= edf(path, float(x)) <= 1.0

    @pytest.mark.slow
    def test_stationary_accuracy(self, ou):
        vals = []
        for k in range(20):
            cfg = SimConfig(horizon_T=200.0, dt=0.01, seed=derive_substream_seed(9, k))
            vals.append(edf(simulate_path(ou, cfg), 0.0))
        assert abs(float(np.mean(vals)) - 0.5) < 0.05


class TestUnbiasedEstimate:
    def test_path_above_threshold_gives_zero(self, ou, wf_exp):
        path = Path(dt=0.1, values=np.full(21, 5.0))
        assert unbiased_estimate(path, wf_exp, ou, 3.0) == 0.0

    def test_needs_two_points(self, ou, wf_exp):
        with pytest.raises(ValueError):
            unbiased_estimate(Path(dt=0.1, values=np.array([1.0])), wf_exp, ou, 0.0)

    def test_matches_direct_sum(self, ou, wf_exp):
        path = simulate_path(ou, SimConfig(horizon_T=2.0, dt=0.01, seed=21))
        x = 0.3
        left = path.values[:-1]
        dX = np.diff(path.values)
        direct = (
            sum(dx_weight(wf_exp, ou, x, float(y)) * float(d) for y, d in zip(left, dX))
            + 0.01 * sum(dt_weight(wf_exp, ou, x, float(y)) for y in left)
        ) / path.horizon_T
        assert unbiased_estimate(path, wf_exp, ou, x) == pytest.approx(direct, abs=1e-10)

    def test_not_clamped(self, ou, wf_exp):
        # short horizons routinely push the estimate outside [0, 1]
        seen_outside = False
        for seed in range(20):
            path = simulate_path(ou, SimConfig(horizon_T=1.0, dt=0.01, seed=seed))
            v = unbiased_estimate(path, wf_exp, ou, 2.0)
            if v > 1.0 or v < 0.0:
                seen_outside = True
        assert seen_outside


class TestEstimateCurve:
    def test_empty_grid(self, ou):
        path = simulate_path(ou, SimConfig(horizon_T=1.0, dt=0.01, seed=1))
        curve = estimate_curve(path, [], "edf")
        assert len(curve.xs) == 0 and len(curve.values) == 0

    def test_unsorted_grid_rejected(self, ou):
        path = simulate_path(ou, SimConfig(horizon_T=1.0, dt=0.01, seed=1))
        with pytest.raises(ValueError):
            estimate_curve(path, [0.0, 0.0, 1.0], "edf")

    @pytest.mark.parametrize("xs, spec", [([np.nan], "edf"),
                                          ([-np.inf], "unbiased:exp:delta=1"),
                                          ([0.0, np.inf], "unbiased:poly:p=1"),
                                          ([np.nan, 1.0], "edf")])
    def test_non_finite_threshold_rejected(self, ou, xs, spec):
        # refused by name before any path is read, with no numpy warning
        path = simulate_path(ou, SimConfig(horizon_T=1.0, dt=0.01, seed=1))
        bad = next(x for x in xs if not math.isfinite(x))
        with pytest.raises(ValueError, match=f"thresholds must be finite, got {bad!r}"):
            estimate_curve(path, xs, spec, ou)

    @pytest.mark.parametrize("x", [math.nan, -math.inf, math.inf])
    def test_single_threshold_readers_refuse_non_finite(self, ou, x):
        from ergodist.efficiency import representation_discrepancy

        wf = exponential_weight(1.0)
        path = simulate_path(ou, SimConfig(horizon_T=1.0, dt=0.01, seed=1, store_wiener=True))
        with pytest.raises(ValueError, match="thresholds must be finite"):
            unbiased_estimate(path, wf, ou, x)
        with pytest.raises(ValueError, match="thresholds must be finite"):
            representation_discrepancy(path, wf, ou, x)

    def test_edf_curve_monotone(self, ou):
        path = simulate_path(ou, SimConfig(horizon_T=5.0, dt=0.01, seed=12))
        curve = estimate_curve(path, np.linspace(-3, 3, 61), "edf")
        assert np.all(np.diff(curve.values) >= 0.0)

    def test_edf_curve_matches_pointwise(self, ou):
        path = simulate_path(ou, SimConfig(horizon_T=5.0, dt=0.01, seed=13))
        xs = np.linspace(-2, 2, 17)
        curve = estimate_curve(path, xs, "edf")
        for x, v in zip(xs, curve.values):
            assert v == edf(path, float(x))

    @pytest.mark.parametrize("spec", ["unbiased:exp:delta=1", "unbiased:poly:p=1",
                                      "unbiased:poly:p=2", "unbiased:const:c=2"])
    def test_unbiased_curve_matches_pointwise(self, ou, spec):
        path = simulate_path(ou, SimConfig(horizon_T=5.0, dt=0.01, seed=14))
        xs = np.linspace(-2, 2, 9)
        choice = parse_estimator(spec)
        curve = estimate_curve(path, xs, choice, ou)
        for x, v in zip(xs, curve.values):
            assert v == pytest.approx(
                unbiased_estimate(path, choice.weight, ou, float(x)), abs=2e-9
            )

    def test_unbiased_curve_requires_model(self, ou):
        path = simulate_path(ou, SimConfig(horizon_T=1.0, dt=0.01, seed=1))
        with pytest.raises(ValueError):
            estimate_curve(path, [0.0], "unbiased:exp:delta=1")

    @pytest.mark.slow
    def test_consistency_toward_truth(self, ou, wf_exp):
        # sup-norm distance to F_S on [-2, 2] within 0.1 for >= 90% of seeds;
        # T = 200 gives the 90% claim a comfortable margin (at T = 100 the
        # true pass rate sits at the knife edge, ~86%)
        xs = np.linspace(-2, 2, 41)
        truth = np.array([invariant_cdf(ou, float(x)) for x in xs])
        hits = 0
        n_seeds = 50
        for k in range(n_seeds):
            cfg = SimConfig(horizon_T=200.0, dt=0.01, seed=derive_substream_seed(31, k))
            path = simulate_path(ou, cfg)
            curve = estimate_curve(path, xs, "unbiased:exp:delta=1", ou)
            if float(np.max(np.abs(curve.values - truth))) < 0.1:
                hits += 1
        assert hits >= int(0.9 * n_seeds)


class TestDiscretizationConsistency:
    @pytest.mark.slow
    def test_refinement_changes_at_sqrt_dt_rate(self, ou, wf_exp):
        from oracles import brownian_bridge_refine

        dt0 = 0.02
        n0 = 1000  # T = 20
        d_coarse, d_fine = [], []
        for seed in range(30):
            rng = np.random.default_rng(derive_substream_seed(55, seed))
            x0 = float(rng.normal(0.0, math.sqrt(0.5)))
            dw0 = rng.normal(0.0, math.sqrt(dt0), n0)
            dw1 = brownian_bridge_refine(dw0, dt0, rng)
            dw2 = brownian_bridge_refine(dw1, dt0 / 2.0, rng)
            e0 = unbiased_estimate(em_path_from_increments(ou, x0, dt0, dw0), wf_exp, ou, 0.0)
            e1 = unbiased_estimate(em_path_from_increments(ou, x0, dt0 / 2, dw1), wf_exp, ou, 0.0)
            e2 = unbiased_estimate(em_path_from_increments(ou, x0, dt0 / 4, dw2), wf_exp, ou, 0.0)
            d_coarse.append(e1 - e0)
            d_fine.append(e2 - e1)
        rms = lambda v: math.sqrt(float(np.mean(np.square(v))))
        ratio = rms(d_coarse) / rms(d_fine)
        assert 1.2 <= ratio <= 2.8


class TestParseEstimator:
    def test_edf(self):
        choice = parse_estimator("edf")
        assert choice.kind == "edf" and choice.tag == "edf"

    def test_poly(self):
        choice = parse_estimator("unbiased:poly:p=2")
        assert choice.kind == "unbiased"
        assert choice.weight.params == {"p": 2}
        assert choice.tag == "unbiased_poly"

    def test_exp(self):
        choice = parse_estimator("unbiased:exp:delta=0.5")
        assert choice.weight.params == {"delta": 0.5}

    def test_const(self):
        choice = parse_estimator("unbiased:const:c=2")
        assert choice.weight.params == {"c": 2.0}

    @pytest.mark.parametrize("bad", ["", "edf:x", "unbiased", "unbiased:poly",
                                     "unbiased:poly:q=2", "unbiased:exp:delta=0",
                                     "unbiased:gauss:b=1", "unbiased:poly:p=zero"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_estimator(bad)


class TestWeightConditions:
    def test_polynomial_all_ok(self, ou, wf_poly):
        rep = check_weight_conditions(wf_poly, ou, 0.0)
        assert rep.all_ok()

    def test_exponential_all_ok(self, ou, wf_exp):
        rep = check_weight_conditions(wf_exp, ou, 0.0)
        assert rep.all_ok()

    def test_constant_per_threshold_ok_but_growing(self, ou):
        wf = constant_weight(1.0)
        ratios = []
        for x in (2.0, 4.0, 8.0):
            rep = check_weight_conditions(wf, ou, x)
            assert rep.all_ok()  # each fixed threshold is fine on its own
            e_r_sq = stationary_expectation(ou, lambda y: dx_weight(wf, ou, x, y) ** 2)
            ratios.append(e_r_sq / (4.0 * x * x * invariant_cdf(ou, x)))
        # the square moment tracks 4 x^2 F(x), i.e. it diverges along x
        assert all(abs(r - 1.0) < 0.2 for r in ratios)
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_tail_values_reported(self, ou, wf_exp):
        rep = check_weight_conditions(wf_exp, ou, 0.0)
        assert len(rep.tail_values) == 7
        assert rep.tail_values[-1] < 1e-10

    # sq_moment and abs_moment as each threshold's integrand was evaluated
    # one float at a time, one kernel quadrature per node
    FLOAT_ROUTE = {
        ("custom_ou", "unbiased:exp:delta=1", 0.0): (0.3924057755399105, 0.19215482790353705),
        ("custom_ou", "unbiased:exp:delta=1", 0.7): (1.137153902922004, 0.4490858009479922),
        ("custom_ou", "unbiased:poly:p=1", 0.0): (3.351675868130354, 0.378936078070656),
        ("custom_ou", "unbiased:poly:p=1", 0.7): (10.411403305441477, 0.7675342369960825),
        ("quartic", "unbiased:exp:delta=1", 0.0): (0.4099482720092093, 0.2014287901103106),
        ("quartic", "unbiased:exp:delta=1", 0.7): (1.139869380720168, 0.44211371645788383),
        ("quartic", "unbiased:poly:p=1", 0.0): (2.4575898821703213, 0.3802737457871984),
        ("quartic", "unbiased:poly:p=1", 0.7): (8.40179842970209, 0.7760946527810124),
    }

    @pytest.mark.parametrize("label,spec,x", sorted(FLOAT_ROUTE))
    def test_array_forms_match_the_float_route(self, label, spec, x, quartic):
        m = quartic if label == "quartic" else custom_ou()
        wf = parse_estimator(spec).weight
        rep = check_weight_conditions(wf, m, x)
        sq, ab = self.FLOAT_ROUTE[(label, spec, x)]
        assert rep.sq_moment == pytest.approx(sq, rel=1e-10)
        assert rep.abs_moment == pytest.approx(ab, rel=1e-10)
        assert rep.all_ok()

    # sq_moment on the wavy model (state-dependent sigma) as its integrand
    # was evaluated one float at a time
    WAVY_FLOAT_ROUTE = {
        ("unbiased:exp:delta=1", 0.0): 0.27759720652254627,
        ("unbiased:exp:delta=1", 0.7): 0.739464249524256,
        ("unbiased:poly:p=1", 0.7): 6.489157507303821,
    }

    @pytest.mark.parametrize("spec,x", sorted(WAVY_FLOAT_ROUTE))
    def test_state_dependent_sigma_takes_the_array_route(self, spec, x, monkeypatch):
        floats = []
        real = estimators.dx_weight

        def counting(wf, m, x, y):
            if np.ndim(y) == 0:
                floats.append(y)
            return real(wf, m, x, y)

        monkeypatch.setattr(estimators, "dx_weight", counting)
        rep = check_weight_conditions(parse_estimator(spec).weight, wavy_model(), x)
        assert len(floats) == 7  # the tail values only
        assert rep.sq_moment == pytest.approx(self.WAVY_FLOAT_ROUTE[(spec, x)], rel=1e-12)
        assert rep.all_ok()

    @pytest.mark.parametrize("spec", ["unbiased:exp:delta=1", "unbiased:poly:p=2"])
    def test_coefficients_on_arrays_match_floats(self, spec):
        m = custom_ou()
        wf = parse_estimator(spec).weight
        ys = np.array([-6.0, -2.5, -0.3, 0.0, 0.4, 0.4, 1.0, 3.0])
        for fn in (dx_weight, dt_weight, lambda wf, m, x, y: kernel(wf, m, x, y)):
            got = fn(wf, m, 0.4, ys)
            assert got.shape == ys.shape
            want = [fn(wf, m, 0.4, float(y)) for y in ys]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        assert np.all(dx_weight(wf, m, 0.4, ys)[ys >= 0.4] == 0.0)

    def test_finite_moment_past_the_tables_limit_stays_finite(self):
        # OU(2e-6, 1) has sd 500 and a closed exponent: the moments' tail
        # shells reach past |y| = 1024, where P is read by quadrature, so a
        # custom weight's finite moments are finite. With h = 1 + u^2 the
        # dX coefficient at x = 0 is 2 arctan(-y) h(y) for y < 0
        m = ornstein_uhlenbeck(2e-6, 1.0)
        wf = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
        rep = check_weight_conditions(wf, m, 0.0)
        assert rep.sq_moment_ok and rep.abs_moment_ok

        def law(g):  # E[g(Y)] over Y < 0, Y = 500 t, t standard normal
            return quad(lambda t: g(500.0 * t) * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                        -40.0, 0.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        assert rep.sq_moment == pytest.approx(
            law(lambda y: (2.0 * math.atan(-y) * (1.0 + y * y)) ** 2), rel=1e-9)
        assert rep.abs_moment == pytest.approx(law(lambda y: math.atan(-y) * 2.0 * -y), rel=1e-9)

    def test_moment_past_the_exponent_tables_limit_is_a_flag(self):
        # a custom OU(2e-4, 1) has sd 50 and a tabulated exponent: the
        # poly:p=3 moments' tail shells reach past |y| = 1024, where the
        # exponent table raises DivergenceError (a law too wide to
        # tabulate), so each moment is treated as nonexistent
        m = DiffusionModel(drift=lambda x: -2e-4 * x, diffusion=lambda x: 1.0,
                           diffusion_sq=lambda x: 1.0, label="wide_ou")
        rep = check_weight_conditions(polynomial_weight(3), m, 0.0)
        assert not rep.sq_moment_ok and not rep.abs_moment_ok
        assert math.isnan(rep.sq_moment) and math.isnan(rep.abs_moment)


def custom_ou():
    """OU(1, 1) without the catalog fast paths: every kernel is quadrature."""
    return DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                          diffusion_sq=lambda x: 1.0, label="custom_ou")


def wavy_model():
    return DiffusionModel(
        drift=lambda x: -np.tanh(x) - 0.5 * x,
        diffusion=lambda x: 1.0 + 0.25 * np.cos(x),
        diffusion_sq=lambda x: (1.0 + 0.25 * np.cos(x)) ** 2,
        label="wavy",
    )


@st.composite
def grids_and_points(draw):
    """A linspace grid, with or without off-grid atoms merged in, and
    points at its nodes, a float away from them, between them, past both
    ends, and at +-inf and NaN."""
    lo = draw(st.floats(-1e6, 1e6))
    hi = lo + draw(st.floats(1e-9, 1e6))
    xs = np.linspace(lo, hi, draw(st.integers(1, 60)))
    atoms = draw(st.lists(st.floats(lo - 1.0, hi + 1.0), max_size=4))
    xs = np.unique(np.concatenate([xs, atoms]))
    node = st.sampled_from(xs.tolist())
    point = st.one_of(
        node,
        st.tuples(node, st.sampled_from([-np.inf, np.inf])).map(lambda p: np.nextafter(*p)),
        st.tuples(node, node, st.floats(0.0, 1.0)).map(lambda p: p[0] + (p[1] - p[0]) * p[2]),
        st.floats(lo - 1e3, hi + 1e3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-np.inf, np.inf, np.nan]),
    )
    return xs, np.array(draw(st.lists(point, min_size=1, max_size=200)), dtype=float)


class TestCurveAccumulator:
    @pytest.mark.filterwarnings("error")
    @given(grids_and_points())
    @settings(max_examples=300, deadline=None)
    def test_cells_equal_searchsorted(self, case):
        xs, X = case
        acc = CurveAccumulator(xs, [as_estimator("edf")], None, 1, 1, 1.0)
        assert np.array_equal(acc._cells(X), np.searchsorted(xs, X, side="right"))

    @pytest.mark.parametrize("node", [0.3, -0.0, 5e-324, -np.inf, np.inf, np.nan])
    def test_one_node_grid_cells_by_one_comparison(self, node):
        # a single node has no affine map onto its index; its cell is
        # not (X < node), the search's cell at the node, its neighbours,
        # NaN and the infinities. Every point compares false with a NaN
        # node, which the search sorts last, so that grid's points all
        # miss the map's cell and are searched
        xs = np.array([node])
        acc = CurveAccumulator(xs, [as_estimator("edf")], None, 1, 1, 1.0)
        assert acc._one_node == (node == node)
        X = np.array([node, np.nextafter(node, -np.inf), np.nextafter(node, np.inf),
                      -np.inf, -2.0, 0.0, -0.0, 0.7, np.inf, np.nan])
        assert np.array_equal(acc._cells(X), np.searchsorted(xs, X, side="right"))

    @pytest.mark.parametrize("xs", [np.array([0.3]), np.linspace(-2.0, 2.0, 21)],
                             ids=["one_node", "uniform"])
    def test_weight_only_curves_match_those_with_edf(self, ou, xs):
        # the step counts are summed only with an EDF; leaving them out
        # moves no bit of a weight's curve, stored or streamed
        weights = ["unbiased:exp:delta=1", "unbiased:poly:p=2", "unbiased:const:c=1"]
        path = simulate_path(ou, SimConfig(horizon_T=40.0, dt=0.005, seed=5))
        alone = estimate_curves(path, xs, weights, ou)
        with_edf = estimate_curves(path, xs, ["edf", *weights], ou)[1:]
        for a, b in zip(alone, with_edf):
            assert np.array_equal(a.values, b.values)
        cfg = SimConfig(horizon_T=6.0, dt=0.01, seed=0)
        seeds = [derive_substream_seed(11, r) for r in range(3)]
        rows = []
        for specs in (weights, ["edf", *weights]):
            acc = CurveAccumulator(xs, [as_estimator(c) for c in specs], ou, len(seeds),
                                   cfg.n_steps, cfg.dt)
            stream_block(ou, cfg, seeds, acc.add)
            rows.append(acc.curves()[-len(weights):])
            assert acc.sums[0].any() == (specs[0] == "edf")
        for a, b in zip(*rows):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_primitive_is_unweightable(self, ou):
        # exp(730 u) at u = -0.98 is 1e-311 > 0, but its primitive
        # -expm1(715)/730 overflows: the step cannot be weighted, and
        # neither numpy nor the curve's finiteness check sees an infinity
        path = Path(dt=0.01, values=np.array([0.0, -0.98, 0.5]))
        with pytest.raises(EvaluationError, match="path 0 cannot be weighted") as err:
            estimate_curve(path, [0.0, 1.0], exponential_weight(730.0), ou)
        assert err.value.abscissa == -0.98

    @pytest.mark.filterwarnings("error")
    def test_first_unweightable_step_across_both_screens(self, ou):
        # one chunk of 3 paths x 4 steps: path 0 overflows at step 1 and
        # has h = 0 at step 2, path 2 has h = 0 at step 0 and overflows at
        # step 2, path 1 is clean; each path keeps its first such step and
        # every sum stays finite
        states = np.zeros((5, 3))
        states[1, 0], states[2, 0] = -0.98, -800.0
        states[0, 2], states[2, 2] = -800.0, -0.98
        acc = CurveAccumulator(np.linspace(0.0, 1.0, 5),
                               [as_estimator("unbiased:exp:delta=730")], ou, 3, 4, 0.01)
        acc.add(slice(0, 3), 0, states)
        assert acc.failures == {0: -0.98, 2: -800.0}
        assert np.isfinite(acc.sums).all()
        curves = acc.curves(dropped=np.array([True, False, True]))
        assert np.isfinite(curves[0][1]).all()

    def test_streamed_block_matches_materialized_rows(self):
        # 1200 steps span three chunks; sigma is not constant, so both
        # weights read tabulated primitives
        model = wavy_model()
        cfg = SimConfig(horizon_T=12.0, dt=0.01, seed=0)
        seeds = [derive_substream_seed(17, r) for r in range(4)]
        xs = np.linspace(-2.0, 2.0, 21)
        choices = [as_estimator(c) for c in (
            "edf", custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u),
            "unbiased:exp:delta=1")]
        acc = CurveAccumulator(xs, choices, model, len(seeds), cfg.n_steps, cfg.dt)
        assert np.all(stream_block(model, cfg, seeds, acc.add) == -1)
        streamed = acc.curves()
        block = stored_block(model, cfg, seeds)
        for j in range(len(seeds)):
            path = Path(dt=cfg.dt, values=block.values[j])
            for rows, curve in zip(streamed, estimate_curves(path, xs, choices, model)):
                assert np.array_equal(rows[j], curve.values)

    def test_reach_stops_at_the_tables_limit(self, ou):
        # a grid end past 256 would put the reach past 1024, where the
        # table raises TailError; the reach stops at the limit, so a path
        # there is a recorded failure
        wf = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
        acc = CurveAccumulator(np.array([0.0, 257.0]), [as_estimator(wf)], ou, 1, 2, 0.01)
        assert acc.reach == model_module._EXP_MAX_HALFWIDTH == 1024.0
        acc.add(slice(0, 1), 0, np.array([[0.0], [1026.0], [0.0]]))
        assert acc.failures == {0: 1026.0}

    def test_widening_keeps_primitive_values(self, ou):
        # a path past the support (|y| <= 16 for OU) widens the table; its
        # node values and every read of the narrow table stay bit-identical
        wf = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
        narrow = primitive(wf, ou, -1.0, 1.0)
        ys = growth_probes(narrow, seed=3)
        before, nodes = narrow(ys), narrow.values.copy()
        path = Path(dt=0.01, values=np.array([0.0, 5.0, 20.0, -3.0, 1.0]))
        curve = estimate_curve(path, [0.5, 25.0], wf, ou)
        wide = primitive(wf, ou, -1.0, 1.0)
        assert wide.hi >= 20.0 and wide is not narrow
        assert np.array_equal(wide(ys), before)
        shift = wide.origin - narrow.origin
        assert np.array_equal(wide.values[shift:shift + nodes.size], nodes)
        want = unbiased_estimate(path, wf, ou, 25.0)
        assert curve.values[1] == pytest.approx(want, rel=1e-12)

    @staticmethod
    def block_curves(model, choices, values, xs, dt):
        """Curves of the rows of ``values`` fed as one streamed block, with
        the paths that cannot be weighted dropped; also checks that the
        chunks handed in are not written."""
        n = values.shape[1] - 1
        acc = CurveAccumulator(xs, choices, model, len(values), n, dt)
        states = np.ascontiguousarray(values.T)
        before = states.copy()
        with np.errstate(all="ignore"):
            for start in range(0, n, 512):
                acc.add(slice(0, len(values)), start, states[start:start + 513])
        assert np.array_equal(states, before, equal_nan=True)
        dropped = np.zeros(len(values), dtype=bool)
        dropped[list(acc.failures)] = True
        return acc.curves(dropped), dropped

    @pytest.mark.parametrize("weight, start", [
        ("unbiased:poly:p=2", 1.0),
        (custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u), 1.0),
        (custom_weight(lambda u: math.exp(0.5 * u), lambda u: 0.5 * math.exp(0.5 * u)), 1.0),
        (custom_weight(lambda u: np.exp(-u * u), lambda u: -2.0 * u * np.exp(-u * u)), 30.0)],
        ids=["poly", "custom", "custom_scalar_only", "custom_vanishing"])
    def test_exploding_path_leaves_the_other_paths_bits(self, ou, weight, start):
        # the path put in as row 2 grows from ``start`` past every reach,
        # then leaves the floats; the custom weights' primitives are
        # tabulated, so their reach (64) is finite. The third is written for
        # floats only: math.exp overflows, so it may not be read where the
        # path has exploded. The last underflows to h = 0 at |u| > 27.3,
        # within the reach but past the table (|y| <= 16), so the step at
        # 30 cannot be weighted, and the table must not be widened there
        cfg = SimConfig(horizon_T=12.0, dt=0.01, seed=0)
        values = stored_block(ou, cfg, [derive_substream_seed(3, r) for r in range(4)]).values
        blowup = values[0].copy()
        with np.errstate(over="ignore"):
            blowup[700:] = start * 10.0 ** np.arange(values.shape[1] - 700)
        xs = np.linspace(-2.0, 2.0, 21)
        choices = [as_estimator(c) for c in ("edf", "unbiased:exp:delta=1", weight)]
        kept, none = self.block_curves(ou, choices, values, xs, cfg.dt)
        mixed, dropped = self.block_curves(ou, choices, np.insert(values, 2, blowup, axis=0),
                                           xs, cfg.dt)
        assert not none.any() and dropped.tolist() == [False, False, True, False, False]
        for k_rows, m_rows in zip(kept, mixed):
            assert np.array_equal(k_rows, np.delete(m_rows, 2, axis=0))

    def test_chunk_is_screened_before_a_custom_weight_is_read_once(self, ou):
        # one chunk of 3 paths x 4 steps with a NaN state: h and h' are each
        # read once, on the whole chunk, with the unweightable steps at 0
        reads = []

        def h(u):
            if np.ndim(u):
                reads.append(np.array(u))
            return 1.0 + u * u

        wf = custom_weight(h, lambda u: 2.0 * u)
        acc = CurveAccumulator(np.linspace(-1.0, 1.0, 5), [as_estimator(wf)], ou, 3, 4, 0.1)
        states = np.tile(np.linspace(-0.5, 0.5, 5)[:, None], (1, 3))
        states[2, 1] = np.nan
        reads.clear()
        with np.errstate(all="ignore"):
            acc.add(slice(0, 3), 0, states)
        assert len(reads) == 1 and np.all(np.isfinite(reads[0]))
        assert reads[0].tolist() == np.where(np.isfinite(np.diff(states, axis=0)),
                                             states[:-1], 0.0).ravel().tolist()
        assert acc.failures == {1: states[1, 1]}

    def test_estimate_curves_leaves_the_path_values(self, ou):
        # a non-finite state past the last full chunk, so the step is read
        # from a view of the values that could be written
        values = np.concatenate([np.sin(np.arange(1100) * 0.01), [np.inf, 0.3]])
        path = Path(dt=0.01, values=values.copy())
        with pytest.raises(EvaluationError):
            estimate_curves(path, [0.0, 0.5], ["edf", "unbiased:exp:delta=1"], ou)
        assert np.array_equal(path.values, values)

    @pytest.mark.parametrize("atoms", [[], [-0.7, 0.1, 1.3]])
    def test_chunk_after_warm_up_allocates_no_chunk_sized_array(self, ou, atoms):
        # numpy traces its buffers to tracemalloc; the weight values, the
        # primitives, the cells and the masks all go into kept work arrays,
        # on a uniform grid and on one with atoms merged in, where about
        # half the points miss the map's cell and are searched
        choices = [as_estimator(c) for c in ("edf", "unbiased:exp:delta=1",
                                             "unbiased:poly:p=1", "unbiased:poly:p=2")]
        rng = np.random.default_rng(8)
        states = np.cumsum(rng.normal(0.0, 0.07, (2 * 512 + 1, 60)), axis=0)
        xs = np.unique(np.concatenate([np.linspace(-3.0, 3.0, 41), atoms]))
        acc = CurveAccumulator(xs, choices, ou, 60, 1024, 0.005)
        tracemalloc.start()
        try:
            acc.add(slice(0, 60), 0, states[:513])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            acc.add(slice(0, 60), 512, states[512:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 60 * 512 * 8

    def test_unweightable_step_of_a_kept_path_raises(self, ou):
        # h(u) = u is not positive at the path's first point; a path that
        # does not explode cannot drop it
        bad = custom_weight(h=lambda u: u, h_prime=lambda u: 1.0 + 0.0 * u)
        path = Path(dt=0.1, values=np.array([-1.0, -0.5, 0.5]))
        with pytest.raises(EvaluationError, match="must be positive"):
            estimate_curve(path, [0.0, 1.0], bad, ou)
