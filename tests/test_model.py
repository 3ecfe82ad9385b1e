import math
import re
import warnings

import numpy as np
import pytest

from ergodist import model as model_module
from ergodist.errors import DivergenceError, EvaluationError, TailError
from ergodist.model import (
    DiffusionModel,
    check_ergodicity,
    invariant_cdf,
    invariant_density,
    invariant_quantile,
    model_from_spec,
    normalizing_constant,
    ornstein_uhlenbeck,
    scale_exponent,
    scale_function,
    shifted_ou,
    stationary_expectation,
)
from ergodist.numerics import QuadratureSpec, integrate_line

from oracles import growing_exponential_integral, ou_invariant_cdf


class TestScaleExponent:
    def test_zero_range(self, ou):
        assert scale_exponent(ou, 0.0) == 0.0

    def test_ou_unit(self, ou):
        # 2 * int_0^1 (-v) dv = -1, polynomial primitive
        assert scale_exponent(ou, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_ou_negative_range(self, ou):
        assert scale_exponent(ou, -2.0) == pytest.approx(-4.0, abs=1e-12)

    def test_closed_form_matches_quadrature(self):
        # custom clone of the same drift reads the exponent table
        clone = DiffusionModel(
            drift=lambda x: -x,
            diffusion=lambda x: 1.0,
            diffusion_sq=lambda x: 1.0,
            label="ou-clone",
        )
        for y in (-2.0, -0.7, 0.3, 1.5):
            assert scale_exponent(clone, y) == pytest.approx(-y * y, abs=1e-10)


class TestScaleFunction:
    def test_zero(self, ou, quartic):
        assert scale_function(ou, 0.0) == 0.0
        assert scale_function(quartic, 0.0) == 0.0

    def test_ou_value_vs_series(self, ou):
        target = growing_exponential_integral(1.0)
        assert scale_function(ou, 1.0) == pytest.approx(target, rel=1e-10)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_ou_odd_symmetry(self, ou, x):
        assert scale_function(ou, -x) == pytest.approx(-scale_function(ou, x), rel=1e-10)


class TestNormalizingConstant:
    def test_ou_sqrt_pi(self, ou):
        assert normalizing_constant(ou) == pytest.approx(math.sqrt(math.pi), abs=1e-8)

    def test_quartic_self_consistent_at_two_tolerances(self, quartic):
        tight = normalizing_constant(quartic)
        loose = integrate_line(
            lambda y: math.exp(-0.5 * y**4),
            QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6, tail_tol=1e-8),
        ).value
        assert tight == pytest.approx(loose, abs=1e-5)
        assert tight > 0.0

    @pytest.mark.parametrize("m", [-20.0, -5.0, 5.0, 20.0])
    def test_shifted_ou_closed_form(self, m):
        # G = sqrt(pi) e^{m^2}, the table's mass even where its support is
        # far from symmetric ([-16, 64] at m = 20)
        g = normalizing_constant(shifted_ou(m))
        assert g == pytest.approx(math.sqrt(math.pi) * math.exp(m * m), rel=1e-15)

    def test_is_the_distribution_tables_mass(self, monkeypatch):
        # one evaluator: no whole-line integral, and the table's F ends at 1
        monkeypatch.setattr(model_module, "integrate_line", None)
        m = shifted_ou(1.0)
        assert normalizing_constant(m) > 0.0
        F = model_module._cdf_table(m).values[0]
        assert F[0] == 0.0 and F[-1] == pytest.approx(1.0, abs=1e-15)

    def test_null_drift_diverges(self):
        flat = DiffusionModel(drift=lambda x: 0.0, diffusion=lambda x: 1.0,
                              diffusion_sq=lambda x: 1.0, label="flat")
        with pytest.raises(DivergenceError):
            normalizing_constant(flat)

    def test_repelling_drift_diverges(self):
        rep = DiffusionModel(drift=lambda x: x, diffusion=lambda x: 1.0,
                             diffusion_sq=lambda x: 1.0, label="repelling",
                             scale_exponent_closed=lambda y: y * y)
        with pytest.raises(DivergenceError):
            normalizing_constant(rep)


class TestInvariantDensity:
    def test_ou_at_zero(self, ou):
        assert invariant_density(ou, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-8)

    @pytest.mark.parametrize("y", [0.3, 1.7])
    def test_ou_even(self, ou, y):
        assert invariant_density(ou, y) == pytest.approx(invariant_density(ou, -y), rel=1e-12)

    def test_normalized(self, ou):
        total = integrate_line(lambda y: invariant_density(ou, y)).value
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_on_grid(self, quartic):
        for y in np.linspace(-4, 4, 41):
            assert invariant_density(quartic, float(y)) >= 0.0


class TestInvariantCdf:
    def test_ou_median(self, ou):
        assert invariant_cdf(ou, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_ou_vs_gaussian_oracle(self, ou):
        assert invariant_cdf(ou, 1.0) == pytest.approx(ou_invariant_cdf(1.0), abs=1e-8)

    def test_far_left_tail(self, ou):
        assert invariant_cdf(ou, -12.0) < 1e-10

    def test_far_right_tail(self, ou):
        assert invariant_cdf(ou, 12.0) > 1.0 - 1e-10

    def test_nondecreasing_on_grid(self, ou, quartic):
        for model in (ou, quartic):
            vals = [invariant_cdf(model, float(x)) for x in np.linspace(-6, 6, 121)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_clamped_to_unit_interval(self, ou):
        for x in np.linspace(-20, 20, 41):
            assert 0.0 <= invariant_cdf(ou, float(x)) <= 1.0

    @pytest.mark.parametrize("x", [0, np.float32(0.5)], ids=["int", "float32"])
    def test_value_not_a_python_float_reads_its_float(self, ou, x):
        got = invariant_cdf(ou, x)
        assert type(got) is float and got == invariant_cdf(ou, float(x))

    def test_nan_reads_nan(self, ou):
        assert math.isnan(invariant_cdf(ou, math.nan))

    def test_left_tail_relative_accuracy(self, ou):
        # the law of OU(1, 1) is N(0, 1/2); F(-6) is about 1e-17
        from scipy.stats import norm

        ys = np.linspace(-6.0, 0.0, 601)
        got = np.array([invariant_cdf(ou, float(y)) for y in ys])
        assert np.max(np.abs(got / norm.cdf(ys * math.sqrt(2.0)) - 1.0)) <= 5e-8


class TestInvariantQuantile:
    def test_median(self, ou):
        assert invariant_quantile(ou, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_inverse_of_cdf_oracle(self, ou):
        assert invariant_quantile(ou, 0.9213504) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("u", [1e-9, 1e-4, 0.013, 0.1, 0.5, 0.81, 0.99, 1.0 - 1e-9])
    def test_round_trip(self, ou, quartic, u):
        for model in (ou, quartic):
            assert abs(invariant_cdf(model, invariant_quantile(model, u)) - u) <= 1e-10

    def test_invalid_level_rejected(self, ou):
        with pytest.raises(ValueError):
            invariant_quantile(ou, 0.0)
        with pytest.raises(ValueError):
            invariant_quantile(ou, 1.5)

    def test_deeper_than_truncation_raises_tail_error(self, ou):
        with pytest.raises(TailError):
            invariant_quantile(ou, 1e-80)


class TestStationaryExpectation:
    def test_total_mass(self, ou):
        assert stationary_expectation(ou, lambda z: 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_odd_integrand(self, ou):
        assert stationary_expectation(ou, lambda z: z) == pytest.approx(0.0, abs=1e-8)

    def test_second_moment(self, ou):
        assert stationary_expectation(ou, lambda z: z * z) == pytest.approx(0.5, abs=1e-8)

    def test_divergent_moment(self, ou):
        with pytest.raises(DivergenceError):
            stationary_expectation(ou, lambda z: math.exp(z * z))


class TestDerivativeIdentity:
    """d/dy [sigma^2(y) f(y)] = 2 S(y) f(y), by central differences."""

    @pytest.mark.parametrize("model_name", ["ou", "quartic"])
    def test_identity_on_grid(self, model_name, ou, quartic):
        model = {"ou": ou, "quartic": quartic}[model_name]
        h = 1e-4
        for y in np.linspace(-2.0, 2.0, 9):
            y = float(y)
            lhs = (
                float(model.diffusion_sq(y + h)) * invariant_density(model, y + h)
                - float(model.diffusion_sq(y - h)) * invariant_density(model, y - h)
            ) / (2.0 * h)
            rhs = 2.0 * float(model.drift(y)) * invariant_density(model, y)
            assert lhs == pytest.approx(rhs, abs=1e-5)


class TestCheckErgodicity:
    def test_ou_all_flags(self, ou):
        rep = check_ergodicity(ou, 1.0)
        assert rep.es_ok and rep.vs_diverges and rep.g_finite
        assert rep.g_value == pytest.approx(math.sqrt(math.pi), abs=1e-8)
        assert rep.all_ok()

    def test_null_drift(self):
        flat = DiffusionModel(drift=lambda x: 0.0, diffusion=lambda x: 1.0,
                              diffusion_sq=lambda x: 1.0, label="flat")
        rep = check_ergodicity(flat, 1.0)
        assert rep.vs_diverges  # V(x) = x still diverges
        assert not rep.g_finite

    def test_repelling_drift(self):
        rep_model = DiffusionModel(drift=lambda x: x, diffusion=lambda x: 1.0,
                                   diffusion_sq=lambda x: 1.0, label="repelling",
                                   scale_exponent_closed=lambda y: y * y)
        rep = check_ergodicity(rep_model, 1.0)
        assert not rep.g_finite
        assert math.isnan(rep.g_value)

    def test_probe_points_reported(self, ou):
        rep = check_ergodicity(ou, 0.5)
        assert rep.probe_points == [0.5 * 2.0**k for k in range(7)]


class TestCatalog:
    def test_model_from_spec_round_trip(self):
        model = model_from_spec({"family": "ou", "params": {"theta": 2.0, "s": 0.5}})
        assert model.sigma_const == 0.5
        assert model.label == "ou(theta=2,s=0.5)"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            model_from_spec({"family": "levy", "params": {}})

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            model_from_spec({"family": "ou", "params": {"volatility": 2.0}})

    def test_shifted_ou_centered_at_m(self):
        model = shifted_ou(1.5)
        med = invariant_quantile(model, 0.5)
        assert med == pytest.approx(1.5, abs=1e-8)

    def test_ou_scaled_params(self):
        # theta=2, s=1: invariant law N(0, 1/4)
        model = ornstein_uhlenbeck(theta=2.0)
        assert stationary_expectation(model, lambda z: z * z) == pytest.approx(0.25, abs=1e-8)

    def test_custom_clone_matches_catalog(self, ou):
        clone = DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                               diffusion_sq=lambda x: 1.0, label="ou-clone")
        assert normalizing_constant(clone) == pytest.approx(normalizing_constant(ou), rel=1e-9)
        for x in (-1.0, 0.0, 0.7):
            assert invariant_cdf(clone, x) == pytest.approx(invariant_cdf(ou, x), abs=1e-8)

    def test_quartic_density_vs_exact_form(self, quartic):
        g = normalizing_constant(quartic)
        for y in (-1.0, 0.0, 0.5):
            assert invariant_density(quartic, y) == pytest.approx(
                math.exp(-0.5 * y**4) / g, rel=1e-10
            )


def unconverged_ranges(record, what):
    """(label, lo, hi) of each warning about a table's unconverged panels."""
    out = []
    for w in record:
        m = re.match(rf"{what} of (.+): quadrature did not converge on \d+ of \d+ panels "
                     r"in \[(.+), (.+)\]", str(w.message))
        if m:
            out.append((m.group(1), float(m.group(2)), float(m.group(3))))
    return out


def custom_ou():
    return DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                          diffusion_sq=lambda x: 1.0, label="custom")


def growth_probes(table, seed=0):
    """Points to read a table at before it grows: every interior node
    +-1e-15, where a cell counted from another origin can differ, and
    10^5 random points."""
    inner = table.nodes[1:-1]
    rng = np.random.default_rng(seed)
    return np.concatenate([inner - 1e-15, inner + 1e-15, rng.uniform(table.lo, table.hi, 10**5)])


class TestExponentTable:
    def test_widening_keeps_step_and_values(self):
        # a far query grows the table; no read of the narrow one moves
        m = custom_ou()
        first = model_module._exponent_table(m, 8.0)
        ys = growth_probes(first)
        before, nodes = first(ys), first.values.copy()
        invariant_density(m, 60.0)
        wide = model_module._exponent_table(m, 60.0)
        assert wide is not first and wide.hi >= 60.0
        assert wide.step == first.step == 1.0 / 128.0
        assert np.array_equal(wide(ys), before)
        shift = wide.origin - first.origin
        assert np.array_equal(wide.values[shift:shift + nodes.size], nodes)
        assert np.max(np.abs(2.0 * before + ys * ys)) < 1e-12  # int_0^y (-v) dv = -y^2/2

    def test_query_past_the_limit_is_divergence(self):
        m = DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                           diffusion_sq=lambda x: 1.0, label="custom")
        with pytest.raises(DivergenceError):
            model_module._exponent_table(m, 2.0 * model_module._EXP_MAX_HALFWIDTH)


class TestRunningTable:
    @pytest.mark.parametrize("simpson", [False, True], ids=["adaptive", "simpson"])
    def test_grows_only_on_the_side_a_request_passes(self, simpson):
        # a request past one end at least doubles that end and leaves the
        # other where it was; every node the two tables share keeps its bits
        g = (lambda v: np.stack([np.cos(v), np.exp(-v * v)])) if simpson else np.cos
        build = lambda lo, hi, cached=None: model_module._running_table(
            "test table", "cos", g, lo, hi, 2.0**-4, cached, simpson=simpson)
        first = build(-4.0, 4.0)
        grown = build(0.0, 5.0, first)
        assert (grown.lo, grown.hi) == (-4.0, 8.0)
        left = build(-9.0, 1.0, grown)
        assert (left.lo, left.hi) == (-9.0, 8.0)
        for narrow, wide in ((first, grown), (grown, left)):
            shift = wide.origin - narrow.origin
            n = narrow.nodes.size
            assert np.array_equal(wide.nodes[shift:shift + n], narrow.nodes)
            assert np.array_equal(wide.values[..., shift:shift + n], narrow.values)
            assert np.array_equal(wide.slopes[..., shift:shift + n], narrow.slopes)
        assert build(-2.0, 3.0, left) is left

    def test_a_request_for_the_origin_alone_builds_one_panel(self):
        t = model_module._running_table("test table", "cos", np.cos, 0.0, 0.0, 2.0**-4)
        assert t.nodes.tolist() == [0.0, 2.0**-4] and t(0.0) == 0.0

    @staticmethod
    def grower(kind):
        """A function (lo, hi) -> a table of ``kind`` grown over [lo, hi],
        with a cache of its own: the exponent table of the wavy model, a
        custom weight's primitive table or its two-row weight table."""
        from ergodist import efficiency
        from ergodist.estimators import custom_weight, primitive

        m = wavy_model()
        wf = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
        if kind == "primitive":
            return lambda lo, hi: primitive(wf, m, lo, hi)
        if kind == "weight":
            return lambda lo, hi: efficiency._weight_table(wf, m, lo, hi)
        held = [None]

        def exponent(lo, hi):
            held[0] = model_module._running_table(
                "scale exponent table", m.label, lambda v: m.drift(v) / m.diffusion_sq(v), lo,
                hi, model_module._EXP_STEP, held[0])
            return held[0]

        return exponent

    @pytest.mark.parametrize("kind", ["exponent", "primitive", "weight"])
    def test_growth_has_the_bits_of_a_fresh_build(self, kind):
        # grown right, left, then both ways, against one build over the
        # final span
        grow = self.grower(kind)
        for lo, hi in ((-1.0, 2.0), (0.0, 5.0), (-9.0, 1.0), (-30.0, 40.0)):
            grown = grow(lo, hi)
        assert (grown.lo, grown.hi) == (-30.0, 40.0)
        fresh = self.grower(kind)(grown.lo, grown.hi)
        assert np.array_equal(grown.nodes, fresh.nodes) and grown.origin == fresh.origin
        assert np.array_equal(grown.values, fresh.values)
        assert np.array_equal(grown.slopes, fresh.slopes)

    @pytest.mark.parametrize("simpson", [False, True], ids=["adaptive", "simpson"])
    def test_growth_reads_g_at_the_new_nodes_and_panels_only(self, simpson):
        step = 2.0**-4
        seen = []

        def g(v):
            seen.append(np.array(v, dtype=float))
            return np.stack([np.cos(v), np.exp(-v * v)]) if simpson else np.cos(v)

        def points(lo, hi, cached=None):
            seen.clear()
            t = model_module._running_table("test table", "cos", g, lo, hi, step, cached,
                                            simpson=simpson)
            return t, np.concatenate(seen)

        first, _ = points(-4.0, 4.0)
        grown, pts = points(-9.0, 5.0, first)
        assert (grown.lo, grown.hi) == (-9.0, 8.0)
        assert not np.any((first.lo <= pts) & (pts <= first.hi))
        new_nodes = np.setdiff1d(grown.nodes, first.nodes)
        assert np.array_equal(np.sort(pts[pts / step == np.round(pts / step)]), new_nodes)
        # as many points as a build over the final span beyond one over the
        # cached span
        assert pts.size == points(grown.lo, grown.hi)[1].size - points(first.lo, first.hi)[1].size

    def test_grown_exponent_table_integrates_each_panel_once(self, monkeypatch):
        # the custom-OU exponent table of one tables_and_bounds round, grown
        # from |y| <= 8 to 128: 32 768 panels, those of the final table,
        # where rebuilding it at each growth integrated 63 488
        panels = []
        integrate_panels = model_module.integrate_panels

        def counting(f, edges, *args):
            panels.append(len(edges) - 1)
            return integrate_panels(f, edges, *args)

        monkeypatch.setattr(model_module, "integrate_panels", counting)
        m = custom_ou()
        for w in (8.0, 16.0, 32.0, 64.0, 128.0):
            table = model_module._exponent_table(m, w)
        assert sum(panels) == table.nodes.size - 1 == 32768

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_span_that_is_not_finite_names_the_table(self, bad):
        build = lambda lo, hi, cached=None: model_module._running_table(
            "test table", "cos", np.cos, lo, hi, 2.0**-4, cached)
        cached = build(-1.0, 1.0)
        for lo, hi in ((bad, 1.0), (-1.0, bad)):
            for c in (None, cached):
                with pytest.raises(EvaluationError, match=r"test table of cos asked for over"):
                    build(lo, hi, c)

    @pytest.mark.parametrize("simpson", [False, True], ids=["adaptive", "simpson"])
    def test_a_value_that_is_not_finite_names_the_table(self, simpson):
        # g is read with one check at the nodes, fresh or grown, and at the
        # Simpson midpoints
        step = 2.0**-4
        bad = [0.25, -0.5] + ([0.25 + step / 2.0] if simpson else [])
        for at in bad:
            def g(v):
                out = np.where(v == at, np.inf, np.cos(v))
                return np.stack([out, np.exp(-v * v)]) if simpson else out

            cached = model_module._running_table("test table", "cos", g, -0.125, 0.125, step,
                                                 simpson=simpson)
            for c in (None, cached):
                with pytest.raises(EvaluationError, match=rf"test table of cos: integrand not "
                                   rf"finite at y={at!r}"):
                    model_module._running_table("test table", "cos", g, -1.0, 1.0, step, c,
                                                simpson=simpson)


class TestScalarTableReads:
    def test_float_reads_match_array_reads_bit_for_bit(self):
        # both rows of the distribution table on 10^4 random points, some
        # past each end (where they clip), plus the ends and some nodes;
        # the exponent and primitive tables (cells counted from their node
        # at 0), narrow and grown, on the same points inside them, where a
        # read past an end raises
        from ergodist.estimators import custom_weight, primitive

        m = custom_ou()
        wf = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
        tables = [(model_module._cdf_table(m), 2.0), (model_module._exponent_table(m, 8.0), 0.0),
                  (model_module._exponent_table(m, 40.0), 0.0), (primitive(wf, m, -1, 1), 0.0),
                  (primitive(wf, m, -40.0, 3.0), 0.0)]
        rng = np.random.default_rng(11)
        for t, past in tables:
            ends = [t.lo, t.hi] + ([-np.inf, np.inf] if past else [])
            xs = np.concatenate([rng.uniform(t.lo - past, t.hi + past, 10_000), ends,
                                 t.nodes[::997]])
            rows = np.atleast_2d(t(xs))
            got = np.array([np.atleast_1d(t(float(x))) for x in xs]).T
            assert isinstance(t(0.5), tuple if t.values.ndim > 1 else float)
            assert np.array_equal(got, rows)
            if not past:
                for x in (t.lo - 1e-9, t.hi + 1e-9):
                    with pytest.raises(EvaluationError, match="outside its span"):
                        t(x)
                    with pytest.raises(EvaluationError, match="outside its span"):
                        t(np.array([0.0, x]))


    @pytest.mark.parametrize("make", [ornstein_uhlenbeck, model_module.quartic_well, custom_ou])
    def test_scalar_cdf_and_local_variance_match_array_reads(self, make):
        # at nodes, between them, deep in both tails, past each end and at
        # the infinities, where a read clips to the end values
        from ergodist.efficiency import local_variance

        m = make()
        t = model_module._cdf_table(m)
        step = t.step
        xs = np.concatenate([t.nodes[::37], t.nodes[:-1:41] + 0.37 * step,
                             t.nodes[:8] + 0.5 * step, t.nodes[-8:] - 0.5 * step,
                             [t.lo - 1.0, t.hi + 3.0, -np.inf, np.inf]])
        F = model_module._cdf_pair(m, xs)[0]
        R = local_variance(m, xs)
        for x, f, r in zip(xs.tolist(), F.tolist(), R.tolist()):
            got_f, got_r = invariant_cdf(m, x), local_variance(m, x)
            assert type(got_f) is float and type(got_r) is float
            assert (got_f, got_r) == (f, r) and math.copysign(1.0, got_r) == math.copysign(1.0, r)


def wavy_model():
    return DiffusionModel(drift=lambda x: -np.tanh(x) - 0.5 * x,
                          diffusion=lambda x: 1.0 + 0.25 * np.cos(x),
                          diffusion_sq=lambda x: (1.0 + 0.25 * np.cos(x)) ** 2, label="wavy")


class TestTabulatedGoldens:
    # bits of the tabulated routes (the exponent, distribution and
    # primitive tables) on two custom models, read in this order on a
    # fresh model; a change to how the tables are built or read must
    # leave them as they are. wavy's G is within 4.7e-12 relative of an
    # mpmath quadrature, 1.26751971102987601
    GOLDEN = {
        "custom": {
            "G": 1.772453850905516,
            "F": [0.008104770704465561, 0.33568662027086843, 0.7377408598929275,
                  0.9990685768510759],
            "f": [0.03135552024843419, 0.5156304548094816, 0.46076600650611005,
                  0.004461077532458098],
            "exponent": [-0.09, -0.09, -62.410000000000004, -62.410000000000004, -1600.0,
                         -1600.0],
            "P": [-1.1902899496825274, -0.2914567944778623, 0.6107259643892057,
                  1.2587542052323601, -1.5312911992258018, 1.5200784375481036,
                  1.5373639723425194],
        },
        "wavy": {
            "G": 1.2675197110358478,
            "F": [0.010952118116422221, 0.3519063524460206, 0.7160806083548241,
                  0.999084895217611],
            "f": [0.044671721389755725, 0.4715499793760148, 0.4329062414785312,
                  0.005429868785229135],
            "exponent": [-0.08632674752839678, -0.08632674752839678, -45.86142559102846,
                         -45.86142559102846, -949.7796369905179, -949.7796369905178],
            "P": [-0.9514881190453651, -0.1876297682682955, 0.4025028172230143,
                  1.0672224348074337, -1.3894746265166387, 1.3763459238005877,
                  1.3968227463843956],
        },
    }

    @pytest.mark.parametrize("make", [custom_ou, wavy_model])
    def test_values_are_pinned(self, make):
        from ergodist.estimators import custom_weight, primitive

        m = make()
        wf = custom_weight(lambda u: 1.0 + u * u, lambda u: 2.0 * u)
        xs = (-1.7, -0.3, 0.45, 2.2)
        P = primitive(wf, m, -2.5, 3.1)
        inside = [P(u) for u in (-2.5, -0.3, 0.7, 3.1)]
        past = primitive(wf, m, -30.0, 30.0)
        got = {
            "G": normalizing_constant(m),
            "F": [invariant_cdf(m, x) for x in xs],
            "f": [float(invariant_density(m, x)) for x in xs],
            "exponent": [scale_exponent(m, y) for y in (0.3, -0.3, 7.9, -7.9, 40.0, -40.0)],
            "P": inside + [past(u) for u in (-25.3, 19.7, 29.9)],
        }
        assert got == self.GOLDEN[m.label]


class TestTableConvergence:
    @staticmethod
    def kinked(label):
        # sigma^2 has a kink at 1/3, inside a table panel
        return DiffusionModel(drift=lambda x: -x,
                              diffusion=lambda x: np.sqrt(1.0 + np.abs(x - 1.0 / 3.0)),
                              diffusion_sq=lambda x: 1.0 + np.abs(x - 1.0 / 3.0), label=label)

    def test_default_spec_converges_without_warning(self):
        m = self.kinked("kinked")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert 0.0 < invariant_cdf(m, 0.5) < 1.0

    def test_unconverged_panels_warn_with_label_and_range(self, monkeypatch):
        monkeypatch.setattr(model_module, "_PANEL_SPEC",
                            QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_depth=1))
        m = self.kinked("kinked-shallow")
        with pytest.warns(RuntimeWarning) as record:
            invariant_cdf(m, 0.5)
        cdf = unconverged_ranges(record, "CDF table")
        exponent = unconverged_ranges(record, "scale exponent table")
        assert len(cdf) == 1 and exponent
        for label, lo, hi in cdf + exponent:
            assert label == "kinked-shallow"
            assert lo < 1.0 / 3.0 < hi and hi - lo < 0.25
