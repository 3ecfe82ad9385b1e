import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ergodist import simulate
from ergodist.errors import ConfigError, DivergenceError, EvaluationError, SimulationError
from ergodist.estimators import CurveAccumulator, as_estimator
from ergodist.model import (
    DiffusionModel,
    invariant_cdf,
    ornstein_uhlenbeck,
    quartic_well,
    shifted_ou,
)
from ergodist.simulate import (
    Path,
    SimConfig,
    derive_substream_seed,
    simulate_path,
    stream_block,
    write_path_csv,
)

from oracles import (ks_critical_value, ks_statistic, occupation_mean, step_float_per_step,
                     stored_block)


def frozen_model(x0_scale: float = 1e-12) -> DiffusionModel:
    return DiffusionModel(
        drift=lambda x: 0.0,
        diffusion=lambda x: x0_scale,
        diffusion_sq=lambda x: x0_scale**2,
        label="frozen",
    )


class TestSimConfig:
    def test_valid(self):
        cfg = SimConfig(horizon_T=10.0, dt=0.01, seed=1)
        assert cfg.n_steps == 1000
        assert cfg.effective_T == pytest.approx(10.0)

    def test_bad_dt(self):
        with pytest.raises(ConfigError):
            SimConfig(horizon_T=1.0, dt=2.0, seed=1)

    def test_non_multiple_horizon(self):
        with pytest.raises(ConfigError) as err:
            SimConfig(horizon_T=1.0, dt=0.3, seed=1)
        assert "multiple" in str(err.value)

    def test_bad_init_string(self):
        with pytest.raises(ConfigError):
            SimConfig(horizon_T=1.0, dt=0.1, seed=1, init="equilibrium")

    def test_burn_in_only_for_fixed_init(self):
        with pytest.raises(ConfigError):
            SimConfig(horizon_T=1.0, dt=0.1, seed=1, init="stationary", burn_in_T=1.0)

    @pytest.mark.parametrize("field", ["horizon_T", "dt", "burn_in_T"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_times_rejected(self, field, value):
        # no step count: round(inf) would raise OverflowError
        kwargs = {"horizon_T": 1.0, "dt": 0.1, "seed": 1, "init": 0.0, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SimConfig(**kwargs)


class TestSubstreamSeeds:
    def test_deterministic(self):
        assert derive_substream_seed(42, 7) == derive_substream_seed(42, 7)

    def test_distinct_indices(self):
        assert derive_substream_seed(42, 0) != derive_substream_seed(42, 1)

    def test_no_collisions_at_desk_scale(self):
        seeds = {derive_substream_seed(123456789, k) for k in range(10**5)}
        assert len(seeds) == 10**5

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_substream_seed(1, -1)

    def test_64_bit_range(self):
        s = derive_substream_seed(2**63, 3)
        assert 0 <= s < 2**64


class TestSimulatePath:
    def test_frozen_dynamics(self):
        cfg = SimConfig(horizon_T=1.0, dt=0.01, seed=5, init=3.0)
        path = simulate_path(frozen_model(), cfg)
        assert np.all(np.abs(path.values - 3.0) < 1e-6)

    def test_bit_identical_replay(self, ou):
        cfg = SimConfig(horizon_T=2.0, dt=0.01, seed=99, init="stationary", store_wiener=True)
        a = simulate_path(ou, cfg)
        b = simulate_path(ou, cfg)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.wiener_increments, b.wiener_increments)

    def test_mean_reversion_from_far_start(self, ou):
        # transition law N(x0*exp(-T), (1-exp(-2T))/2): |X_T| < 3 is ~4.2 sd
        inside = 0
        for seed in range(100):
            cfg = SimConfig(horizon_T=10.0, dt=0.01, seed=seed, init=10.0)
            path = simulate_path(ou, cfg)
            if abs(path.values[-1]) < 3.0:
                inside += 1
        assert inside >= 99

    def test_stationary_start_of_flat_drift_diverges(self):
        # the stationary start reads the distribution table, whose support
        # search finds no tail on a flat drift
        flat = DiffusionModel(drift=lambda x: 0.0, diffusion=lambda x: 1.0,
                              diffusion_sq=lambda x: 1.0, label="flat")
        with pytest.raises(DivergenceError):
            simulate_path(flat, SimConfig(horizon_T=1.0, dt=0.1, seed=0))

    def test_explosion_reports_step(self):
        blowup = DiffusionModel(drift=lambda x: x**3, diffusion=lambda x: 1.0,
                                diffusion_sq=lambda x: 1.0, label="blowup")
        with pytest.raises(SimulationError) as err:
            simulate_path(blowup, SimConfig(horizon_T=50.0, dt=0.5, seed=3, init=3.0))
        assert err.value.step_index >= 0

    @pytest.mark.parametrize("cfg, step, during_burn_in", [
        (SimConfig(horizon_T=5.0, dt=0.5, seed=3, init=3.0, burn_in_T=50.0), 6, True),
        (SimConfig(horizon_T=50.0, dt=0.05, seed=0, init=0.0, burn_in_T=0.5), 28, False),
    ], ids=["burn_in", "after_burn_in"])
    def test_explosion_step_and_message(self, cfg, step, during_burn_in):
        # a burn-in explosion counts burn-in steps; a later one counts from
        # the end of burn-in
        with pytest.raises(SimulationError) as err:
            simulate_path(cubic_blowup(), cfg)
        assert err.value.step_index == step
        assert str(err.value).endswith(f"at step {step}")
        assert ("during burn-in" in str(err.value)) == during_burn_in

    def test_long_path_memory_is_its_stored_arrays(self):
        # 4 000 burn-in steps and 400 000 steps: besides the stored states
        # and increments, a path holds one chunk at a time
        cfg = SimConfig(horizon_T=2000.0, dt=0.005, seed=3, init=1.5, store_wiener=True,
                        burn_in_T=20.0)
        tracemalloc.start()
        try:
            path = simulate_path(ornstein_uhlenbeck(2.0, 0.5), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.n_steps == 400_000
        assert peak <= path.values.nbytes + path.wiener_increments.nbytes + 10**6

    def test_wiener_increments_shape_and_variance(self, ou):
        cfg = SimConfig(horizon_T=40.0, dt=0.01, seed=11, init=0.0, store_wiener=True)
        path = simulate_path(ou, cfg)
        assert len(path.wiener_increments) == path.n_steps
        assert path.wiener_increments.var() == pytest.approx(0.01, rel=0.1)

    def test_path_reconstruction_from_increments(self, ou):
        # X_{i+1} - X_i should equal S(X_i) dt + sigma(X_i) dW_i exactly
        cfg = SimConfig(horizon_T=1.0, dt=0.01, seed=17, init=0.5, store_wiener=True)
        p = simulate_path(ou, cfg)
        left = p.values[:-1]
        recon = left + (-left) * 0.01 + p.wiener_increments
        assert np.array_equal(p.values[1:], recon)

    def test_burn_in_changes_start(self, ou):
        base = SimConfig(horizon_T=1.0, dt=0.01, seed=4, init=10.0)
        burned = SimConfig(horizon_T=1.0, dt=0.01, seed=4, init=10.0, burn_in_T=5.0)
        a = simulate_path(ou, base)
        b = simulate_path(ou, burned)
        assert a.values[0] == 10.0
        assert abs(b.values[0]) < 5.0  # burned in toward the stationary bulk

    def test_stationary_marginal_matches_invariant_law(self, ou):
        # KS distance of X_T over 500 stationary paths vs F_S below the 1%
        # critical value (T small keeps the discretization error tiny)
        finals = []
        for k in range(500):
            cfg = SimConfig(horizon_T=1.0, dt=0.01, seed=derive_substream_seed(77, k))
            finals.append(simulate_path(ou, cfg).values[-1])
        d = ks_statistic(np.asarray(finals), lambda v: invariant_cdf(ou, v))
        assert d < ks_critical_value(500, 0.01)


def wavy_model() -> DiffusionModel:
    """A custom model with state-dependent sigma whose numpy functions take
    a state vector."""
    return DiffusionModel(
        drift=lambda x: -np.tanh(x) - 0.5 * x,
        diffusion=lambda x: 1.0 + 0.25 * np.cos(x),
        diffusion_sq=lambda x: (1.0 + 0.25 * np.cos(x)) ** 2,
        label="wavy",
    )


def cubic_blowup() -> DiffusionModel:
    # x * x * x rather than x**3: a numpy power can differ from a Python
    # float's in the last bit, which sends a block to the scalar loop.
    return DiffusionModel(drift=lambda x: x * x * x, diffusion=lambda x: 1.0,
                          diffusion_sq=lambda x: 1.0, label="blowup")


def vector_block(monkeypatch, model, cfg, seeds):
    """stored_block, failing if the block runs the float kernel."""
    def scalar(*args):
        raise AssertionError("block ran the float kernel")
    with monkeypatch.context() as m:
        m.setattr(simulate, "_step_float", scalar)
        return stored_block(model, cfg, seeds)


def assert_rows_match_paths(model, cfg, seeds, block):
    for j, seed in enumerate(seeds):
        path = simulate_path(model, replace(cfg, seed=seed))
        assert np.array_equal(block.values[j], path.values)
        if cfg.store_wiener:
            assert np.array_equal(block.wiener_increments[j], path.wiener_increments)


def per_step_path(monkeypatch, model, cfg):
    """simulate_path with the per-step float kernel: its path, or the
    exception it raised."""
    with monkeypatch.context() as m:
        m.setattr(simulate, "_step_float", step_float_per_step)
        try:
            return simulate_path(model, cfg)
        except Exception as exc:
            return exc


class TestSimulateBlock:
    @pytest.mark.parametrize("make", [ornstein_uhlenbeck, quartic_well, shifted_ou, wavy_model],
                             ids=["ou", "quartic", "shifted_ou", "wavy"])
    def test_rows_bit_identical_to_simulate_path(self, make, monkeypatch):
        # 1200 steps span three increment chunks
        model = make()
        cfg = SimConfig(horizon_T=12.0, dt=0.01, seed=0)
        seeds = [derive_substream_seed(31, r) for r in range(5)]
        block = vector_block(monkeypatch, model, cfg, seeds)
        assert block.values.shape == (5, 1201)
        assert np.all(block.exploded == -1)
        assert_rows_match_paths(model, cfg, seeds, block)

    def test_burn_in_and_increments_across_chunks(self, ou, monkeypatch):
        # 700 burn-in steps end inside the second chunk of 512
        cfg = SimConfig(horizon_T=6.0, dt=0.01, seed=0, init=2.0, burn_in_T=7.0,
                        store_wiener=True)
        seeds = [11, 12, 13]
        block = vector_block(monkeypatch, ou, cfg, seeds)
        assert block.wiener_increments.shape == (3, 600)
        assert_rows_match_paths(ou, cfg, seeds, block)

    @pytest.mark.parametrize("vector", [True, False], ids=["vector", "float"])
    def test_exploding_column(self, vector, monkeypatch):
        # the float route stops the exploding path, the vector route runs
        # it on with the others; both report the same first step
        model = cubic_blowup()
        cfg = SimConfig(horizon_T=2.0, dt=0.05, seed=0, init=0.0)
        seeds = [derive_substream_seed(0, r) for r in range(4)]
        if vector:
            block = vector_block(monkeypatch, model, cfg, seeds)
        else:
            monkeypatch.setattr(simulate, "_vectorizes", lambda model, x0: False)
            block = stored_block(model, cfg, seeds)
        assert list(block.exploded) == [-1, -1, -1, 32]
        assert_rows_match_paths(model, cfg, seeds[:3], block)
        with pytest.raises(SimulationError) as from_path:
            simulate_path(model, replace(cfg, seed=seeds[3]))
        assert block.exploded[3] == from_path.value.step_index == 32

    def test_power_drift_runs_the_scalar_loop(self, monkeypatch):
        # numpy's x**3 differs from the Python float's in the last bit on
        # about 3% of inputs, so the vector probe must refuse this drift;
        # at these seeds' start points the two agree, so only the probe
        # points between them can tell
        model = DiffusionModel(drift=lambda x: -x**3, diffusion=lambda x: 1.0,
                               diffusion_sq=lambda x: 1.0, label="quartic_pow")
        cfg = SimConfig(horizon_T=2.0, dt=0.01, seed=0)
        seeds = [9, 10, 11, 12]
        rows = []
        real_scalar = simulate._step_float
        with monkeypatch.context() as m:
            m.setattr(simulate, "_step_float", lambda *a: rows.append(1) or real_scalar(*a))
            block = stored_block(model, cfg, seeds)
        x0 = block.values[:, 0]
        assert np.array_equal(-x0**3, [-(v**3) for v in x0.tolist()])
        assert len(rows) == len(seeds)
        assert_rows_match_paths(model, cfg, seeds, block)

    def test_scalar_only_drift_still_simulates(self, monkeypatch):
        # each path of the block runs the float kernel; every row is its
        # seed's path, and the per-step loop's
        model = DiffusionModel(drift=lambda x: -x * (1.0 + math.exp(-x * x)),
                               diffusion=lambda x: 1.0, diffusion_sq=lambda x: 1.0,
                               label="math_exp", sigma_const=1.0)
        cfg = SimConfig(horizon_T=12.0, dt=0.01, seed=0, init=0.5)
        seeds = [4, 5, 6]
        block = stored_block(model, cfg, seeds)
        assert np.all(block.exploded == -1)
        assert_rows_match_paths(model, cfg, seeds, block)
        for j, seed in enumerate(seeds):
            want = per_step_path(monkeypatch, model, replace(cfg, seed=seed))
            assert np.array_equal(block.values[j], want.values)

    @pytest.mark.parametrize("vector", [True, False], ids=["vector", "scalar"])
    def test_stream_hands_bounded_chunks(self, ou, vector, monkeypatch):
        # 1200 steps after 300 of burn-in: every chunk starts at a multiple
        # of _CHUNK_STEPS and holds at most that many steps (a float path's
        # at most a span of _SPAN_CHUNKS chunks), and the chunks of a block
        # split 3 + 2 put together the rows of the whole block
        cfg = SimConfig(horizon_T=12.0, dt=0.01, seed=0, init=0.5, burn_in_T=3.0)
        limit = simulate._CHUNK_STEPS * (1 if vector else simulate._SPAN_CHUNKS)
        seeds = [derive_substream_seed(5, r) for r in range(5)]
        if not vector:
            monkeypatch.setattr(simulate, "_vectorizes", lambda model, x0: False)
        whole = stored_block(ou, cfg, seeds)
        rows = np.full((5, cfg.n_steps + 1), np.nan)
        for part in (range(0, 3), range(3, 5)):
            def record(cols, start, states, dw, part=part):
                steps = len(states) - 1
                assert start % simulate._CHUNK_STEPS == 0
                assert 1 <= steps <= limit and dw.shape[0] == steps
                rows[part.start + cols.start:part.start + cols.stop,
                     start:start + steps + 1] = states.T
            exploded = stream_block(ou, cfg, [seeds[r] for r in part], record)
            assert np.all(exploded == -1)
        assert np.array_equal(rows, whole.values)

    @pytest.mark.parametrize("vector, n_steps", [
        *(pytest.param(True, n, id=f"vector-{n}") for n in (1, 100, 20_000, 400_000, 10**8)),
        *(pytest.param(False, n, id=f"float-{n}") for n in (1, 100, 20_000, 400_000)),
    ])
    def test_block_size_respects_byte_budget(self, ou, vector, n_steps, monkeypatch):
        # a streamed block of m paths holds one chunk buffer of
        # (_CHUNK_STEPS + 1) x m states whatever the step count, and a
        # float path one of (span + 1) x 1, a span being _SPAN_CHUNKS
        # chunks, and no more than a chunk's when its steps fit in one: the
        # consumer gets views of it, refilled in place, and the stream is
        # stopped after the first path's second chunk
        m = 4
        width = m if vector else 1
        chunk = simulate._CHUNK_STEPS * (1 if vector else simulate._SPAN_CHUNKS)
        if not vector:
            monkeypatch.setattr(simulate, "_vectorizes", lambda model, x0: False)
        cfg = SimConfig(horizon_T=0.5 * n_steps, dt=0.5, seed=0, init=0.5)
        seeds = [derive_substream_seed(3, r) for r in range(m)]
        chunks = []

        class Enough(Exception):
            pass

        def record(cols, start, states, dw):
            if cols.start > 0:
                return
            chunks.append((start, states))
            if len(chunks) == 2:
                raise Enough

        if n_steps <= chunk:
            stream_block(ou, cfg, seeds, record)
        else:
            with pytest.raises(Enough):
                stream_block(ou, cfg, seeds, record)
        budget = 8 * (min(chunk, max(n_steps, simulate._CHUNK_STEPS)) + 1) * width
        for k, (start, states) in enumerate(chunks):
            assert start == k * chunk
            assert states.shape == (min(n_steps - start, chunk) + 1, width)
            assert states.base is not None and states.base.nbytes <= budget
        assert len(chunks) == min(2, -(-n_steps // chunk))
        if len(chunks) == 2:
            assert chunks[1][1].base is chunks[0][1].base


def float_model(drift, diffusion=None, label="float") -> DiffusionModel:
    """A model with the given drift and unit sigma (sigma_const set), or
    the given state-dependent sigma."""
    if diffusion is None:
        return DiffusionModel(drift=drift, diffusion=lambda x: 1.0,
                              diffusion_sq=lambda x: 1.0, label=label, sigma_const=1.0)
    return DiffusionModel(drift=drift, diffusion=diffusion,
                          diffusion_sq=lambda x: diffusion(x) ** 2, label=label)


def below_minus_one_raises(x):
    if x < -1.0:
        raise ValueError(f"drift undefined at {x!r}")
    return -x


def raises_past_explosion(x):
    if not math.isfinite(x):
        raise ValueError(f"drift undefined at {x!r}")
    return x * x * x


# 1200 steps after 100 of burn-in span three chunks of each loop
_FLOAT_CFG = SimConfig(horizon_T=12.0, dt=0.01, seed=3, init=0.5, burn_in_T=1.0,
                       store_wiener=True)
_BLOWUP_CFG = SimConfig(horizon_T=50.0, dt=0.05, seed=0, init=0.0)

# the flag: whether the per-step loop steps (or steps again) a chunk
_FLOAT_CASES = {
    "python_float": (float_model(lambda x: -2.0 * math.tanh(x)), _FLOAT_CFG, False),
    # a non-float at the chunk's first state: the per-step loop steps it
    "numpy_scalar": (float_model(lambda x: -np.tanh(x)), _FLOAT_CFG, True),
    "zero_d_array": (float_model(lambda x: np.array(-np.tanh(x))), _FLOAT_CFG, True),
    "float32": (float_model(lambda x: np.float32(-x)), _FLOAT_CFG, True),
    # a float at the chunk's first state, an np.float32 below 0: the
    # comprehension's last state is not a float, so the reference steps it
    "float32_below_0": (float_model(lambda x: -x if x > 0.0 else np.float32(-x)),
                        _FLOAT_CFG, True),
    # no sigma_const: the per-step loop steps it
    "state_sigma": (float_model(lambda x: -x, lambda x: 1.0 + 0.25 * math.cos(x)),
                    _FLOAT_CFG, True),
    # math.exp raises OverflowError once X passes 709.78
    "math_exp_overflow": (float_model(lambda x: 0.25 * math.exp(x)),
                          replace(_BLOWUP_CFG, dt=0.005), True),
    "raises_past_explosion": (float_model(raises_past_explosion), _BLOWUP_CFG, True),
    "raises_at_finite_state": (float_model(below_minus_one_raises),
                               replace(_FLOAT_CFG, seed=1), True),
}


class TestFloatKernel:
    @pytest.mark.parametrize("case", list(_FLOAT_CASES))
    def test_simulate_path_equals_per_step_loop(self, case, monkeypatch):
        model, cfg, checked = _FLOAT_CASES[case]
        want = per_step_path(monkeypatch, model, cfg)
        calls = []
        real = simulate._step_float_checked
        monkeypatch.setattr(simulate, "_step_float_checked",
                            lambda *a: calls.append(1) or real(*a))
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as got:
                simulate_path(model, cfg)
            assert str(got.value) == str(want)
            assert getattr(got.value, "step_index", None) == getattr(want, "step_index", None)
        else:
            got = simulate_path(model, cfg)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.wiener_increments, want.wiener_increments)
        assert bool(calls) == checked

    @pytest.mark.parametrize("case, stepped_twice", [
        ("python_float", False), ("numpy_scalar", False), ("state_sigma", False),
        ("float32_below_0", True)])
    def test_drift_calls_per_step(self, case, stepped_twice):
        # one call per step, one more at each span's first state when the
        # model sets sigma_const; a span the reference steps again calls
        # the drift for its steps twice. A span is _SPAN_CHUNKS chunks, or
        # the longer phase's steps when they are fewer
        model, cfg, _ = _FLOAT_CASES[case]
        calls = []
        counted = replace(model, drift=lambda x: calls.append(1) or model.drift(x))
        simulate_path(counted, cfg)
        n_burn = simulate._burn_steps(cfg)
        steps = n_burn + cfg.n_steps
        span = min(simulate._SPAN_CHUNKS * simulate._CHUNK_STEPS, max(n_burn, cfg.n_steps))
        spans = -(-n_burn // span) + -(-cfg.n_steps // span)
        probes = spans if model.sigma_const is not None else 0
        if stepped_twice:
            assert len(calls) > steps + probes
        else:
            assert len(calls) == steps + probes

    @pytest.mark.parametrize("case, error", [
        ("math_exp_overflow", SimulationError), ("raises_past_explosion", SimulationError),
        ("raises_at_finite_state", ValueError)])
    def test_failing_cases_fail_in_the_per_step_loop(self, case, error, monkeypatch):
        model, cfg, _ = _FLOAT_CASES[case]
        assert isinstance(per_step_path(monkeypatch, model, cfg), error)


class TestConstantSigma:
    @pytest.mark.parametrize("make", [lambda: ornstein_uhlenbeck(0.7, 1.3), quartic_well],
                             ids=["ou", "quartic"])
    def test_sigma_const_changes_no_bits(self, make, monkeypatch):
        # with sigma_const the increments are multiplied by it; without it
        # sigma is called every step. 100 burn-in steps and 600 steps span
        # both loops and two chunks of each route.
        model = make()
        plain = replace(model, sigma_const=None)
        cfg = SimConfig(horizon_T=6.0, dt=0.01, seed=0, init=0.5, burn_in_T=1.0,
                        store_wiener=True)
        seeds = [derive_substream_seed(41, r) for r in range(4)]
        fast, slow = (vector_block(monkeypatch, m, cfg, seeds) for m in (model, plain))
        assert np.array_equal(fast.values, slow.values)
        assert np.array_equal(fast.wiener_increments, slow.wiener_increments)
        for seed in seeds:
            a, b = (simulate_path(m, replace(cfg, seed=seed)) for m in (model, plain))
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.wiener_increments, b.wiener_increments)
        xs = np.linspace(-2.0, 2.0, 21)
        choices = [as_estimator(c) for c in ("edf", "unbiased:exp:delta=1", "unbiased:poly:p=1")]
        sums = []
        for m in (model, plain):
            acc = CurveAccumulator(xs, choices, model, len(seeds), cfg.n_steps, cfg.dt)
            stream_block(m, cfg, seeds, acc.add)
            sums.append(acc.sums)
        assert np.array_equal(*sums)


class TestOccupationMean:
    def test_constant_path_identity(self):
        path = Path(dt=0.5, values=np.full(11, 2.0))
        assert occupation_mean(path, lambda z: z) == pytest.approx(2.0)

    def test_normalization(self, ou):
        cfg = SimConfig(horizon_T=3.0, dt=0.01, seed=2)
        path = simulate_path(ou, cfg)
        assert occupation_mean(path, lambda z: 1.0) == pytest.approx(1.0)

    def test_nonfinite_g_rejected(self):
        path = Path(dt=0.5, values=np.full(4, 2.0))
        with pytest.raises(EvaluationError):
            occupation_mean(path, lambda z: math.inf)

    @pytest.mark.slow
    def test_ergodic_average_of_square(self, ou):
        # batch of 20 seeds at T=200: occupation mean of z^2 near E[z^2] = 1/2
        vals = []
        for k in range(20):
            cfg = SimConfig(horizon_T=200.0, dt=0.01, seed=derive_substream_seed(5, k))
            vals.append(occupation_mean(simulate_path(ou, cfg), lambda z: z * z))
        assert abs(float(np.mean(vals)) - 0.5) < 0.05

    @pytest.mark.slow
    def test_ergodic_error_shrinks_with_horizon(self, ou):
        errs = {}
        for T in (50.0, 200.0):
            vals = []
            for k in range(20):
                cfg = SimConfig(horizon_T=T, dt=0.01, seed=derive_substream_seed(6, k))
                vals.append(occupation_mean(simulate_path(ou, cfg), lambda z: z * z))
            errs[T] = abs(float(np.mean(vals)) - 0.5)
        assert errs[200.0] < errs[50.0]


class TestPathCsv:
    def test_layout_with_increments(self, ou):
        cfg = SimConfig(horizon_T=0.03, dt=0.01, seed=8, init=1.0, store_wiener=True)
        path = simulate_path(ou, cfg)
        buf = io.StringIO()
        write_path_csv(path, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,dW"
        assert len(lines) == 5  # header + n+1 grid points
        assert lines[-1].endswith(",")  # final row has an empty dW field
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
        assert float(first[2]) == path.wiener_increments[0]

    def test_layout_without_increments(self, ou):
        cfg = SimConfig(horizon_T=0.02, dt=0.01, seed=8, init=1.0)
        buf = io.StringIO()
        write_path_csv(simulate_path(ou, cfg), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 4
