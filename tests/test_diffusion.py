"""Tests for noise schedules, the DDPM forward process and the reverse loop.

The reverse-process tests drive :meth:`InferenceEngine.sample_plans` with an
oracle predictor and compare it against the plain-numpy serial reference in
``tests/serial_reference.py``.
"""

import numpy as np
import pytest

from repro.diffusion import (
    GaussianDiffusion,
    NoiseSchedule,
    cosine_schedule,
    linear_schedule,
    make_schedule,
    quadratic_schedule,
)
from repro.inference import InferenceEngine, RequestPlan
from serial_reference import sample_serial


class TestSchedules:
    def test_quadratic_matches_equation_13(self):
        num_steps, beta_min, beta_max = 50, 1e-4, 0.2
        schedule = quadratic_schedule(num_steps, beta_min, beta_max)
        t = np.arange(1, num_steps + 1)
        expected = ((num_steps - t) / (num_steps - 1) * np.sqrt(beta_min)
                    + (t - 1) / (num_steps - 1) * np.sqrt(beta_max)) ** 2
        assert np.allclose(schedule.betas, expected)
        assert schedule.betas[0] == pytest.approx(beta_min)
        assert schedule.betas[-1] == pytest.approx(beta_max)

    def test_schedules_monotonic_alpha_bar(self):
        for factory in (quadratic_schedule, linear_schedule, cosine_schedule):
            schedule = factory(50)
            assert np.all(np.diff(schedule.alpha_bars) < 0)
            assert schedule.alpha_bars[-1] < 0.2

    def test_alpha_bar_near_one_at_start(self):
        schedule = quadratic_schedule(50)
        assert schedule.alpha_bars[0] > 0.99

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([[0.1]]))

    def test_make_schedule_factory(self):
        assert make_schedule("quadratic", 10).num_steps == 10
        assert make_schedule("linear", 10).num_steps == 10
        assert make_schedule("cosine", 10).num_steps == 10
        with pytest.raises(ValueError):
            make_schedule("bogus", 10)

    def test_posterior_variance_positive(self):
        schedule = quadratic_schedule(20)
        variances = schedule.posterior_variance(np.arange(20))
        assert np.all(variances >= 0)
        assert variances[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_step_schedule(self):
        schedule = quadratic_schedule(1, beta_max=0.2)
        assert schedule.num_steps == 1


class TestForwardProcess:
    def test_q_sample_statistics(self, rng):
        diffusion = GaussianDiffusion(quadratic_schedule(50), rng=rng)
        x0 = np.full((2000, 1), 3.0)
        steps = np.full(2000, 49)
        noisy, noise = diffusion.q_sample(x0, steps)
        alpha_bar = diffusion.schedule.alpha_bars[49]
        assert noisy.mean() == pytest.approx(np.sqrt(alpha_bar) * 3.0, abs=0.1)
        assert noisy.std() == pytest.approx(np.sqrt(1 - alpha_bar), abs=0.1)

    def test_q_sample_step_zero_close_to_data(self, rng):
        diffusion = GaussianDiffusion(quadratic_schedule(50), rng=rng)
        x0 = rng.standard_normal((4, 3, 5))
        noisy, _ = diffusion.q_sample(x0, np.zeros(4, dtype=int))
        assert np.abs(noisy - x0).mean() < 0.1

    def test_sample_steps_range(self, rng):
        diffusion = GaussianDiffusion(quadratic_schedule(17), rng=rng)
        steps = diffusion.sample_steps(500)
        assert steps.min() >= 0 and steps.max() <= 16

    def test_predict_x0_inverts_q_sample(self, rng):
        diffusion = GaussianDiffusion(quadratic_schedule(30), rng=rng)
        x0 = rng.standard_normal((1, 4, 6))
        noise = rng.standard_normal(x0.shape)
        step = 17
        noisy, _ = diffusion.q_sample(x0, np.array([step]), noise=noise)
        recovered = diffusion.predict_x0(noisy[0], noise[0], step)
        assert np.allclose(recovered, x0[0], atol=1e-10)


def _oracle_predict(diffusion, x0):
    """Engine predictor returning the exact noise that maps ``x_t`` to ``x0``."""
    def predict(x_t, condition, steps, conditional_mask, cache=None,
                samples_per_plan=1):
        alpha_bar = diffusion.schedule.alpha_bars[steps[0]]
        return (x_t.data - np.sqrt(alpha_bar) * x0) / np.sqrt(1 - alpha_bar)
    return predict


def _zero_predict(x_t, condition, steps, conditional_mask, cache=None,
                  samples_per_plan=1):
    return np.zeros_like(x_t.data)


def _oracle_noise_fn(diffusion, x0):
    """The same oracle for the serial reference's ``noise_fn(x_t, step)``."""
    def noise_fn(x_t, step):
        alpha_bar = diffusion.schedule.alpha_bars[step]
        return (x_t - np.sqrt(alpha_bar) * x0) / np.sqrt(1 - alpha_bar)
    return noise_fn


def _sample(diffusion, predict, item_shape, num_samples, rngs=None, **engine_kwargs):
    """Draw ``num_samples`` items of ``item_shape`` through the engine.

    The conditional mask is all zeros, so the predictor sees ``x_t``
    unmasked; ``rngs`` optionally pins each item to its own generator.
    """
    engine = InferenceEngine(diffusion, predict, **engine_kwargs)
    zeros = np.zeros((1,) + tuple(item_shape))
    plans = [RequestPlan(0, zeros, zeros, zeros,
                         rng=None if rngs is None else rngs[index])
             for index in range(num_samples)]
    return np.stack(engine.sample_plans(plans))


class _SharedStart:
    """Generator stand-in whose first draw is a fixed start; every later draw
    comes from its own seeded stream.  Giving one to each item makes every
    trajectory start from the same noise while the step noise stays
    per-item."""

    def __init__(self, start, seed):
        self._start = start
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, shape):
        if self._start is not None:
            start, self._start = self._start, None
            assert start.shape == tuple(shape)
            return start.copy()
        return self._rng.standard_normal(shape)


def _shared_start_rngs(start, num_samples):
    return [_SharedStart(start, seed) for seed in range(num_samples)]


class TestReverseProcess:
    def test_ancestral_sampling_recovers_oracle_target(self, rng):
        diffusion = GaussianDiffusion(quadratic_schedule(25), rng=rng)
        x0 = rng.standard_normal((3, 8))
        samples = _sample(diffusion, _oracle_predict(diffusion, x0), x0.shape, 2)
        assert samples.shape == (2,) + x0.shape
        assert np.abs(samples - x0).mean() < 1e-8

    def test_ddim_sampling_recovers_oracle_target(self, rng):
        diffusion = GaussianDiffusion(quadratic_schedule(25), rng=rng)
        x0 = rng.standard_normal((3, 8))
        samples = _sample(diffusion, _oracle_predict(diffusion, x0), x0.shape, 2,
                          ddim_steps=10)
        assert np.abs(samples - x0).mean() < 0.05

    def test_sampling_with_constant_zero_predictor_is_finite(self, rng):
        diffusion = GaussianDiffusion(quadratic_schedule(10), rng=rng)
        samples = _sample(diffusion, _zero_predict, (2, 4), 1)
        assert np.all(np.isfinite(samples))

    def test_invalid_schedule_type_rejected(self):
        with pytest.raises(TypeError):
            GaussianDiffusion(3.14)


class TestBatchedSamplers:
    """The engine's chunked loop must reproduce the serial reference
    (``tests/serial_reference.py``) under a shared seed."""

    def _pair(self, num_steps=12, seed=42):
        return (GaussianDiffusion(quadratic_schedule(num_steps), rng=np.random.default_rng(seed)),
                GaussianDiffusion(quadratic_schedule(num_steps), rng=np.random.default_rng(seed)))

    def test_sample_batched_matches_serial_with_shared_initial_noise(self, rng):
        serial_diff, batched_diff = self._pair()
        x0 = rng.standard_normal((3, 5))
        start = rng.standard_normal(x0.shape)
        serial = sample_serial(serial_diff, x0.shape, _oracle_noise_fn(serial_diff, x0), 4,
                               rngs=_shared_start_rngs(start, 4))
        batched = _sample(batched_diff, _oracle_predict(batched_diff, x0), x0.shape, 4,
                          rngs=_shared_start_rngs(start, 4))
        assert serial.shape == batched.shape == (4, 3, 5)
        np.testing.assert_allclose(batched, serial, atol=1e-10, rtol=0)

    def test_sample_batched_matches_serial_seeded(self, rng):
        """Without per-item streams both paths must consume the RNG alike."""
        serial_diff, batched_diff = self._pair(seed=7)
        x0 = rng.standard_normal((2, 4))
        serial = sample_serial(serial_diff, x0.shape, _oracle_noise_fn(serial_diff, x0), 3)
        batched = _sample(batched_diff, _oracle_predict(batched_diff, x0), x0.shape, 3)
        np.testing.assert_allclose(batched, serial, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("eta", [0.0, 0.7])
    def test_ddim_batched_matches_serial(self, rng, eta):
        serial_diff, batched_diff = self._pair(num_steps=20, seed=11)
        x0 = rng.standard_normal((3, 6))
        start = rng.standard_normal(x0.shape)
        serial = sample_serial(serial_diff, x0.shape, _oracle_noise_fn(serial_diff, x0), 3,
                               ddim_steps=8, eta=eta, rngs=_shared_start_rngs(start, 3))
        batched = _sample(batched_diff, _oracle_predict(batched_diff, x0), x0.shape, 3,
                          rngs=_shared_start_rngs(start, 3), ddim_steps=8, ddim_eta=eta)
        np.testing.assert_allclose(batched, serial, atol=1e-10, rtol=0)

    def test_ddim_eta_noise_is_per_sample(self, rng):
        """Stochastic DDIM noise must differ across the item axis.

        With identical starting noise and a deterministic predictor whose
        output depends on ``x_t`` (zero-noise prediction: the x0 estimate is
        ``x_t / sqrt(alpha_bar)``), all trajectories coincide unless each
        item draws its own step noise — a shared ``shape``-sized draw would
        keep them identical.
        """
        diffusion = GaussianDiffusion(quadratic_schedule(15), rng=np.random.default_rng(3))
        start = rng.standard_normal((2, 4))
        samples = _sample(diffusion, _zero_predict, (2, 4), 5,
                          rngs=_shared_start_rngs(start, 5), ddim_steps=6, ddim_eta=0.9)
        pairwise_gap = np.abs(samples[None] - samples[:, None]).max(axis=(-1, -2))
        assert pairwise_gap[np.triu_indices(5, k=1)].min() > 0

    def test_ddim_step_zero_edge_cases(self, rng):
        """Step-0 updates: no predecessor, alpha_bar ≈ 1 division guards."""
        # A near-flat schedule drives 1 - alpha_bar toward 0 at step 0; the
        # guarded sigma/x0 divisions must stay finite for stochastic DDIM.
        schedule = quadratic_schedule(10, beta_min=1e-10, beta_max=0.05)
        x0 = rng.standard_normal((2, 3))
        for ddim_steps, eta in ((1, 0.0), (1, 0.9), (2, 0.9), (10, 0.9)):
            diffusion = GaussianDiffusion(schedule, rng=np.random.default_rng(0))
            samples = _sample(diffusion, _oracle_predict(diffusion, x0), x0.shape, 2,
                              ddim_steps=ddim_steps, ddim_eta=eta)
            assert samples.shape == (2, 2, 3)
            assert np.all(np.isfinite(samples))
            serial_diff = GaussianDiffusion(schedule, rng=np.random.default_rng(0))
            serial = sample_serial(serial_diff, x0.shape, _oracle_noise_fn(serial_diff, x0),
                                   2, ddim_steps=ddim_steps, eta=eta)
            np.testing.assert_allclose(samples, serial, atol=1e-10, rtol=0)

    def test_ddim_single_training_step_schedule(self, rng):
        """num_steps=1: the only step is 0 and must be deterministic."""
        diffusion = GaussianDiffusion(quadratic_schedule(1), rng=np.random.default_rng(0))
        samples = _sample(diffusion, _zero_predict, (1, 4), 2, ddim_steps=1, ddim_eta=0.9)
        assert np.all(np.isfinite(samples))
        # eta > 0 draws nothing when there is no predecessor step: the
        # generator consumed exactly the two start draws.
        reference = np.random.default_rng(0)
        for _ in range(2):
            reference.standard_normal((1, 4))
        np.testing.assert_array_equal(diffusion.rng.standard_normal(3),
                                      reference.standard_normal(3))

    def test_ancestral_single_step_schedule(self):
        diffusion = GaussianDiffusion(quadratic_schedule(1), rng=np.random.default_rng(0))
        samples = _sample(diffusion, _zero_predict, (2, 2), 3)
        assert samples.shape == (3, 2, 2)
        assert np.all(np.isfinite(samples))

    def test_batched_noise_fn_sees_sample_axis(self):
        """The engine must call the predictor once per step for all items."""
        diffusion = GaussianDiffusion(quadratic_schedule(9), rng=np.random.default_rng(0))
        seen_shapes = []

        def predict(x_t, condition, steps, conditional_mask, cache=None,
                    samples_per_plan=1):
            seen_shapes.append(x_t.shape)
            assert len(steps) == x_t.shape[0]
            return np.zeros_like(x_t.data)

        _sample(diffusion, predict, (3, 5), 4)
        assert seen_shapes == [(4, 3, 5)] * 9
