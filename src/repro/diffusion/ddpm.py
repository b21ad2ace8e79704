"""Denoising diffusion probabilistic model machinery (Eq. 1–4 of the paper).

The :class:`GaussianDiffusion` object owns a noise schedule and implements

* the forward (diffusion) process ``q(x_t | x_0)`` used to create training
  targets,
* the per-step scalar coefficients of the reverse (denoising) process
  ``p_theta(x_{t-1} | x_t, ...)`` of Eq. (2)–(3) — ancestral and strided
  DDIM — plus the pre-drawn starting and per-step noise it consumes.

The reverse loop itself lives in
:meth:`repro.inference.engine.InferenceEngine._reverse_loop`, the one
implementation every sampling path (eager, traced, compiled replay) runs.
This object is deliberately model-agnostic: both PriSTI and the CSDI
baseline plug their own noise-prediction networks into that engine.
"""

from __future__ import annotations

import numpy as np

from .schedules import NoiseSchedule, make_schedule

__all__ = ["GaussianDiffusion"]


class GaussianDiffusion:
    """Noise schedule, forward process and reverse-step coefficients.

    The arrays handled here are plain ndarrays in :attr:`dtype`; the
    sampling generator :attr:`rng` is shared by training (step and noise
    draws) and the inference engine (:meth:`_prepare_noise`).
    """

    def __init__(self, schedule, rng=None, dtype=np.float64):
        if isinstance(schedule, str):
            schedule = make_schedule(schedule, num_steps=50)
        if not isinstance(schedule, NoiseSchedule):
            raise TypeError("schedule must be a NoiseSchedule or a schedule name")
        self.schedule = schedule
        self.rng = rng or np.random.default_rng(0)
        self.dtype = np.dtype(dtype)
        # Lazily built per-step scalar coefficient table (the schedule is
        # immutable, so the values are fixed for the instance's lifetime).
        self._ancestral_coeffs = None

    def _ancestral_coefficients(self):
        """Per-step ``(eps_coef, sqrt_alpha, sigma)`` scalars, hoisted.

        The ancestral update of Eq. (3) is ``(x_t - eps_coef * eps) /
        sqrt_alpha + sigma * z`` (``sigma`` is 0 at step 0).  Computing the
        scalars once per instance removes per-step Python/numpy scalar work
        from the reverse loop and gives the trace compiler a ready-made
        per-step constant table to bake.
        """
        if self._ancestral_coeffs is None:
            schedule = self.schedule
            eps_coef = []
            sqrt_alpha = []
            sigma = []
            for step in range(self.num_steps):
                beta = float(schedule.betas[step])
                sqrt_1mab = float(schedule.sqrt_one_minus_alpha_bar(step))
                eps_coef.append(beta / sqrt_1mab)
                sqrt_alpha.append(float(np.sqrt(float(schedule.alphas[step]))))
                sigma.append(0.0 if step == 0 else
                             float(np.sqrt(schedule.posterior_variance(step))))
            self._ancestral_coeffs = (tuple(eps_coef), tuple(sqrt_alpha),
                                      tuple(sigma))
        return self._ancestral_coeffs

    @property
    def num_steps(self):
        return self.schedule.num_steps

    def _standard_normal(self, shape, rng=None):
        """Standard-normal draw in :attr:`dtype`.

        Always consumes the generator's ``float64`` stream and casts
        afterwards, so float32 and float64 runs under the same seed see the
        same noise (up to rounding) and chunking never changes the samples
        in either dtype.  ``rng`` selects a generator other than the shared
        sampling stream (used for per-request RNG streams in serving).
        """
        rng = rng if rng is not None else self.rng
        return rng.standard_normal(shape).astype(self.dtype, copy=False)

    # ------------------------------------------------------------------
    # Forward process
    # ------------------------------------------------------------------
    def sample_steps(self, batch_size):
        """Draw uniform diffusion steps ``t`` (0-indexed) for a batch."""
        return self.rng.integers(0, self.num_steps, size=batch_size)

    def q_sample(self, x0, steps, noise=None):
        """Sample ``x_t ~ q(x_t | x_0)`` for per-sample integer steps.

        ``x0`` has shape ``(batch, ...)``; ``steps`` has shape ``(batch,)``.
        Returns ``(x_t, noise)``.
        """
        x0 = np.asarray(x0, dtype=self.dtype)
        steps = np.asarray(steps, dtype=int)
        if noise is None:
            noise = self._standard_normal(x0.shape)
        shape = (len(steps),) + (1,) * (x0.ndim - 1)
        sqrt_ab = self.schedule.sqrt_alpha_bar(steps).reshape(shape).astype(self.dtype)
        sqrt_1mab = (
            self.schedule.sqrt_one_minus_alpha_bar(steps).reshape(shape).astype(self.dtype)
        )
        return sqrt_ab * x0 + sqrt_1mab * noise, noise

    # ------------------------------------------------------------------
    # Reverse process
    # ------------------------------------------------------------------
    def predict_x0(self, x_t, predicted_noise, step):
        """Recover the ``x_0`` estimate implied by a noise prediction."""
        # Scalar coefficients pass through float() so they stay weak under
        # NEP 50 promotion and cannot upcast a float32 state.
        sqrt_ab = float(self.schedule.sqrt_alpha_bar(step))
        sqrt_1mab = float(self.schedule.sqrt_one_minus_alpha_bar(step))
        return (x_t - sqrt_1mab * predicted_noise) / max(sqrt_ab, 1e-12)

    def _prepare_noise(self, num_samples, shape, draws_per_sample, rngs=None):
        """Pre-draw the starting and per-step noise in the serial RNG order.

        The generator is consumed sample-major (all of sample 0's draws —
        start, then each step — before sample 1's), the order a
        one-sample-at-a-time sampler would draw in.  That order is what makes
        a chunk's samples independent of how items are packed into chunks:
        any ``inference_batch_size`` reproduces the same samples under a
        shared seed.

        ``rngs`` optionally supplies one generator per sample (per-request RNG
        streams for the serving stack): sample ``i``'s draws then come from
        ``rngs[i]`` instead of the shared :attr:`rng`, still sample-major, so
        an item's noise is a function of its own stream only — independent of
        whatever else happens to share the batch.  The same generator may
        appear for several samples (one request's posterior samples); its
        draws are consumed in sample order.

        The price of that compatibility is memory: the step noise is a
        ``(num_samples, draws_per_sample) + shape`` buffer in :attr:`dtype`,
        i.e. ancestral sampling holds all ``num_steps - 1`` step draws of a
        chunk at once (deterministic DDIM draws none).  Callers bound the peak through
        the batch size they pass as ``num_samples`` — see
        ``inference_batch_size`` in :mod:`repro.inference.engine`.
        """
        shape = tuple(shape)
        start = np.empty((num_samples,) + shape, dtype=self.dtype)
        step_noise = np.empty((num_samples, draws_per_sample) + shape, dtype=self.dtype)
        for sample_index in range(num_samples):
            rng = rngs[sample_index] if rngs is not None else None
            start[sample_index] = self._standard_normal(shape, rng=rng)
            if draws_per_sample:
                # One generator call for the sample's whole step-noise block:
                # standard_normal fills C-order, so the float64 stream is
                # consumed exactly as the historical per-draw loop did.
                step_noise[sample_index] = self._standard_normal(
                    (draws_per_sample,) + shape, rng=rng)
        return start, step_noise

    # ------------------------------------------------------------------
    # DDIM
    # ------------------------------------------------------------------
    def ddim_step_sequence(self, num_inference_steps=None):
        """Decreasing step subset visited by strided (DDIM) sampling."""
        if num_inference_steps is None or num_inference_steps >= self.num_steps:
            return list(range(self.num_steps - 1, -1, -1))
        return list(
            np.unique(np.linspace(0, self.num_steps - 1, num_inference_steps, dtype=int))
        )[::-1]

    def _ddim_terms(self, step, prev_step, eta):
        """Scalar coefficients of one DDIM update ``x_t -> x_prev``.

        Returns ``(noise_coef, x0_denom, direction_coef, x0_coef, sigma)``.
        ``1 - alpha_bar`` can underflow to ~0 at step 0 for gentle schedules,
        so the sigma ratio guards the denominator; the final step (no
        predecessor, ``prev_step == -1``) is always deterministic.
        """
        alpha_bars = self.schedule.alpha_bars
        alpha_bar = alpha_bars[step]
        alpha_bar_prev = alpha_bars[prev_step] if prev_step >= 0 else 1.0
        if prev_step >= 0 and eta > 0:
            ratio = (1.0 - alpha_bar_prev) / max(1.0 - alpha_bar, 1e-12)
            sigma = float(eta * np.sqrt(max(ratio * (1.0 - alpha_bar / alpha_bar_prev), 0.0)))
        else:
            sigma = 0.0
        return (float(np.sqrt(1 - alpha_bar)),
                max(float(np.sqrt(alpha_bar)), 1e-12),
                float(np.sqrt(max(1 - alpha_bar_prev - sigma ** 2, 0.0))),
                float(np.sqrt(alpha_bar_prev)),
                sigma)

    def _ddim_step_plan(self, step_sequence, eta):
        """Precomputed :meth:`_ddim_terms` for a whole step sequence."""
        last = len(step_sequence) - 1
        return [
            self._ddim_terms(step,
                             step_sequence[position + 1] if position < last else -1,
                             eta)
            for position, step in enumerate(step_sequence)
        ]
