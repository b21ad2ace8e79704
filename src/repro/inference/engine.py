"""Batched reverse-diffusion inference engine.

The reverse-diffusion loop dominates the inference cost of the diffusion
imputers (Fig. 9 of the paper): every posterior sample of every window needs
one network call per diffusion step.  :class:`InferenceEngine` removes the
per-sample and per-window serialisation by

* packing the flat ``(window, sample)`` product into chunks of at most
  ``inference_batch_size`` items and running the reverse process for a whole
  chunk with **one network call per diffusion step** (the samplers in
  :mod:`repro.diffusion` vectorise the leading sample axis),
* computing the conditional information **once per window** and reusing it for
  every posterior sample of that window (condition caching), and
* overlap-averaging the per-window samples back onto the full segment when
  windows are strided with ``stride < window_length``.

``inference_batch_size`` (surfaced as
:attr:`repro.core.config.PriSTIConfig.inference_batch_size`) bounds the peak
memory: ``None`` packs one window's ``num_samples`` per chunk — the safe
default — while larger values let chunks span window boundaries for more
hardware utilisation.  Note the bound carries a ``num_diffusion_steps``
multiplier for *ancestral* sampling: to stay bit-compatible with the serial
RNG stream the batched sampler pre-draws every step's noise, a
``chunk × (num_steps - 1) × node × window`` float64 buffer
(:meth:`repro.diffusion.GaussianDiffusion._prepare_noise`).  Large step
counts with many samples per chunk should lower ``inference_batch_size``
accordingly; deterministic DDIM (``eta=0``) draws no step noise at all.

Serial fallback
---------------
``impute_segment(..., batched=False)`` runs the pre-engine per-window,
per-sample loop unchanged.  Both paths consume the diffusion RNG in the same
order, so under a shared seed the batched engine reproduces the serial
reference bit-for-bit (to ≤1e-10); the equivalence tests in
``tests/test_inference_engine.py`` pin this down.  Keep the serial path as the
reference when touching either one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiled import sample_chunk_compiled

__all__ = ["InferenceEngine", "RequestPlan"]


@dataclass
class RequestPlan:
    """One window to sample, with its cached conditional information.

    A plan is the engine's unit of work: ``(values, mask, condition)`` are
    ``(1, node, window)`` arrays in the model's scaled domain.  Plans passed
    to :meth:`InferenceEngine.sample_plans` may come from different requests
    with different window lengths (heterogeneous serving traffic); ``rng``
    optionally pins the plan to its own noise stream so the drawn sample is
    independent of whatever else shares the batch.  The segment path
    (:meth:`InferenceEngine.impute_segment`) leaves ``rng`` unset and consumes
    the diffusion object's shared stream.
    """

    start: int
    values: np.ndarray      # (1, node, window) scaled observations
    mask: np.ndarray        # (1, node, window) float conditional mask
    condition: np.ndarray   # (1, node, window) cached conditional information
    rng: np.random.Generator | None = None

    @property
    def item_shape(self):
        """Shape of one sampled item, ``(node, window)``."""
        return self.values.shape[1:]


class InferenceEngine:
    """Chunked reverse-diffusion sampling shared by PriSTI and CSDI.

    Parameters
    ----------
    diffusion:
        A :class:`~repro.diffusion.GaussianDiffusion` owning the schedule and
        the sampling RNG.
    predict:
        Callable ``(x_t, condition, steps, conditional_mask, cache=None) ->
        ndarray`` returning the raw network output for a ``(batch, node,
        time)`` input; the engine converts ``x0_residual`` outputs to the
        implied noise.  ``cache`` is a mutable per-chunk dict the predictor
        may use to memoise step-independent work (condition and batch size
        are constant within a chunk); it is ``None`` on the serial reference
        path, which must reproduce the pre-engine per-call behaviour.
    parameterization:
        ``"epsilon"`` (network predicts the added noise) or ``"x0_residual"``
        (network predicts the clean target as a residual on the condition).
    inference_batch_size:
        Maximum ``(window, sample)`` items per network call; ``None`` batches
        one window's samples at a time.
    ddim_steps:
        If set, use strided DDIM sampling with this many inference steps.
    ddim_eta:
        DDIM stochasticity (0 = deterministic trajectories, the default).
    compiled_cache:
        Optional :class:`~repro.inference.compiled.CompiledStepCache`: chunks
        whose signature has been traced replay as a flat compiled schedule
        instead of the eager per-op loop, falling back transparently when a
        signature cannot compile.  ``None`` keeps every chunk eager.
    """

    def __init__(self, diffusion, predict, *, parameterization="epsilon",
                 inference_batch_size=None, ddim_steps=None, dtype=None,
                 ddim_eta=0.0, compiled_cache=None):
        if parameterization not in ("epsilon", "x0_residual"):
            raise ValueError("parameterization must be 'epsilon' or 'x0_residual'")
        if inference_batch_size is not None and inference_batch_size < 1:
            raise ValueError("inference_batch_size must be a positive integer")
        if ddim_eta < 0:
            raise ValueError("ddim_eta must be non-negative")
        self.diffusion = diffusion
        self.predict = predict
        self.parameterization = parameterization
        self.inference_batch_size = inference_batch_size
        self.ddim_steps = ddim_steps
        self.ddim_eta = float(ddim_eta)
        self.compiled_cache = compiled_cache
        # Working dtype for the reverse process; defaults to the diffusion
        # object's dtype so float32 models sample in float32 end to end.
        self.dtype = np.dtype(dtype) if dtype is not None \
            else getattr(diffusion, "dtype", np.dtype(np.float64))

    # ------------------------------------------------------------------
    # Window planning
    # ------------------------------------------------------------------
    @staticmethod
    def window_starts(length, window_length, stride):
        """Start offsets of the sliding windows covering ``[0, length)``.

        Every time index is covered by at least one window (the property
        tests in ``tests/test_property_based.py`` pin this for all
        combinations): consecutive starts are ``stride`` apart and a final
        flush-right window is appended when the stride pattern would stop
        short of the end.  A stride larger than the window would leave
        uncovered gaps between windows, so it is rejected.
        """
        if length < window_length:
            raise ValueError(
                f"segment of length {length} is shorter than the window {window_length}"
            )
        if not 1 <= stride <= window_length:
            raise ValueError(
                f"stride must be in [1, window_length={window_length}] to cover "
                f"every index (got {stride})"
            )
        starts = list(range(0, length - window_length + 1, stride))
        if starts[-1] != length - window_length:
            starts.append(length - window_length)
        return starts

    def _plan_windows(self, values, input_mask, window_length, stride, build_condition):
        """Slice the segment into windows, computing each condition once."""
        windows = []
        for start in self.window_starts(values.shape[0], window_length, stride):
            stop = start + window_length
            window_values = values[start:stop].T[None]                    # (1, N, L)
            window_mask = input_mask[start:stop].T[None].astype(self.dtype)
            condition = np.asarray(
                build_condition(window_values * window_mask, window_mask),
                dtype=self.dtype,
            )
            windows.append(RequestPlan(start, window_values, window_mask, condition))
        return windows

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _noise_from_prediction(self, x_t, prediction, condition, step):
        """Map the raw network output to the predicted noise ϵ."""
        if self.parameterization == "epsilon":
            return prediction
        # Convert the predicted clean target back to the implied noise.
        x0_estimate = condition + prediction
        schedule = self.diffusion.schedule
        sqrt_ab = float(schedule.sqrt_alpha_bar(step))
        sqrt_1mab = max(float(schedule.sqrt_one_minus_alpha_bar(step)), 1e-6)
        return (x_t - sqrt_ab * x0_estimate) / sqrt_1mab

    def _sample_chunk(self, plans):
        """Draw one posterior sample for each ``(window, sample)`` item.

        All items share the diffusion trajectory (they start at step T-1
        together), so a chunk costs one network call per diffusion step
        regardless of its size.  Every plan in a chunk must have the same
        item shape; per-plan RNG streams are honoured when set (all plans of
        a chunk must agree on whether they carry one).  Returns
        ``(len(plans), node, window)``.
        """
        condition = np.concatenate([plan.condition for plan in plans], axis=0)
        conditional_mask = np.concatenate([plan.mask for plan in plans], axis=0)
        target_mask = 1.0 - conditional_mask
        item_shape = plans[0].item_shape                                  # (N, L)
        rngs = [plan.rng for plan in plans]
        if all(rng is None for rng in rngs):
            rngs = None                     # shared diffusion stream (segment path)
        elif any(rng is None for rng in rngs):
            raise ValueError(
                "cannot mix plans with and without per-request RNG streams in one batch"
            )
        if self.compiled_cache is not None:
            compiled = sample_chunk_compiled(self, plans, condition,
                                             conditional_mask, rngs)
            if compiled is not None:
                return compiled
        # Scratch space the predictor may use to reuse step-independent work
        # (e.g. the conditioning tensors) across the diffusion steps of this
        # chunk; the condition and batch size are constant within a chunk.
        cache = {}

        def noise_fn(x_t, step):
            steps = np.full(len(plans), step, dtype=int)
            prediction = self.predict(x_t * target_mask, condition, steps,
                                      conditional_mask, cache=cache)
            return self._noise_from_prediction(x_t, prediction, condition, step)

        if self.ddim_steps:
            return self.diffusion.sample_ddim(
                item_shape, noise_fn, num_samples=len(plans),
                num_inference_steps=self.ddim_steps, eta=self.ddim_eta,
                batched=True, rngs=rngs,
            )
        return self.diffusion.sample(item_shape, noise_fn, num_samples=len(plans),
                                     batched=True, rngs=rngs)

    def sample_plans(self, plans, chunk_size=None):
        """Draw one posterior sample per plan; heterogeneous plans allowed.

        The request-oriented entry point: ``plans`` may mix window lengths
        (and node counts) from different requests.  Plans are grouped by item
        shape — preserving submission order within each group, so a plan's
        draws from its own ``rng`` never depend on what it was batched with —
        and each group is packed into chunks of at most ``chunk_size``
        (default ``inference_batch_size``; ``None`` = one chunk per group).

        Returns a list of ``(node, window)`` samples aligned with ``plans``.
        """
        if chunk_size is None:
            chunk_size = self.inference_batch_size
        samples = [None] * len(plans)
        groups = {}
        for index, plan in enumerate(plans):
            groups.setdefault(plan.item_shape, []).append(index)
        for indices in groups.values():
            size = chunk_size or len(indices)
            for begin in range(0, len(indices), size):
                chunk = indices[begin:begin + size]
                chunk_samples = self._sample_chunk([plans[i] for i in chunk])
                for item, index in enumerate(chunk):
                    samples[index] = chunk_samples[item]
        return samples

    def _sample_window_serial(self, plan, num_samples):
        """Pre-engine reference path: batch-1 network calls, serial samplers."""
        condition, conditional_mask = plan.condition, plan.mask
        target_mask = 1.0 - conditional_mask

        def noise_fn(x_t, step):
            prediction = self.predict(
                x_t * target_mask, condition, np.array([step]), conditional_mask
            )
            return self._noise_from_prediction(x_t, prediction, condition, step)

        if self.ddim_steps:
            samples = self.diffusion.sample_ddim(
                plan.values.shape, noise_fn, num_samples=num_samples,
                num_inference_steps=self.ddim_steps, eta=self.ddim_eta,
                batched=False,
            )
        else:
            samples = self.diffusion.sample(
                plan.values.shape, noise_fn, num_samples=num_samples, batched=False
            )
        return samples[:, 0]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def impute_segment(self, values, input_mask, *, window_length, stride=None,
                       num_samples=1, build_condition, batched=True):
        """Sample imputations for a whole (already scaled) segment.

        Parameters
        ----------
        values:
            ``(length, node)`` observations in the model's scaled domain.
        input_mask:
            ``(length, node)`` binary mask of model-visible entries.
        window_length, stride:
            Sliding-window geometry; ``stride`` defaults to ``window_length``
            (non-overlapping).  With ``stride < window_length`` overlapping
            windows are averaged per sample index.
        num_samples:
            Posterior samples per window.
        build_condition:
            Callable ``(values, mask) -> condition`` over ``(1, node, window)``
            arrays; invoked exactly once per window.
        batched:
            ``False`` selects the serial reference path (see module docstring).

        Returns
        -------
        ndarray of shape ``(num_samples, length, node)`` — overlap-averaged
        posterior samples, still in the scaled domain.
        """
        values = np.asarray(values, dtype=self.dtype)
        length, num_nodes = values.shape
        stride = stride or window_length
        windows = self._plan_windows(values, input_mask, window_length, stride, build_condition)

        per_window = [
            np.empty((num_samples, num_nodes, window_length)) for _ in windows
        ]
        if batched:
            # Flat (window, sample) product in window-major order — the same
            # order the serial path visits, which keeps the RNG streams equal.
            # All plans share one window shape, so sample_plans degenerates to
            # the uniform chunking the segment path always used.
            tasks = [(w, s) for w in range(len(windows)) for s in range(num_samples)]
            flat = self.sample_plans([windows[w] for w, _ in tasks],
                                     chunk_size=self.inference_batch_size or num_samples)
            for item, (w, s) in enumerate(tasks):
                per_window[w][s] = flat[item]
        else:
            for w, plan in enumerate(windows):
                per_window[w] = self._sample_window_serial(plan, num_samples)

        # Overlap averaging: accumulate in window order (matching the serial
        # path's summation order bit-for-bit), then divide by the coverage.
        sums = np.zeros((num_samples, length, num_nodes))
        counts = np.zeros((length, num_nodes))
        for w, plan in enumerate(windows):
            stop = plan.start + window_length
            sums[:, plan.start:stop, :] += per_window[w].transpose(0, 2, 1)
            counts[plan.start:stop, :] += 1.0
        counts = np.maximum(counts, 1.0)
        return sums / counts[None]
