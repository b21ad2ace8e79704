"""Batched reverse-diffusion inference engine.

The reverse-diffusion loop dominates the inference cost of the diffusion
imputers (Fig. 9 of the paper): every posterior sample of every window needs
one network call per diffusion step.  :class:`InferenceEngine` is a sampler
of :class:`RequestPlan` items — one ``(window, sample)`` pair each, with its
conditional information already built — that removes the per-sample and
per-window serialisation by packing same-shape items into chunks of at most
``chunk_size`` and running the reverse process for a whole chunk with **one
network call per diffusion step** (:meth:`InferenceEngine._reverse_loop`, the
one reverse-process implementation in the package).

The engine knows no window geometry: cutting a series into windows,
building each window's condition once, and overlap-averaging the samples
back onto the series live in :class:`repro.inference.backend.DiffusionBackend`,
which runs every diffusion imputation (``model.impute``, raw arrays, service
micro-batches and stream ticks) as plan → one :meth:`sample_plans` pass →
assemble.

A chunk groups items and draws their noise.  The eager loop runs a whole
chunk at once; with compilation on, chunks hold at most
:data:`~repro.inference.compiled.MAX_CHUNK_ITEMS` (16) items, each replayed
by :func:`~repro.inference.compiled.sample_chunk_compiled`, so compiled
programs and their arenas never grow with ``inference_batch_size``.

``inference_batch_size`` (surfaced as
:attr:`repro.core.config.PriSTIConfig.inference_batch_size`) is the default
``chunk_size``; ``None`` packs each whole same-shape group of a
:meth:`InferenceEngine.sample_plans` call into one chunk.  Note the bound
carries a ``num_diffusion_steps`` multiplier for *ancestral* sampling: every
step's noise is pre-drawn, a ``chunk × (num_steps - 1) × node × window``
buffer in the model dtype
(:meth:`repro.diffusion.GaussianDiffusion._prepare_noise`).  Large step
counts with many samples per chunk should set or lower
``inference_batch_size`` accordingly; deterministic DDIM (``eta=0``) draws
no step noise at all.

Chunking and the RNG stream
---------------------------
Noise is drawn per chunk in the order a one-sample-at-a-time sampler would
draw it (sample-major), so the packing never changes the samples: any
``inference_batch_size`` — 1 included, the unbatched run — reproduces the
same output under a shared seed.  ``tests/serial_reference.py`` keeps a
plain-numpy per-window, per-sample sampler as the independent reference;
the equivalence tests pin the engine to it (≤1e-10) with compilation on and
off.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ..tensor import Tensor, no_grad
from .compiled import MAX_CHUNK_ITEMS, NO_WEIGHTS, compile_enabled, sample_chunk_compiled

__all__ = ["InferenceEngine", "RequestPlan"]


@dataclass
class RequestPlan:
    """One window to sample, with its cached conditional information.

    A plan is the engine's unit of work: ``(values, mask, condition)`` are
    ``(1, node, window)`` arrays in the model's scaled domain.  Plans passed
    to :meth:`InferenceEngine.sample_plans` may come from different requests
    with different window lengths (heterogeneous serving traffic); ``rng``
    optionally pins the plan to its own noise stream so the drawn sample is
    independent of whatever else shares the batch; plans without one (the
    ``model.impute`` path) consume the diffusion object's shared stream.
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
        Callable ``(x_t, condition, steps, conditional_mask, cache) ->
        ndarray`` returning the raw network output for a ``(batch, node,
        time)`` input; the engine converts ``x0_residual`` outputs to the
        implied noise.  ``x_t``, ``condition`` and ``conditional_mask`` are
        :class:`~repro.tensor.Tensor` operands (so a compiled chunk can
        trace the network), ``steps`` is an int array.  ``cache`` is a
        mutable per-chunk dict the predictor may use to memoise
        step-independent work (condition and batch size are constant within
        a chunk).
    parameterization:
        ``"epsilon"`` (network predicts the added noise) or ``"x0_residual"``
        (network predicts the clean target as a residual on the condition).
    inference_batch_size:
        Default ``chunk_size`` of :meth:`sample_plans`, the most items per
        chunk; ``None`` packs each whole same-shape group into one chunk.
        Compiled replay caps a chunk at 16 items whatever this says.
    ddim_steps:
        If set (an int ≥ 1), use strided DDIM sampling with this many
        inference steps; ``None`` runs full ancestral (DDPM) sampling.
    ddim_eta:
        DDIM stochasticity (0 = deterministic trajectories, the default).
    compiled_cache:
        Optional :class:`~repro.inference.compiled.CompiledStepCache`: chunks
        whose signature has been traced replay as a flat compiled schedule
        instead of the eager per-op loop, falling back transparently when a
        signature cannot compile.  ``None`` keeps every chunk eager.
    weights:
        The :class:`~repro.inference.compiled.WeightSet` of the network
        ``predict`` runs: compiled programs bind these parameters instead of
        baking them.  ``None`` is for predictors that read no trainable
        tensors.
    """

    def __init__(self, diffusion, predict, *, parameterization="epsilon",
                 inference_batch_size=None, ddim_steps=None, dtype=None,
                 ddim_eta=0.0, compiled_cache=None, weights=None):
        if parameterization not in ("epsilon", "x0_residual"):
            raise ValueError("parameterization must be 'epsilon' or 'x0_residual'")
        if inference_batch_size is not None and inference_batch_size < 1:
            raise ValueError("inference_batch_size must be a positive integer")
        if ddim_steps is not None and (isinstance(ddim_steps, bool)
                                       or not isinstance(ddim_steps, Integral)
                                       or ddim_steps < 1):
            raise ValueError("ddim_steps must be None or a positive integer")
        if ddim_eta < 0:
            raise ValueError("ddim_eta must be non-negative")
        self.diffusion = diffusion
        self.predict = predict
        self.parameterization = parameterization
        self.inference_batch_size = inference_batch_size
        self.ddim_steps = ddim_steps
        self.ddim_eta = float(ddim_eta)
        self.compiled_cache = compiled_cache
        self.weights = NO_WEIGHTS if weights is None else weights
        # Working dtype for the reverse process; defaults to the diffusion
        # object's dtype so float32 models sample in float32 end to end.
        self.dtype = np.dtype(dtype) if dtype is not None \
            else getattr(diffusion, "dtype", np.dtype(np.float64))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _step_sequence(self):
        """Diffusion steps visited by the reverse process, in order."""
        if self.ddim_steps is None:
            return list(range(self.diffusion.num_steps - 1, -1, -1))
        return self.diffusion.ddim_step_sequence(self.ddim_steps)

    def _draw_noise(self, num_items, item_shape, rngs):
        """Pre-draw a chunk's start and step noise (sample-major order)."""
        if self.ddim_steps is None:
            draws = max(self.diffusion.num_steps - 1, 0)
        else:
            draws = len(self._step_sequence()) - 1 if self.ddim_eta > 0 else 0
        return self.diffusion._prepare_noise(num_items, item_shape, draws, rngs=rngs)

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

    def _reverse_loop(self, start, step_noise, condition, conditional_mask,
                      tracer=None):
        """Run one chunk's full reverse process (Algorithm 2) in Tensor ops.

        ``start`` is the ``(num_items,) + item_shape`` noise at step T-1 and
        ``step_noise`` the pre-drawn per-step noise (see :meth:`_draw_noise`).
        Ancestral sampling applies Eq. (3); with ``ddim_steps`` set the
        strided DDIM update runs instead.  With ``tracer`` set the loop is
        recorded for :mod:`repro.inference.compiled` (inputs registered
        first, per-step scalar coefficients and embedding rows baked as
        constants); without one it is the eager sampler.

        Returns the final state as a :class:`Tensor` of shape
        ``(num_items,) + item_shape``.
        """
        if tracer is not None:
            start = tracer.add_input("x", start)
            condition = tracer.add_input("condition", condition)
            conditional_mask = tracer.add_input("conditional_mask", conditional_mask)
            if step_noise.size:
                step_noise = tracer.add_input("step_noise", step_noise)
        num_items = start.shape[0]
        diffusion = self.diffusion
        with no_grad():
            # dtype is pinned on every wrapper so no array is copied: the trace
            # resolves values by ndarray identity, and a silent cast here would
            # turn a runtime value into a baked constant.
            x = Tensor(start, dtype=start.dtype)
            cond_t = Tensor(condition, dtype=condition.dtype)
            mask_t = Tensor(conditional_mask, dtype=conditional_mask.dtype)
            target_t = 1.0 - mask_t
            noise_t = Tensor(step_noise, dtype=step_noise.dtype) if step_noise.size else None
            # Scratch space the predictor may use to reuse step-independent
            # work (e.g. the conditioning tensors) across this chunk's steps.
            cache = {}

            def predicted_noise(x, step):
                steps = np.full(num_items, step, dtype=int)
                prediction = self.predict(x * target_t, cond_t, steps, mask_t,
                                          cache=cache)
                prediction = Tensor(prediction, dtype=prediction.dtype)
                if tracer is not None:
                    # A predictor that computes outside the trace (raw numpy)
                    # would resolve as a capture and bake this execution's
                    # prediction into every replay — refuse instead.
                    tracer.require_runtime(
                        prediction.data,
                        "network prediction was not produced by traced ops")
                return self._noise_from_prediction(x, prediction, cond_t, step)

            sequence = self._step_sequence()
            if self.ddim_steps is not None:
                plan = diffusion._ddim_step_plan(sequence, self.ddim_eta)
                for position, step in enumerate(sequence):
                    eps = predicted_noise(x, step)
                    noise_coef, x0_denom, direction_coef, x0_coef, sigma = plan[position]
                    x0_estimate = (x - noise_coef * eps) / x0_denom
                    direction = direction_coef * eps
                    x = x0_coef * x0_estimate + direction
                    if sigma > 0:
                        x = x + sigma * noise_t[:, position]
            else:
                eps_coef, sqrt_alpha, sigmas = diffusion._ancestral_coefficients()
                for position, step in enumerate(sequence):
                    eps = predicted_noise(x, step)
                    mean = (x - eps_coef[step] * eps) / sqrt_alpha[step]
                    if step == 0:
                        x = mean
                    else:
                        x = mean + sigmas[step] * noise_t[:, position]
        return x

    def _sample_chunk(self, plans):
        """Draw one posterior sample for each ``(window, sample)`` item.

        All items share the diffusion trajectory (they start at step T-1
        together), so a chunk costs one network call per diffusion step
        regardless of its size.  Every plan in a chunk must have the same
        item shape; per-plan RNG streams are honoured when set (all plans of
        a chunk must agree on whether they carry one).  The noise is drawn
        first; the chunk then replays a compiled program when the model has a
        compile cache (:func:`~repro.inference.compiled.sample_chunk_compiled`)
        and runs :meth:`_reverse_loop` eagerly otherwise.  Returns
        ``(len(plans), node, window)``.
        """
        condition = np.concatenate([plan.condition for plan in plans], axis=0)
        conditional_mask = np.concatenate([plan.mask for plan in plans], axis=0)
        rngs = [plan.rng for plan in plans]
        if all(rng is None for rng in rngs):
            rngs = None                     # shared diffusion stream (model.impute)
        elif any(rng is None for rng in rngs):
            raise ValueError(
                "cannot mix plans with and without per-request RNG streams in one batch"
            )
        start, step_noise = self._draw_noise(len(plans), plans[0].item_shape, rngs)
        if self.compiled_cache is not None:
            return sample_chunk_compiled(self, start, step_noise, condition,
                                         conditional_mask)
        return self._reverse_loop(start, step_noise, condition, conditional_mask).data

    def sample_plans(self, plans, chunk_size=None):
        """Draw one posterior sample per plan; heterogeneous plans allowed.

        The engine's one entry point: ``plans`` may mix window lengths (and
        node counts) from different requests.  Plans are grouped by item
        shape — preserving submission order within each group, so a plan's
        draws from its own ``rng`` never depend on what it was batched with —
        and each group is packed into chunks of at most ``chunk_size``
        (default ``inference_batch_size``; ``None`` = one chunk per group),
        and of at most ``MAX_CHUNK_ITEMS`` when chunks replay compiled
        programs.  Chunking never changes a drawn bit.

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
            if self.compiled_cache is not None and compile_enabled():
                size = min(size, MAX_CHUNK_ITEMS)
            for begin in range(0, len(indices), size):
                chunk = indices[begin:begin + size]
                chunk_samples = self._sample_chunk([plans[i] for i in chunk])
                for item, index in enumerate(chunk):
                    samples[index] = chunk_samples[item]
        return samples
