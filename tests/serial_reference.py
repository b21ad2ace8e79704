"""Plain-numpy serial reverse-diffusion sampler: the tests' independent oracle.

The product has one reverse-process implementation,
:meth:`repro.inference.engine.InferenceEngine._reverse_loop` (Tensor ops,
chunked, traced and replayed when compiled).  This module keeps a second one
that shares none of that machinery, so the equivalence tests compare two
implementations rather than one loop with itself:

* one window at a time, one posterior sample at a time, every network call
  on a batch of one with ``cache=None`` (no per-chunk conditioning reuse);
* raw numpy arrays end to end — no :class:`~repro.tensor.Tensor`, no tracer;
* the generator consumed in the serial order: per sample, its start draw,
  then one draw per stochastic step;
* ``x0_residual`` network outputs converted to the implied noise with the
  same guarded expression the engine documents.

Only the per-step scalar tables of :class:`~repro.diffusion.GaussianDiffusion`
(``_ancestral_coefficients`` / ``_ddim_step_plan``) and the window plan are
shared with the product.  Under a shared seed the engine must reproduce this
reference to ≤1e-10 in float64 for any ``inference_batch_size``, with
compilation on or off.
"""

import numpy as np

from repro.inference.backend import window_starts


def sample_serial(diffusion, shape, noise_fn, num_samples, *, ddim_steps=None,
                  eta=0.0, rngs=None):
    """Draw ``num_samples`` samples of ``shape`` one at a time.

    ``noise_fn(x_t, step)`` returns the predicted noise for one sample.
    ``ddim_steps`` selects strided DDIM sampling (``None`` = ancestral).
    ``rngs`` optionally gives each sample its own generator (the serving
    per-request streams); otherwise every draw comes from ``diffusion.rng``.
    Returns ``(num_samples,) + shape``.
    """
    if ddim_steps is None:
        eps_coef, sqrt_alpha, sigmas = diffusion._ancestral_coefficients()
    else:
        sequence = diffusion.ddim_step_sequence(ddim_steps)
        plan = diffusion._ddim_step_plan(sequence, eta)
    samples = []
    for sample_index in range(num_samples):
        rng = rngs[sample_index] if rngs is not None else diffusion.rng

        def draw():
            return rng.standard_normal(shape).astype(diffusion.dtype, copy=False)

        x_t = draw()
        if ddim_steps is None:
            for step in range(diffusion.num_steps - 1, -1, -1):
                predicted = noise_fn(x_t, step)
                x_t = (x_t - eps_coef[step] * predicted) / sqrt_alpha[step]
                if step > 0:
                    x_t = x_t + sigmas[step] * draw()
        else:
            for position, step in enumerate(sequence):
                predicted = noise_fn(x_t, step)
                noise_coef, x0_denom, direction_coef, x0_coef, sigma = plan[position]
                x0_estimate = (x_t - noise_coef * predicted) / x0_denom
                x_t = x0_coef * x0_estimate + direction_coef * predicted
                if sigma > 0:
                    x_t = x_t + sigma * draw()
        samples.append(x_t)
    return np.stack(samples)


def _noise_from_prediction(engine, x_t, prediction, condition, step):
    if engine.parameterization == "epsilon":
        return prediction
    schedule = engine.diffusion.schedule
    sqrt_ab = float(schedule.sqrt_alpha_bar(step))
    sqrt_1mab = max(float(schedule.sqrt_one_minus_alpha_bar(step)), 1e-6)
    return (x_t - sqrt_ab * (condition + prediction)) / sqrt_1mab


def impute_segment_serial(engine, values, input_mask, *, window_length, stride=None,
                          num_samples=1, build_condition):
    """Serial counterpart of ``DiffusionBackend.impute_segment``'s sampling.

    Windows are visited in order and each window's samples are drawn one at
    a time through ``engine.predict`` on raw ndarrays; the per-window samples
    are overlap-averaged exactly as the backend does.
    """
    values = np.asarray(values, dtype=engine.dtype)
    length, num_nodes = values.shape
    stride = stride or window_length
    sums = np.zeros((num_samples, length, num_nodes))
    counts = np.zeros((length, num_nodes))
    for start in window_starts(length, window_length, stride):
        stop = start + window_length
        window_values = values[start:stop].T[None]                    # (1, N, L)
        window_mask = input_mask[start:stop].T[None].astype(engine.dtype)
        condition = np.asarray(build_condition(window_values * window_mask, window_mask),
                               dtype=engine.dtype)
        target_mask = 1.0 - window_mask

        def noise_fn(x_t, step):
            prediction = np.asarray(engine.predict(x_t * target_mask, condition,
                                                   np.array([step]), window_mask))
            return _noise_from_prediction(engine, x_t, prediction, condition, step)

        samples = sample_serial(engine.diffusion, window_values.shape, noise_fn,
                                num_samples, ddim_steps=engine.ddim_steps,
                                eta=engine.ddim_eta)
        sums[:, start:stop, :] += samples[:, 0].transpose(0, 2, 1)
        counts[start:stop, :] += 1.0
    return sums / np.maximum(counts, 1.0)[None]


def impute_serial(model, dataset, segment="test", *, num_samples, stride=None):
    """Serial counterpart of ``model.impute``: same scaling, eval mode and
    unscale / pass-through / median tail, serial reverse process.  Returns
    the backend's :class:`~repro.inference.RawImputation`."""
    values, observed_mask, eval_mask = dataset.segment(segment)
    input_mask = observed_mask & ~eval_mask
    backend = model.backend()
    with backend.eval_mode():
        samples_scaled = impute_segment_serial(
            backend.engine, backend.scaler.transform(values), input_mask,
            window_length=backend.window_length, stride=stride,
            num_samples=num_samples, build_condition=backend.build_condition)
    return backend._finalize(samples_scaled, values, input_mask)
