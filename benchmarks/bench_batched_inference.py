"""Serial vs batched reverse-diffusion inference wall-clock.

The batched :class:`~repro.inference.InferenceEngine` replaces the seed's
per-(window, sample) network calls with one call per diffusion step per chunk
and hoists the step-independent conditioning work out of the step loop.  This
benchmark times both sides on a synthetic traffic dataset at ``num_samples=8``
(the Fig. 9 regime scaled to CPU), checks they agree bit-for-bit under a
shared sampling seed, and asserts the batched engine is at least
``MIN_SPEEDUP`` times faster.  The floor was re-baselined from 3x to 2x in
PR 2: the fused kernels shrink the per-call autograd/graph overhead that
dominated the batch-1 serial reference, so the *organisational* ratio fell
(measured 2.6–3.3x run-to-run) even though absolute batched wall-clock is
unchanged-to-better; the JSON artifact tracks both absolute times.

The ``serial`` side is the same model with ``inference_batch_size=1``: the
engine's one reverse loop with one item per network call, the same per-item
network calls as the per-window, per-sample sampler it replaced (that
sampler was retired from the package, and its samples are bit-identical to
these).  Batch-1 chunks still reuse the per-chunk conditioning across the
diffusion steps, which the retired sampler recomputed every call.  The
batched side's 16-item chunks hold two windows of 8 samples, and the
network computes the prior and its attention maps once per window, where a
batch-1 chunk computes them once per sample.  On a shared 2-core x86 host
(NumPy 2.4, OpenBLAS 0.3.31) best-of-``TIMING_REPEATS`` ratios measured
3.9–4.7x in float64 and 6.2–8.0x in float32 over three runs (1.9–2.3x and
2.4–2.8x before the per-window prior).  Single passes spread widely on
such hosts, which is why each side reports its best of several
interleaved passes.

Results are written to ``benchmarks/results/batched_inference.json`` so the
speedup can be tracked across commits.  Since PR 2 the payload also carries a
``float32`` section — the same serial/batched pair run under
``PriSTIConfig(dtype="float32")`` — so both dtypes are tracked going forward
(float32 serial/batched agreement is bounded by accumulated rounding rather
than the float64 path's 1e-10).

Since PR 9 the payload additionally carries a ``compiled`` section: the
trace-and-replay JIT (:mod:`repro.inference.compiled`) against the eager
batched path, one cell per (dtype, sampler), each with per-window latency
percentiles and a bit-identity flag.  The legacy ``serial``/``batched``
fields keep their original meaning (both sides eager) so the organisational
speedup stays comparable across commits; the JIT win is reported separately.
The compiled floor is 1.5x for DDPM cells; DDIM-8 cells carry a 1.2x floor
because the planner's cross-step CSE (the prior-derived attention maps are
computed once per chunk instead of once per step) amortises over 8 steps
instead of 20.  The per-window prior narrowed these ratios: the eager loop
recomputes the attention maps every step, now on one row per window, so it
gained more than the replay; the static replay tape (every view taken at
plan time, one pre-bound call per kernel) won some of it back.  On the
host above, three runs measured 1.88–2.06x (float64) and 1.55–1.70x
(float32) for DDPM and 1.53–1.97x for DDIM, against 1.80–1.81x and
1.46–1.53x for DDPM before the tape.  The planner writing results where
they are read (in-place elementwise kernels, heads-merge matmuls written
through into the merged slot) raised three runs to 2.08–2.11x (float64)
and 1.83–1.85x (float32) for DDPM and 1.81–2.11x for DDIM, against
1.90–1.94x, 1.54–1.57x and 1.54–1.84x for the runs alternated with them
on the code before it.  Run directly
(``PYTHONPATH=src python benchmarks/bench_batched_inference.py``) or through
pytest (``pytest benchmarks/bench_batched_inference.py``).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro import PriSTI, PriSTIConfig
from repro.data import metr_la_like
from repro.experiments import get_profile
from repro.inference.backend import window_starts
from repro.telemetry import PROCESS_METRICS

#: The compile counters a compiled cell reports, by their short names.
TRACE_CACHE_COUNTERS = {"hits": "compiled.cache.hits",
                        "misses": "compiled.cache.misses",
                        "fallbacks": "compiled.fallbacks",
                        "programs": "compiled.programs"}


def _trace_cache_counts():
    return {short: PROCESS_METRICS.counter(name).value
            for short, name in TRACE_CACHE_COUNTERS.items()}

NUM_SAMPLES = 8
MIN_SPEEDUP = 2.0          # re-baselined in PR 2, see module docstring
MIN_COMPILED_SPEEDUP = 1.5       # compiled vs eager, DDPM (20-step) cells
MIN_COMPILED_SPEEDUP_DDIM = 1.2  # DDIM-8 cells: CSE amortises over 8 steps
FLOAT32_MAX_DIFF = 1e-3
WINDOW_LENGTH = 16
NUM_DIFFUSION_STEPS = 20
DDIM_STEPS = 8
#: Interleaved serial/batched passes per dtype; the best of each is reported.
TIMING_REPEATS = 3


def _smoke_mode():
    """CI smoke job: record timings but don't enforce wall-clock floors
    (shared runners make speedup ratios unreliable); numeric equivalence
    assertions always apply.  Follows the suite-wide REPRO_PROFILE switch."""
    return get_profile().name == "smoke"


def _build_model(dtype="float64", *, compile_inference=False, ddim_steps=None):
    dataset = metr_la_like(num_nodes=8, num_days=4, steps_per_day=24,
                           missing_pattern="block", seed=3)
    config = PriSTIConfig.fast(
        window_length=WINDOW_LENGTH, epochs=1, iterations_per_epoch=1,
        num_diffusion_steps=NUM_DIFFUSION_STEPS, num_samples=NUM_SAMPLES,
        inference_batch_size=2 * NUM_SAMPLES, dtype=dtype,
        compile_inference=compile_inference, ddim_steps=ddim_steps,
    )
    model = PriSTI(config)
    model.fit(dataset)
    return model, dataset


def _timed_impute(model, dataset, serial=False):
    """One timed, reseeded impute (both sides draw the same noise stream);
    ``serial`` runs it with one item per network call."""
    batch_size = model.config.inference_batch_size
    model.config.inference_batch_size = 1 if serial else batch_size
    model.diffusion.rng = np.random.default_rng(0)
    try:
        start = time.perf_counter()
        result = model.impute(dataset, segment="test", num_samples=NUM_SAMPLES)
        return time.perf_counter() - start, result
    finally:
        model.config.inference_batch_size = batch_size


def _measure(dtype):
    """Warm up, then time the serial and batched sides for one dtype
    (best of ``TIMING_REPEATS`` interleaved passes each).

    Returns ``(section, config, serial_result, batched_result)`` where
    ``section`` is the timing/agreement payload shared by both dtype entries.
    """
    model, dataset = _build_model(dtype=dtype)
    # Warm-up outside the timed region (first call pays lazy allocations).
    _timed_impute(model, dataset)
    serial_times, batched_times = [], []
    for _ in range(TIMING_REPEATS):
        seconds, serial_result = _timed_impute(model, dataset, serial=True)
        serial_times.append(seconds)
        seconds, batched_result = _timed_impute(model, dataset)
        batched_times.append(seconds)
    serial_seconds, batched_seconds = min(serial_times), min(batched_times)
    section = {
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(serial_seconds / batched_seconds, 2),
        "max_abs_difference": float(
            np.max(np.abs(serial_result.samples - batched_result.samples))
        ),
    }
    return section, model.config, serial_result, batched_result


def _latency_repeats():
    return 3 if _smoke_mode() else 12


def _window_count(dataset):
    test_length = dataset.segment("test")[0].shape[0]
    return len(window_starts(test_length, WINDOW_LENGTH, WINDOW_LENGTH))


def _percentiles_ms(pass_seconds, windows):
    per_window = np.asarray(pass_seconds) / windows * 1e3
    return {f"p{q}": round(float(np.percentile(per_window, q)), 3)
            for q in (50, 95, 99)}


def _measure_compiled(dtype, ddim_steps):
    """One eager-vs-compiled cell: timings, per-window latency, identity.

    Both models train identically (same config seed; the compile flag only
    affects inference), and every timed pass reseeds the sampling RNG, so
    the two paths draw the same noise stream and must agree bit-for-bit.
    """
    eager_model, dataset = _build_model(
        dtype=dtype, compile_inference=False, ddim_steps=ddim_steps)
    compiled_model, _ = _build_model(
        dtype=dtype, compile_inference=True, ddim_steps=ddim_steps)
    windows = _window_count(dataset)

    _timed_impute(eager_model, dataset)       # warm-up
    counts = _trace_cache_counts()            # only compiled runs move them
    _timed_impute(compiled_model, dataset)    # trace + compile
    eager_times, compiled_times = [], []
    eager_result = compiled_result = None
    for _ in range(_latency_repeats()):
        seconds, eager_result = _timed_impute(eager_model, dataset)
        eager_times.append(seconds)
        seconds, compiled_result = _timed_impute(compiled_model, dataset)
        compiled_times.append(seconds)

    eager_best, compiled_best = min(eager_times), min(compiled_times)
    trace_cache = {short: value - counts[short]
                   for short, value in _trace_cache_counts().items()}
    return {
        "eager_seconds": round(eager_best, 4),
        "compiled_seconds": round(compiled_best, 4),
        "speedup_vs_eager": round(eager_best / compiled_best, 2),
        "bit_identical": bool(np.array_equal(
            eager_result.samples, compiled_result.samples, equal_nan=True)),
        "windows": windows,
        "eager_latency_ms": _percentiles_ms(eager_times, windows),
        "compiled_latency_ms": _percentiles_ms(compiled_times, windows),
        "trace_cache": trace_cache,
    }


def run_benchmark():
    """Measure both paths in both dtypes; returns (payload, serial, batched)."""
    section, config, serial_result, batched_result = _measure("float64")
    payload = {
        "num_samples": config.num_samples,
        "num_diffusion_steps": config.num_diffusion_steps,
        "window_length": config.window_length,
        "inference_batch_size": config.inference_batch_size,
        **section,
    }
    payload["float32"] = _measure("float32")[0]
    payload["compiled"] = {
        "ddim_steps": DDIM_STEPS,
        "latency_repeats": _latency_repeats(),
    }
    for dtype in ("float64", "float32"):
        payload["compiled"][dtype] = {
            "ddpm": _measure_compiled(dtype, None),
            "ddim": _measure_compiled(dtype, DDIM_STEPS),
        }
    return payload, serial_result, batched_result


def _compiled_violations(payload, enforce_floors):
    """Violation strings for the compiled section (identity always checked;
    speedup floors only when ``enforce_floors``)."""
    problems = []
    for dtype in ("float64", "float32"):
        for sampler, floor in (("ddpm", MIN_COMPILED_SPEEDUP),
                               ("ddim", MIN_COMPILED_SPEEDUP_DDIM)):
            cell = payload["compiled"][dtype][sampler]
            label = f"compiled.{dtype}.{sampler}"
            if not cell["bit_identical"]:
                problems.append(f"{label} diverged from the eager path")
            if cell["trace_cache"]["fallbacks"]:
                problems.append(f"{label} hit the eager fallback "
                                f"({cell['trace_cache']['fallbacks']}x)")
            if enforce_floors and cell["speedup_vs_eager"] < floor:
                problems.append(f"{label} speedup {cell['speedup_vs_eager']}x "
                                f"below the {floor}x floor")
    return problems


def test_bench_batched_inference(save_json):
    payload, serial_result, batched_result = run_benchmark()
    save_json("batched_inference", payload)
    # The batched engine must be a pure reorganisation of the computation:
    # identical samples, substantially less wall-clock.
    assert payload["max_abs_difference"] <= 1e-10
    assert np.allclose(serial_result.median, batched_result.median, atol=1e-10)
    if not _smoke_mode():
        assert payload["speedup"] >= MIN_SPEEDUP
    # float32 runs the same draws at lower precision: agreement is bounded by
    # rounding accumulated over the reverse process, not by the algorithm.
    assert payload["float32"]["max_abs_difference"] <= FLOAT32_MAX_DIFF
    # Compiled replay: identity and fallback-free compilation always hold;
    # speedup floors are wall-clock and follow the smoke switch.
    problems = _compiled_violations(payload, enforce_floors=not _smoke_mode())
    assert not problems, "; ".join(problems)


if __name__ == "__main__":
    payload, _, _ = run_benchmark()
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "batched_inference.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    if payload["max_abs_difference"] > 1e-10:
        raise SystemExit("batched/serial float64 paths diverged")
    if payload["float32"]["max_abs_difference"] > FLOAT32_MAX_DIFF:
        raise SystemExit("batched/serial float32 paths diverged")
    if not _smoke_mode() and payload["speedup"] < MIN_SPEEDUP:
        raise SystemExit(
            f"speedup {payload['speedup']}x below the {MIN_SPEEDUP}x floor"
        )
    problems = _compiled_violations(payload, enforce_floors=not _smoke_mode())
    if problems:
        raise SystemExit("; ".join(problems))
