"""Trace-cache lifecycle tests for compiled reverse-diffusion inference.

Covers the :class:`~repro.inference.CompiledStepCache` contract around the
engine: compiled-vs-eager bit-identity (DDPM and DDIM, eta 0 and > 0),
eviction at a configurable capacity, cross-thread replay reuse, invalidation
when the process default dtype changes, and the fallback paths (untraced
predictor, unsupported op, injected ``compile.trace`` fault, failed replay)
leaving results bit-identical to an uncompiled run.
"""

import threading

import numpy as np
import pytest

from repro import InferenceEngine
from repro.data import StandardScaler
from repro.diffusion import GaussianDiffusion, quadratic_schedule
from repro.inference import CompiledSampler, CompiledStepCache, DiffusionBackend
from repro.serving import faults
from repro.tensor import leaky_relu, set_default_dtype, tanh


# The engine hands every predictor Tensor operands, eager and traced alike.


def _tensor_predict(x_t, condition, steps, conditional_mask, cache=None):
    """A deterministic Tensor-op predictor (replayable)."""
    return (tanh(x_t) * 0.25 + condition * 0.125).data


def _numpy_predict(x_t, condition, steps, conditional_mask, cache=None):
    """Computes outside the trace: the tracer must refuse to bake this."""
    return np.tanh(x_t.data) * 0.25 + condition.data * 0.125


def _barrier_predict(x_t, condition, steps, conditional_mask, cache=None):
    """Routes through ``leaky_relu``, whose data-dependent constant raises a
    trace barrier — the unsupported-op fallback path."""
    return leaky_relu(tanh(x_t) * 0.25 + condition * 0.125, negative_slope=1.0).data


def _engine(*, predict=_tensor_predict, cache=None, seed=0, num_steps=6,
            ddim_steps=None, ddim_eta=0.0):
    diffusion = GaussianDiffusion(quadratic_schedule(num_steps),
                                  rng=np.random.default_rng(seed))
    return InferenceEngine(diffusion, predict, ddim_steps=ddim_steps,
                           ddim_eta=ddim_eta, compiled_cache=cache)


def _impute(engine, *, length=16, nodes=3, window_length=8, num_samples=4,
            stride=None):
    """The samples at the unobserved entries of a segment imputed through a
    backend whose scaler leaves values unchanged (observed entries are
    passed through, so they would hide any difference)."""
    values = np.linspace(-1.0, 1.0, length * nodes).reshape(length, nodes)
    mask = np.arange(length * nodes).reshape(length, nodes) % 3 != 0
    backend = DiffusionBackend(
        engine=engine, scaler=StandardScaler().fit(np.array([-1.0, 1.0])),
        build_condition=lambda v, m: np.asarray(v, dtype=np.float64),
        window_length=window_length)
    raw = backend.impute_segment(values, mask, num_samples=num_samples,
                                 stride=stride)
    return raw.samples[:, ~mask]


@pytest.mark.parametrize("sampler_kwargs", [
    {},                                       # DDPM
    {"ddim_steps": 4},                        # DDIM, deterministic
    {"ddim_steps": 4, "ddim_eta": 0.5},       # DDIM, stochastic
], ids=["ddpm", "ddim", "ddim-eta"])
def test_compiled_bit_identical_to_eager(sampler_kwargs):
    eager = _impute(_engine(seed=7, **sampler_kwargs))
    cache = CompiledStepCache()
    compiled = _impute(_engine(seed=7, cache=cache, **sampler_kwargs))
    assert compiled.dtype == eager.dtype
    assert np.array_equal(compiled, eager, equal_nan=True)
    stats = cache.stats()
    assert stats["compiled_entries"] == 1
    assert stats["fallbacks"] == 0
    assert stats["misses"] == 1
    assert stats["hits"] >= 1            # later chunks replay the program


def test_eviction_at_configured_capacity():
    cache = CompiledStepCache(capacity=2)
    for window_length in (6, 8, 10):     # three distinct chunk signatures
        _impute(_engine(cache=cache), window_length=window_length)
    stats = cache.stats()
    assert len(cache) == 2
    assert stats["evictions"] == 1
    assert stats["compiled_entries"] == 2


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        CompiledStepCache(capacity=0)


def test_cross_thread_replay_reuse():
    """One model-owned cache, many engines on many threads: the program
    traced by the first caller serves all of them, and the per-sampler lock
    keeps concurrent replays of one program correct."""
    seeds = [11, 12, 13, 14]
    references = {seed: _impute(_engine(seed=seed)) for seed in seeds}
    cache = CompiledStepCache()
    _impute(_engine(seed=99, cache=cache))          # trace once
    assert cache.stats()["misses"] == 1

    results, errors = {}, []

    def worker(seed):
        try:
            results[seed] = _impute(_engine(seed=seed, cache=cache))
        except Exception as error:   # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for seed in seeds:
        assert np.array_equal(results[seed], references[seed], equal_nan=True)
    stats = cache.stats()
    assert stats["misses"] == 1          # nobody re-traced
    assert stats["hits"] >= len(seeds)
    assert stats["fallbacks"] == 0


def test_default_dtype_change_invalidates():
    cache = CompiledStepCache()
    _impute(_engine(seed=3, cache=cache))
    assert cache.stats()["misses"] == 1
    set_default_dtype("float32")
    try:
        result = _impute(_engine(seed=3, cache=cache))
    finally:
        set_default_dtype("float64")
    stats = cache.stats()
    # The default dtype is part of the signature: a second program is
    # traced instead of replaying (and possibly corrupting) the first.
    assert stats["misses"] == 2
    assert stats["compiled_entries"] == 2
    reference = _impute(_engine(seed=3))
    assert np.array_equal(result, reference, equal_nan=True)


@pytest.mark.parametrize("predict", [_numpy_predict, _barrier_predict],
                         ids=["untraced-predictor", "unsupported-op"])
def test_fallback_keeps_results_bit_identical(predict):
    eager = _impute(_engine(seed=5, predict=predict))
    cache = CompiledStepCache()
    compiled = _impute(_engine(seed=5, predict=predict, cache=cache))
    assert np.array_equal(compiled, eager, equal_nan=True)
    stats = cache.stats()
    assert stats["compiled_entries"] == 0
    assert stats["fallback_entries"] == 1    # negative-cached signature
    assert stats["fallbacks"] >= 1
    # A negative-cached signature runs the eager loop on the noise the
    # engine already drew, so a rerun is bit-identical to a fresh eager run
    # too.
    rerun = _impute(_engine(seed=5, predict=predict, cache=cache))
    assert np.array_equal(rerun, eager, equal_nan=True)


def test_injected_trace_fault_serves_eagerly():
    eager = _impute(_engine(seed=21))
    cache = CompiledStepCache()
    with faults.active([{"point": "compile.trace", "hits": [1]}]):
        result = _impute(_engine(seed=21, cache=cache))
    assert np.array_equal(result, eager, equal_nan=True)
    stats = cache.stats()
    assert stats["fallbacks"] >= 1
    assert stats["compiled_entries"] == 0
    assert stats["fallback_entries"] == 1
    # A fresh cache (fault plan gone) compiles the same signature fine.
    clean_cache = CompiledStepCache()
    clean = _impute(_engine(seed=21, cache=clean_cache))
    assert np.array_equal(clean, eager, equal_nan=True)
    assert clean_cache.stats()["compiled_entries"] == 1


def test_failed_replay_serves_eagerly_on_the_same_draws(monkeypatch):
    eager = _impute(_engine(seed=8))
    cache = CompiledStepCache()
    _impute(_engine(seed=99, cache=cache))          # trace + store the program

    def broken_run(self, inputs):
        raise RuntimeError("replay failed")

    monkeypatch.setattr(CompiledSampler, "run", broken_run)
    result = _impute(_engine(seed=8, cache=cache))
    assert np.array_equal(result, eager, equal_nan=True)
    stats = cache.stats()
    assert stats["compiled_entries"] == 1             # the program stays cached
    assert stats["fallbacks"] >= 1


def test_compile_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE", "0")
    cache = CompiledStepCache()
    eager = _impute(_engine(seed=4))
    result = _impute(_engine(seed=4, cache=cache))
    assert np.array_equal(result, eager, equal_nan=True)
    assert len(cache) == 0
    assert cache.stats()["misses"] == 0
