"""Trace-cache lifecycle tests for compiled reverse-diffusion inference.

Covers the :class:`~repro.inference.CompiledStepCache` contract around the
engine: compiled-vs-eager bit-identity (DDPM and DDIM, eta 0 and > 0),
eviction at a configurable capacity, cross-thread replay reuse, single-flight
misses, invalidation when the process default dtype changes, and the fallback
paths (untraced predictor, unsupported op, injected ``compile.trace`` fault,
failed replay) leaving results bit-identical to an uncompiled run.  The
chunk-cap tests pin that compiled replay runs chunks of at most 16 items: a
chunk of any size replays bit for bit as the whole-chunk eager run, chunk
sizes up to 40 cost one program per size up to 16, and a program's arena
does not grow with ``inference_batch_size``.  The cache's counters are read
as ``compiled.*`` deltas in ``PROCESS_METRICS``.
"""

import threading

import numpy as np
import pytest

from repro import (
    ImputationRequest,
    ImputationService,
    InferenceEngine,
    ModelRegistry,
    PriSTI,
    PriSTIConfig,
)
from repro.data import StandardScaler
from repro.diffusion import GaussianDiffusion, quadratic_schedule
from repro.inference import (
    CompiledSampler,
    CompiledStepCache,
    DiffusionBackend,
    RequestPlan,
    compiled,
)
from repro.serving import faults
from repro.telemetry import PROCESS_METRICS
from repro.tensor import leaky_relu, set_default_dtype, tanh

_COUNTERS = {"hits": "compiled.cache.hits", "misses": "compiled.cache.misses",
             "fallbacks": "compiled.fallbacks",
             "evictions": "compiled.cache.evictions",
             "programs": "compiled.programs"}


def _counts():
    return {short: PROCESS_METRICS.counter(name).value
            for short, name in _COUNTERS.items()}


def _since(before):
    """``compiled.*`` counter deltas since the ``_counts()`` ``before``."""
    return {short: value - before[short] for short, value in _counts().items()}


# The engine hands every predictor Tensor operands, eager and traced alike.


def _tensor_predict(x_t, condition, steps, conditional_mask, cache=None,
                    samples_per_plan=1):
    """A deterministic Tensor-op predictor (replayable)."""
    return (tanh(x_t) * 0.25 + condition * 0.125).data


def _numpy_predict(x_t, condition, steps, conditional_mask, cache=None,
                   samples_per_plan=1):
    """Computes outside the trace: the tracer must refuse to bake this."""
    return np.tanh(x_t.data) * 0.25 + condition.data * 0.125


def _barrier_predict(x_t, condition, steps, conditional_mask, cache=None,
                     samples_per_plan=1):
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
    before = _counts()
    compiled = _impute(_engine(seed=7, cache=cache, **sampler_kwargs))
    assert compiled.dtype == eager.dtype
    assert np.array_equal(compiled, eager, equal_nan=True)
    delta = _since(before)
    assert len(cache) == delta["programs"] == 1
    assert delta["fallbacks"] == 0
    assert delta["misses"] == 1
    assert delta["hits"] >= 1            # later chunks replay the program


def test_eviction_at_configured_capacity():
    cache = CompiledStepCache(capacity=2)
    before = _counts()
    for window_length in (6, 8, 10):     # three distinct chunk signatures
        _impute(_engine(cache=cache), window_length=window_length)
    delta = _since(before)
    assert len(cache) == 2
    assert delta["evictions"] == 1
    # Three programs stored, one evicted: both live entries are programs.
    assert delta["programs"] == 3
    assert delta["fallbacks"] == 0


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
    before = _counts()
    _impute(_engine(seed=99, cache=cache))          # trace once
    assert _since(before)["misses"] == 1

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
    delta = _since(before)
    assert delta["misses"] == 1          # nobody re-traced
    assert delta["hits"] >= len(seeds)
    assert delta["fallbacks"] == 0


def test_default_dtype_change_invalidates():
    cache = CompiledStepCache()
    before = _counts()
    _impute(_engine(seed=3, cache=cache))
    assert _since(before)["misses"] == 1
    set_default_dtype("float32")
    try:
        result = _impute(_engine(seed=3, cache=cache))
    finally:
        set_default_dtype("float64")
    delta = _since(before)
    # The default dtype is part of the signature: a second program is
    # traced instead of replaying (and possibly corrupting) the first.
    assert delta["misses"] == 2
    assert len(cache) == delta["programs"] == 2
    reference = _impute(_engine(seed=3))
    assert np.array_equal(result, reference, equal_nan=True)


@pytest.mark.parametrize("predict", [_numpy_predict, _barrier_predict],
                         ids=["untraced-predictor", "unsupported-op"])
def test_fallback_keeps_results_bit_identical(predict):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return predict(*args, **kwargs)

    eager = _impute(_engine(seed=5, predict=counted))
    eager_calls = len(calls)
    cache = CompiledStepCache()
    before = _counts()
    compiled = _impute(_engine(seed=5, predict=counted, cache=cache))
    assert np.array_equal(compiled, eager, equal_nan=True)
    delta = _since(before)
    assert delta["programs"] == 0
    assert len(cache) == 1                   # the negative-cached signature
    # The failing chunk serves its traced run's bits: the predictor runs
    # once per step, as eagerly, and every chunk (six steps each) counts
    # one fallback.
    assert len(calls) - eager_calls == eager_calls
    assert delta["fallbacks"] == eager_calls // 6 >= 1
    # A negative-cached signature runs the eager loop on the noise the
    # engine already drew, so a rerun is bit-identical to a fresh eager run
    # too, and it does not trace again.
    before = _counts()
    rerun = _impute(_engine(seed=5, predict=predict, cache=cache))
    assert np.array_equal(rerun, eager, equal_nan=True)
    delta = _since(before)
    assert delta["misses"] == delta["programs"] == 0
    assert delta["fallbacks"] >= 1


def test_injected_trace_fault_serves_eagerly():
    eager = _impute(_engine(seed=21))
    cache = CompiledStepCache()
    before = _counts()
    with faults.active([{"point": "compile.trace", "hits": [1]}]):
        result = _impute(_engine(seed=21, cache=cache))
    assert np.array_equal(result, eager, equal_nan=True)
    delta = _since(before)
    assert delta["fallbacks"] >= 1
    assert delta["programs"] == 0
    assert len(cache) == 1                   # the negative-cached signature
    # A fresh cache (fault plan gone) compiles the same signature fine.
    clean_cache = CompiledStepCache()
    before = _counts()
    clean = _impute(_engine(seed=21, cache=clean_cache))
    assert np.array_equal(clean, eager, equal_nan=True)
    assert len(clean_cache) == _since(before)["programs"] == 1


def test_failed_replay_serves_eagerly_on_the_same_draws(monkeypatch):
    eager = _impute(_engine(seed=8))
    cache = CompiledStepCache()
    before = _counts()
    _impute(_engine(seed=99, cache=cache))          # trace + store the program
    assert _since(before)["programs"] == 1

    def broken_run(self, inputs, weights):
        raise RuntimeError("replay failed")

    monkeypatch.setattr(CompiledSampler, "run", broken_run)
    before = _counts()
    result = _impute(_engine(seed=8, cache=cache))
    assert np.array_equal(result, eager, equal_nan=True)
    delta = _since(before)
    assert len(cache) == 1                            # the program stays cached
    assert delta["misses"] == delta["programs"] == 0
    assert delta["fallbacks"] >= 1


def test_compile_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE", "0")
    cache = CompiledStepCache()
    eager = _impute(_engine(seed=4))
    before = _counts()
    result = _impute(_engine(seed=4, cache=cache))
    assert np.array_equal(result, eager, equal_nan=True)
    assert len(cache) == 0
    assert _since(before)["misses"] == 0


# ----------------------------------------------------------------------
# Single-flight misses
# ----------------------------------------------------------------------


def _chunk(engine, num_items, item_shape=(3, 8), seed=0):
    """One chunk's inputs as the engine hands them over: its noise drawn
    from the engine's stream, and a condition and mask."""
    start, step_noise = engine._draw_noise(num_items, item_shape, None)
    rng = np.random.default_rng(seed)
    shape = (num_items,) + tuple(item_shape)
    condition = rng.normal(size=shape).astype(engine.dtype)
    mask = (rng.random(shape) < 0.5).astype(engine.dtype)
    return start, step_noise, condition, mask


def _eager_chunk(engine, chunk):
    return engine._reverse_loop(*chunk).data


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_concurrent_misses_trace_once(monkeypatch):
    """A thread that misses a key another thread is tracing serves the
    eager loop on its own draws instead of tracing it again."""
    engine = _engine(cache=CompiledStepCache())
    chunks = [_chunk(engine, 4, seed=seed) for seed in (1, 2)]
    eager = [_eager_chunk(engine, chunk) for chunk in chunks]
    tracing, resume = threading.Event(), threading.Event()
    calls = []
    original = compiled.compile_graph

    def paused_compile_graph(graph):
        calls.append(graph)
        tracing.set()
        assert resume.wait(timeout=30)
        return original(graph)

    monkeypatch.setattr(compiled, "compile_graph", paused_compile_graph)
    results = {}

    def run(index):
        results[index] = compiled.sample_chunk_compiled(engine, *chunks[index])

    before = _counts()
    tracer = threading.Thread(target=run, args=(0,))
    tracer.start()
    assert tracing.wait(timeout=30)
    follower = threading.Thread(target=run, args=(1,))
    follower.start()
    follower.join(timeout=30)
    assert not follower.is_alive()         # it did not wait for the trace
    resume.set()
    tracer.join(timeout=30)
    assert len(calls) == 1
    for index in (0, 1):
        assert _same_bits(results[index], eager[index])
    delta = _since(before)
    assert delta["misses"] == 2
    assert delta["fallbacks"] == 0
    assert delta["programs"] == 1
    # The claim is released: the next tile of the key replays the program.
    before = _counts()
    assert _same_bits(compiled.sample_chunk_compiled(engine, *chunks[1]), eager[1])
    assert _since(before)["hits"] == 1


# ----------------------------------------------------------------------
# The compiled chunk cap
# ----------------------------------------------------------------------


def _fit_config(**overrides):
    defaults = dict(window_length=12, epochs=1, iterations_per_epoch=1,
                    num_diffusion_steps=6, num_samples=2, batch_size=4)
    defaults.update(overrides)
    return PriSTIConfig.fast(**defaults)


@pytest.fixture(scope="module")
def trained_model(tiny_traffic_dataset):
    return PriSTI(_fit_config()).fit(tiny_traffic_dataset)


def _plans(engine, num_items, item_shape=(3, 8), seed=0):
    """``num_items`` plans of one item shape on the shared diffusion stream."""
    rng = np.random.default_rng(seed)
    shape = (1,) + tuple(item_shape)
    return [RequestPlan(start=index,
                        values=rng.normal(size=shape).astype(engine.dtype),
                        mask=(rng.random(shape) < 0.5).astype(engine.dtype),
                        condition=rng.normal(size=shape).astype(engine.dtype))
            for index in range(num_items)]


def _sample(engine, plans, seed, chunk_size):
    engine.diffusion.rng = np.random.default_rng(seed)
    return np.stack(engine.sample_plans(plans, chunk_size=chunk_size))


@pytest.mark.parametrize("num_items", [1, 3, 5, 16, 17, 40, 64])
def test_capped_chunks_replay_the_whole_chunk_eager_run(trained_model, num_items,
                                                        monkeypatch):
    """Asked for one chunk of any size, the engine replays chunks of at most
    ``MAX_CHUNK_ITEMS`` bit for bit as the eager loop runs the whole
    chunk."""
    engine = trained_model.inference_engine()
    plans = _plans(engine, num_items, item_shape=(trained_model.num_nodes, 12))
    monkeypatch.setenv("REPRO_COMPILE", "0")
    eager = _sample(engine, plans, 5, chunk_size=num_items)
    monkeypatch.delenv("REPRO_COMPILE")
    _sample(engine, plans, 5, chunk_size=num_items)      # traces what misses
    before = _counts()
    replayed = _sample(engine, plans, 5, chunk_size=num_items)
    delta = _since(before)
    assert _same_bits(replayed, eager)
    assert delta["misses"] == delta["fallbacks"] == 0
    assert delta["hits"] == -(-num_items // compiled.MAX_CHUNK_ITEMS)


def test_chunk_sizes_cost_one_program_per_size_up_to_the_cap():
    engine, eager_engine = _engine(cache=CompiledStepCache(capacity=32)), _engine()
    before = _counts()
    for num_items in range(1, 41):
        plans = _plans(engine, num_items, seed=num_items)
        assert _same_bits(_sample(engine, plans, num_items, num_items),
                          _sample(eager_engine, plans, num_items, num_items))
    delta = _since(before)
    assert delta["programs"] == delta["misses"] == compiled.MAX_CHUNK_ITEMS
    assert delta["fallbacks"] == 0


def test_program_arena_does_not_grow_past_the_chunk_cap(monkeypatch):
    programs = []
    original = compiled.compile_graph

    def recording_compile_graph(graph):
        programs.append(original(graph))
        return programs[-1]

    monkeypatch.setattr(compiled, "compile_graph", recording_compile_graph)
    for num_items in (64, 16):
        engine = _engine(cache=CompiledStepCache())
        _sample(engine, _plans(engine, num_items), 0, chunk_size=num_items)
    assert len(programs) == 2
    assert programs[0].stats["arena_bytes"] == programs[1].stats["arena_bytes"] > 0


def test_impute_and_serve_agree_across_inference_batch_sizes(
        trained_model, tiny_traffic_dataset, tmp_path, monkeypatch):
    """With compilation on, ``model.impute`` and ``serve`` give the eager
    default-chunk bits whatever ``inference_batch_size`` cuts the items
    into, so capped chunks and chunk tails of every size agree."""
    config = trained_model.config
    values, observed, evaluation = tiny_traffic_dataset.segment("test")
    request_values, request_mask = values[:36], (observed & ~evaluation)[:36]
    registry = ModelRegistry(tmp_path)
    service = ImputationService(registry)

    def run(batch_size):
        monkeypatch.setattr(config, "inference_batch_size", batch_size)
        trained_model.diffusion.rng = np.random.default_rng(17)
        imputed = trained_model.impute(tiny_traffic_dataset, segment="test",
                                       num_samples=8)
        spec = registry.publish(trained_model, "traffic").spec
        served = service.serve(ImputationRequest(
            spec, request_values, request_mask, num_samples=8, seed=4))
        return imputed.samples, served.samples

    monkeypatch.setenv("REPRO_COMPILE", "0")
    reference = run(None)
    monkeypatch.delenv("REPRO_COMPILE")
    before = _counts()
    for batch_size in (None, 5, 16, 17, 64):
        imputed, served = run(batch_size)
        assert _same_bits(imputed, reference[0]), batch_size
        assert _same_bits(served, reference[1]), batch_size
    delta = _since(before)
    assert delta["fallbacks"] == 0
    assert delta["hits"] > 0
