"""One prior per window: PriSTI's condition-only work runs once per window.

A window's posterior samples share its conditional information, so the
engine cuts chunks of whole windows (a window is a run of ``S`` references
to one plan) and tells the predictor ``S``; the network then computes the
prior ``H^pri``, its Q/K projections and the attention maps on the ``W =
B/S`` window rows and broadcasts the maps over each window's samples.

Pinned here: every ``inference_batch_size`` × ``num_samples`` cell, compiled
and eager, has the bits of the ``inference_batch_size=1`` run (where every
chunk has ``S = 1``) for PriSTI, PriSTI with virtual-node spatial attention
and CSDI; a micro-batch mixing ``S = 8`` and ``S = 1`` requests equals
serve-alone; ``prepare_conditioning`` sees ``W`` rows; the chunking rule;
and ``S`` is part of the compiled program key.
"""

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
from repro.baselines import CSDIImputer
from repro.core.model import PriSTINetwork
from repro.inference import RequestPlan
from repro.telemetry import PROCESS_METRICS

BATCH_SIZES = [None, 1, 5, 16, 17, 64]
NUM_SAMPLES = [1, 3, 8, 20]


def _counter(name):
    return PROCESS_METRICS.counter(name).value


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def models(tiny_traffic_dataset):
    config = PriSTIConfig.fast(window_length=12, epochs=1, iterations_per_epoch=1,
                               num_diffusion_steps=4, num_samples=2, batch_size=4)
    return {
        "pristi": PriSTI(config).fit(tiny_traffic_dataset),
        "virtual-nodes": PriSTI(config.variant(virtual_nodes=3)).fit(
            tiny_traffic_dataset),
        "csdi": CSDIImputer(config).fit(tiny_traffic_dataset),
    }


def _impute(model, dataset, monkeypatch, batch_size, num_samples):
    monkeypatch.setattr(model.config, "inference_batch_size", batch_size)
    model.diffusion.rng = np.random.default_rng(23)
    return model.impute(dataset, segment="test", num_samples=num_samples).samples


@pytest.mark.parametrize("num_samples", NUM_SAMPLES)
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "eager"])
@pytest.mark.parametrize("kind", ["pristi", "virtual-nodes", "csdi"])
def test_every_chunking_has_the_batch_one_bits(models, tiny_traffic_dataset,
                                               monkeypatch, kind, compiled,
                                               num_samples):
    model = models[kind]
    monkeypatch.setenv("REPRO_COMPILE", "0")
    reference = _impute(model, tiny_traffic_dataset, monkeypatch, 1, num_samples)
    if compiled:
        monkeypatch.delenv("REPRO_COMPILE")
    fallbacks, hits = _counter("compiled.fallbacks"), _counter("compiled.cache.hits")
    for batch_size in BATCH_SIZES:
        samples = _impute(model, tiny_traffic_dataset, monkeypatch, batch_size,
                          num_samples)
        assert _same_bits(samples, reference), batch_size
    assert _counter("compiled.fallbacks") == fallbacks
    assert (_counter("compiled.cache.hits") > hits) == compiled


def _chunks_seen(monkeypatch):
    """Record ``(items, samples_per_plan)`` of every chunk the engine samples."""
    seen = []
    original = InferenceEngine._sample_chunk

    def spy(self, plans, samples_per_plan=1):
        seen.append((len(plans), samples_per_plan))
        return original(self, plans, samples_per_plan)

    monkeypatch.setattr(InferenceEngine, "_sample_chunk", spy)
    return seen


@pytest.mark.parametrize("num_samples, chunk_size, expected", [
    (3, 16, [(15, 3), (6, 3)]),           # ⌊16/3⌋ = 5 whole windows a chunk
    (3, 5, [(3, 3)] * 7),                 # one window a chunk
    (8, 16, [(16, 8)] * 3 + [(8, 8)]),
    (20, 16, [(16, 16), (4, 4)] * 7),     # S > cap: one-window pieces
    (1, 16, [(7, 1)]),
], ids=["s3-cap16", "s3-cap5", "s8-cap16", "s20-cap16", "s1-cap16"])
def test_chunks_hold_whole_windows(models, monkeypatch, num_samples, chunk_size,
                                   expected):
    engine = models["pristi"].inference_engine()
    rng = np.random.default_rng(0)
    shape = (1, models["pristi"].num_nodes, 12)
    windows = [RequestPlan(start=index, values=rng.normal(size=shape),
                           mask=np.ones(shape), condition=rng.normal(size=shape))
               for index in range(7)]
    plans = [plan for plan in windows for _ in range(num_samples)]
    seen = _chunks_seen(monkeypatch)
    samples = engine.sample_plans(plans, chunk_size=chunk_size)
    assert len(samples) == len(plans)
    assert seen == expected


def test_mixed_samples_per_window_micro_batch_equals_serve_alone(
        models, tiny_traffic_dataset, tmp_path, monkeypatch):
    registry = ModelRegistry(tmp_path)
    registry.publish(models["pristi"], "traffic")
    service = ImputationService(registry, max_batch_requests=16)
    values, observed, evaluation = tiny_traffic_dataset.segment("test")
    mask = observed & ~evaluation
    requests = [ImputationRequest("traffic", values[start:start + 24],
                                  mask[start:start + 24],
                                  num_samples=num_samples, seed=40 + start)
                for start, num_samples in ((0, 8), (1, 1), (2, 8), (3, 1))]
    seen = _chunks_seen(monkeypatch)
    tickets = [service.submit(request) for request in requests]
    service.flush()
    batched = [ticket.result() for ticket in tickets]
    assert {per_plan for _, per_plan in seen} == {1, 8}
    for request, response in zip(requests, batched):
        assert response.batch_requests == len(requests)
        solo = service.serve(request)
        assert _same_bits(response.samples, solo.samples)
        assert _same_bits(response.median, solo.median)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "eager"])
def test_conditioning_is_computed_on_window_rows(models, tiny_traffic_dataset,
                                                 monkeypatch, compiled):
    calls = []
    original = PriSTINetwork.prepare_conditioning

    def spy(self, condition, batch_size):
        calls.append((condition.shape[0], batch_size))
        return original(self, condition, batch_size)

    monkeypatch.setattr(PriSTINetwork, "prepare_conditioning", spy)
    model = models["pristi"]
    if compiled:
        # A fresh program cache, so the chunks trace (and call the spy).
        monkeypatch.setattr(model, "_compiled_cache", None)
    else:
        monkeypatch.setenv("REPRO_COMPILE", "0")
    _impute(model, tiny_traffic_dataset, monkeypatch, 16, 8)
    assert calls
    assert all(batch_size == 8 * rows for rows, batch_size in calls)


def test_samples_per_window_is_part_of_the_program_key(models, monkeypatch):
    """Two windows of 8 samples and 16 one-sample windows are 16-item chunks
    of different programs; traced in that order, the one-sample chunk still
    has its eager bits."""
    model = models["pristi"]
    monkeypatch.setattr(model, "_compiled_cache", None)     # no programs yet
    engine = model.inference_engine()
    rng = np.random.default_rng(1)
    shape = (1, model.num_nodes, 12)

    def plans(count):
        return [RequestPlan(start=index, values=rng.normal(size=shape),
                            mask=np.ones(shape), condition=rng.normal(size=shape))
                for index in range(count)]

    windows_of_8 = [plan for plan in plans(2) for _ in range(8)]
    single = plans(16)

    def sample(batch):
        engine.diffusion.rng = np.random.default_rng(3)
        return np.stack(engine.sample_plans(batch, chunk_size=16))

    monkeypatch.setenv("REPRO_COMPILE", "0")
    eager = [sample(windows_of_8), sample(single)]
    monkeypatch.delenv("REPRO_COMPILE")
    programs, misses = _counter("compiled.programs"), _counter("compiled.cache.misses")
    replayed = [sample(windows_of_8), sample(single)]
    for got, want in zip(replayed, eager):
        assert _same_bits(got, want)
    assert _counter("compiled.programs") - programs == 2
    assert _counter("compiled.cache.misses") - misses == 2
