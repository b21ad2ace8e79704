"""The process-level program store: compiled programs survive a rollout.

Compiled reverse-diffusion programs bind a model's weights instead of
baking them, and every model of one architecture fingerprint shares them.
This suite is the rollout correctness gate:

* new weights of the same architecture replay with no trace, bit-identical
  to the eager loop on the *new* weights (through ``ImputationService`` and
  through gateway stream sessions across several publishes);
* a different adjacency or config traces its own program;
* a program never pins a retired model's parameter arrays;
* an injected ``compile.trace`` fault negative-caches the signature for the
  whole fingerprint and never strands a ticket;
* further training drops a model's bindings, so replays follow the new
  weights.
"""

import asyncio
import gc
import json
import weakref

import numpy as np
import pytest

from repro import ImputationRequest, ImputationService, ModelRegistry, PriSTI, PriSTIConfig
from repro.inference.compiled import FALLBACK
from repro.io import load_model
from repro.serving import faults
from repro.serving.gateway import Gateway, InProcessClient, decode_array_payload
from repro.telemetry import PROCESS_METRICS


def _config(**overrides):
    defaults = dict(window_length=12, epochs=1, iterations_per_epoch=1,
                    num_diffusion_steps=6, num_samples=2, batch_size=4)
    defaults.update(overrides)
    return PriSTIConfig.fast(**defaults)


@pytest.fixture(scope="module")
def base_model(tiny_traffic_dataset):
    return PriSTI(_config()).fit(tiny_traffic_dataset)


@pytest.fixture()
def registry(tmp_path, base_model):
    registry = ModelRegistry(tmp_path)
    registry.publish(base_model, "traffic")
    return registry


def _arrays(dataset, start=0, length=12):
    values, observed, evaluation = dataset.segment("test")
    mask = observed & ~evaluation
    return values[start:start + length], mask[start:start + length]


def _misses():
    return PROCESS_METRICS.counter("compiled.cache.misses").value


def _programs():
    return PROCESS_METRICS.counter("compiled.programs").value


def _perturb(model, seed):
    """Shift every parameter of ``model`` in place (new weights, same
    architecture)."""
    rng = np.random.default_rng(seed)
    for _, parameter in model.network.named_parameters():
        parameter.data += rng.normal(scale=0.05, size=parameter.data.shape)
    return model


def _publish_perturbed(registry, seed):
    """Publish version 1's config and graph with every parameter perturbed."""
    model = load_model(registry.resolve("traffic@1").path)
    return registry.publish(_perturb(model, seed), "traffic")


def _sibling(model, config=None, adjacency=None):
    """A model built like ``model`` (or with another config / graph) that
    carries ``model``'s weights and scaler."""
    sibling = PriSTI(config or model.config)
    sibling._build(model.num_nodes,
                   model.adjacency if adjacency is None else adjacency)
    sibling.network.load_state_dict(model.network.state_dict())
    sibling.scaler = model.scaler
    return sibling


def _sample(model, dataset, seed=3):
    values, mask = _arrays(dataset)
    raw = model.backend().impute_arrays(values, mask, num_samples=2,
                                        rng=np.random.default_rng(seed))
    return raw.samples


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _eager(monkeypatch, fn):
    monkeypatch.setenv("REPRO_COMPILE", "0")
    try:
        return fn()
    finally:
        monkeypatch.delenv("REPRO_COMPILE")


class TestDifferentWeights:
    def test_service_replays_new_weights_without_a_trace(
            self, registry, tiny_traffic_dataset, monkeypatch):
        service = ImputationService(registry)
        values, mask = _arrays(tiny_traffic_dataset)

        def serve(version):
            return service.serve(ImputationRequest(
                f"traffic@{version}", values, mask, num_samples=2, seed=5))

        first = serve(1)                                # traces the signature
        misses = _misses()
        _publish_perturbed(registry, seed=1)
        second = serve(2)
        assert _misses() == misses                      # a rebind, not a trace
        assert (registry.load("traffic@2").compiled_step_cache()
                is registry.load("traffic@1").compiled_step_cache())
        eager = _eager(monkeypatch, lambda: serve(2))
        assert _same_bits(second.samples, eager.samples)
        assert not np.array_equal(second.samples, first.samples)

    def test_stream_sessions_across_publishes_trace_once(
            self, registry, tiny_traffic_dataset, monkeypatch):
        values, mask = _arrays(tiny_traffic_dataset)
        for seed in (2, 3):
            _publish_perturbed(registry, seed)

        def stream_all_versions():
            client = InProcessClient(Gateway(ImputationService(registry)))

            async def go():
                medians = []
                for version in (1, 2, 3):
                    opened = await client.request("POST", "/v1/stream", body=json.dumps(
                        {"model": f"traffic@{version}", "num_nodes": 6,
                         "seed": 7}).encode())
                    assert opened.status == 201
                    session = opened.json()["session"]
                    for row in range(3):
                        tick = np.where(mask[row], values[row], np.nan)
                        body = json.dumps({"values": [
                            None if v != v else v for v in tick]}).encode()
                        ticked = await client.request(
                            "POST", f"/v1/stream/{session}/tick", body=body)
                        assert ticked.status == 200
                        update = decode_array_payload(ticked.content_type,
                                                      ticked.body)
                        medians.append(np.asarray(update["median"]))
                    await client.request("DELETE", f"/v1/stream/{session}")
                return medians

            return asyncio.run(go())

        misses = _misses()
        compiled = stream_all_versions()
        assert _misses() - misses == 1                  # one trace in total
        eager = _eager(monkeypatch, stream_all_versions)
        assert len(compiled) == len(eager) == 9
        for replayed, reference in zip(compiled, eager):
            assert np.array_equal(replayed, reference, equal_nan=True)
        # Same stream and seed, different weights: the versions differ.
        assert not np.array_equal(compiled[2], compiled[5], equal_nan=True)


class TestFingerprints:
    def test_same_architecture_shares_one_cache(self, base_model):
        assert (_sibling(base_model).compiled_step_cache()
                is base_model.compiled_step_cache())

    def test_other_graph_or_config_traces_its_own_program(
            self, base_model, tiny_traffic_dataset):
        adjacency = base_model.adjacency.copy()
        adjacency[0, 1] = adjacency[1, 0] = adjacency[0, 1] + 0.5
        others = [_sibling(base_model, adjacency=adjacency),
                  _sibling(base_model, config=_config(beta_max=0.3))]
        _sample(base_model, tiny_traffic_dataset)
        shared = base_model.compiled_step_cache()
        for other in others:
            cache = other.compiled_step_cache()
            assert cache is not shared
            misses, programs = _misses(), _programs()
            _sample(other, tiny_traffic_dataset)
            assert _misses() - misses == 1
            assert len(cache) == _programs() - programs == 1


def test_programs_do_not_pin_retired_weights(base_model, tiny_traffic_dataset,
                                             monkeypatch):
    old = _sibling(base_model)
    new = _perturb(_sibling(base_model), seed=4)
    _sample(old, tiny_traffic_dataset)                  # traces and binds
    _sample(new, tiny_traffic_dataset)                  # binds the new weights
    parameter = weakref.ref(next(old.network.parameters()).data)
    del old
    gc.collect()
    assert parameter() is None
    misses = _misses()
    replayed = _sample(new, tiny_traffic_dataset, seed=9)
    assert _misses() == misses
    eager = _eager(monkeypatch, lambda: _sample(new, tiny_traffic_dataset, seed=9))
    assert _same_bits(replayed, eager)


def test_trace_fault_negative_caches_the_fingerprint(registry, tiny_traffic_dataset,
                                                     monkeypatch):
    service = ImputationService(registry, max_batch_requests=100)
    values, mask = _arrays(tiny_traffic_dataset)

    def request(version):
        return ImputationRequest(f"traffic@{version}", values, mask,
                                 num_samples=2, seed=6)

    with faults.active([{"point": "compile.trace", "hits": [1]}]):
        ticket = service.submit(request(1))
        service.flush()
        first = ticket.result(timeout=30)
    cache = registry.load("traffic@1").compiled_step_cache()
    assert list(cache._entries.values()) == [FALLBACK]
    assert _same_bits(first.samples,
                      _eager(monkeypatch, lambda: service.serve(request(1))).samples)
    # The negative cache covers every model of the fingerprint: a new
    # version serves eagerly without tracing again.
    _publish_perturbed(registry, seed=5)
    misses = _misses()
    second = service.serve(request(2))
    assert _misses() == misses
    assert _same_bits(second.samples,
                      _eager(monkeypatch, lambda: service.serve(request(2))).samples)


def test_further_training_rebinds_the_weights(tiny_traffic_dataset, monkeypatch):
    model = PriSTI(PriSTIConfig.fast(window_length=12, epochs=3,
                                     iterations_per_epoch=2,
                                     num_diffusion_steps=6, num_samples=2))
    model.fit(tiny_traffic_dataset, max_epochs=1)
    _sample(model, tiny_traffic_dataset)                # traces on epoch-1 weights
    model.fit(tiny_traffic_dataset, max_epochs=1)
    compiled = _sample(model, tiny_traffic_dataset, seed=4)
    eager = _eager(monkeypatch, lambda: _sample(model, tiny_traffic_dataset, seed=4))
    assert _same_bits(compiled, eager)
