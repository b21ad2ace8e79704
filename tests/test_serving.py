"""Tests for the request-oriented serving stack.

Covers the four layers of the refactor:

* the stateless backends (raw-array imputation, short-request padding, and
  the **wrapper equivalence** acceptance criterion: ``impute(dataset,
  segment)`` through the backend is bit-identical to the pre-refactor code
  path, in float32 and float64),
* the ``name@version`` :class:`~repro.serving.ModelRegistry` with its LRU,
* the :class:`~repro.serving.ImputationService` micro-batcher (the
  **bit-identical to served-alone** acceptance criterion, size/deadline
  triggers, error propagation, heterogeneous windows, worker thread), and
* the :class:`~repro.serving.StreamingImputer` ring-buffer sessions, and
* the service error paths the HTTP gateway leans on (concurrent ticket
  fetches, submit-after-stop, stopped executor pools, the stop/drain
  contract) plus streaming replay equivalence over the gateway endpoints
  (the protocol itself is covered in ``tests/test_gateway.py``).
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import (
    ImputationRequest,
    ImputationService,
    ModelRegistry,
    PriSTI,
    PriSTIConfig,
    StreamingImputer,
    WorkerPool,
)
from repro.baselines import BRITSImputer
from repro.data import SlidingWindowBuffer
from repro.serving import PoolStopped, RegistryError
from repro.serving.gateway import Gateway, InProcessClient, decode_array_payload
from serial_reference import impute_serial


def _fast_config(**overrides):
    defaults = dict(window_length=12, epochs=1, iterations_per_epoch=1,
                    num_diffusion_steps=8, num_samples=3, batch_size=4)
    defaults.update(overrides)
    return PriSTIConfig.fast(**defaults)


@pytest.fixture(scope="module")
def trained_pristi(tiny_traffic_dataset):
    model = PriSTI(_fast_config())
    model.fit(tiny_traffic_dataset)
    return model


@pytest.fixture()
def registry(tmp_path, trained_pristi):
    registry = ModelRegistry(tmp_path / "models", max_loaded=2)
    registry.publish(trained_pristi, "traffic")
    return registry


def _test_arrays(dataset, start=0, length=12):
    values, observed, evaluation = dataset.segment("test")
    mask = observed & ~evaluation
    return values[start:start + length], mask[start:start + length]


# ----------------------------------------------------------------------
# Wrapper equivalence: impute(dataset, segment) == pre-refactor path
# ----------------------------------------------------------------------
def _legacy_impute(model, dataset, segment="test", num_samples=3, stride=None):
    """The pre-backend ``ConditionalDiffusionImputer.impute`` body, inlined
    verbatim: any numeric drift in the refactored wrapper shows up as a
    bitwise mismatch against this reference."""
    values, observed_mask, eval_mask = dataset.segment(segment)
    input_mask = observed_mask & ~eval_mask
    window = model.config.window_length
    stride = stride or window
    engine = model.inference_engine()

    model.network.eval()
    samples_scaled = engine.impute_segment(
        model.scaler.transform(values), input_mask,
        window_length=window, stride=stride, num_samples=num_samples,
        build_condition=model.build_condition,
    )
    samples = model.scaler.inverse_transform(samples_scaled)
    samples = np.where(input_mask[None], values[None], samples)
    median = np.median(samples, axis=0)
    model.network.train()
    return median, samples


class TestWrapperEquivalence:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("stride", [None, 5])
    def test_impute_bit_identical_to_pre_refactor(self, tiny_traffic_dataset,
                                                  dtype, stride):
        model = PriSTI(_fast_config(dtype=dtype))
        model.fit(tiny_traffic_dataset)

        model.diffusion.rng = np.random.default_rng(123)
        reference_median, reference_samples = _legacy_impute(
            model, tiny_traffic_dataset, num_samples=3, stride=stride)

        model.diffusion.rng = np.random.default_rng(123)
        result = model.impute(tiny_traffic_dataset, segment="test",
                              num_samples=3, stride=stride)

        assert np.array_equal(result.samples, reference_samples)
        assert np.array_equal(result.median, reference_median)

    def test_serial_fallback_also_bit_identical(self, trained_pristi,
                                                tiny_traffic_dataset):
        """The unbatched run (batch-1 chunks) through the wrapper matches the
        plain-numpy serial reference bit for bit."""
        model = trained_pristi
        model.diffusion.rng = np.random.default_rng(7)
        reference = impute_serial(model, tiny_traffic_dataset, num_samples=2)
        model.config.inference_batch_size = 1
        try:
            model.diffusion.rng = np.random.default_rng(7)
            result = model.impute(tiny_traffic_dataset, segment="test", num_samples=2)
        finally:
            model.config.inference_batch_size = None
        assert np.array_equal(result.samples, reference.samples)
        assert np.array_equal(result.median, reference.median)


# ----------------------------------------------------------------------
# Stateless backend over raw arrays
# ----------------------------------------------------------------------
class TestBackend:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError, match="before fit"):
            PriSTI(_fast_config()).backend()

    def test_raw_arrays_no_dataset_needed(self, trained_pristi, tiny_traffic_dataset):
        values, mask = _test_arrays(tiny_traffic_dataset)
        raw = trained_pristi.backend().impute_arrays(values, mask,
                                                     num_samples=2, rng=0)
        assert raw.samples.shape == (2,) + values.shape
        assert raw.median.shape == values.shape
        # Observed entries pass through; everything is finite.
        assert np.array_equal(raw.median[mask], values[mask])
        assert np.all(np.isfinite(raw.samples))

    @pytest.mark.parametrize("length", [1, 5, 11])
    def test_short_requests_padded_and_cropped(self, trained_pristi,
                                               tiny_traffic_dataset, length):
        """Requests shorter than the trained window are served (mask-padded
        internally) and the output is cropped back to the request length."""
        values, mask = _test_arrays(tiny_traffic_dataset, length=length)
        raw = trained_pristi.backend().impute_arrays(values, mask,
                                                     num_samples=2, rng=1)
        assert raw.median.shape == (length, values.shape[1])
        assert raw.samples.shape == (2, length, values.shape[1])
        assert np.array_equal(raw.median[mask], values[mask])

    def test_long_request_strided_windows(self, trained_pristi, tiny_traffic_dataset):
        values, mask = _test_arrays(tiny_traffic_dataset, length=20)
        raw = trained_pristi.backend().impute_arrays(values, mask,
                                                     num_samples=2, rng=2, stride=4)
        assert raw.median.shape == values.shape
        assert np.all(np.isfinite(raw.samples))

    def test_per_request_rng_reproducible(self, trained_pristi, tiny_traffic_dataset):
        values, mask = _test_arrays(tiny_traffic_dataset)
        backend = trained_pristi.backend()
        first = backend.impute_arrays(values, mask, num_samples=2, rng=42)
        second = backend.impute_arrays(values, mask, num_samples=2, rng=42)
        assert np.array_equal(first.samples, second.samples)

    def test_bad_requests_rejected(self, trained_pristi):
        backend = trained_pristi.backend()
        with pytest.raises(ValueError, match="time, node"):
            backend.impute_arrays(np.zeros(5))
        with pytest.raises(ValueError, match="same shape"):
            backend.impute_arrays(np.zeros((5, 3)), np.ones((4, 3), dtype=bool))

    def test_nan_values_count_as_missing(self, trained_pristi, tiny_traffic_dataset):
        """NaN readings with no explicit mask must be imputed, not echoed."""
        values, mask = _test_arrays(tiny_traffic_dataset)
        noisy = np.where(mask, values, np.nan)          # NaN marks the gaps
        raw = trained_pristi.backend().impute_arrays(noisy, num_samples=2, rng=3)
        assert np.all(np.isfinite(raw.median))
        assert np.all(np.isfinite(raw.samples))
        assert np.array_equal(raw.observed_mask, mask)
        assert np.array_equal(raw.median[mask], values[mask])

    def test_windowed_backend_raw_arrays(self, tiny_traffic_dataset):
        model = BRITSImputer(window_length=8, epochs=1, iterations_per_epoch=1)
        model.fit(tiny_traffic_dataset)
        values, mask = _test_arrays(tiny_traffic_dataset, length=10)
        raw = model.backend().impute_arrays(values, mask)
        assert raw.median.shape == values.shape
        assert np.array_equal(raw.median[mask], values[mask])

    @pytest.mark.parametrize("length", [1, 5])
    def test_windowed_backend_short_requests_padded(self, tiny_traffic_dataset,
                                                    length):
        """Short requests work even for decoders that emit a fixed window
        (the VAE family) — the backend pads to the window and crops."""
        from repro.baselines import VRINImputer

        model = VRINImputer(window_length=8, epochs=1, iterations_per_epoch=1)
        model.fit(tiny_traffic_dataset)
        values, mask = _test_arrays(tiny_traffic_dataset, length=length)
        raw = model.backend().impute_arrays(values, mask, num_samples=2)
        assert raw.median.shape == (length, values.shape[1])
        assert np.array_equal(raw.median[mask], values[mask])

    def test_windowed_impute_unchanged_by_backend_split(self, tiny_traffic_dataset):
        """The windowed family's impute() wrapper reproduces itself exactly
        (deterministic reconstruction → repeated calls must agree)."""
        model = BRITSImputer(window_length=8, epochs=1, iterations_per_epoch=1)
        model.fit(tiny_traffic_dataset)
        first = model.impute(tiny_traffic_dataset, segment="test")
        second = model.impute(tiny_traffic_dataset, segment="test")
        assert np.array_equal(first.samples, second.samples)


# ----------------------------------------------------------------------
# Model registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_publish_auto_versions_and_latest(self, registry, trained_pristi):
        second = registry.publish(trained_pristi, "traffic")
        assert second.spec == "traffic@2"
        assert registry.versions("traffic") == ["1", "2"]
        assert registry.resolve("traffic").version == "2"       # latest wins
        assert registry.resolve("traffic@1").version == "1"

    def test_load_round_trip_serves_identically(self, registry, trained_pristi,
                                                tiny_traffic_dataset):
        values, mask = _test_arrays(tiny_traffic_dataset)
        loaded = registry.load("traffic@1")
        ours = trained_pristi.backend().impute_arrays(values, mask,
                                                      num_samples=2, rng=9)
        theirs = loaded.backend().impute_arrays(values, mask,
                                                num_samples=2, rng=9)
        assert np.array_equal(ours.samples, theirs.samples)

    def test_lru_hits_and_evictions(self, registry, trained_pristi):
        registry.publish(trained_pristi, "traffic")             # @2
        registry.publish(trained_pristi, "aqi")                 # second name
        first = registry.load("traffic@1")
        assert registry.load("traffic@1") is first              # LRU hit
        registry.load("traffic@2")                              # fills capacity (2)
        registry.load("aqi")                                    # evicts traffic@1
        assert registry.evictions == 1
        assert "traffic@1" not in registry.loaded
        reloaded = registry.load("traffic@1")                   # transparent reload
        assert reloaded is not first

    def test_unknown_specs_rejected(self, registry):
        with pytest.raises(RegistryError, match="no model named"):
            registry.resolve("nope")
        with pytest.raises(RegistryError, match="no version"):
            registry.resolve("traffic@99")
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.resolve("../escape")

    def test_publish_rejects_unsafe_components(self, registry, trained_pristi):
        with pytest.raises(RegistryError):
            registry.publish(trained_pristi, "bad/name")
        with pytest.raises(RegistryError):
            registry.publish(trained_pristi, "ok", version="v 1")


# ----------------------------------------------------------------------
# Micro-batching service
# ----------------------------------------------------------------------
class TestImputationService:
    def test_microbatched_bit_identical_to_served_alone(self, registry,
                                                        tiny_traffic_dataset):
        """Acceptance criterion: a coalesced response equals the same request
        served alone, bit for bit — micro-batching is invisible."""
        service = ImputationService(registry, max_batch_requests=16)
        requests = [
            ImputationRequest("traffic", *_test_arrays(tiny_traffic_dataset, start=i),
                              num_samples=2, seed=100 + i)
            for i in range(5)
        ]
        tickets = [service.submit(request) for request in requests]
        assert service.pending() == 5
        service.flush()
        batched = [ticket.result() for ticket in tickets]
        assert all(response.batch_requests == 5 for response in batched)

        alone = [service.serve(request) for request in requests]
        for together, solo in zip(batched, alone):
            assert solo.batch_requests == 1
            assert np.array_equal(together.samples, solo.samples)
            assert np.array_equal(together.median, solo.median)

    def test_heterogeneous_window_lengths_coalesce(self, registry,
                                                   tiny_traffic_dataset):
        """One flush may mix request lengths: the engine groups by shape."""
        service = ImputationService(registry, max_batch_requests=16)
        requests = [
            ImputationRequest("traffic", *_test_arrays(tiny_traffic_dataset, length=length),
                              num_samples=2, seed=length)
            for length in (6, 12, 12, 18)
        ]
        tickets = [service.submit(request) for request in requests]
        service.flush()
        batched = [ticket.result() for ticket in tickets]
        for request, response in zip(requests, batched):
            assert response.median.shape == request.values.shape
            solo = service.serve(request)
            assert np.array_equal(response.samples, solo.samples)

    def test_size_trigger_flushes_automatically(self, registry, tiny_traffic_dataset):
        service = ImputationService(registry, max_batch_requests=3)
        values, mask = _test_arrays(tiny_traffic_dataset)
        tickets = [
            service.submit(ImputationRequest("traffic", values, mask, seed=i))
            for i in range(3)
        ]
        # The third submit crossed the size threshold: served without flush().
        assert service.pending() == 0
        assert all(ticket.done for ticket in tickets)
        assert tickets[0].result().batch_requests == 3

    def test_deadline_trigger_via_poll(self, registry, tiny_traffic_dataset):
        now = [0.0]
        service = ImputationService(registry, max_batch_requests=100,
                                    max_delay_seconds=0.5, clock=lambda: now[0])
        values, mask = _test_arrays(tiny_traffic_dataset)
        ticket = service.submit(ImputationRequest("traffic", values, mask, seed=1))
        assert service.poll() == 0          # deadline not reached: still queued
        assert service.pending() == 1
        now[0] = 0.6
        assert service.poll() == 1          # deadline passed: flushed
        assert ticket.done

    def test_result_drives_flush_without_worker(self, registry, tiny_traffic_dataset):
        service = ImputationService(registry, max_batch_requests=100)
        values, mask = _test_arrays(tiny_traffic_dataset)
        ticket = service.submit(ImputationRequest("traffic", values, mask, seed=1))
        response = ticket.result()          # no flush()/poll(): result() drives
        assert response.batch_requests == 1
        assert response.model == "traffic@1"

    def test_stats_carry_compiled_counters(self, registry, tiny_traffic_dataset):
        """The metrics snapshot carries the process-wide ``compiled.*``
        counters (behind the gateway's ``/v1/stats``), and served traffic
        actually rides the compiled path."""
        service = ImputationService(registry, max_batch_requests=4)
        before = service.metrics_snapshot()
        values, mask = _test_arrays(tiny_traffic_dataset)
        service.serve(ImputationRequest("traffic", values, mask,
                                        num_samples=2, seed=5))
        snapshot = service.metrics_snapshot()
        for name in ("compiled.cache.hits", "compiled.cache.misses",
                     "compiled.fallbacks", "compiled.programs",
                     "compiled.cache.evictions"):
            assert name in snapshot

        def delta(name):
            return snapshot[name] - before[name]

        # First chunk of the signature traces (or replays an earlier
        # program); either way the compiled machinery was consulted.
        assert delta("compiled.cache.misses") + delta("compiled.cache.hits") >= 1
        assert delta("compiled.fallbacks") == 0

    def test_unknown_model_fails_at_submit(self, registry, tiny_traffic_dataset):
        service = ImputationService(registry)
        values, mask = _test_arrays(tiny_traffic_dataset)
        with pytest.raises(RegistryError):
            service.submit(ImputationRequest("missing", values, mask))

    def test_malformed_request_error_reaches_ticket(self, registry):
        service = ImputationService(registry, max_batch_requests=100)
        bad = ImputationRequest("traffic", np.zeros((12, 99)), None, seed=0)
        ticket = service.submit(bad)
        with pytest.raises(Exception):
            service.flush()
        with pytest.raises(Exception):
            ticket.result()

    def test_one_failing_batch_does_not_strand_others(self, registry,
                                                      trained_pristi,
                                                      tiny_traffic_dataset):
        """A flush covering several models must serve the healthy queues even
        when an earlier batch raises — their entries are already popped, so
        skipping them would hang their tickets forever."""
        registry.publish(trained_pristi, "second")
        service = ImputationService(registry, max_batch_requests=100)
        values, mask = _test_arrays(tiny_traffic_dataset)
        bad = service.submit(            # wrong node count: this batch fails
            ImputationRequest("traffic", np.zeros((12, 99)), None, seed=0))
        good = service.submit(
            ImputationRequest("second", values, mask, num_samples=2, seed=1))
        with pytest.raises(Exception):
            service.flush()              # first error re-raised after all batches
        assert good.done                 # the healthy batch was still served
        assert good.result().median.shape == values.shape
        with pytest.raises(Exception):
            bad.result()

    def test_invalid_num_samples_rejected_clearly(self, trained_pristi,
                                                  tiny_traffic_dataset):
        values, mask = _test_arrays(tiny_traffic_dataset)
        backend = trained_pristi.backend()
        for bad in (0, -1):
            with pytest.raises(ValueError, match="num_samples"):
                backend.impute_arrays(values, mask, num_samples=bad, rng=0)

    def test_worker_thread_serves_by_deadline(self, registry, tiny_traffic_dataset):
        values, mask = _test_arrays(tiny_traffic_dataset)
        with ImputationService(registry, max_batch_requests=100,
                               max_delay_seconds=0.01) as service:
            tickets = [
                service.submit(ImputationRequest("traffic", values, mask, seed=i))
                for i in range(3)
            ]
            responses = [ticket.result(timeout=30) for ticket in tickets]
        assert [response.batch_requests for response in responses] == [3, 3, 3]
        assert service.pending() == 0

    def test_unseeded_requests_get_independent_streams(self, registry,
                                                       tiny_traffic_dataset):
        service = ImputationService(registry, max_batch_requests=100, seed=0)
        values, mask = _test_arrays(tiny_traffic_dataset)
        tickets = [service.submit(ImputationRequest("traffic", values, mask))
                   for _ in range(2)]
        service.flush()
        first, second = (ticket.result() for ticket in tickets)
        # Same payload, distinct spawned streams: samples must differ.
        assert not np.array_equal(first.samples, second.samples)

    def test_windowed_models_served_through_same_queue(self, registry,
                                                       tiny_traffic_dataset):
        model = BRITSImputer(window_length=8, epochs=1, iterations_per_epoch=1)
        model.fit(tiny_traffic_dataset)
        registry.publish(model, "brits")
        service = ImputationService(registry, max_batch_requests=4)
        values, mask = _test_arrays(tiny_traffic_dataset, length=10)
        ticket = service.submit(ImputationRequest("brits", values, mask))
        response = ticket.result()
        assert response.median.shape == values.shape
        # Observed entries pass through, so scoring against them is exact.
        assert response.metrics(values, mask)["mae"] == pytest.approx(0.0)

    def test_response_metrics_use_shared_implementation(self, registry,
                                                        tiny_traffic_dataset):
        from repro.metrics import imputation_metrics

        service = ImputationService(registry)
        values, mask = _test_arrays(tiny_traffic_dataset)
        response = service.serve(ImputationRequest("traffic", values, mask,
                                                   num_samples=2, seed=3))
        expected = imputation_metrics(response.median, response.samples,
                                      values, mask)
        assert response.metrics(values, mask) == expected

    def test_unseeded_serve_not_pinned_to_one_stream(self, registry,
                                                     tiny_traffic_dataset):
        """serve() spawns a fresh stream per unseeded call — repeated calls
        must not replay identical 'posterior samples'."""
        service = ImputationService(registry)
        values, mask = _test_arrays(tiny_traffic_dataset)
        request = ImputationRequest("traffic", values, mask, num_samples=2)
        first = service.serve(request)
        second = service.serve(request)
        assert not np.array_equal(first.samples, second.samples)


# ----------------------------------------------------------------------
# Ring buffer + streaming sessions
# ----------------------------------------------------------------------
class TestSlidingWindowBuffer:
    def test_chronological_after_wraparound(self):
        buffer = SlidingWindowBuffer(3, 2)
        for tick in range(5):
            buffer.push([float(tick), float(10 + tick)])
        values, mask = buffer.window()
        assert np.array_equal(values[:, 0], [2.0, 3.0, 4.0])    # oldest first
        assert np.all(mask)
        assert buffer.start == 2 and buffer.total_pushed == 5
        assert len(buffer) == 3 and buffer.full

    def test_nan_marks_missing(self):
        buffer = SlidingWindowBuffer(2, 3)
        buffer.push([1.0, np.nan, 3.0])
        values, mask = buffer.window()
        assert np.array_equal(mask, [[True, False, True]])
        assert values[0, 1] == 0.0                              # stored as zero

    def test_explicit_mask_intersects_finiteness(self):
        buffer = SlidingWindowBuffer(2, 2)
        buffer.push([1.0, np.nan], mask=[True, True])
        _, mask = buffer.window()
        assert np.array_equal(mask, [[True, False]])

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowBuffer(0, 2)
        buffer = SlidingWindowBuffer(2, 2)
        with pytest.raises(ValueError, match="shape"):
            buffer.push([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="empty"):
            buffer.window()


class TestStreamingImputer:
    def _stream_ticks(self, dataset, count=18):
        values, observed, evaluation = dataset.segment("test")
        mask = observed & ~evaluation
        return [np.where(mask[t], values[t], np.nan) for t in range(count)]

    def test_emits_incrementally_from_first_tick(self, trained_pristi,
                                                 tiny_traffic_dataset):
        stream = StreamingImputer(trained_pristi.backend(), num_nodes=6,
                                  num_samples=2, seed=11)
        ticks = self._stream_ticks(tiny_traffic_dataset)
        updates = [stream.push(tick) for tick in ticks]
        assert all(update is not None for update in updates)     # warm from tick 0
        window = trained_pristi.config.window_length
        for index, update in enumerate(updates):
            assert update.tick == index
            assert update.median.shape[0] == min(index + 1, window)
            assert update.new_median.shape[0] == 1               # one new tick each
            assert np.all(np.isfinite(update.median))

    def test_emit_stride_and_min_history(self, trained_pristi, tiny_traffic_dataset):
        stream = StreamingImputer(trained_pristi.backend(), num_nodes=6,
                                  num_samples=1, emit_stride=4, min_history=6, seed=1)
        ticks = self._stream_ticks(tiny_traffic_dataset, count=16)
        updates = [stream.push(tick) for tick in ticks]
        emitted = [index for index, update in enumerate(updates) if update is not None]
        assert emitted == [7, 11, 15]       # warm at 6 ticks, then every 4th
        # Catch-up emission covers all ticks since the previous one.
        assert updates[11].new_median.shape[0] == 4

    def test_repeated_query_emits_nothing_new(self, trained_pristi,
                                              tiny_traffic_dataset):
        stream = StreamingImputer(trained_pristi.backend(), num_nodes=6,
                                  num_samples=1, seed=2)
        first = stream.push(self._stream_ticks(tiny_traffic_dataset)[0])
        assert first.new_median.shape[0] == 1
        update = stream.query()                       # same window, no new tick
        assert update.tick == first.tick and update.start == first.start
        assert update.new_median.shape[0] == 0        # nothing new to emit
        assert not first.condition_cached and not update.condition_cached

    def test_replayed_stream_reproduces_imputations(self, trained_pristi,
                                                    tiny_traffic_dataset):
        ticks = self._stream_ticks(tiny_traffic_dataset)

        def run():
            stream = StreamingImputer(trained_pristi.backend(), num_nodes=6,
                                      num_samples=2, seed=33)
            return [stream.push(tick) for tick in ticks]

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a.samples, b.samples)
            assert np.array_equal(a.median, b.median)

    def test_observed_ticks_pass_through(self, trained_pristi, tiny_traffic_dataset):
        stream = StreamingImputer(trained_pristi.backend(), num_nodes=6, seed=4)
        values, observed, evaluation = tiny_traffic_dataset.segment("test")
        mask = observed & ~evaluation
        update = None
        for t in range(14):
            update = stream.push(np.where(mask[t], values[t], np.nan))
        window = trained_pristi.config.window_length
        window_values = values[14 - window:14]
        window_mask = mask[14 - window:14]
        assert np.array_equal(update.median[window_mask], window_values[window_mask])

    def test_query_before_warm_raises(self, trained_pristi):
        stream = StreamingImputer(trained_pristi.backend(), num_nodes=6,
                                  min_history=3)
        with pytest.raises(RuntimeError, match="tick"):
            stream.query()


# ----------------------------------------------------------------------
# Serving error paths exercised by the gateway
# ----------------------------------------------------------------------
class TestServiceErrorPaths:
    def test_concurrent_result_calls_share_one_response(self, registry,
                                                        tiny_traffic_dataset):
        """Many callers blocking on the same ticket all get the same object —
        the gateway's ``?timeout=`` fetch and a second client polling the
        ticket race exactly like this."""
        service = ImputationService(registry, max_batch_requests=100,
                                    max_delay_seconds=10.0)
        values, mask = _test_arrays(tiny_traffic_dataset)
        ticket = service.submit(
            ImputationRequest("traffic", values, mask, num_samples=2, seed=9))
        outcomes = [None] * 4
        barrier = threading.Barrier(5)

        def fetch(slot):
            barrier.wait()
            outcomes[slot] = ticket.result(timeout=60)

        threads = [threading.Thread(target=fetch, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        barrier.wait()                      # all callers blocked, then flush
        service.flush()
        for thread in threads:
            thread.join()
        assert all(outcome is outcomes[0] for outcome in outcomes)
        assert np.all(np.isfinite(outcomes[0].median))

    def test_submit_after_stop_served_on_demand(self, registry,
                                                tiny_traffic_dataset):
        """``stop()`` ends the background worker, not the service: a later
        submit is still served (result() drives the flush) and stays
        bit-identical to the pre-stop response for the same seed."""
        service = ImputationService(registry, max_delay_seconds=0.005)
        service.start()
        values, mask = _test_arrays(tiny_traffic_dataset)
        request = ImputationRequest("traffic", values, mask, num_samples=2,
                                    seed=21)
        before = service.submit(request).result(timeout=60)
        service.stop()
        after = service.submit(request).result(timeout=60)
        assert np.array_equal(before.samples, after.samples)
        assert np.array_equal(before.median, after.median)

    def test_submit_against_stopped_pool_fails_ticket(self, registry,
                                                      tiny_traffic_dataset):
        """A stopped executor pool must surface on the ticket, not hang it."""
        pool = WorkerPool(num_workers=1)
        pool.stop()
        service = ImputationService(registry, max_batch_requests=100,
                                    executor=pool)
        values, mask = _test_arrays(tiny_traffic_dataset)
        ticket = service.submit(
            ImputationRequest("traffic", values, mask, seed=1))
        with pytest.raises(PoolStopped):
            service.flush()
        with pytest.raises(PoolStopped):
            ticket.result(timeout=5)

    def test_stop_resolves_inflight_before_returning(self, registry,
                                                     tiny_traffic_dataset):
        """The drain contract the gateway builds on: when ``stop()`` returns,
        every ticket issued before it is done."""
        service = ImputationService(registry, max_batch_requests=100,
                                    max_delay_seconds=10.0)
        service.start()
        values, mask = _test_arrays(tiny_traffic_dataset)
        tickets = [
            service.submit(ImputationRequest("traffic", values, mask, seed=i))
            for i in range(4)
        ]
        assert service.pending() == 4       # deadline far away: all queued
        service.stop()
        assert all(ticket.done for ticket in tickets)
        assert all(ticket.result().batch_requests == 4 for ticket in tickets)


# ----------------------------------------------------------------------
# StreamingImputer over the gateway: HTTP replay == direct session
# ----------------------------------------------------------------------
class TestStreamingOverGateway:
    def _ticks(self, dataset, count=14):
        values, observed, evaluation = dataset.segment("test")
        mask = observed & ~evaluation
        return [np.where(mask[t], values[t], np.nan) for t in range(count)]

    def _replay_over_http(self, registry, ticks, **session_options):
        """Open a gateway streaming session and push every tick over HTTP;
        returns the decoded per-tick payloads."""
        service = ImputationService(registry)
        gateway = Gateway(service)
        client = InProcessClient(gateway)
        try:
            async def go():
                document = {"model": "traffic", "num_nodes": ticks[0].shape[0]}
                document.update(session_options)
                opened = await client.request(
                    "POST", "/v1/stream", body=json.dumps(document).encode())
                assert opened.status == 201
                session = opened.json()["session"]
                updates = []
                for tick in ticks:
                    body = json.dumps({"values": [
                        None if value != value else float(value)
                        for value in tick]}).encode()
                    response = await client.request(
                        "POST", f"/v1/stream/{session}/tick", body=body)
                    assert response.status == 200
                    updates.append(decode_array_payload(
                        response.content_type, response.body))
                return updates

            return asyncio.run(go())
        finally:
            service.stop()

    def test_http_replay_bit_identical_to_direct_session(self, registry,
                                                         tiny_traffic_dataset):
        """Satellite acceptance: a tick sequence replayed through the HTTP
        endpoints produces the same emissions, bit for bit, as the same
        session driven in process."""
        ticks = self._ticks(tiny_traffic_dataset)
        backend = registry.backend(registry.resolve("traffic"))
        direct = StreamingImputer(backend, num_nodes=6, num_samples=2, seed=33)
        direct_updates = [direct.push(tick) for tick in ticks]

        http_updates = self._replay_over_http(registry, ticks,
                                              num_samples=2, seed=33)
        assert len(http_updates) == len(direct_updates)
        for reference, over_http in zip(direct_updates, http_updates):
            assert over_http["emitted"] is True
            assert over_http["tick"] == reference.tick
            assert np.array_equal(over_http["samples"], reference.samples)
            assert np.array_equal(over_http["median"], reference.median)
            assert np.array_equal(over_http["new_median"], reference.new_median)

    def test_http_replay_respects_stride_and_history(self, registry,
                                                     tiny_traffic_dataset):
        """Emission schedule (min_history warm-up, emit_stride cadence) is
        identical over HTTP, including the catch-up rows of each emission."""
        ticks = self._ticks(tiny_traffic_dataset, count=16)
        backend = registry.backend(registry.resolve("traffic"))
        direct = StreamingImputer(backend, num_nodes=6, num_samples=1,
                                  emit_stride=4, min_history=6, seed=1)
        direct_updates = [direct.push(tick) for tick in ticks]

        http_updates = self._replay_over_http(registry, ticks, num_samples=1,
                                              emit_stride=4, min_history=6,
                                              seed=1)
        assert ([update["emitted"] for update in http_updates]
                == [update is not None for update in direct_updates])
        for reference, over_http in zip(direct_updates, http_updates):
            if reference is None:
                continue
            assert over_http["new_median"].shape == reference.new_median.shape
            assert np.array_equal(over_http["samples"], reference.samples)
            assert np.array_equal(over_http["new_median"], reference.new_median)
