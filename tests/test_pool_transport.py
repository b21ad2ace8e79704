"""Tests for the zero-copy shared-memory worker transport.

Two tiers:

* **Arena units** — slot allocation/refcounting, idempotent release,
  overflow-segment retirement, partial-staging cleanup, the rebuild-on-
  failed-detach path, and a full in-process descriptor round trip.
* **Pool lifecycle** — the zero-leak invariant over real process workers:
  every shared-memory segment a pool ever created is provably unlinked
  after clean drain, hard stop (``drain=False``), a seeded fault storm
  over the transport injection points, and a retry-after-transport-crash —
  with responses still bit-identical to serve-alone.  Plus warm pre-fork
  (publish → workers pre-load) and idle-pool batch splitting.
"""

import threading

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro import (
    ImputationRequest,
    ImputationService,
    ModelRegistry,
    PriSTI,
    PriSTIConfig,
    RetryPolicy,
    WorkerPool,
)
from repro.serving import PoolStopped, TransportError, faults
from repro.serving.errors import ServingError
from repro.serving.pool import RequestPayload
from repro.serving.transport import SegmentAttachments, ShmArena, decode_batch


def _fast_config(**overrides):
    defaults = dict(window_length=10, epochs=1, iterations_per_epoch=1,
                    num_diffusion_steps=6, num_samples=2, batch_size=4)
    defaults.update(overrides)
    return PriSTIConfig.fast(**defaults)


@pytest.fixture(scope="module")
def trained_model(tiny_traffic_dataset):
    return PriSTI(_fast_config()).fit(tiny_traffic_dataset)


@pytest.fixture()
def registry(tmp_path, trained_model):
    registry = ModelRegistry(tmp_path / "models", max_loaded=4)
    registry.publish(trained_model, "traffic")
    return registry


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    faults.uninstall()
    yield
    faults.uninstall()


def _requests(dataset, model="traffic", count=4, length=10, num_samples=2):
    values, observed, evaluation = dataset.segment("test")
    mask = observed & ~evaluation
    return [
        ImputationRequest(model=model, values=values[s:s + length],
                          observed_mask=mask[s:s + length],
                          num_samples=num_samples, seed=100 + s)
        for s in range(count)
    ]


def _payloads(count=2, time_steps=6, nodes=3, num_samples=2):
    rng = np.random.default_rng(17)
    return [
        RequestPayload(values=rng.normal(size=(time_steps, nodes)),
                       observed_mask=rng.random((time_steps, nodes)) > 0.3,
                       num_samples=num_samples,
                       rng=np.random.default_rng(100 + index), stride=None)
        for index in range(count)
    ]


def _assert_zero_leak(transport):
    """The invariant every lifecycle path must land on."""
    assert transport["transport.segments.active"] == 0
    assert transport["transport.slots.live"] == 0
    assert (transport["transport.segments.created"]
            == transport["transport.segments.unlinked"])


def _assert_names_unlinked(names):
    """Attach-probe retired segments by name: they must be gone from the OS."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Arena units
# ----------------------------------------------------------------------
class TestShmArena:
    def test_stage_release_refcounts_and_is_idempotent(self):
        arena = ShmArena()
        staged = arena.stage(_payloads(count=3))
        stats = arena.stats()
        # 4 tensors per payload: values, mask, median slot, samples slot.
        assert stats["transport.slots.live"] == 12
        assert stats["transport.batches.staged"] == 1
        assert stats["transport.bytes_staged"] == staged.nbytes > 0
        staged.release()
        assert arena.stats()["transport.slots.live"] == 0
        staged.release()                       # idempotent: no double free
        assert arena.stats()["transport.slots.live"] == 0
        names = arena.segment_names()
        arena.destroy()
        transport = arena.stats()
        _assert_zero_leak(transport)
        _assert_names_unlinked(names)
        arena.destroy()                        # destroy is idempotent too
        with pytest.raises(TransportError):
            arena.stage(_payloads(count=1))    # a destroyed arena stays dead

    def test_overflow_segments_retire_on_release(self):
        # Segments far smaller than one batch force per-batch overflow
        # segments; they must unlink as soon as their slots drain while the
        # primary stays mapped for reuse.
        arena = ShmArena(segment_bytes=4096)
        staged = arena.stage(_payloads(count=2, time_steps=32, nodes=8,
                                       num_samples=4))
        created = arena.stats()["transport.segments.created"]
        assert created > 1
        staged.release()
        stats = arena.stats()
        assert stats["transport.segments.active"] == 1   # only the primary
        assert stats["transport.segments.unlinked"] == created - 1
        arena.destroy()
        _assert_zero_leak(arena.stats())

    def test_partial_staging_failure_frees_staged_slots(self):
        arena = ShmArena()
        bad = _payloads(count=2)
        bad[1].values = np.zeros((2, 3, 4))            # not a (time, node) array
        with pytest.raises(ValueError):
            arena.stage(bad)
        assert arena.stats()["transport.slots.live"] == 0        # payload 0 reclaimed
        arena.destroy()
        _assert_zero_leak(arena.stats())

    def test_stage_fault_fires_before_any_allocation(self):
        arena = ShmArena()
        with faults.active([{"point": "transport.stage", "hits": [1]}]):
            with pytest.raises(TransportError):
                arena.stage(_payloads(count=1))
        assert arena.stats()["transport.slots.live"] == 0
        assert arena.stats()["transport.segments.created"] == 0
        arena.destroy()

    def test_failed_detach_rebuilds_instead_of_leaking(self):
        arena = ShmArena()
        staged = arena.stage(_payloads(count=1))
        names = arena.segment_names()
        with faults.active([{"point": "transport.shm_detach", "hits": [1]}]):
            staged.release()
        stats = arena.stats()
        assert stats["transport.rebuilds"] == 1
        _assert_zero_leak(stats)                       # everything torn down
        _assert_names_unlinked(names)
        # The arena keeps working after a rebuild: fresh segments, clean free.
        staged = arena.stage(_payloads(count=1))
        staged.release()
        assert arena.stats()["transport.slots.live"] == 0
        arena.destroy()
        _assert_zero_leak(arena.stats())

    def test_descriptor_round_trip_preserves_bits(self):
        """Stage → attach → decode → compute-in-place → read_responses, all
        in one process: the exact data path the worker pair runs, minus the
        pipe.  Bits must survive both directions."""
        arena = ShmArena()
        payloads = _payloads(count=2, time_steps=5, nodes=4, num_samples=3)
        staged = arena.stage(payloads)
        attachments = SegmentAttachments()
        try:
            decoded, response_views = decode_batch(staged.descriptors(),
                                                   attachments)
            for original, copy in zip(payloads, decoded):
                finite = np.where(np.asarray(original.observed_mask, bool),
                                  np.asarray(original.values, np.float64), 0.0)
                assert np.array_equal(copy.values, finite)
                assert copy.values.dtype == np.float64
                assert copy.observed_mask.dtype == np.bool_
                assert copy.num_samples == original.num_samples
            rng = np.random.default_rng(5)
            written = []
            for median_view, samples_view in response_views:
                median_view[...] = rng.normal(size=median_view.shape)
                samples_view[...] = rng.normal(size=samples_view.shape)
                written.append((median_view.copy(), samples_view.copy()))
            raws = staged.read_responses()
            for raw, (median, samples) in zip(raws, written):
                assert np.array_equal(raw.median, median)
                assert np.array_equal(raw.samples, samples)
            # read_responses copies out: releasing must not corrupt them.
            del response_views
        finally:
            attachments.close()
        staged.release()
        marker = raws[0].median.copy()
        arena.destroy()
        assert np.array_equal(raws[0].median, marker)
        _assert_zero_leak(arena.stats())


# ----------------------------------------------------------------------
# Pool lifecycle: the zero-leak invariant
# ----------------------------------------------------------------------
class TestPoolTransportLifecycle:
    def _serve(self, registry, dataset, pool, count=4, **service_kwargs):
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool, **service_kwargs)
        tickets = [service.submit(request)
                   for request in _requests(dataset, count=count)]
        service.flush()
        return tickets

    def test_clean_drain_unlinks_every_segment(self, registry,
                                               tiny_traffic_dataset):
        pool = WorkerPool(num_workers=2, mode="process")
        with pool:
            tickets = self._serve(registry, tiny_traffic_dataset, pool)
            for ticket in tickets:
                ticket.result(timeout=120)
            live = [name for process in pool._processes if process is not None
                    for name in process.arena.segment_names()]
            assert live                       # the transport really ran on shm
        transport = pool.metrics_snapshot()
        assert transport["transport.batches.staged"] > 0
        assert transport["transport.bytes_staged"] > 0
        _assert_zero_leak(transport)
        _assert_names_unlinked(live)

    def test_child_compile_counters_fold_into_parent(self, registry,
                                                     tiny_traffic_dataset):
        """Batch replies carry the child's cumulative compile counters and
        the parent folds the deltas, so the ``compiled.*`` metrics of the
        service snapshot cover inference in pool children."""
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        before = service.metrics_snapshot()
        with pool:
            tickets = [service.submit(request)
                       for request in _requests(tiny_traffic_dataset, count=2)]
            service.flush()
            for ticket in tickets:
                ticket.result(timeout=120)
        after = service.metrics_snapshot()
        deltas = {name: after[name] - before[name]
                  for name in after if name.startswith("compiled.")}
        assert deltas["compiled.cache.misses"] >= 1, deltas
        assert deltas["compiled.programs"] >= 1, deltas
        assert deltas["compiled.fallbacks"] == 0, deltas

    def test_hard_stop_unlinks_every_segment(self, registry,
                                             tiny_traffic_dataset):
        pool = WorkerPool(num_workers=1, mode="process")
        with pool:
            # Warm batch spawns the child and its arena.
            warm = self._serve(registry, tiny_traffic_dataset, pool, count=1)
            for ticket in warm:
                ticket.result(timeout=120)
        # Re-start, queue work, then stop without draining: queued batches
        # fail with PoolStopped and the arena still tears down completely.
        pool.start()
        tickets = self._serve(registry, tiny_traffic_dataset, pool, count=3)
        pool.stop(drain=False)
        for ticket in tickets:
            try:
                ticket.result(timeout=120)
            except (PoolStopped, ServingError):
                pass
        _assert_zero_leak(pool.metrics_snapshot())

    def test_seeded_transport_storm_resolves_all_and_leaks_nothing(
            self, registry, tiny_traffic_dataset):
        """A pinned-seed storm across every transport injection point (plus
        worker crashes): all tickets resolve — a response or a typed
        ServingError — and zero segments leak."""
        plan = {
            "seed": 20230411,
            "rules": [
                {"point": "transport.stage", "probability": 0.25},
                {"point": "transport.shm_detach", "probability": 0.2},
                {"point": "pool.worker_crash", "probability": 0.15},
            ],
        }
        pool = WorkerPool(num_workers=2, mode="process")
        resolved = []
        with faults.active(plan):
            with pool:
                service = ImputationService(
                    registry, max_batch_requests=4, executor=pool,
                    retry_policy=RetryPolicy(max_attempts=3,
                                             base_delay_seconds=0.001))
                tickets = [service.submit(request) for request in
                           _requests(tiny_traffic_dataset, count=8)]
                service.flush()
                for ticket in tickets:
                    try:
                        resolved.append(ticket.result(timeout=120))
                    except ServingError as error:
                        resolved.append(error)
        assert len(resolved) == 8             # every ticket resolved, no hangs
        _assert_zero_leak(pool.metrics_snapshot())

    def test_retry_after_transport_fault_is_bit_identical(
            self, registry, tiny_traffic_dataset):
        """First staging attempt fails; the retry re-stages fresh slots and
        the response still equals serve-alone bit for bit."""
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(
            registry, max_batch_requests=64, executor=pool,
            retry_policy=RetryPolicy(max_attempts=3,
                                     base_delay_seconds=0.001))
        requests = _requests(tiny_traffic_dataset, count=2)
        with pool:
            alone = [service.serve(request) for request in requests]
            with faults.active([{"point": "transport.stage", "hits": [1]}]):
                tickets = [service.submit(request) for request in requests]
                service.flush()
                pooled = [ticket.result(timeout=120) for ticket in tickets]
        for reference, response in zip(alone, pooled):
            assert np.array_equal(reference.samples, response.samples)
            assert np.array_equal(reference.median, response.median)
        _assert_zero_leak(pool.metrics_snapshot())

    def test_crashed_child_reclaims_staged_slots(self, registry,
                                                 tiny_traffic_dataset):
        """A child killed mid-batch must not leak the batch's staged slots:
        the worker's arena is destroyed with the child and every segment
        unlinked, even though the batch never completed."""
        import multiprocessing

        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        requests = _requests(tiny_traffic_dataset, count=2)
        barrier = threading.Event()
        with pool:
            warm = [service.submit(request) for request in requests]
            service.flush()
            for ticket in warm:
                ticket.result(timeout=120)
            names_before = [name for process in pool._processes
                            if process is not None
                            for name in process.arena.segment_names()]
            assert names_before
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(timeout=10.0)
            barrier.set()
            tickets = [service.submit(request) for request in requests]
            service.flush()
            for ticket in tickets:
                with pytest.raises(ServingError):
                    ticket.result(timeout=120)
            # The crashed worker's segments are gone *before* pool stop.
            _assert_names_unlinked(names_before)
        _assert_zero_leak(pool.metrics_snapshot())

    def test_child_attach_fault_is_retried(self, registry,
                                           tiny_traffic_dataset,
                                           monkeypatch):
        """An attach failure inside the child (the segment cannot be mapped)
        surfaces as a retryable TransportError; the retry succeeds and the
        response is bit-identical to serve-alone."""
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            '{"rules": [{"point": "transport.shm_attach", "hits": [1]}]}')
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(
            registry, max_batch_requests=64, executor=pool,
            retry_policy=RetryPolicy(max_attempts=3,
                                     base_delay_seconds=0.001))
        requests = _requests(tiny_traffic_dataset, count=2)
        with pool:
            alone = [service.serve(request) for request in requests]
            tickets = [service.submit(request) for request in requests]
            service.flush()
            pooled = [ticket.result(timeout=120) for ticket in tickets]
        for reference, response in zip(alone, pooled):
            assert np.array_equal(reference.samples, response.samples)
        _assert_zero_leak(pool.metrics_snapshot())


# ----------------------------------------------------------------------
# Warm pre-fork and batch splitting
# ----------------------------------------------------------------------
class TestWarmPrefork:
    def test_publish_prewarms_every_worker(self, registry, trained_model):
        pool = WorkerPool(num_workers=2)
        pool.watch(registry)
        with pool:
            resolved = registry.publish(trained_model, "warmtest")
            assert pool.wait_idle(timeout=120)
            snapshot = pool.metrics_snapshot()
            assert snapshot["pool.warm.models"] == 2      # one load per worker
            assert snapshot["pool.warm.failures"] == 0
            assert all(seconds >= 0.0 for seconds in pool.warm_seconds)
            assert resolved.spec == "warmtest@1"
            # The children exist *before* the first request.
            assert all(process is not None for process in pool._processes)
        _assert_zero_leak(pool.metrics_snapshot())

    def test_generation_rides_dispatch_to_worker_caches(
            self, registry, tiny_traffic_dataset):
        """Steady-state batches must not stat the artifact tree: the service
        stamps each batch with the registry generation, which rides the
        control message to the child's backend cache (that cache skipping
        the probe on a match is pinned in ``tests/test_pool.py``)."""
        pool = WorkerPool(num_workers=1)
        dispatch = pool.dispatch
        generations = []

        def recording_dispatch(task):
            generations.append(task.generation)
            return dispatch(task)

        pool.dispatch = recording_dispatch
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        with pool:
            for _ in range(3):
                tickets = [service.submit(request) for request in
                           _requests(tiny_traffic_dataset, count=2)]
                service.flush()
                for ticket in tickets:
                    ticket.result(timeout=120)
        assert registry.generation == 1          # the fixture's one publish
        assert generations == [1, 1, 1]


class TestBatchSplitting:
    def test_idle_pool_splits_one_batch_across_workers(
            self, registry, tiny_traffic_dataset):
        pool = WorkerPool(num_workers=3)
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        requests = _requests(tiny_traffic_dataset, count=6)
        with pool:
            # Splitting is residency-gated: warm every worker first, as a
            # production pool attached via ``pool.watch(registry)`` would be.
            pool.prewarm(registry.resolve("traffic").path,
                         generation=registry.generation)
            pool.wait_idle(timeout=120)
            alone = [service.serve(request) for request in requests]
            tickets = [service.submit(request) for request in requests]
            service.flush()
            pooled = [ticket.result(timeout=120) for ticket in tickets]
            splits = pool.metrics_snapshot()["pool.splits"]
        assert splits >= 1
        # The parts really ran on different workers.
        assert sum(1 for count in pool.executed_batches if count) >= 2
        # ...and the join preserved order and bits.
        for reference, response in zip(alone, pooled):
            assert np.array_equal(reference.samples, response.samples)
            assert np.array_equal(reference.median, response.median)

    def test_split_disabled_routes_whole_batch_to_home_shard(
            self, registry, tiny_traffic_dataset):
        pool = WorkerPool(num_workers=3, split=False, steal=False)
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        requests = _requests(tiny_traffic_dataset, count=6)
        with pool:
            tickets = [service.submit(request) for request in requests]
            service.flush()
            for ticket in tickets:
                ticket.result(timeout=120)
            splits = pool.metrics_snapshot()["pool.splits"]
        assert splits == 0
        assert sum(1 for count in pool.executed_batches if count) == 1
