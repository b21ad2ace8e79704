"""Tests for the typed metrics registry and the stable observability schema.

Covers the instrument semantics (monotonic counters, callback gauges,
histogram expansion, declared zero-valued schemas, positive-only folds),
snapshot consistency under concurrent writers, exact pool, transport and
compile accounting across worker crash + respawn and the process boundary
(each counter counted once, where its event happens), callback gauges
reading their live sources, and the
acceptance criterion that ``/v1/stats`` exposes one pinned key set whether
the service runs inline or on a worker pool.
"""

import asyncio
import multiprocessing
import threading

import pytest

from repro import (
    CircuitBreakerPolicy,
    ImputationRequest,
    ImputationService,
    ModelRegistry,
    PriSTI,
    PriSTIConfig,
    WorkerPool,
)
from repro.serving import Gateway, InProcessClient
from repro.inference.backend import resident_backends
from repro.serving.pool import executor_metric_schema
from repro.telemetry import MetricsRegistry

#: The flat snapshot's complete, sorted key set with a gateway attached —
#: the one counter vocabulary.  Renaming or dropping a metric must show up
#: here as a deliberate edit, not as a scraper silently reading 0.
METRIC_NAMES = [
    "compiled.cache.evictions", "compiled.cache.hits", "compiled.cache.misses",
    "compiled.fallbacks", "compiled.programs", "gateway.draining",
    "gateway.rejections.drain", "gateway.rejections.overload",
    "gateway.requests", "gateway.streams.open", "gateway.tickets.fetched",
    "gateway.tickets.issued", "gateway.tickets.unfetched", "pool.backlog",
    "pool.backlog.max", "pool.batches.crashed", "pool.batches.dispatched",
    "pool.batches.executed", "pool.batches.inflight", "pool.batches.queued",
    "pool.requests.rejected", "pool.splits", "pool.warm.failures",
    "pool.warm.models", "pool.warm.seconds", "pool.workers",
    "pool.workers.dead", "registry.cache.evictions",
    "registry.cache.hits", "registry.cache.misses", "registry.models.resident",
    "service.batch.max_requests", "service.batch.seconds.count",
    "service.batch.seconds.max", "service.batch.seconds.min",
    "service.batch.seconds.sum", "service.batches", "service.circuits.open",
    "service.deadline.expired", "service.queue.depth",
    "service.rejections.circuit", "service.rejections.deadline",
    "service.requests.coalesced", "service.requests.degraded",
    "service.requests.inflight", "service.requests.served", "service.retries",
    "transport.batches.run", "transport.batches.staged",
    "transport.bytes_staged", "transport.control.bytes_received",
    "transport.control.bytes_sent", "transport.rebuilds",
    "transport.segments.active", "transport.segments.created",
    "transport.segments.unlinked", "transport.slots.live",
]

#: Keys of the retired nested stats views; none may reappear in /v1/stats.
#: (The retired compile keys cannot reappear in "metrics" either: its key
#: set must equal METRIC_NAMES exactly.)
LEGACY_KEYS = {
    "requests_served", "batches", "coalesced_requests", "pending_requests",
    "retries", "degraded_served", "deadline_rejections", "circuit_rejections",
    "compiled_programs", "stolen_batches", "split_batches", "crashed_batches",
    "dispatched_batches", "executed_batches", "warmed_models", "warm_seconds",
    "segments_created", "segments_active", "live_slots", "shm_bytes_staged",
    "control_bytes_sent", "gateway", "service", "executor", "registry",
    "compiled", "transport",
}


# ----------------------------------------------------------------------
# Instrument + registry units
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_is_monotonic(self):
        counter = MetricsRegistry().counter("pool.splits")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_kind_mismatch_raises(self):
        metrics = MetricsRegistry()
        metrics.counter("service.batches")
        with pytest.raises(ValueError):
            metrics.gauge("service.batches")

    def test_declared_schema_zero_fills_snapshot(self):
        metrics = MetricsRegistry()
        metrics.declare({"a.count": "counter", "a.depth": "gauge",
                         "a.seconds": "histogram"})
        snapshot = metrics.snapshot()
        assert snapshot["a.count"] == 0
        assert snapshot["a.depth"] == 0
        # Histograms always expand to their four aggregate keys.
        for suffix in ("count", "sum", "min", "max"):
            assert snapshot[f"a.seconds.{suffix}"] == 0

    def test_histogram_observes(self):
        histogram = MetricsRegistry().histogram("service.batch.seconds")
        histogram.observe(2.0)
        histogram.observe(4.0)
        values = histogram.values()
        assert values["service.batch.seconds.count"] == 2
        assert values["service.batch.seconds.sum"] == 6.0
        assert values["service.batch.seconds.min"] == 2.0
        assert values["service.batch.seconds.max"] == 4.0

    def test_gauge_reads_callback_live_and_absorbs_failure(self):
        metrics = MetricsRegistry()
        state = {"depth": 3}
        metrics.gauge("service.queue.depth", fn=lambda: state["depth"])
        assert metrics.snapshot()["service.queue.depth"] == 3
        state["depth"] = 7
        assert metrics.snapshot()["service.queue.depth"] == 7
        # A failing callback reads 0 instead of poisoning the snapshot.
        metrics.gauge("bad.gauge", fn=lambda: 1 / 0)
        assert metrics.snapshot()["bad.gauge"] == 0

    def test_gauge_set_max(self):
        gauge = MetricsRegistry().gauge("pool.backlog.max")
        gauge.set_max(4)
        gauge.set_max(2)
        assert gauge.value == 4

    def test_fold_adds_only_positive_deltas(self):
        metrics = MetricsRegistry()
        metrics.fold({"pool.splits": 2, "pool.batches.crashed": 0,
                      "pool.noise": -3})
        snapshot = metrics.snapshot()
        assert snapshot["pool.splits"] == 2
        assert snapshot.get("pool.batches.crashed", 0) == 0
        assert snapshot.get("pool.noise", 0) == 0


class TestConcurrentSnapshots:
    def test_counter_total_exact_under_concurrent_writers(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("service.requests.served")
        per_thread, threads = 2000, 8
        seen = []

        def writer():
            for _ in range(per_thread):
                counter.inc()

        def reader():
            for _ in range(50):
                seen.append(metrics.snapshot()["service.requests.served"])

        workers = [threading.Thread(target=writer) for _ in range(threads)]
        workers.append(threading.Thread(target=reader))
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value == per_thread * threads
        # Interim snapshots are monotone partial sums, never overshoots.
        assert all(0 <= value <= per_thread * threads for value in seen)


# ----------------------------------------------------------------------
# The serving stack end-to-end
# ----------------------------------------------------------------------
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
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(trained_model, "traffic")
    return registry


def _requests(dataset, count=4, length=10):
    values, observed, evaluation = dataset.segment("test")
    mask = observed & ~evaluation
    return [
        ImputationRequest(model="traffic", values=values[s:s + length],
                          observed_mask=mask[s:s + length],
                          num_samples=2, seed=100 + s)
        for s in range(count)
    ]


def _serve(service, requests):
    tickets = [service.submit(request) for request in requests]
    service.flush()
    return [ticket.result(timeout=120) for ticket in tickets]


class TestStackSnapshots:
    def test_pool_snapshot_consistent_under_traffic(
            self, registry, tiny_traffic_dataset):
        pool = WorkerPool(num_workers=2)
        service = ImputationService(registry, max_batch_requests=2,
                                    executor=pool)
        with pool:
            responses = _serve(service, _requests(tiny_traffic_dataset,
                                                  count=6))
            service.stop()
            snapshot = service.metrics_snapshot()
        assert len(responses) == 6
        assert snapshot["service.requests.served"] == 6
        assert snapshot["pool.batches.executed"] == snapshot["pool.batches.dispatched"]
        assert snapshot["pool.batches.executed"] >= 3    # batch_size cap = 2
        assert snapshot["service.batch.seconds.count"] == snapshot["service.batches"]
        # Executed totals agree with the per-worker lists.
        assert snapshot["pool.batches.executed"] == sum(pool.executed_batches)
        # Nothing left queued or in flight after stop().
        assert snapshot["pool.batches.queued"] == 0
        assert snapshot["pool.batches.inflight"] == 0

    def test_process_crash_and_respawn_fold_counters(
            self, registry, tiny_traffic_dataset):
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        requests = _requests(tiny_traffic_dataset, count=2)
        before = service.metrics_snapshot()
        with pool:
            _serve(service, requests)                    # spawns the child
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(timeout=10.0)
            tickets = [service.submit(request) for request in requests]
            service.flush()
            for ticket in tickets:
                with pytest.raises(Exception):
                    ticket.result(timeout=120)
            crashed = service.metrics_snapshot()
            assert crashed["pool.batches.crashed"] == 1
            _serve(service, requests)                    # respawned child
            service.stop()
            snapshot = service.metrics_snapshot()
        # The respawned child's counters folded as fresh deltas: executed
        # totals grew, crash count did not, and the child's piggybacked
        # compile counters reached the parent's process-wide registry.
        assert snapshot["pool.batches.crashed"] == 1
        assert snapshot["pool.batches.executed"] >= 2
        assert snapshot["transport.batches.run"] >= 2
        assert snapshot["transport.batches.staged"] >= 2
        assert (snapshot["compiled.cache.misses"]
                - before["compiled.cache.misses"]) >= 1

    def test_pool_transport_accounting_is_exact(self, registry,
                                                tiny_traffic_dataset):
        """One worker, N single-request batches, then ``stop()``: every
        pool and transport counter is counted once, where its event
        happens, so each batch is staged, run and executed exactly once
        and the worker's one standing segment is created and unlinked
        once."""
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        requests = _requests(tiny_traffic_dataset, count=3)
        with pool:
            for request in requests:
                _serve(service, [request])
            service.stop()
        snapshot = pool.metrics_snapshot()
        assert (snapshot["transport.batches.run"]
                == snapshot["transport.batches.staged"] == len(requests))
        assert (snapshot["transport.segments.created"]
                == snapshot["transport.segments.unlinked"] == 1)
        assert snapshot["transport.control.bytes_sent"] > 0
        assert snapshot["transport.control.bytes_received"] > 0
        assert snapshot["pool.batches.executed"] == len(requests)

    def test_executor_schema_zero_filled_inline(self, registry,
                                                tiny_traffic_dataset):
        service = ImputationService(registry, max_batch_requests=4)
        _serve(service, _requests(tiny_traffic_dataset, count=2))
        snapshot = service.metrics_snapshot()
        for name in executor_metric_schema():
            assert name in snapshot, name
            assert snapshot[name] == 0
        assert service.circuits() == {}

    def test_callback_gauges_read_live_sources(self, registry,
                                               tiny_traffic_dataset):
        """A gauge whose callback breaks reads 0 forever (``Gauge.value``
        swallows the error), so each callback gauge must report its live
        source — and a non-zero one, so a silent 0 cannot pass."""
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        requests = _requests(tiny_traffic_dataset, count=3)
        with pool:
            _serve(service, requests[:1])                # spawns the child
            service.serve(requests[0])                   # loads parent-side
            for request in requests:                     # queued, not flushed
                service.submit(request)
            snapshot = service.metrics_snapshot()
            assert snapshot["registry.models.resident"] == resident_backends() >= 1
            assert snapshot["pool.workers"] == pool.num_workers == 1
            assert snapshot["service.queue.depth"] == service.pending() == 3
            # The primary segment stays mapped for the worker's lifetime.
            assert snapshot["transport.segments.active"] >= 1
            assert snapshot["transport.slots.live"] == 0
            service.stop()

    def test_process_compile_accounting_is_exact(self, registry,
                                                 tiny_traffic_dataset,
                                                 monkeypatch):
        """k same-shape requests, one batch each, through one child: the
        child traces the signature once and replays it k-1 times, and the
        parent's ``compiled.*`` totals move by exactly that — no double
        counting on the piggyback fold."""
        monkeypatch.delenv("REPRO_COMPILE", raising=False)
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        requests = _requests(tiny_traffic_dataset, count=3)
        before = service.metrics_snapshot()
        with pool:
            for request in requests:
                _serve(service, [request])
            service.stop()
            after = service.metrics_snapshot()

        def delta(name):
            return after[name] - before[name]

        assert delta("compiled.cache.misses") == 1
        assert delta("compiled.cache.hits") == len(requests) - 1
        assert delta("compiled.fallbacks") == 0

    def test_parent_and_child_compiles_add_up(self, registry,
                                              tiny_traffic_dataset,
                                              monkeypatch):
        """One pooled batch compiles in the child and one ``serve()`` of
        another chunk shape compiles in the parent: both land in the same
        process-wide ``compiled.*`` counters, each counted exactly once."""
        monkeypatch.delenv("REPRO_COMPILE", raising=False)
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        pooled = _requests(tiny_traffic_dataset, count=1)[0]
        inline = ImputationRequest(model="traffic", values=pooled.values,
                                   observed_mask=pooled.observed_mask,
                                   num_samples=pooled.num_samples + 1,
                                   seed=7)
        before = service.metrics_snapshot()
        with pool:
            _serve(service, [pooled])                    # compiles in the child
            service.serve(inline)                        # compiles in the parent
            service.stop()
            after = service.metrics_snapshot()

        def delta(name):
            return after[name] - before[name]

        assert delta("compiled.cache.misses") == 2
        assert delta("compiled.fallbacks") == 0

    def test_child_model_loads_reach_stats(self, registry,
                                           tiny_traffic_dataset):
        """A pool child resolves models through its own process backend
        cache, and its ``registry.cache.*`` counters fold into the parent's:
        ``/v1/stats`` counts the child's cold load and its next hit once
        each, with no parent-side load at all."""
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        before = TestStableStatsSchema._stats_via_gateway(service)["metrics"]
        with pool:
            for request in _requests(tiny_traffic_dataset, count=2):
                _serve(service, [request])           # cold load, then a hit
            after = TestStableStatsSchema._stats_via_gateway(service)["metrics"]
            service.stop()

        def delta(name):
            return after[name] - before[name]

        assert delta("registry.cache.misses") == 1
        assert delta("registry.cache.hits") == 1


class TestStableStatsSchema:
    """``/v1/stats`` must expose one key schema, inline or pool-backed."""

    @staticmethod
    def _stats_via_gateway(service):
        client = InProcessClient(Gateway(service))

        async def go():
            return await client.request("GET", "/v1/stats")

        response = asyncio.run(go())
        assert response.status == 200
        return response.json()

    def _modes(self, registry):
        yield "inline", None
        yield "process", WorkerPool(num_workers=1, mode="process")

    def test_stats_key_set_is_mode_invariant(self, registry,
                                             tiny_traffic_dataset):
        requests = _requests(tiny_traffic_dataset, count=2)
        service_names = [name for name in METRIC_NAMES
                         if not name.startswith("gateway.")]
        for mode, pool in self._modes(registry):
            # A circuit policy populates "circuits", so the legacy-key scan
            # below also covers the nested per-model breaker snapshots.
            service = ImputationService(registry, max_batch_requests=4,
                                        executor=pool,
                                        circuit_policy=CircuitBreakerPolicy())
            try:
                if pool is not None:
                    pool.start()
                _serve(service, requests)
                assert sorted(service.metrics_snapshot()) == service_names, mode
                stats = self._stats_via_gateway(service)
            finally:
                service.stop()
                if pool is not None:
                    pool.stop()
            assert set(stats) == {"metrics", "circuits"}, mode
            assert sorted(stats["metrics"]) == METRIC_NAMES, mode
            assert list(stats["circuits"]) == ["traffic@1"], mode
            assert not _all_keys(stats) & LEGACY_KEYS, mode


def _all_keys(document):
    """Every dict key at any depth of a decoded JSON document."""
    if not isinstance(document, dict):
        return set()
    return set(document).union(*map(_all_keys, document.values()))
