"""Tests for the parallel worker pool behind the serving stack.

Covers the scheduling core (shard-aware routing, work stealing, admission
control, drain-on-stop), the failure contract (a batch error — including a
worker *process* dying mid-batch — resolves every affected ticket with the
error and never wedges the pool), and the bit-identity acceptance criterion:
pool-served responses equal ``service.serve`` alone in float32 and float64.
Every pool runs process workers; the scheduling tests drive dummy tasks
through ``BatchTask.execute``, which runs on the worker thread and spawns
no child.
"""

import multiprocessing
import shutil
import threading
import time

import numpy as np
import pytest

from repro import (
    ImputationRequest,
    ImputationService,
    ModelRegistry,
    PriSTI,
    PriSTIConfig,
    ServiceOverloaded,
    WorkerPool,
)
from repro.inference.backend import BackendCache
from repro.serving import (
    BatchTask,
    PoolStopped,
    RequestPayload,
    WorkerCrashed,
    faults,
)
from repro.telemetry import PROCESS_METRICS
from repro.tensor import dtype_scope, get_default_dtype, is_grad_enabled, no_grad


def _fast_config(**overrides):
    defaults = dict(window_length=10, epochs=1, iterations_per_epoch=1,
                    num_diffusion_steps=6, num_samples=2, batch_size=4)
    defaults.update(overrides)
    return PriSTIConfig.fast(**defaults)


@pytest.fixture(scope="module")
def trained_models(tiny_traffic_dataset):
    """One float64 and one float32 model (module-scoped: training is the
    expensive part of every serving test)."""
    f64 = PriSTI(_fast_config()).fit(tiny_traffic_dataset)
    f32 = PriSTI(_fast_config(dtype="float32")).fit(tiny_traffic_dataset)
    return {"f64": f64, "f32": f32}


@pytest.fixture()
def registry(tmp_path, trained_models):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(trained_models["f64"], "traffic")
    registry.publish(trained_models["f32"], "traffic32")
    return registry


def _requests(dataset, model="traffic", count=4, length=10, num_samples=2):
    values, observed, evaluation = dataset.segment("test")
    mask = observed & ~evaluation
    return [
        ImputationRequest(model=model, values=values[s:s + length],
                          observed_mask=mask[s:s + length],
                          num_samples=num_samples, seed=100 + s)
        for s in range(count)
    ]


def _dummy_task(spec, execute, num_requests=1, on_done=None, on_error=None):
    """A synthetic BatchTask for scheduling tests (no trained model needed)."""
    payloads = [RequestPayload(values=None, observed_mask=None, num_samples=1,
                               seed=None, stride=None)
                for _ in range(num_requests)]
    return BatchTask(spec=spec, artifact_path="<none>", payloads=payloads,
                     on_done=on_done or (lambda raws: None),
                     on_error=on_error or (lambda error: None),
                     execute=execute)


class TestScheduling:
    def test_shard_routing_is_consistent_and_total(self):
        pool = WorkerPool(num_workers=4)
        specs = [f"model-{i}@1" for i in range(32)]
        first = [pool.shard_of(spec) for spec in specs]
        assert first == [pool.shard_of(spec) for spec in specs]
        assert set(first) <= set(range(4))
        # The same spec never migrates between pool instances of equal size.
        assert first == [WorkerPool(num_workers=4).shard_of(s) for s in specs]

    def test_same_spec_lands_on_home_worker(self):
        pool = WorkerPool(num_workers=3, steal=False)
        done = threading.Event()
        executed_by = []
        with pool:
            for index in range(4):
                pool.dispatch(_dummy_task(
                    "hot@1", execute=lambda wid: executed_by.append(wid)))
            assert pool.wait_idle(timeout=5.0)
            done.set()
        home = pool.shard_of("hot@1")
        assert executed_by == [home] * 4

    def test_idle_worker_steals_from_backed_up_shard(self):
        pool = WorkerPool(num_workers=2, steal=True)
        release = threading.Event()
        holder = {}
        executed_by = {}

        def blocking(wid):
            holder["wid"] = wid
            release.wait(timeout=10.0)
            return None

        with pool:
            pool.dispatch(_dummy_task("hot@1", execute=blocking))
            deadline = time.monotonic() + 5.0
            while "wid" not in holder and time.monotonic() < deadline:
                time.sleep(0.01)
            # Back up the *holder's* shard with two more batches (pick a spec
            # that routes to whichever worker holds the blocker).
            spec = next(f"model-{i}@1" for i in range(64)
                        if pool.shard_of(f"model-{i}@1") == holder["wid"])
            for name in ("b1", "b2"):
                pool.dispatch(_dummy_task(
                    spec,
                    execute=lambda wid, name=name: executed_by.__setitem__(name, wid)))
            # The sibling worker must take them over while the holder is busy.
            deadline = time.monotonic() + 5.0
            while len(executed_by) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            release.set()
            assert pool.wait_idle(timeout=5.0)
        assert set(executed_by) == {"b1", "b2"}
        assert all(wid != holder["wid"] for wid in executed_by.values())
        assert pool.metrics_snapshot()["pool.steals"] >= 2

    def test_steal_disabled_pins_shards(self):
        pool = WorkerPool(num_workers=2, steal=False)
        release = threading.Event()
        executed_by = []
        home = pool.shard_of("hot@1")
        with pool:
            pool.dispatch(_dummy_task(
                "hot@1", execute=lambda wid: (release.wait(10.0), None)[1]))
            time.sleep(0.05)
            pool.dispatch(_dummy_task(
                "hot@1", execute=lambda wid: executed_by.append(wid)))
            time.sleep(0.1)          # the sibling must NOT have taken it
            assert executed_by == []
            release.set()
            assert pool.wait_idle(timeout=5.0)
        assert executed_by == [home]
        assert pool.metrics_snapshot()["pool.steals"] == 0


class TestAdmissionControl:
    def test_dispatch_rejects_past_max_queue_depth(self):
        pool = WorkerPool(num_workers=1, max_queue_depth=2)
        release = threading.Event()
        with pool:
            pool.dispatch(_dummy_task(
                "a@1", execute=lambda wid: (release.wait(10.0), None)[1]))
            time.sleep(0.05)         # worker takes it; queue is empty again
            pool.dispatch(_dummy_task("a@1", execute=lambda wid: None,
                                      num_requests=2))
            with pytest.raises(ServiceOverloaded):
                pool.dispatch(_dummy_task("a@1", execute=lambda wid: None))
            release.set()
            assert pool.wait_idle(timeout=5.0)
        assert pool.metrics_snapshot()["pool.requests.rejected"] == 1

    def test_service_submit_backpressure(self, registry, tiny_traffic_dataset):
        service = ImputationService(registry, max_batch_requests=64,
                                    max_queue_depth=2)
        requests = _requests(tiny_traffic_dataset, count=3)
        service.submit(requests[0])
        service.submit(requests[1])
        with pytest.raises(ServiceOverloaded):
            service.submit(requests[2])
        # Shedding load frees capacity again.
        service.flush()
        service.submit(requests[2]).result(timeout=30)

    def test_rejected_dispatch_resolves_tickets(self, registry,
                                                tiny_traffic_dataset):
        """A pool-side rejection at flush time must not strand the tickets
        that were already issued — they carry the ServiceOverloaded error."""
        pool = WorkerPool(num_workers=1, max_queue_depth=1)
        release = threading.Event()
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        with pool:
            pool.dispatch(_dummy_task(
                "blocker@1", execute=lambda wid: (release.wait(10.0), None)[1]))
            time.sleep(0.05)
            # Two queued requests flush as one 2-request batch: 2 > depth 1.
            tickets = [service.submit(request)
                       for request in _requests(tiny_traffic_dataset, count=2)]
            with pytest.raises(ServiceOverloaded):
                service.flush()
            for ticket in tickets:
                with pytest.raises(ServiceOverloaded):
                    ticket.result(timeout=5)
            release.set()


class TestStopSemantics:
    def test_stop_drain_completes_queued_work(self):
        pool = WorkerPool(num_workers=1)
        completed = []
        pool.start()
        release = threading.Event()
        pool.dispatch(_dummy_task(
            "a@1", execute=lambda wid: (release.wait(10.0), None)[1]))
        time.sleep(0.05)
        for index in range(3):
            pool.dispatch(_dummy_task(
                "a@1", execute=lambda wid, i=index: completed.append(i)))
        release.set()
        pool.stop(drain=True)
        assert completed == [0, 1, 2]

    def test_stop_no_drain_fails_queued_batches(self):
        pool = WorkerPool(num_workers=1)
        completed, errors = [], []
        release = threading.Event()
        pool.start()
        pool.dispatch(_dummy_task(
            "a@1", execute=lambda wid: (release.wait(10.0), completed.append("in-flight"))[0]))
        time.sleep(0.05)
        for index in range(3):
            pool.dispatch(_dummy_task(
                "a@1", execute=lambda wid, i=index: completed.append(i),
                on_error=errors.append))
        stopper = threading.Thread(target=pool.stop, kwargs={"drain": False})
        stopper.start()
        deadline = time.monotonic() + 5.0
        while len(errors) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert [type(error) for error in errors] == [PoolStopped] * 3
        assert "in-flight" in completed and 0 not in completed

    def test_dispatch_after_stop_raises(self):
        pool = WorkerPool(num_workers=1)
        pool.start()
        pool.stop()
        with pytest.raises(PoolStopped):
            pool.dispatch(_dummy_task("a@1", execute=lambda wid: None))

    def test_service_stop_waits_for_pool_backlog(self, registry,
                                                 tiny_traffic_dataset):
        pool = WorkerPool(num_workers=2)
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        with pool:
            tickets = [service.submit(request)
                       for request in _requests(tiny_traffic_dataset, count=4)]
            service.stop()            # final flush + wait for the pool
            assert all(ticket.done for ticket in tickets)
            for ticket in tickets:
                assert ticket.result(timeout=1).median.shape[0] == 10


class TestFailureContract:
    def test_batch_error_resolves_every_ticket(self, registry,
                                               tiny_traffic_dataset):
        """A worker hitting an error mid-batch (here: the artifact tree was
        destroyed under it) resolves ALL of the batch's tickets with it."""
        pool = WorkerPool(num_workers=1)
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        with pool:
            tickets = [service.submit(request)
                       for request in _requests(tiny_traffic_dataset, count=3)]
            shutil.rmtree(registry.root)
            service.flush()
            for ticket in tickets:
                with pytest.raises(Exception):
                    ticket.result(timeout=30)
            # The pool survives the failure and keeps scheduling.
            probe = []
            pool.dispatch(_dummy_task("probe@1",
                                      execute=lambda wid: probe.append(wid)))
            assert pool.wait_idle(timeout=5.0)
            assert probe

    def test_crash_storm_on_one_shard_does_not_livelock_peers(self):
        """Repeated injected crashes on one hot shard: every affected task's
        ticket resolves with ``WorkerCrashed``, stealing peers never wedge,
        and no queue slots leak (backlog returns to zero)."""
        storm = 5
        pool = WorkerPool(num_workers=2, steal=True)
        errors = []
        storm_done = threading.Event()

        def on_error(error):
            errors.append(error)
            if len(errors) == storm:
                storm_done.set()

        with pool:
            with faults.active([{"point": "pool.worker_crash",
                                 "after": 0, "count": storm}]):
                for _ in range(storm):
                    pool.dispatch(_dummy_task("hot@1",
                                              execute=lambda wid: None,
                                              on_error=on_error))
                assert storm_done.wait(timeout=10.0)
            assert len(errors) == storm
            assert all(isinstance(error, WorkerCrashed) for error in errors)
            # Both shards keep scheduling after the storm: tasks spread across
            # every spec execute, including on the previously crashing shard.
            executed = []
            for index in range(8):
                pool.dispatch(_dummy_task(
                    f"model-{index}@1",
                    execute=lambda wid: executed.append(wid)))
            assert pool.wait_idle(timeout=10.0)
            assert len(executed) == 8
            snapshot = pool.metrics_snapshot()
            assert snapshot["pool.batches.crashed"] == storm
            assert snapshot["pool.backlog"] == 0        # no leaked slots
            assert snapshot["pool.batches.inflight"] == 0
            # The injected crashes fire before any child is spawned, so no
            # worker is left dead.
            assert snapshot["pool.workers.dead"] == 0

    def test_worker_process_crash_resolves_tickets_and_respawns(
            self, registry, tiny_traffic_dataset):
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        requests = _requests(tiny_traffic_dataset, count=2)
        with pool:
            # Warm batch: spawns the child and loads the model there.
            warm = [service.submit(request) for request in requests]
            service.flush()
            for ticket in warm:
                ticket.result(timeout=120)
            children = multiprocessing.active_children()
            assert children
            for child in children:
                child.terminate()
                child.join(timeout=10.0)
            # The next batch hits the dead child: every ticket carries the
            # crash, nothing hangs.
            tickets = [service.submit(request) for request in requests]
            service.flush()
            for ticket in tickets:
                with pytest.raises(WorkerCrashed):
                    ticket.result(timeout=120)
            assert pool.metrics_snapshot()["pool.batches.crashed"] == 1
            # ...and the worker respawns a fresh child for the batch after.
            again = [service.submit(request) for request in requests]
            service.flush()
            for ticket, reference in zip(again, warm):
                response = ticket.result(timeout=120)
                assert np.array_equal(response.samples,
                                      reference.result(timeout=1).samples)


class TestBitIdentity:
    @pytest.mark.parametrize("model", ["traffic", "traffic32"])
    def test_process_pool_rehydration_matches_in_process(
            self, registry, tiny_traffic_dataset, model):
        """The process workers rebuild the model from its artifact; the
        rehydrated copy must produce the same bits as the in-process one."""
        pool = WorkerPool(num_workers=1, mode="process")
        service = ImputationService(registry, max_batch_requests=64,
                                    executor=pool)
        requests = _requests(tiny_traffic_dataset, model=model, count=3)
        with pool:
            alone = [service.serve(request) for request in requests]
            tickets = [service.submit(request) for request in requests]
            service.flush()
            pooled = [ticket.result(timeout=120) for ticket in tickets]
        for reference, response in zip(alone, pooled):
            assert np.array_equal(reference.samples, response.samples)
            assert np.array_equal(reference.median, response.median)
            assert response.samples.dtype == reference.samples.dtype

    def test_mixed_models_under_concurrency(self, registry,
                                            tiny_traffic_dataset):
        """f32 and f64 batches executing on sibling workers must not perturb
        each other (each worker's child process holds its own models)."""
        pool = WorkerPool(num_workers=2)
        service = ImputationService(registry, max_batch_requests=4,
                                    executor=pool)
        requests = (_requests(tiny_traffic_dataset, model="traffic", count=4)
                    + _requests(tiny_traffic_dataset, model="traffic32", count=4))
        with pool:
            alone = [service.serve(request) for request in requests]
            tickets = [service.submit(request) for request in requests]
            service.flush()
            pooled = [ticket.result(timeout=120) for ticket in tickets]
        for reference, response in zip(alone, pooled):
            assert np.array_equal(reference.samples, response.samples)


class TestThreadLocalTensorState:
    def test_dtype_scope_is_thread_local(self):
        seen = {}

        def probe():
            seen["dtype"] = get_default_dtype()

        with dtype_scope("float32"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            assert get_default_dtype() == np.dtype(np.float32)
        assert seen["dtype"] == np.dtype(np.float64)
        assert get_default_dtype() == np.dtype(np.float64)

    def test_no_grad_is_thread_local(self):
        seen = {}

        def probe():
            seen["grad"] = is_grad_enabled()

        with no_grad():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            assert not is_grad_enabled()
        assert seen["grad"] is True
        assert is_grad_enabled()


def _cache_counts():
    """The process-wide ``registry.cache.*`` counters (compare deltas)."""
    snapshot = PROCESS_METRICS.snapshot()
    return {name: snapshot[f"registry.cache.{name}"]
            for name in ("hits", "misses", "evictions")}


def _delta(before, after):
    return {name: after[name] - before[name] for name in before}


class TestSharedCaches:
    def test_registry_lru_is_thread_safe(self, registry):
        """Threads sharing the process backend cache through
        ``registry.backend`` count every lookup exactly once."""
        specs = ["traffic", "traffic32", "traffic@1"]
        errors = []

        def hammer(spec):
            try:
                for _ in range(20):
                    registry.backend(spec)
            except Exception as error:   # pragma: no cover - the assertion
                errors.append(error)

        before = _cache_counts()
        threads = [threading.Thread(target=hammer, args=(spec,))
                   for spec in specs for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        counts = _delta(before, _cache_counts())
        assert counts["hits"] + counts["misses"] == 120
        # Two artifacts, each loaded once: the lock makes a racing miss wait
        # for the load instead of loading the same artifact twice.
        assert counts["misses"] == 2

    def test_backend_cache_lru(self, registry):
        cache = BackendCache(max_loaded=1)
        first = registry.resolve("traffic")
        second = registry.resolve("traffic32")
        before = _cache_counts()
        a = cache.get(first.path)
        assert cache.get(first.path) is a
        cache.get(second.path)
        assert _delta(before, _cache_counts()) == {"hits": 1, "misses": 2,
                                                   "evictions": 1}
        assert (cache.stat_probes, cache.stale_reloads) == (1, 0)
        assert cache.get(first.path) is not a    # reloaded after eviction

    def test_backend_cache_generation_skips_stat_probe(self, registry):
        cache = BackendCache(max_loaded=2)
        resolved = registry.resolve("traffic")
        a = cache.get(resolved.path, generation=3)
        assert cache.get(resolved.path, generation=3) is a
        assert cache.stat_probes == 0              # generation match: no stat
        # A generation bump probes the artifact once, sees unchanged bytes,
        # and revalidates the resident entry instead of reloading.
        assert cache.get(resolved.path, generation=4) is a
        assert cache.stat_probes == 1 and cache.stale_reloads == 0
        assert cache.get(resolved.path, generation=4) is a
        assert cache.stat_probes == 1

    def test_worker_lru_holds_exactly_max_loaded_per_worker(self, registry):
        """A child keeps at most ``max_loaded_per_worker`` models, as the
        parent's residency tracking assumes — also below the backend cache's
        default of 4.  With capacity 1, warming A, B, then A again must
        reload A; A's artifact is gone by then, so the reload fails, while a
        stale cache hit would succeed."""
        first = registry.resolve("traffic")
        second = registry.resolve("traffic32")
        pool = WorkerPool(num_workers=1, mode="process",
                          max_loaded_per_worker=1)
        with pool:
            for resolved in (first, second):
                pool.prewarm(resolved.path, generation=registry.generation)
                assert pool.wait_idle(timeout=120)
            shutil.rmtree(first.path)
            pool.prewarm(first.path, generation=registry.generation)
            assert pool.wait_idle(timeout=120)
            snapshot = pool.metrics_snapshot()
        assert snapshot["pool.warm.models"] == 2
        assert snapshot["pool.warm.failures"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(num_workers=0)
        with pytest.raises(ValueError, match="thread mode was removed"):
            WorkerPool(mode="thread")
        with pytest.raises(ValueError):
            WorkerPool(mode="fiber")
        with pytest.raises(ValueError):
            WorkerPool(max_queue_depth=0)
        with pytest.raises(ValueError):
            WorkerPool(max_loaded_per_worker=0)
        with pytest.raises(TypeError):
            WorkerPool(name="custom")       # fixed prefix POOL_NAME
        with pytest.raises(ValueError):
            BackendCache(max_loaded=0)
        with pytest.raises(TypeError):
            WorkerPool().dispatch("not a task")
