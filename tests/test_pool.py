"""Tests for the parallel worker pool behind the serving stack.

Covers the scheduling core (one FIFO batch queue, per-worker warm-ups,
admission control, drain-on-stop and its race with dispatch), the failure
contract (a batch error — including a
worker *process* dying mid-batch — resolves every affected ticket with the
error and never wedges the pool), and the bit-identity acceptance criterion:
pool-served responses equal ``service.serve`` alone in float32 and float64.
Every pool runs process workers; the scheduling tests drive dummy tasks
through ``BatchTask.execute``, which runs on the worker thread and spawns
no child.
"""

import multiprocessing
import os
import shutil
import sys
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
from repro.data import metr_la_like
from repro.inference.backend import BackendCache
from repro.io import load_model
from repro.io.artifacts import ARRAYS_NAME
from repro.serving import (
    BatchTask,
    PoolStopped,
    RegistryError,
    RequestPayload,
    WorkerCrashed,
    faults,
)
from repro.serving.pool import execute_batch
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
    """A synthetic BatchTask for scheduling tests (no trained model needed).

    ``spec`` only labels the task at the call site; the pool never reads a
    model name."""
    payloads = [RequestPayload(values=None, observed_mask=None, num_samples=1,
                               seed=None, stride=None)
                for _ in range(num_requests)]
    return BatchTask(artifact_path="<none>", payloads=payloads,
                     on_done=on_done or (lambda raws: None),
                     on_error=on_error or (lambda error: None),
                     execute=execute)


class TestScheduling:
    def test_busy_worker_does_not_hold_back_batches(self):
        """While worker A is busy, batches dispatched after it run on idle
        worker B, whatever model each one names."""
        pool = WorkerPool(num_workers=2)
        release = threading.Event()
        holder = {}
        executed_by = {}

        def blocking(wid):
            holder["wid"] = wid
            release.wait(timeout=10.0)

        with pool:
            pool.dispatch(_dummy_task("hot@1", execute=blocking))
            deadline = time.monotonic() + 5.0
            while "wid" not in holder and time.monotonic() < deadline:
                time.sleep(0.01)
            specs = ["hot@1"] + [f"model-{index}@1" for index in range(7)]
            for spec in specs:
                pool.dispatch(_dummy_task(
                    spec,
                    execute=lambda wid, spec=spec: executed_by.__setitem__(spec, wid)))
            # Every one of them must run while the holder is still busy.
            deadline = time.monotonic() + 5.0
            while len(executed_by) < len(specs) and time.monotonic() < deadline:
                time.sleep(0.01)
            ran_while_busy = dict(executed_by)
            release.set()
            assert pool.wait_idle(timeout=5.0)
        assert set(ran_while_busy) == set(specs)
        assert all(wid != holder["wid"] for wid in ran_while_busy.values())

    def test_one_busy_worker_runs_queued_batches_in_dispatch_order(self):
        pool = WorkerPool(num_workers=1)
        release = threading.Event()
        order = []
        with pool:
            pool.dispatch(_dummy_task(
                "a@1", execute=lambda wid: (release.wait(10.0), None)[1]))
            time.sleep(0.05)         # the worker holds the blocker
            for index in range(6):
                pool.dispatch(_dummy_task(
                    f"model-{index % 2}@1",
                    execute=lambda wid, i=index: order.append(i)))
            release.set()
            assert pool.wait_idle(timeout=5.0)
        assert order == list(range(6))

    def test_prewarm_runs_one_warmup_on_each_worker(self, registry):
        """Each worker warms its own cache: with worker A busy, idle worker
        B runs only its own warm-up, and A's waits for A."""
        pool = WorkerPool(num_workers=2)
        run_warmup = pool._run_warmup
        warmed_by = []

        def recording_warmup(wid, task, process):
            warmed_by.append(wid)
            return run_warmup(wid, task, process)

        pool._run_warmup = recording_warmup
        release = threading.Event()
        holder = {}

        def blocking(wid):
            holder["wid"] = wid
            release.wait(timeout=60.0)

        with pool:
            pool.dispatch(_dummy_task("hot@1", execute=blocking))
            deadline = time.monotonic() + 5.0
            while "wid" not in holder and time.monotonic() < deadline:
                time.sleep(0.01)
            resolved = registry.resolve("traffic")
            assert pool.prewarm(resolved.path) == 2
            deadline = time.monotonic() + 120.0
            while (pool.metrics_snapshot()["pool.warm.models"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.3)          # room for B to take a warm-up not its own
            warmed_while_busy = list(warmed_by)
            release.set()
            assert pool.wait_idle(timeout=120.0)
            snapshot = pool.metrics_snapshot()
        idle = 1 - holder["wid"]
        assert warmed_while_busy == [idle]
        assert sorted(warmed_by) == [0, 1]
        assert snapshot["pool.warm.models"] == 2
        assert snapshot["pool.warm.failures"] == 0


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

    @pytest.mark.parametrize("drain", [True, False])
    def test_dispatch_racing_stop_resolves_every_accepted_task(self, drain):
        """Four dispatcher threads race ``stop()`` on three workers: every
        accepted task fires exactly one hook (``on_done`` when draining), a
        rejected dispatch raises ``PoolStopped`` and fires none, and the
        backlog returns to zero."""
        pool = WorkerPool(num_workers=3, max_queue_depth=100_000)
        lock = threading.Lock()
        hooks = {}                   # task id -> ["done" | error type name]
        accepted, rejected = set(), set()
        other_errors = []

        def dispatcher(thread_id):
            for index in range(2000):
                task_id = (thread_id, index)
                hooks[task_id] = []

                def record(outcome, task_id=task_id):
                    with lock:
                        hooks[task_id].append(outcome)

                try:
                    pool.dispatch(_dummy_task(
                        "a@1", execute=lambda wid: time.sleep(0.001),
                        on_done=lambda raws, record=record: record("done"),
                        on_error=lambda error, record=record: record(
                            type(error).__name__)))
                except PoolStopped:
                    rejected.add(task_id)
                    return
                except Exception as error:   # pragma: no cover - asserted
                    other_errors.append(error)
                    return
                accepted.add(task_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)          # interleave the threads finely
        try:
            pool.start()
            threads = [threading.Thread(target=dispatcher, args=(thread_id,))
                       for thread_id in range(4)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while len(accepted) < 100 and time.monotonic() < deadline:
                time.sleep(0.001)
            pool.stop(drain=drain)
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not other_errors
        assert rejected                      # the race really happened
        assert pool.backlog() == 0
        for task_id in accepted:
            assert len(hooks[task_id]) == 1, (task_id, hooks[task_id])
            if drain:
                assert hooks[task_id] == ["done"]
            else:
                assert hooks[task_id][0] in ("done", "PoolStopped")
        for task_id in rejected:
            assert hooks[task_id] == []

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
        """Repeated injected crashes on one hot model: every affected task's
        ticket resolves with ``WorkerCrashed``, peers never wedge, and no
        queue slots leak (backlog returns to zero)."""
        storm = 5
        pool = WorkerPool(num_workers=2)
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
            # The pool keeps scheduling after the storm.
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
        assert cache.get(first.path) is not a    # reloaded after eviction
        assert _delta(before, _cache_counts()) == {"hits": 1, "misses": 3,
                                                   "evictions": 2}

    def test_backend_cache_reloads_only_a_changed_artifact(self, registry):
        """The one staleness rule: a hit while the artifact's on-disk
        signature is unchanged, a miss that reloads once it changed, and a
        hit while the artifact files are missing."""
        cache = BackendCache(max_loaded=2)
        path = registry.resolve("traffic").path
        before = _cache_counts()
        a = cache.get(path)
        assert cache.get(path) is a
        assert _delta(before, _cache_counts()) == {"hits": 1, "misses": 1,
                                                   "evictions": 0}
        arrays = os.path.join(path, ARRAYS_NAME)
        stat = os.stat(arrays)
        os.utime(arrays, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        b = cache.get(path)
        assert b is not a and cache.get(path) is b
        assert _delta(before, _cache_counts()) == {"hits": 2, "misses": 2,
                                                   "evictions": 0}
        os.rename(path, path + ".away")
        assert cache.get(path) is b
        assert _delta(before, _cache_counts()) == {"hits": 3, "misses": 2,
                                                   "evictions": 0}

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
                pool.prewarm(resolved.path)
                assert pool.wait_idle(timeout=120)
            shutil.rmtree(first.path)
            pool.prewarm(first.path)
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


def _perturbed(model, seed):
    """``model`` with every parameter shifted in place (new weights, same
    architecture)."""
    rng = np.random.default_rng(seed)
    for _, parameter in model.network.named_parameters():
        parameter.data += rng.normal(scale=0.05, size=parameter.data.shape)
    return model


def _republish_elsewhere(registry, model, spec="traffic@1"):
    """Overwrite ``spec`` in place through a second registry on the same
    root, as another process would; returns the artifact path."""
    name, _, version = spec.partition("@")
    other = ModelRegistry(registry.root)
    return other.publish(model, name, version=version).path


def _direct(path, requests):
    """What a fresh load of the artifact at ``path`` returns for
    ``requests``: the reference every cache must agree with."""
    payloads = [RequestPayload(values=request.values,
                               observed_mask=request.observed_mask,
                               num_samples=request.num_samples,
                               seed=np.random.SeedSequence(request.seed),
                               stride=request.stride)
                for request in requests]
    return execute_batch(load_model(path).backend(), payloads)


class TestRepublish:
    """A version republished in place — by any registry object or process —
    is what every process serves next, because every cache of an artifact
    checks the artifact's on-disk signature."""

    def test_inline_and_pooled_serving_see_a_republish_elsewhere(
            self, registry, tiny_traffic_dataset):
        requests = _requests(tiny_traffic_dataset, count=2)
        pool = WorkerPool(num_workers=1, mode="process")
        inline = ImputationService(registry)
        pooled = ImputationService(registry, max_batch_requests=64,
                                   executor=pool)
        with pool:
            # Version 1 becomes resident in this process and in the child.
            old = [inline.serve(request) for request in requests]
            tickets = [pooled.submit(request) for request in requests]
            pooled.flush()
            for ticket in tickets:
                ticket.result(timeout=120)
            path = _republish_elsewhere(
                registry, _perturbed(registry.load("traffic@1"), seed=3))
            served = [inline.serve(request) for request in requests]
            tickets = [pooled.submit(request) for request in requests]
            pooled.flush()
            from_pool = [ticket.result(timeout=120) for ticket in tickets]
        expected = _direct(path, requests)
        for before, now, child, reference in zip(old, served, from_pool,
                                                 expected):
            assert not np.array_equal(before.samples, reference.samples)
            assert np.array_equal(now.samples, reference.samples)
            assert np.array_equal(child.samples, reference.samples)

    def test_admission_reads_the_republished_manifest(
            self, registry, tiny_traffic_dataset):
        service = ImputationService(registry)
        six = _requests(tiny_traffic_dataset, count=1)[0]
        service.serve(six)                 # caches the 6-node shape and model
        five_nodes = metr_la_like(num_nodes=5, num_days=4, steps_per_day=24,
                                  missing_pattern="block", seed=7)
        path = _republish_elsewhere(
            registry, PriSTI(_fast_config()).fit(five_nodes))
        assert registry.num_nodes("traffic@1") == 5
        with pytest.raises(ValueError, match=r"expects \(time, 5\)"):
            service.submit(six)
        five = _requests(five_nodes, count=1)[0]
        response = service.serve(five)
        assert np.array_equal(response.samples,
                              _direct(path, [five])[0].samples)

    def test_missing_artifact_keeps_the_resident_backend(self, registry):
        """Between ``save_model``'s two renames the version directory is
        gone; a lookup then serves what is resident instead of failing."""
        resolved = registry.resolve("traffic")
        resident = registry.backend(resolved)
        os.rename(resolved.path, resolved.path + ".bak")
        before = _cache_counts()
        assert ModelRegistry(registry.root).backend(resolved) is resident
        assert registry.backend(resolved) is resident
        assert _delta(before, _cache_counts()) == {"hits": 2, "misses": 0,
                                                   "evictions": 0}

    def test_save_model_siblings_are_not_versions(self, tmp_path,
                                                  trained_models):
        """``save_model`` stages and backs up next to the version directory;
        while ``m@prod`` is republished, ``prod.bak-*`` holds a manifest
        and sorts after ``prod``, but it is no version and never latest."""
        registry = ModelRegistry(tmp_path / "models")
        path = registry.publish(trained_models["f64"], "m", version="prod").path
        shutil.copytree(path, path + ".bak-1-deadbeef")
        assert registry.versions("m") == ["prod"]
        assert registry.resolve("m").version == "prod"
        with pytest.raises(RegistryError, match="no version"):
            registry.resolve("m@prod.bak-1-deadbeef")
        with pytest.raises(RegistryError, match="staging or backup"):
            registry.publish(trained_models["f64"], "m", version="1.tmp-1-abcdef12")
        assert registry.versions("m") == ["prod"]
