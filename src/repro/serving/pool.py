"""Parallel worker-pool execution from one shared batch queue.

:class:`WorkerPool` is the horizontal-scale substrate behind
:class:`~repro.serving.ImputationService`: flushed micro-batches are fanned
out to ``num_workers`` workers instead of executing on the caller's thread.

Each worker is a parent-side thread that drives a dedicated child process
over a **zero-copy shared-memory transport** (:mod:`repro.serving.transport`).
Every reverse-diffusion step is a chain of Python-level tensor ops that
holds the GIL, so sibling threads of one process would run one at a time;
separate processes are what let workers compute in parallel.  Request and
response tensors live in a per-worker shm arena and cross the process
boundary as ``(segment, offset, shape, dtype)`` descriptors; the persistent
pipe carries only those small control records plus each request's noise
seed.  Children are started with the ``spawn`` method (``fork`` is unsafe in
a multi-threaded parent).  Models are rehydrated child-side at most once per
(process, save of the artifact) — the child's backend cache checks the
artifact's on-disk signature on every batch — and usually *before* the
first request, via warm pre-fork (:meth:`WorkerPool.watch` /
:meth:`WorkerPool.prewarm`).

Scheduling
----------
* **One queue** — dispatched batches wait in one FIFO, and the next idle
  worker takes the oldest one, whatever model it names.  Warm pre-fork
  keeps every published model resident on every worker, so no worker is a
  better home for a batch than another.
* **Per-worker warm-ups** — a warm-up must load the model into *its*
  worker's child, so each worker has its own warm-up deque and takes from
  it before the shared queue.
* **Batch splitting** — when a multi-request batch arrives while the pool is
  otherwise idle (no backlog, siblings parked), it is split into one part
  per idle worker that already has the model resident (warm pre-fork makes
  that all of them); the parts go on the queue and are rejoined on
  completion, so ``num_workers`` workers help even at low request
  concurrency.  The residency gate means an unwarmed pool never cold-loads
  a model just to split.  Safe because each request samples from its own
  RNG stream and per-request bits are independent of batch composition
  (the serve-alone == batched invariant).
* **Admission control** — ``max_queue_depth`` bounds the number of queued
  (not yet executing) *requests*; dispatching beyond it raises
  :class:`ServiceOverloaded` so callers shed load instead of queueing
  unboundedly.
* **Drain-on-stop** — ``stop(drain=True)`` (the default, also the context
  manager exit) completes every queued batch before the workers exit;
  ``stop(drain=False)`` fails queued batches with :class:`PoolStopped` and
  only lets in-flight ones finish.  Both paths destroy every worker arena —
  zero shared-memory segments survive a stopped pool, and a crashed worker's
  arena is torn down with it (a staged batch is reclaimed, never leaked).

Telemetry
---------
Every ``pool.*`` and ``transport.*`` counter is counted once, where its
event happens, into the pool's :class:`~repro.telemetry.MetricsRegistry`:
worker threads count dispatched, executed and crashed batches, each
worker's arena counts segments and staged bytes, and its pipe counts
control bytes and batches run.  A child's own process-wide counters
(model cache, compiles) ride on each batch reply as the gain since its
previous reply and are added to this process's
:data:`~repro.telemetry.PROCESS_METRICS` before the batch's tickets
resolve; a crashed child loses only the gain since its last reply.

Bit-identity
------------
The pool never changes what is computed, only where: a child runs
:func:`execute_batch` over :func:`~repro.inference.backend.process_backend`
exactly as the service's inline path does, each request samples from a
stream built from its own seed, and each child process holds its own model
instances, so concurrent batches cannot perturb each other.  The
shm transport moves bytes, not maths: staging writes the backend's own
idempotent request normalisation into the arena, and responses are copied
out verbatim.  ``tests/test_pool.py`` pins pooled == serve-alone in float32
and float64; ``tests/test_pool_transport.py`` pins the arena lifecycle.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..inference.backend import process_backend
from ..telemetry import PROCESS_METRICS, MetricsRegistry
from . import faults
from .errors import PoolStopped, ServiceOverloaded, TransportError, WorkerCrashed
from .transport import TRANSPORT_METRIC_SCHEMA, SegmentAttachments, ShmArena, decode_batch

__all__ = ["WorkerPool", "ServiceOverloaded", "PoolStopped", "WorkerCrashed",
           "TransportError", "RequestPayload", "BatchTask", "execute_batch",
           "POOL_METRIC_SCHEMA", "TRANSPORT_METRIC_SCHEMA",
           "executor_metric_schema", "zero_executor_snapshot"]

#: Name prefix of every worker thread and child process a pool starts.
POOL_NAME = "imputation-pool"

#: The stable ``pool.*`` metric schema every WorkerPool registers — and every
#: inline service zero-fills — so a scraper sees one key set in every mode.
POOL_METRIC_SCHEMA = {
    "pool.workers": "gauge",
    "pool.workers.dead": "gauge",
    "pool.batches.dispatched": "counter",
    "pool.batches.executed": "counter",
    "pool.batches.crashed": "counter",
    "pool.batches.queued": "gauge",
    "pool.batches.inflight": "gauge",
    "pool.splits": "counter",
    "pool.requests.rejected": "counter",
    "pool.backlog": "gauge",
    "pool.backlog.max": "gauge",
    "pool.warm.models": "counter",
    "pool.warm.failures": "counter",
    "pool.warm.seconds": "counter",
}


def executor_metric_schema():
    """The full executor metric schema (``pool.*`` + ``transport.*``)."""
    return dict(POOL_METRIC_SCHEMA, **TRANSPORT_METRIC_SCHEMA)


def zero_executor_snapshot():
    """Zero-valued executor snapshot — what an inline service reports so the
    flat metrics key set never depends on whether a pool is attached."""
    return {name: 0 for name in executor_metric_schema()}


@dataclass
class RequestPayload:
    """The picklable execution inputs of one queued request.

    This is the wire format between the service and the pool workers: raw
    arrays plus the seed of the request's noise stream, from which
    :func:`execute_batch` builds a fresh ``Generator`` on every attempt (so
    a retry replays by construction).  The arrays never actually cross the
    pipe — they are staged into the worker's shm arena and only their
    descriptors travel (see :mod:`repro.serving.transport`).
    """

    values: np.ndarray
    observed_mask: np.ndarray | None
    num_samples: int
    seed: np.random.SeedSequence
    stride: int | None


def execute_batch(backend, payloads):
    """Execute one micro-batch on ``backend``; returns per-payload raws.

    The single execution path shared by the service's inline ``serve``/
    ``flush`` and the pool's worker processes — both produce identical bits
    for identical payloads:

    * backends with the request-plan protocol (the diffusion family) are
      **coalesced**: every payload is planned (its items drawing from a
      stream built here from its seed) and
      :meth:`~repro.inference.DiffusionBackend.sample_jobs` runs all of them
      in one engine pass;
    * other backends (the windowed baselines) execute per payload.
    """
    if hasattr(backend, "plan_request"):
        return backend.sample_jobs([
            backend.plan_request(
                payload.values, payload.observed_mask,
                num_samples=payload.num_samples,
                rng=np.random.default_rng(payload.seed), stride=payload.stride,
            )
            for payload in payloads
        ])
    return [
        backend.impute_arrays(payload.values, payload.observed_mask,
                              num_samples=payload.num_samples)
        for payload in payloads
    ]


@dataclass
class BatchTask:
    """One dispatched micro-batch: model, inputs and completion hooks.

    ``on_done(raws)`` / ``on_error(exc)`` run on the parent-side worker
    *thread* (the child only computes), so the dispatcher keeps ticket
    resolution and its own bookkeeping in-process.  ``execute`` is a test
    hook: when set, the worker thread calls ``execute(worker_id)`` itself
    instead of handing the batch to its child, which lets the scheduling
    tests drive queueing, overload and crash handling without trained
    models.
    """

    artifact_path: str
    payloads: list
    on_done: object                 # callable(list[RawImputation]) -> None
    on_error: object                # callable(Exception) -> None
    execute: object = None          # callable(worker_id) -> raws  (tests only)

    @property
    def num_requests(self):
        return len(self.payloads)


@dataclass
class _WarmupTask:
    """A queued warm pre-load: rehydrate one artifact on one worker.

    Queued on *every* worker's own warm-up deque by
    :meth:`WorkerPool.prewarm` right after a registry publish, so the model
    is resident in the child-process cache before its first request
    arrives.  Invisible to admission control.
    """

    artifact_path: str


class _SplitJoin:
    """Rejoins a split batch and resolves the original hooks exactly once.

    Part results are kept in dispatch order, so the joined ``raws`` list is
    indistinguishable from the unsplit batch's; the first part error wins
    (payloads carry seeds, not live streams, so a partially executed split
    is safe to retry).
    """

    def __init__(self, task, num_parts):
        self.task = task
        self._results = [None] * num_parts
        self._error = None
        self._pending = num_parts
        self._lock = threading.Lock()

    def hooks(self, index):
        def on_done(raws):
            self._resolve(index, raws, None)

        def on_error(error):
            self._resolve(index, None, error)

        return on_done, on_error

    def _resolve(self, index, raws, error):
        with self._lock:
            self._results[index] = raws
            if error is not None and self._error is None:
                self._error = error
            self._pending -= 1
            if self._pending:
                return
            final_error = self._error
        if final_error is not None:
            self.task.on_error(final_error)
        else:
            self.task.on_done([raw for part in self._results for raw in part])


class _WorkerProcess:
    """A worker thread's dedicated child process plus its shm arena.

    The owning worker thread drives the child strictly serially: stage the
    batch into the arena, send the descriptors, wait for the completion
    control message, copy the responses out, release the batch.  Control
    messages cross as explicit pickled byte blobs (``send_bytes``) so the
    transport cost is measurable.  Every ``transport.*`` counter is counted
    here, in the parent, into ``metrics`` (the pool's registry) as its event
    happens: the arena counts segments and staged batches, the pipe counts
    ``transport.control.bytes_*`` for every byte that actually crosses it,
    and :meth:`run` counts ``transport.batches.run``.
    """

    def __init__(self, name, metrics, *, max_loaded=4):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe()
        self.metrics = metrics
        self.arena = ShmArena(metrics)
        self.process = ctx.Process(target=_process_worker_main,
                                   args=(child_conn, max_loaded),
                                   name=name, daemon=True)
        self.process.start()
        # The parent keeps only its end; the child owns the other.
        child_conn.close()

    def _send(self, message):
        blob = pickle.dumps(message)
        self.metrics.counter("transport.control.bytes_sent").inc(len(blob))
        self.conn.send_bytes(blob)

    def _recv(self):
        blob = self.conn.recv_bytes()
        self.metrics.counter("transport.control.bytes_received").inc(len(blob))
        return pickle.loads(blob)

    def _roundtrip(self, message):
        """Send a control message and wait for the child's reply, converting
        a dead child (EOF/broken pipe) into :class:`WorkerCrashed`."""
        try:
            self._send(message)
            status, result = self._recv()
        except (EOFError, OSError) as error:
            self.close(kill=True)
            raise WorkerCrashed(
                f"worker process died mid-batch ({type(error).__name__})"
            ) from error
        if status == "error":
            if isinstance(result, Exception):
                raise result
            # SystemExit/KeyboardInterrupt-style escapes from the child must
            # not propagate as control flow in the parent — surface them as a
            # batch failure the tickets can carry.
            raise WorkerCrashed(
                f"worker process raised {type(result).__name__}: {result}")
        return result

    def warm(self, artifact_path):
        """Pre-load one artifact in the child; returns the child's load
        seconds (near zero when it was already resident)."""
        return self._roundtrip(("warm", artifact_path))

    def run(self, task):
        """Execute ``task`` in the child over the shm transport.

        Staging is per-attempt: a retry re-enters here and stages the batch
        again, and the ``finally`` releases this attempt exactly once
        whatever happens (child reply, child death, staging fault), so the
        arena is free for the next batch — release after a crash-path
        ``arena.destroy()`` is a no-op, so nothing double-frees and nothing
        leaks.

        The child's reply carries what its ``PROCESS_METRICS`` counters
        gained since its previous reply; they are added to this process's
        before this returns, so they land before the batch's tickets
        resolve.
        """
        staged = self.arena.stage(task.payloads)
        try:
            deltas = self._roundtrip(("batch", task.artifact_path,
                                      staged.descriptors()))
            PROCESS_METRICS.fold(deltas)
            self.metrics.counter("transport.batches.run").inc()
            return staged.read_responses()
        finally:
            staged.release()

    def close(self, kill=False):
        try:
            if not kill and self.process.is_alive():
                self._send(("stop",))
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        if kill and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        # The parent owns every segment: tear the arena down with the child
        # so no shared memory outlives the worker, however it exited.
        self.arena.destroy()


def _write_responses(artifact_path, descriptors, attachments):
    """Decode one batch, execute it and write its responses in place.

    Every arena view lives in this frame only, so none outlives the batch:
    the next batch may name another segment, and a mapping cannot close
    while views of it are alive.
    """
    payloads, response_views = decode_batch(descriptors, attachments)
    raws = execute_batch(process_backend(artifact_path), payloads)
    for raw, (median_view, samples_view) in zip(raws, response_views):
        median_view[...] = raw.median
        samples_view[...] = raw.samples


def _process_worker_main(conn, max_loaded=4):
    """Child-process loop: attach segments, decode descriptors, execute,
    write responses in place, reply with a small status message."""
    from ..inference.backend import _PROCESS_BACKENDS

    # One single-threaded, freshly spawned child per worker, so the
    # process-global cache is the worker's LRU: its capacity is exactly the
    # pool's per-worker bound, which the parent's residency tracking assumes.
    _PROCESS_BACKENDS.max_loaded = int(max_loaded)

    def reply(message):
        try:
            conn.send_bytes(pickle.dumps(message))
        except Exception:
            status, payload = message
            conn.send_bytes(pickle.dumps((status, RuntimeError(
                f"{type(payload).__name__}: {payload} (original not picklable)"))))

    attachments = SegmentAttachments()
    sent = {}                  # PROCESS_METRICS as of the last batch reply
    try:
        while True:
            try:
                message = pickle.loads(conn.recv_bytes())
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "batch":
                _, artifact_path, descriptors = message
                try:
                    _write_responses(artifact_path, descriptors, attachments)
                except BaseException as error:  # noqa: BLE001 - forwarded
                    reply(("error", error))
                else:
                    # The reply carries what this child's process-wide
                    # (model-cache and compile) counters gained since its
                    # last reply; the parent adds it to its own, so
                    # telemetry covers process workers.
                    counts = PROCESS_METRICS.snapshot()
                    reply(("ok", {name: value - sent.get(name, 0)
                                  for name, value in counts.items()
                                  if value != sent.get(name, 0)}))
                    sent = counts
            elif kind == "warm":
                _, artifact_path = message
                started = time.perf_counter()
                try:
                    process_backend(artifact_path)
                except BaseException as error:  # noqa: BLE001 - forwarded
                    reply(("error", error))
                else:
                    reply(("ok", time.perf_counter() - started))
            else:
                conn.close()
                return
    finally:
        attachments.close()


class WorkerPool:
    """N-worker executor over one FIFO batch queue, with admission control.

    Parameters
    ----------
    num_workers:
        Worker count.
    mode:
        Only ``"process"`` is accepted; thread mode was removed.
    max_queue_depth:
        Admission-control bound on queued (not yet executing) requests;
        ``dispatch`` beyond it raises :class:`ServiceOverloaded`.
    max_loaded_per_worker:
        Capacity of each worker child's backend cache (the process-global
        cache in :mod:`repro.inference.backend`).
    """

    def __init__(self, num_workers=2, *, mode="process", max_queue_depth=256,
                 max_loaded_per_worker=4):
        if num_workers < 1:
            raise ValueError("num_workers must be a positive integer")
        if mode != "process":
            raise ValueError(f"mode={mode!r} is not supported: thread mode was "
                             "removed, WorkerPool runs process workers only")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be a positive integer")
        if max_loaded_per_worker < 1:
            raise ValueError("max_loaded_per_worker must be a positive integer")
        self.num_workers = int(num_workers)
        self.max_queue_depth = int(max_queue_depth)
        self.max_loaded_per_worker = int(max_loaded_per_worker)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._batches = deque()
        self._warmups = [deque() for _ in range(self.num_workers)]
        self._in_flight = [None] * self.num_workers
        self._threads = []
        self._started = False
        self._stopping = False
        # Instrumentation: every scheduling/transport counter lives in the
        # typed registry under its dotted stable name (metrics_snapshot()).
        self.metrics = MetricsRegistry()
        self.metrics.declare(executor_metric_schema())
        self.metrics.gauge("pool.workers", fn=lambda: self.num_workers)
        self.metrics.gauge("pool.workers.dead",
                           fn=lambda: sum(self.dead_workers))
        self.metrics.gauge("pool.backlog", fn=self.backlog)
        self.metrics.gauge("pool.batches.queued", fn=self._queued_batches)
        self.metrics.gauge("pool.batches.inflight", fn=self._inflight_batches)
        self.metrics.gauge("transport.segments.active",
                           fn=lambda: self._live_arena_stat("transport.segments.active"))
        self.metrics.gauge("transport.slots.live",
                           fn=lambda: self._live_arena_stat("transport.slots.live"))
        # Per-worker views the flat schema sums over: batches executed and
        # warm-load seconds (``pool.batches.executed`` / ``pool.warm.seconds``).
        self.executed_batches = [0] * self.num_workers
        self.warm_seconds = [0.0] * self.num_workers
        # A worker whose child process died and has not been respawned yet
        # (respawn is lazy, on the worker's next batch).  The
        # gateway's readiness probe reports not-ready while any entry is True.
        self.dead_workers = [False] * self.num_workers
        # Which artifacts each worker (probably) has resident — fed by warm
        # pre-fork and successful executions, consulted by batch splitting so
        # a split never forces a cold model load.  Approximate on purpose: a
        # stale entry costs one reload, never correctness.
        self._resident = [set() for _ in range(self.num_workers)]
        # Live child processes by worker id (their arenas back the
        # ``transport.segments.active`` / ``transport.slots.live`` gauges).
        self._processes = [None] * self.num_workers

    # ------------------------------------------------------------------
    # Metrics gauges
    # ------------------------------------------------------------------
    def _queued_batches(self):
        with self._lock:
            return len(self._batches)

    def _inflight_batches(self):
        with self._lock:
            return sum(1 for task in self._in_flight if task is not None)

    def _live_arena_stat(self, key):
        """Sum one instantaneous arena gauge across the live children."""
        with self._lock:
            live = [process for process in self._processes
                    if process is not None]
        return sum(process.arena.stats()[key] for process in live)

    def metrics_snapshot(self):
        """Flat ``{dotted-name: value}`` snapshot of the executor metrics."""
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Dispatch surface
    # ------------------------------------------------------------------
    def dispatch(self, task):
        """Queue a :class:`BatchTask` behind every batch dispatched before it.

        Raises :class:`ServiceOverloaded` when the queued-request total would
        exceed ``max_queue_depth`` (the task's completion hooks are *not*
        called — admission control happens before the batch is accepted) and
        :class:`PoolStopped` after :meth:`stop`.

        A multi-request batch arriving at an otherwise idle pool is split
        into one part per idle worker (and rejoined transparently) so low-
        concurrency traffic still uses the whole pool.
        """
        if not isinstance(task, BatchTask):
            raise TypeError("dispatch expects a BatchTask")
        with self._cond:
            # One critical section for the stopped-check AND the lazy start:
            # a dispatch racing stop() must either enqueue before the stop
            # (and be drained/discarded by it) or raise — never resurrect a
            # pool its owner just shut down.
            if self._stopping:
                raise PoolStopped("worker pool is stopped")
            self._start_locked()
            backlog = self._backlog_locked()
            if backlog + task.num_requests > self.max_queue_depth:
                self.metrics.counter("pool.requests.rejected").inc(
                    task.num_requests)
                raise ServiceOverloaded(
                    f"pool queue depth {backlog} + {task.num_requests} exceeds "
                    f"max_queue_depth={self.max_queue_depth}"
                )
            parts = self._split_locked(task, backlog)
            if parts is None:
                self._batches.append(task)
            else:
                self.metrics.counter("pool.splits").inc()
                self._batches.extend(parts)
            self.metrics.counter("pool.batches.dispatched").inc()
            self.metrics.gauge("pool.backlog.max").set_max(
                backlog + task.num_requests)
            self._cond.notify_all()

    def _split_locked(self, task, backlog):
        """Split ``task`` into one part per idle worker, or ``None`` to queue
        it whole.

        Only real multi-request batches split, only when nothing is queued
        (a backed-up pool already has parallelism) and at least two idle
        workers already hold the model (splitting must buy parallel model
        *execution*, never parallel model *loading* — after a warm pre-fork
        that is every worker).  Requests stay in order; each part is a
        normal :class:`BatchTask` whose hooks feed a :class:`_SplitJoin`.
        """
        if task.execute is not None or task.num_requests < 2 or backlog > 0:
            return None
        idle = sum(1 for wid in range(self.num_workers)
                   if self._in_flight[wid] is None and not self._warmups[wid]
                   and task.artifact_path in self._resident[wid])
        if idle < 2:
            return None
        num_parts = min(idle, task.num_requests)
        bounds = np.linspace(0, task.num_requests, num_parts + 1).astype(int)
        join = _SplitJoin(task, num_parts)
        parts = []
        for index in range(num_parts):
            on_done, on_error = join.hooks(index)
            parts.append(BatchTask(
                artifact_path=task.artifact_path,
                payloads=task.payloads[bounds[index]:bounds[index + 1]],
                on_done=on_done, on_error=on_error,
            ))
        return parts

    def backlog(self):
        """Queued (not yet executing) requests."""
        with self._lock:
            return self._backlog_locked()

    def wait_idle(self, timeout=None):
        """Block until no batch is queued or executing; ``True`` on success."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._batches
                and all(not warmups for warmups in self._warmups)
                and all(task is None for task in self._in_flight),
                timeout=timeout,
            )

    # ------------------------------------------------------------------
    # Warm pre-fork
    # ------------------------------------------------------------------
    def prewarm(self, artifact_path):
        """Queue a warm-load of ``artifact_path`` on every worker.

        Starts the pool if needed (publish-then-serve spawns the workers at
        publish time, not first-request time); a stopped pool ignores the
        call.  Returns the number of workers the warm-up was queued on; use
        :meth:`wait_idle` to block until the loads finish.
        """
        with self._cond:
            if self._stopping:
                return 0
            self._start_locked()
            for warmups in self._warmups:
                warmups.append(_WarmupTask(artifact_path))
            self._cond.notify_all()
        return self.num_workers

    def watch(self, registry):
        """Subscribe this pool to ``registry`` publishes: every published
        model is pre-loaded on every worker immediately (warm pre-fork), so
        its first request never pays the rehydration cost.  Returns self."""
        registry.subscribe(lambda resolved: self.prewarm(resolved.path))
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Start the worker threads (idempotent; ``dispatch`` calls it).

        An explicit ``start()`` also restarts a previously ``stop()``-ed
        pool; ``dispatch`` never does that implicitly.
        """
        with self._lock:
            self._stopping = False
            self._start_locked()
        return self

    def _start_locked(self):
        if self._started:
            return
        self._started = True
        # Fresh worker threads spawn fresh children: forget residency.
        self._resident = [set() for _ in range(self.num_workers)]
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(wid,),
                             name=f"{POOL_NAME}-{wid}", daemon=True)
            for wid in range(self.num_workers)
        ]
        for thread in self._threads:
            thread.start()

    def stop(self, drain=True):
        """Stop the workers.

        ``drain=True`` completes every queued batch first; ``drain=False``
        fails queued batches with :class:`PoolStopped` (in-flight batches
        still finish — a worker is never interrupted mid-model-call).
        Either way every worker's child process and shm arena are torn down
        before this returns.
        """
        discarded = []
        with self._cond:
            if not self._started:
                self._stopping = True
                return self
            self._stopping = True
            if not drain:
                discarded.extend(self._batches)
                self._batches.clear()
                for warmups in self._warmups:
                    warmups.clear()
            self._cond.notify_all()
        for task in discarded:
            task.on_error(PoolStopped("worker pool stopped before this batch ran"))
        for thread in self._threads:
            thread.join()
        with self._lock:
            self._threads = []
            self._started = False
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop(drain=True)
        return False

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _backlog_locked(self):
        return sum(task.num_requests for task in self._batches)

    def _take_locked(self, wid):
        """Next task for worker ``wid``: its own warm-ups first (each worker
        warms its own cache), then the oldest queued batch; ``None`` when
        both are empty."""
        for queue in (self._warmups[wid], self._batches):
            if queue:
                return queue.popleft()
        return None

    def _ensure_process(self, wid, process):
        """The worker's live child process, spawning one if needed."""
        if process is None:
            process = _WorkerProcess(f"{POOL_NAME}-proc-{wid}", self.metrics,
                                     max_loaded=self.max_loaded_per_worker)
            with self._lock:
                self.dead_workers[wid] = False
                self._processes[wid] = process
        return process

    def _retire_process(self, wid, process, *, crashed=False):
        """Drop a worker's child.  A crashed child is already closed (its
        arena destroyed) by :meth:`_WorkerProcess.run`; a clean retirement
        closes it here."""
        if process is None:
            return
        if not crashed:
            process.close()
        with self._lock:
            self._processes[wid] = None
            self._resident[wid].clear()
            if crashed:
                self.dead_workers[wid] = True

    def _warm_locked(self, wid, seconds, *, failed=False):
        if failed:
            self.metrics.counter("pool.warm.failures").inc()
        else:
            self.metrics.counter("pool.warm.models").inc()
            self.metrics.counter("pool.warm.seconds").inc(seconds)
            self.warm_seconds[wid] += seconds

    def _note_resident_locked(self, wid, artifact_path):
        """Record that ``wid``'s cache holds ``artifact_path`` (lock held).

        Bounded to the per-worker cache capacity; eviction here is arbitrary
        because the set is an approximation of the child's LRU, not a
        mirror of it."""
        resident = self._resident[wid]
        resident.add(artifact_path)
        while len(resident) > self.max_loaded_per_worker:
            resident.pop()

    def _run_warmup(self, wid, task, process):
        """Execute a :class:`_WarmupTask`; returns the (possibly respawned,
        possibly retired) child process handle."""
        started = time.perf_counter()
        try:
            process = self._ensure_process(wid, process)
            process.warm(task.artifact_path)
        except WorkerCrashed:
            self._retire_process(wid, process, crashed=True)
            process = None
            with self._lock:
                self._warm_locked(wid, 0.0, failed=True)
        except Exception:
            with self._lock:
                self._warm_locked(wid, 0.0, failed=True)
        else:
            with self._lock:
                self._warm_locked(wid, time.perf_counter() - started)
                self._note_resident_locked(wid, task.artifact_path)
        return process

    def _worker_loop(self, wid):
        process = None
        try:
            while True:
                with self._cond:
                    # Take before checking for stop: a draining stop has
                    # left the queue as it was, and ``stop(drain=False)``
                    # has already emptied it.
                    task = self._take_locked(wid)
                    while task is None:
                        if self._stopping:
                            return
                        self._cond.wait(timeout=0.1)
                        task = self._take_locked(wid)
                    self._in_flight[wid] = task
                if isinstance(task, _WarmupTask):
                    try:
                        process = self._run_warmup(wid, task, process)
                    finally:
                        with self._cond:
                            self._in_flight[wid] = None
                            self._cond.notify_all()
                    continue
                try:
                    # Injection points: a "stall" rule simulates a slow
                    # worker; a "crash" rule takes the exact WorkerCrashed
                    # path a real mid-batch death takes.  Both sit before the
                    # execute-hook branch so scheduling tests with dummy
                    # tasks exercise them too.
                    faults.inject("pool.worker_stall")
                    faults.inject("pool.worker_crash", error=WorkerCrashed)
                    if task.execute is not None:
                        raws = task.execute(wid)
                    else:
                        process = self._ensure_process(wid, process)
                        try:
                            raws = process.run(task)
                        except WorkerCrashed:
                            # The child died mid-batch: its arena is already
                            # destroyed (so the staged slots cannot leak);
                            # respawn lazily on the next batch.
                            self._retire_process(wid, process, crashed=True)
                            process = None
                            raise
                except BaseException as error:
                    # Resolve the batch's tickets whatever escaped — a ticket
                    # left pending blocks its client forever.  Exceptions are
                    # absorbed (the pool keeps serving); fatal signals
                    # (SystemExit, KeyboardInterrupt) re-raise after the
                    # tickets are resolved and still take the worker down.
                    if isinstance(error, WorkerCrashed):
                        # Count before on_error: callers observe the crash
                        # counter the moment their ticket resolves.
                        self.metrics.counter("pool.batches.crashed").inc()
                    task.on_error(error)
                    if not isinstance(error, Exception):
                        raise
                else:
                    if task.execute is None:
                        with self._lock:
                            self._note_resident_locked(wid, task.artifact_path)
                    task.on_done(raws)
                finally:
                    with self._cond:
                        self._in_flight[wid] = None
                        self.executed_batches[wid] += 1
                        self.metrics.counter("pool.batches.executed").inc()
                        self._cond.notify_all()
        finally:
            self._retire_process(wid, process)
