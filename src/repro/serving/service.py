"""Request-oriented imputation service with dynamic micro-batching.

:class:`ImputationService` is the in-process serving layer over a
:class:`~repro.serving.registry.ModelRegistry`: clients submit
:class:`ImputationRequest` objects (raw ``(values, observed_mask)`` windows
addressed to a ``name@version`` model spec) and receive
:class:`ImputationResponse` objects.  Concurrent requests for the same model
are coalesced by a dynamic micro-batcher into shared
:class:`~repro.inference.InferenceEngine` chunks, so the network runs one
forward per diffusion step for the whole batch instead of per request.

Batching semantics
------------------
* Requests are queued per resolved ``(name, version)``; a queue is flushed
  when it reaches ``max_batch_requests`` (size trigger) or when its oldest
  request has waited ``max_delay_seconds`` (deadline trigger — enforced by
  :meth:`ImputationService.poll`, the optional background worker, or the
  next blocking ``result()`` call, whichever comes first).
* Every request samples from its **own RNG stream** (its ``seed``, or a
  stream spawned from the service seed at submission): the response is
  bit-identical whatever the request was batched with — micro-batching is
  invisible except in latency/throughput.  ``tests/test_serving.py`` pins
  this against :meth:`ImputationService.serve` (the serve-alone reference).
* Heterogeneous window lengths are fine: the engine groups work items by
  shape and chunks within groups (``InferenceEngine.sample_plans``).
* Models without the plan protocol (the windowed baselines) are served
  per-request through the same queue — correctness first, coalescing where
  the backend supports it.

Execution semantics
-------------------
* Without an ``executor`` every flushed batch executes inline on the calling
  thread (serialised by one lock), exactly as before.
* With ``executor=WorkerPool(...)`` flushed batches are **dispatched** to the
  pool's shard queues instead: ``flush``/``poll`` return once the batches are
  queued, tickets resolve when a worker finishes, and consistent
  spec-to-shard routing keeps each worker's model cache hot (see
  :mod:`repro.serving.pool`).  ``response.batch_seconds`` then includes any
  time the batch waited in its shard queue.
* ``max_queue_depth`` adds service-level backpressure: a ``submit`` that
  would push the number of waiting requests (service queues + pool backlog)
  past the bound raises :class:`~repro.serving.pool.ServiceOverloaded`
  instead of queueing unboundedly.

Telemetry
---------
:meth:`ImputationService.metrics_snapshot` is the one counter surface: a
flat ``{dotted-name: number}`` dict covering the ``service.*`` counters
registered here, the ``registry.*`` LRU (read-through gauges), the
process-wide ``compiled.*`` counters of
:data:`repro.telemetry.PROCESS_METRICS` (which, behind a worker pool, also
carry the compiles its children ran), the executor's ``pool.*`` /
``transport.*`` names (zero-filled when the service runs inline, so the key
set never depends on the executor mode) and, once a gateway fronts the
service, its ``gateway.*`` names.  See :mod:`repro.telemetry`.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..metrics import imputation_metrics
from ..telemetry import PROCESS_METRICS, MetricsRegistry
from . import faults
from .errors import DeadlineExceeded, ServiceOverloaded
from .pool import BatchTask, RequestPayload, execute_batch, zero_executor_snapshot
from .registry import ModelRegistry, ResolvedModel
from .resilience import CircuitBreaker, counts_as_breaker_failure

__all__ = ["ImputationRequest", "ImputationResponse", "PendingImputation",
           "ImputationService", "SERVICE_METRIC_SCHEMA"]

#: The stable ``service.*`` metric schema every service registers up front,
#: so a snapshot's key set never depends on which code paths have run.
SERVICE_METRIC_SCHEMA = {
    "service.requests.served": "counter",
    "service.requests.coalesced": "counter",
    "service.requests.degraded": "counter",
    "service.requests.inflight": "gauge",
    "service.batches": "counter",
    "service.batch.max_requests": "gauge",
    "service.batch.seconds": "histogram",
    "service.retries": "counter",
    "service.rejections.deadline": "counter",
    "service.rejections.circuit": "counter",
    "service.deadline.expired": "counter",
    "service.queue.depth": "gauge",
    "service.circuits.open": "gauge",
}


@dataclass
class ImputationRequest:
    """One imputation request.

    Attributes
    ----------
    model:
        Registry spec, ``"name"`` (latest) or ``"name@version"``.
    values, observed_mask:
        ``(time, node)`` raw observations and visibility mask (mask defaults
        to "everything finite"); any length ≥ 1.
    num_samples:
        Posterior samples to draw.
    seed:
        Seed of the request's private RNG stream.  ``None`` lets the service
        spawn a stream from its own seed sequence at submission time.
    stride:
        Sliding-window stride for requests longer than the model window.
    deadline:
        Optional :class:`~repro.serving.resilience.Deadline` (on the
        service's clock).  A request whose deadline cannot be met — the
        remaining budget is under the expected queue wait plus the model's
        observed batch time — is rejected at admission with
        :class:`~repro.serving.errors.DeadlineExceeded` (or served degraded
        when the service has a fallback); one whose deadline expires while
        queued is rejected at flush.
    """

    model: str
    values: np.ndarray
    observed_mask: np.ndarray | None = None
    num_samples: int = 1
    seed: int | None = None
    stride: int | None = None
    deadline: object = None


@dataclass
class ImputationResponse:
    """The served result for one request."""

    model: str                     # resolved "name@version"
    median: np.ndarray             # (time, node)
    samples: np.ndarray            # (num_samples, time, node)
    values: np.ndarray             # request inputs, echoed
    observed_mask: np.ndarray
    batch_requests: int            # how many requests shared the flush
    queued_seconds: float          # submit -> flush start
    batch_seconds: float           # wall-clock of the shared flush
    degraded: bool = False         # served by the statistical fallback

    def metrics(self, target_values, eval_mask):
        """MAE / MSE / RMSE / CRPS via the shared metric implementation.

        Both arguments are required: ``target_values`` is the ground truth
        and ``eval_mask`` selects held-out entries to score.  (Scoring the
        response against its own observed inputs would be vacuous — observed
        entries pass through unchanged, so every metric would be zero.)
        """
        return imputation_metrics(self.median, self.samples,
                                  np.asarray(target_values), np.asarray(eval_mask))


class PendingImputation:
    """Handle for a submitted request; resolves to an :class:`ImputationResponse`.

    ``result()`` blocks until the micro-batcher has served the request.
    Without a background worker it *drives* the service: an unflushed queue
    is flushed on demand, so a bare submit/result pair never deadlocks.
    """

    def __init__(self, service, key):
        self._service = service
        self._key = key
        self._event = threading.Event()
        self._response = None
        self._error = None

    @property
    def done(self):
        return self._event.is_set()

    def _resolve(self, response, error=None):
        self._response = response
        self._error = error
        self._event.set()

    def result(self, timeout=None):
        if not self._event.is_set():
            if self._service._worker is None:
                # Drive the service ourselves; the event may still resolve on
                # another thread that popped our queue mid-flush, so honour
                # the caller's timeout either way.
                self._service.flush(self._key)
            if not self._event.wait(timeout):
                raise TimeoutError("imputation request not served in time")
        if self._error is not None:
            raise self._error
        return self._response


@dataclass
class _QueuedRequest:
    request: ImputationRequest
    ticket: PendingImputation
    rng: np.random.Generator
    enqueued_at: float
    deadline: float


class ImputationService:
    """Dynamic micro-batching front-end over a :class:`ModelRegistry`.

    Parameters
    ----------
    registry:
        The ``name@version`` artifact tree to serve from.
    max_batch_requests, max_delay_seconds, seed, clock:
        Micro-batching knobs, unchanged from the single-threaded service.
    executor:
        Optional :class:`~repro.serving.pool.WorkerPool` — flushed batches
        are dispatched to it instead of executing on the flushing thread.
        The service does not own the pool's lifecycle (one pool may back
        several services); :meth:`stop` only waits for this service's own
        dispatched requests to resolve.
    max_queue_depth:
        Optional admission bound on waiting requests (service queues plus
        executor backlog); ``submit`` past it raises
        :class:`~repro.serving.pool.ServiceOverloaded`.
    retry_policy:
        Optional :class:`~repro.serving.resilience.RetryPolicy` — failed
        batches are re-executed with each request's RNG stream restored to
        its pre-attempt state, so a retried response is bit-identical to a
        first-try one.  ``None`` (default) keeps the fail-fast behaviour.
    circuit_policy:
        Optional :class:`~repro.serving.resilience.CircuitBreakerPolicy` —
        one :class:`~repro.serving.resilience.CircuitBreaker` per resolved
        ``name@version``: repeated backend/load failures open the circuit
        and that model's requests are rejected at admission with
        :class:`~repro.serving.errors.CircuitOpen` until a half-open probe
        succeeds.  Capacity/lifecycle errors never count.
    fallback:
        Optional :class:`~repro.serving.resilience.FallbackRouter` — when a
        request is rejected by an open circuit or a no-headroom deadline, it
        is served immediately by the statistical fallback instead, with
        ``degraded=True`` on the response.
    """

    def __init__(self, registry, *, max_batch_requests=16, max_delay_seconds=0.005,
                 seed=0, clock=time.monotonic, executor=None, max_queue_depth=None,
                 retry_policy=None, circuit_policy=None, fallback=None):
        if not isinstance(registry, ModelRegistry):
            raise TypeError("registry must be a ModelRegistry")
        if max_batch_requests < 1:
            raise ValueError("max_batch_requests must be a positive integer")
        if max_delay_seconds < 0:
            raise ValueError("max_delay_seconds must be non-negative")
        if executor is not None and not hasattr(executor, "dispatch"):
            raise TypeError("executor must provide dispatch() (see WorkerPool)")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be a positive integer")
        self.registry = registry
        self.executor = executor
        self.max_queue_depth = None if max_queue_depth is None else int(max_queue_depth)
        self.max_batch_requests = int(max_batch_requests)
        self.max_delay_seconds = float(max_delay_seconds)
        self.clock = clock
        self.retry_policy = retry_policy
        self.circuit_policy = circuit_policy
        self.fallback = fallback
        self._seeds = np.random.SeedSequence(seed)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # Serialises model execution: the registry LRU and the networks are
        # not re-entrant, and CPU inference gains nothing from overlap.
        self._serve_lock = threading.Lock()
        self._queues = {}              # (name, version) -> [_QueuedRequest]
        self._resolved = {}            # (name, version) -> ResolvedModel
        self._inflight_requests = 0    # popped off the queues, tickets pending
        self._worker = None
        self._stop_worker = False
        # Resilience state: per-model breakers, an EWMA of observed batch
        # execution time (feeds deadline admission), and a dedicated jitter
        # RNG for retry backoff (never the request streams — those must stay
        # untouched between attempts for bit-identical replays).
        self._breakers = {}            # (name, version) -> CircuitBreaker
        self._batch_ewma = {}          # (name, version) -> seconds
        self._retry_lock = threading.Lock()
        self._retry_rng = np.random.default_rng(
            np.random.SeedSequence([int(seed) if np.isscalar(seed) else 0, 0x7e7]))
        # Instrumentation: every serving counter lives in the typed registry
        # under its dotted stable name.  The registry LRU registers itself as
        # read-through gauges; metrics_snapshot() adds the executor's and the
        # process-wide registries, so one snapshot covers the whole stack.
        self.metrics = MetricsRegistry()
        self.metrics.declare(SERVICE_METRIC_SCHEMA)
        self.metrics.gauge("service.queue.depth", fn=self.pending)
        self.metrics.gauge("service.requests.inflight",
                           fn=lambda: self._inflight_requests)
        self.metrics.gauge("service.circuits.open", fn=self._open_circuits)
        registry.register_metrics(self.metrics)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, request):
        """Queue a request; returns a :class:`PendingImputation` ticket.

        Resolution happens eagerly (unknown specs fail here, not at flush);
        reaching ``max_batch_requests`` pending requests for one model
        triggers an immediate flush of that model's queue.  With
        ``max_queue_depth`` set, a submit that would exceed it is rejected
        with :class:`~repro.serving.pool.ServiceOverloaded` before a ticket
        is issued — load shedding happens at admission, not mid-flight.
        """
        if not isinstance(request, ImputationRequest):
            raise TypeError("submit expects an ImputationRequest")
        if self.max_queue_depth is not None:
            waiting = self.pending()
            if self.executor is not None:
                waiting += self.executor.backlog()
            if waiting >= self.max_queue_depth:
                raise ServiceOverloaded(
                    f"{waiting} requests already waiting "
                    f"(max_queue_depth={self.max_queue_depth})"
                )
        resolved = self.registry.resolve(request.model)
        admission_error, degradable = self._admission_error(resolved, request)
        if admission_error is not None:
            if degradable and self.fallback is not None:
                return self._serve_degraded(resolved, request)
            raise admission_error
        key = (resolved.name, resolved.version)
        rng = self._request_rng(request)
        ticket = PendingImputation(self, key)
        now = self.clock()
        entry = _QueuedRequest(request=request, ticket=ticket, rng=rng,
                               enqueued_at=now,
                               deadline=now + self.max_delay_seconds)
        size_triggered = False
        with self._cond:
            self._resolved[key] = resolved
            queue = self._queues.setdefault(key, [])
            queue.append(entry)
            size_triggered = len(queue) >= self.max_batch_requests
            self._cond.notify_all()
        if size_triggered and self._worker is None:
            self.flush(key)
        return ticket

    def serve(self, request):
        """Serve one request immediately, alone — the reference path a
        *seeded* micro-batched response is bit-identical to.  (An unseeded
        request gets a fresh stream spawned per call, exactly as ``submit``
        does, so its samples are independent — not repeatable.)"""
        if not isinstance(request, ImputationRequest):
            raise TypeError("serve expects an ImputationRequest")
        resolved = self.registry.resolve(request.model)
        admission_error, degradable = self._admission_error(resolved, request)
        if admission_error is not None:
            if degradable and self.fallback is not None:
                return self._serve_degraded(resolved, request).result()
            raise admission_error
        rng = self._request_rng(request)
        ticket = PendingImputation(self, (resolved.name, resolved.version))
        now = self.clock()
        entry = _QueuedRequest(request=request, ticket=ticket, rng=rng,
                               enqueued_at=now, deadline=now)
        self._process_batch(resolved, [entry])
        return ticket.result()

    def flush(self, model=None):
        """Serve all pending requests now (one model's queue, or every queue).

        ``model`` may be a spec string or a ``(name, version)`` key; returns
        the number of requests served.
        """
        key_filter = None if model is None else self._to_key(model)
        # Injection point: a stall (or failure) before any queue is popped —
        # no ticket is stranded because nothing has left the queues yet.
        faults.inject("service.queue_stall")
        batches = []
        with self._lock:
            for key in list(self._queues):
                if key_filter is not None and key != key_filter:
                    continue
                queue = self._queues.pop(key)
                if queue:
                    batches.append((self._resolved[key], queue))
        return self._run_batches(batches)

    def poll(self):
        """Serve the queues whose deadline or size trigger has fired."""
        faults.inject("service.queue_stall")
        now = self.clock()
        batches = []
        with self._lock:
            for key in list(self._queues):
                queue = self._queues[key]
                if not queue:
                    continue
                if len(queue) >= self.max_batch_requests or queue[0].deadline <= now:
                    batches.append((self._resolved[key], self._queues.pop(key)))
        return self._run_batches(batches)

    def pending(self):
        """Number of queued, not yet served requests."""
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    def _request_rng(self, request):
        """The request's private noise stream: its seed, else a stream
        spawned from the service seed sequence (one per call, so unseeded
        requests are independent of each other and of batching)."""
        if request.seed is not None:
            return np.random.default_rng(request.seed)
        with self._lock:
            return np.random.default_rng(self._seeds.spawn(1)[0])

    # ------------------------------------------------------------------
    # Resilience: admission, breakers, degraded mode
    # ------------------------------------------------------------------
    def _breaker(self, key):
        """The model's circuit breaker (created on first use; ``None`` when
        breakers are disabled)."""
        if self.circuit_policy is None:
            return None
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(self.circuit_policy, clock=self.clock)
                self._breakers[key] = breaker
            return breaker

    def _expected_batch_seconds(self, key):
        """EWMA of the model's observed batch execution time (0 when cold)."""
        with self._lock:
            return self._batch_ewma.get(key, 0.0)

    def _admission_error(self, resolved, request):
        """Admission-control verdict for a request: ``(error, degradable)``.

        ``error`` is ``None`` when the request is admitted.  ``degradable``
        marks rejections the fallback may absorb: an open circuit, or a
        deadline with *some* budget left but not enough for the primary path
        (an already-expired deadline is never degradable — the answer would
        be late no matter who computes it).
        """
        key = (resolved.name, resolved.version)
        if request.deadline is not None:
            remaining = request.deadline.remaining(self.clock())
            expected = self.max_delay_seconds + self._expected_batch_seconds(key)
            if remaining < expected:
                self.metrics.counter("service.rejections.deadline").inc()
                error = DeadlineExceeded(
                    f"deadline leaves {max(remaining, 0.0) * 1000.0:.1f} ms "
                    f"but queue wait + expected batch time is "
                    f"{expected * 1000.0:.1f} ms")
                return error, remaining > 0.0
        breaker = self._breaker(key)
        if breaker is not None and not breaker.allow():
            self.metrics.counter("service.rejections.circuit").inc()
            return breaker.reject_error(resolved.spec), True
        return None, False

    def _serve_degraded(self, resolved, request):
        """Serve a request through the statistical fallback, immediately, on
        the calling thread; returns an already-resolved ticket whose
        response is tagged ``degraded=True``."""
        started = self.clock()
        ticket = PendingImputation(self, (resolved.name, resolved.version))
        try:
            raw = self.fallback.impute(request.values, request.observed_mask,
                                       num_samples=request.num_samples)
        except Exception as error:
            ticket._resolve(None, error)
            return ticket
        self.metrics.counter("service.requests.degraded").inc()
        ticket._resolve(ImputationResponse(
            model=resolved.spec,
            median=raw.median,
            samples=raw.samples,
            values=raw.values,
            observed_mask=raw.observed_mask,
            batch_requests=1,
            queued_seconds=0.0,
            batch_seconds=self.clock() - started,
            degraded=True,
        ))
        return ticket

    def _record_success(self, key):
        breaker = self.circuit_policy and self._breakers.get(key)
        if breaker:
            breaker.record_success()

    def _record_failure(self, key, error):
        """Count an execution failure toward the model's breaker — unless it
        is a capacity/lifecycle rejection, which says nothing about the
        backend's health."""
        if self.circuit_policy is None or not counts_as_breaker_failure(error):
            return
        self._breaker(key).record_failure()

    def _backoff_sleep(self, attempts_made):
        """Sleep the policy's backoff before retry ``attempts_made`` (the
        jitter draw comes from the service's own RNG, never a request's)."""
        self.metrics.counter("service.retries").inc()
        with self._retry_lock:
            delay = self.retry_policy.backoff_seconds(attempts_made,
                                                      self._retry_rng)
        time.sleep(delay)

    def circuits(self):
        """Per-model circuit state, ``{"name@version": snapshot}``."""
        with self._lock:
            breakers = dict(self._breakers)
        return {f"{name}@{version}": breaker.snapshot()
                for (name, version), breaker in breakers.items()}

    def any_circuit_open(self):
        """Is any model's circuit currently open (readiness probe input)?
        A half-open circuit is probing its way back and does not count."""
        return any(snapshot["state"] == "open"
                   for snapshot in self.circuits().values())

    def _open_circuits(self):
        """How many circuits are currently open (gauge callback)."""
        return sum(1 for snapshot in self.circuits().values()
                   if snapshot["state"] == "open")

    def metrics_snapshot(self):
        """One flat ``{dotted_name: number}`` snapshot of the whole stack.

        The key set is stable across executor modes: executor metrics are
        zero-filled when the service runs inline, live when a pool is
        attached (folding its worker counters — and its children's compile
        counters into the process-wide registry — first).  Never call this
        while holding the service or pool lock — gauge callbacks take them.
        """
        snapshot = zero_executor_snapshot()
        if self.executor is not None and hasattr(self.executor, "metrics_snapshot"):
            snapshot.update(self.executor.metrics_snapshot())
        snapshot.update(PROCESS_METRICS.snapshot())
        snapshot.update(self.metrics.snapshot())
        return snapshot

    # ------------------------------------------------------------------
    # Background worker (deadline enforcement without client polling)
    # ------------------------------------------------------------------
    def start(self):
        """Start the background flush worker (idempotent)."""
        with self._lock:
            if self._worker is not None:
                return self
            self._stop_worker = False
            self._worker = threading.Thread(target=self._worker_loop,
                                            name="imputation-service", daemon=True)
        self._worker.start()
        return self

    def stop(self):
        """Stop the worker and serve whatever is still queued.

        With an executor the final flush *dispatches* the stragglers; the
        call then blocks until **this service's** in-flight requests have all
        resolved, so every ticket issued before ``stop`` is resolved when it
        returns.  (The pool itself keeps running — it may back other
        services — stop it separately.)
        """
        with self._cond:
            worker, self._worker = self._worker, None
            self._stop_worker = True
            self._cond.notify_all()
        if worker is not None:
            worker.join()
        self.flush()
        with self._cond:
            self._cond.wait_for(lambda: self._inflight_requests == 0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False

    def _worker_loop(self):
        while True:
            with self._cond:
                if self._stop_worker:
                    return
                now = self.clock()
                deadlines = [queue[0].deadline
                             for queue in self._queues.values() if queue]
                due = any(len(queue) >= self.max_batch_requests
                          for queue in self._queues.values())
                due = due or any(deadline <= now for deadline in deadlines)
                if not due:
                    timeout = min(deadlines) - now if deadlines else None
                    self._cond.wait(timeout=timeout)
                    continue
            try:
                self.poll()
            except Exception:       # pragma: no cover - tickets carry the error
                pass

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _run_batches(self, batches):
        """Serve (or dispatch) each popped batch; one model's failure must
        not strand the others (their entries are already off the queues, so
        skipping them would leave their tickets unresolvable).  The first
        error re-raises after every batch has been driven — each failed
        batch's tickets already carry their own error."""
        served = 0
        first_error = None
        for resolved, queue in batches:
            queue = self._reject_expired(queue)
            if not queue:
                continue
            try:
                if self.executor is not None:
                    self._dispatch_batch(resolved, queue)
                else:
                    self._process_batch(resolved, queue)
            except Exception as error:
                if first_error is None:
                    first_error = error
            served += len(queue)
        if first_error is not None:
            raise first_error
        return served

    def _reject_expired(self, queue):
        """Resolve entries whose request deadline lapsed while queued with
        :class:`DeadlineExceeded` (imputing them would only be late); returns
        the still-live remainder.  The rejected entries were never tracked
        as in-flight, so their tickets resolve directly."""
        now = self.clock()
        live = []
        for entry in queue:
            deadline = entry.request.deadline
            if deadline is not None and deadline.expired(now):
                self.metrics.counter("service.deadline.expired").inc()
                entry.ticket._resolve(None, DeadlineExceeded(
                    "deadline expired while the request was queued"))
            else:
                live.append(entry)
        return live

    @staticmethod
    def _payload(entry):
        """The entry's picklable execution inputs (see :mod:`.pool`)."""
        return RequestPayload(
            values=entry.request.values,
            observed_mask=entry.request.observed_mask,
            num_samples=entry.request.num_samples,
            rng=entry.rng,
            stride=entry.request.stride,
        )

    def _track(self, count):
        """Count ``count`` requests as executing (inline or on the executor);
        :meth:`_complete` / :meth:`_fail` balance it when tickets resolve."""
        with self._cond:
            self._inflight_requests += count

    def _untrack(self, count):
        with self._cond:
            self._inflight_requests -= count
            self._cond.notify_all()

    def _process_batch(self, resolved, entries):
        """Serve one model's micro-batch inline; tickets absorb any failure.

        With a :class:`~repro.serving.resilience.RetryPolicy`, a failed
        attempt restores every request's RNG stream to its pre-attempt state
        and re-executes — a replay draws the exact noise a first-try
        execution would, so retried responses stay bit-identical.
        """
        started = self.clock()
        key = (resolved.name, resolved.version)
        payloads = [self._payload(entry) for entry in entries]
        states = (_rng_states(payloads)
                  if self.retry_policy is not None else None)
        self._track(len(entries))
        attempts = 0
        while True:
            attempts += 1
            try:
                with self._serve_lock:
                    # Injection point: the flush itself failing (inside the
                    # try, so the tickets resolve with the error).
                    faults.inject("service.flush")
                    backend = self.registry.backend(resolved)
                    raws = execute_batch(backend, payloads)
                break
            except Exception as error:
                if (self.retry_policy is not None
                        and self.retry_policy.should_retry(error, attempts)):
                    _restore_rng_states(payloads, states)
                    self._backoff_sleep(attempts)
                    continue
                self._record_failure(key, error)
                self._fail(entries, error)
                raise
        self._record_success(key)
        self._complete(resolved, entries, raws, started)

    def _dispatch_batch(self, resolved, entries):
        """Hand one model's micro-batch to the executor's shard queue.

        The completion hooks run on the pool's parent-side worker thread; a
        dispatch-time
        rejection (pool overloaded or stopped) resolves the tickets here and
        re-raises so the flusher sees it.  With a retry policy, a retryable
        worker failure (e.g. a crashed worker) re-dispatches the batch with
        restored RNG streams instead of failing the tickets.
        """
        started = self.clock()
        key = (resolved.name, resolved.version)
        payloads = [self._payload(entry) for entry in entries]
        states = (_rng_states(payloads)
                  if self.retry_policy is not None else None)
        attempts = [0]

        def on_done(raws):
            self._record_success(key)
            self._complete(resolved, entries, raws, started)

        def on_error(error):
            # Runs on the pool worker's thread.  Re-dispatch sends the batch
            # back through admission, so a retry can still be rejected
            # (overloaded/stopped) — that rejection then fails the tickets.
            if (self.retry_policy is not None
                    and self.retry_policy.should_retry(error, attempts[0])):
                _restore_rng_states(payloads, states)
                self._backoff_sleep(attempts[0])
                try:
                    dispatch()
                    return
                except Exception as redispatch_error:
                    error = redispatch_error
            self._record_failure(key, error)
            self._fail(entries, error)

        def dispatch():
            attempts[0] += 1
            self.executor.dispatch(BatchTask(
                spec=resolved.spec,
                artifact_path=resolved.path,
                payloads=payloads,
                on_done=on_done,
                on_error=on_error,
                # The publish generation lets worker caches skip the artifact
                # staleness probe for steady-state batches (see BackendCache).
                generation=self.registry.generation,
            ))

        self._track(len(entries))
        try:
            dispatch()
        except Exception as error:
            # Rejected before the pool accepted it (overload/stopped), so the
            # completion hooks will never fire — resolve the tickets here.
            self._record_failure(key, error)
            self._fail(entries, error)
            raise

    def _fail(self, entries, error):
        # Tickets resolve BEFORE the in-flight count drops: stop() returns
        # when the count hits zero, and its contract is that every ticket is
        # resolved by then.
        for entry in entries:
            entry.ticket._resolve(None, error)
        self._untrack(len(entries))

    def _complete(self, resolved, entries, raws, started):
        """Resolve a served batch's tickets and update the counters."""
        batch_seconds = self.clock() - started
        key = (resolved.name, resolved.version)
        self.metrics.counter("service.batches").inc()
        self.metrics.counter("service.requests.served").inc(len(entries))
        self.metrics.gauge("service.batch.max_requests").set_max(len(entries))
        self.metrics.histogram("service.batch.seconds").observe(batch_seconds)
        if len(entries) > 1:
            self.metrics.counter("service.requests.coalesced").inc(len(entries))
        with self._lock:
            # Feed deadline admission: an EWMA of this model's batch time
            # (includes queue-to-worker wait in executor mode, which is the
            # latency a newly admitted request would actually see).
            previous = self._batch_ewma.get(key)
            self._batch_ewma[key] = (batch_seconds if previous is None
                                     else 0.7 * previous + 0.3 * batch_seconds)
        for entry, raw in zip(entries, raws):
            response = ImputationResponse(
                model=resolved.spec,
                median=raw.median,
                samples=raw.samples,
                values=raw.values,
                observed_mask=raw.observed_mask,
                batch_requests=len(entries),
                queued_seconds=max(started - entry.enqueued_at, 0.0),
                batch_seconds=batch_seconds,
            )
            entry.ticket._resolve(response)
        # After the tickets: see _fail for the ordering contract with stop().
        self._untrack(len(entries))

    def _to_key(self, model):
        if isinstance(model, tuple):
            return model
        if isinstance(model, ResolvedModel):
            return (model.name, model.version)
        resolved = self.registry.resolve(model)
        return (resolved.name, resolved.version)


def _rng_states(payloads):
    """Snapshot every payload's RNG stream state (pre-attempt), so a retry
    can replay the batch bit-identically: the inline execution path draws
    from ``payload.rng`` in place."""
    return [copy.deepcopy(payload.rng.bit_generator.state)
            if payload.rng is not None else None
            for payload in payloads]


def _restore_rng_states(payloads, states):
    for payload, state in zip(payloads, states):
        if state is not None:
            payload.rng.bit_generator.state = copy.deepcopy(state)
