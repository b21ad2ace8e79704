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
* Requests are queued per resolved ``(name, version)``.  A queue is due
  when any of three triggers fires:

  - **size** — it holds ``max_batch_requests`` requests;
  - **cohort** — it holds as many requests as the largest of the model's
    last four flushed batches (the model's *cohort*, keyed by model name,
    so a newly published version inherits it).  Lockstep clients, such as
    streaming sessions ticking together, are served the moment the last of
    them has arrived instead of idling out the timer; a model with no
    flushed batch yet has no cohort;
  - **deadline** — its oldest request has waited ``max_delay_seconds``.
    This is the upper bound: the cohort trigger only ever flushes earlier.

  :meth:`ImputationService.poll` and the optional background worker serve
  due queues through one predicate; the next blocking ``result()`` call
  without a worker flushes its queue on demand.  ``submit`` itself flushes
  inline (no worker started) only at ``max_batch_requests``.
* Every request samples from its **own RNG stream**, fixed at submission as
  a ``numpy.random.SeedSequence`` (its ``seed``, or one spawned from the
  service seed) and built afresh on every execution attempt: the response
  is bit-identical whatever the request was batched with, inline, pooled or
  retried.  ``tests/test_serving.py`` pins this against
  :meth:`ImputationService.serve` (the serve-alone reference).
* Heterogeneous window lengths are fine: the engine groups work items by
  shape and chunks within groups (``DiffusionBackend.sample_jobs`` →
  ``InferenceEngine.sample_plans``).
* Models without the plan protocol (the windowed baselines) are served
  per-request through the same queue — correctness first, coalescing where
  the backend supports it.

Execution semantics
-------------------
* One lifecycle: ``submit`` and ``serve`` share one admission step, and
  every flushed batch becomes one :class:`~repro.serving.pool.BatchTask`
  whose completion hooks own the retry decision and backoff, the circuit
  breaker's bookkeeping and ticket resolution.  Inline and pooled batches
  differ only in how that task is sent.
* Without an ``executor`` (and always for ``serve``) it runs on the calling
  thread, serialised by one lock, running what a pool child runs:
  :func:`~repro.serving.pool.execute_batch` over this process's resident
  backend (:func:`~repro.inference.backend.process_backend`).  A flush
  returns with every ticket resolved and re-raises a batch's final error.
* With ``executor=WorkerPool(...)`` it is **dispatched** to the pool's one
  FIFO queue: ``flush``/``poll`` return once the batches are queued (and
  raise only a rejection at dispatch), tickets resolve when the idle worker
  that took the batch finishes, and a retry goes back through the pool's
  admission (see :mod:`repro.serving.pool`).  ``response.batch_seconds``
  then includes any time the batch waited in the pool queue.
* ``max_queue_depth`` adds service-level backpressure: a ``submit`` that
  would push the number of waiting requests (service queues + pool backlog)
  past the bound raises :class:`~repro.serving.pool.ServiceOverloaded`
  instead of queueing unboundedly.

Telemetry
---------
:meth:`ImputationService.metrics_snapshot` is the one counter surface: a
flat ``{dotted-name: number}`` dict covering the ``service.*`` counters
registered here, the process-wide ``registry.cache.*`` and ``compiled.*``
counters of :data:`repro.telemetry.PROCESS_METRICS` (which, behind a worker
pool, also carry the model loads and compiles its children ran), the
``registry.models.resident`` gauge over this process's backend cache, the
executor's ``pool.*`` / ``transport.*`` names (zero-filled when the service
runs inline, so the key set never depends on the executor mode) and, once a
gateway fronts the service, its ``gateway.*`` names.  See
:mod:`repro.telemetry`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..inference.backend import process_backend, resident_backends
from ..metrics import imputation_metrics
from ..telemetry import PROCESS_METRICS, MetricsRegistry
from . import faults
from .errors import DeadlineExceeded, ServiceOverloaded
from .pool import BatchTask, RequestPayload, execute_batch, zero_executor_snapshot
from .registry import ModelRegistry, ResolvedModel
from .resilience import CircuitBreaker, counts_as_breaker_failure

__all__ = ["ImputationRequest", "ImputationResponse", "PendingImputation",
           "ImputationService", "SERVICE_METRIC_SCHEMA"]

#: How many of a model's most recent flushed batches its cohort spans: one
#: batch cut short by a late arrival does not shrink the cohort at once.
_COHORT_BATCHES = 4

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
        Seed of the request's private RNG stream: anything
        ``numpy.random.SeedSequence`` accepts (a non-negative int or a
        sequence of them).  ``None`` lets the service spawn one from its own
        seed sequence at submission time.
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

    @property
    def failed(self):
        return self._event.is_set() and self._error is not None

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
    seed: np.random.SeedSequence
    enqueued_at: float
    deadline: float


class ImputationService:
    """Dynamic micro-batching front-end over a :class:`ModelRegistry`.

    Parameters
    ----------
    registry:
        The ``name@version`` artifact tree to serve from.
    max_batch_requests, max_delay_seconds, seed, clock:
        Micro-batching knobs: the largest batch, the longest a request waits
        in its queue (see "Batching semantics" above), the seed unseeded
        requests' streams are spawned from, and the time source.
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
        batches are re-executed, every attempt drawing a fresh stream from
        each request's seed, so a retried response is bit-identical to a
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
        # Serialises model execution: the networks are not re-entrant, and
        # CPU inference gains nothing from overlap.
        self._serve_lock = threading.Lock()
        # (name, version) -> (ResolvedModel, [_QueuedRequest]); a queue and
        # its resolved model leave together when the queue is flushed.
        self._queues = {}
        # name -> sizes of the model's last _COHORT_BATCHES flushed batches.
        self._recent_batches = {}
        self._inflight_requests = 0    # popped off the queues, tickets pending
        self._worker = None
        self._stop_worker = False
        # Resilience state: per-version breakers, a per-name EWMA of observed
        # batch execution time (feeds deadline admission), and a dedicated
        # jitter RNG for retry backoff (never a request's stream).
        self._breakers = {}            # (name, version) -> CircuitBreaker
        self._batch_ewma = {}          # name -> seconds
        self._retry_lock = threading.Lock()
        self._retry_rng = np.random.default_rng(
            np.random.SeedSequence([int(seed) if np.isscalar(seed) else 0, 0x7e7]))
        # Instrumentation: every serving counter lives in the typed registry
        # under its dotted stable name; metrics_snapshot() adds the
        # executor's and the process-wide registries, so one snapshot covers
        # the whole stack.
        self.metrics = MetricsRegistry()
        self.metrics.declare(SERVICE_METRIC_SCHEMA)
        self.metrics.gauge("service.queue.depth", fn=self.pending)
        self.metrics.gauge("service.requests.inflight",
                           fn=lambda: self._inflight_requests)
        self.metrics.gauge("service.circuits.open", fn=self._open_circuits)
        self.metrics.gauge("registry.models.resident", fn=resident_backends)

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
        if self.max_queue_depth is not None:
            waiting = self.waiting()
            if waiting >= self.max_queue_depth:
                raise ServiceOverloaded(
                    f"{waiting} requests already waiting "
                    f"(max_queue_depth={self.max_queue_depth})"
                )
        resolved, entry = self._admit(request, self.max_delay_seconds)
        if entry.ticket.done:
            return entry.ticket
        key = (resolved.name, resolved.version)
        with self._cond:
            _, queue = self._queues.setdefault(key, (resolved, []))
            queue.append(entry)
            size_triggered = len(queue) >= self.max_batch_requests
            self._cond.notify_all()
        if size_triggered and self._worker is None:
            self.flush(key)
        return entry.ticket

    def serve(self, request):
        """Serve one request immediately, alone — the reference path a
        *seeded* micro-batched response is bit-identical to.  (An unseeded
        request gets a fresh stream spawned per call, exactly as ``submit``
        does, so its samples are independent — not repeatable.)  It runs
        inline on the calling thread even when a pool is attached."""
        resolved, entry = self._admit(request, 0.0)
        if not entry.ticket.done:
            self._process_batch(resolved, [entry])
        return entry.ticket.result()

    def _admit(self, request, wait):
        """Admission for ``submit`` and ``serve``: resolve, check, apply
        deadline and circuit admission and fix the seed.  Returns
        ``(resolved, entry)``, the entry due in ``wait`` seconds; its ticket
        is already resolved when the fallback served the request."""
        if not isinstance(request, ImputationRequest):
            raise TypeError("expected an ImputationRequest")
        resolved = self.registry.resolve(request.model)
        self._check_request(resolved, request)
        ticket = PendingImputation(self, (resolved.name, resolved.version))
        seed = None
        admission_error, degradable = self._admission_error(resolved, request)
        if admission_error is None:
            # The request's own noise seed, else one spawned per call (so
            # unseeded requests are independent); a bad seed fails here.
            if request.seed is not None:
                seed = np.random.SeedSequence(request.seed)
            else:
                with self._lock:
                    seed = self._seeds.spawn(1)[0]
        elif degradable and self.fallback is not None:
            self._serve_degraded(resolved, request, ticket)
        else:
            raise admission_error
        now = self.clock()
        return resolved, _QueuedRequest(request=request, ticket=ticket,
                                        seed=seed, enqueued_at=now,
                                        deadline=now + wait)

    def flush(self, model=None):
        """Serve all pending requests now (one model's queue, or every queue).

        ``model`` may be a spec string or a ``(name, version)`` key; returns
        the number of requests served.
        """
        key_filter = None if model is None else self._to_key(model)
        # Injection point: a stall (or failure) before any queue is popped —
        # no ticket is stranded because nothing has left the queues yet.
        faults.inject("service.queue_stall")
        with self._lock:
            batches = [self._pop_queue(key) for key in list(self._queues)
                       if key_filter is None or key == key_filter]
        return self._run_batches(batches)

    def poll(self):
        """Serve the queues whose size, cohort or deadline trigger has fired."""
        faults.inject("service.queue_stall")
        now = self.clock()
        with self._lock:
            batches = [self._pop_queue(key)
                       for key, (_, queue) in list(self._queues.items())
                       if self._due(key, queue, now)]
        return self._run_batches(batches)

    def pending(self):
        """Number of queued, not yet served requests."""
        with self._lock:
            return sum(len(queue) for _, queue in self._queues.values())

    def waiting(self):
        """Requests waiting to run: this service's queues plus the
        executor's backlog (what ``max_queue_depth`` bounds)."""
        waiting = self.pending()
        if self.executor is not None:
            waiting += self.executor.backlog()
        return waiting

    def _due(self, key, queue, now):
        """Has one of the queue's flush triggers fired?  Caller holds the lock.

        The size and cohort triggers are one comparison: without a flushed
        batch to learn from, the cohort is ``max_batch_requests``.
        """
        cohort = self.max_batch_requests
        recent = self._recent_batches.get(key[0])
        if recent:
            cohort = min(max(recent), cohort)
        return len(queue) >= cohort or queue[0].deadline <= now

    def _pop_queue(self, key):
        """Take a model's queue for flushing and count its size toward the
        model's cohort; returns ``(resolved, entries)``.  Caller holds the
        lock."""
        resolved, queue = self._queues.pop(key)
        self._recent_batches.setdefault(
            resolved.name, deque(maxlen=_COHORT_BATCHES)).append(len(queue))
        return resolved, queue

    # ------------------------------------------------------------------
    # Resilience: admission, breakers, degraded mode
    # ------------------------------------------------------------------
    def _breaker(self, key):
        """The model's breaker, created on first use.  Creating one drops
        the breakers of the name's other versions that have never failed
        and never opened: they are indistinguishable from a fresh breaker,
        so a rollout keeps one per name, plus any that have failed.
        Caller holds the lock."""
        breaker = self._breakers.get(key)
        if breaker is None:
            for other in [other for other in self._breakers
                          if other[0] == key[0]]:
                if self._breakers[other].snapshot() == {
                        "state": "closed", "consecutive_failures": 0,
                        "opened_total": 0}:
                    del self._breakers[other]
            breaker = CircuitBreaker(self.circuit_policy, clock=self.clock)
            self._breakers[key] = breaker
        return breaker

    def _expected_batch_seconds(self, name):
        """EWMA of the model's observed batch execution time (0 when cold)."""
        with self._lock:
            return self._batch_ewma.get(name, 0.0)

    def _check_request(self, resolved, request):
        """Refuse a request the model cannot run — a shape, sample count or
        stride it would reject: in a micro-batch it would fail every request
        it shares the flush with, and count against the model's circuit.
        Shapes come from the manifest, so no model is loaded."""
        values = np.asarray(request.values)
        expected = self.registry.num_nodes(resolved)
        if values.ndim != 2 or values.shape[1] != expected:
            raise ValueError(
                f"request values are {values.shape}, but {resolved.spec} "
                f"expects (time, {expected}) — one column per node")
        if values.shape[0] < 1:
            raise ValueError("request must contain at least one time step")
        if (request.observed_mask is not None
                and np.shape(request.observed_mask) != values.shape):
            raise ValueError(
                f"observed_mask is {np.shape(request.observed_mask)}, but "
                f"values are {values.shape}")
        if int(request.num_samples) < 1:
            raise ValueError("num_samples must be a positive integer")
        window = self.registry.window_length(resolved)
        # A zero or unset stride means the window length (see plan_request).
        if request.stride and not 1 <= request.stride <= window:
            raise ValueError(f"stride must be in [1, window_length={window}] "
                             f"(got {request.stride})")

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
            expected = (self.max_delay_seconds
                        + self._expected_batch_seconds(resolved.name))
            if remaining < expected:
                self.metrics.counter("service.rejections.deadline").inc()
                error = DeadlineExceeded(
                    f"deadline leaves {max(remaining, 0.0) * 1000.0:.1f} ms "
                    f"but queue wait + expected batch time is "
                    f"{expected * 1000.0:.1f} ms")
                return error, remaining > 0.0
        if self.circuit_policy is not None:
            with self._lock:
                breaker = self._breaker(key)
            if not breaker.allow():
                self.metrics.counter("service.rejections.circuit").inc()
                return breaker.reject_error(resolved.spec), True
        return None, False

    def _serve_degraded(self, resolved, request, ticket):
        """Serve a request through the statistical fallback, immediately, on
        the calling thread; resolves ``ticket`` with a response tagged
        ``degraded=True``."""
        started = self.clock()
        try:
            raw = self.fallback.impute(request.values, request.observed_mask,
                                       num_samples=request.num_samples)
        except Exception as error:
            ticket._resolve(None, error)
            return
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
        attached (its children's model-cache and compile counters reach the
        process-wide registry with each batch reply).  Never call this
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
        returns.  A batch error does not escape, since its tickets carry
        it; a flush that fails before it serves anything does.
        (The pool itself keeps running — it may back other services — stop
        it separately.)
        """
        with self._cond:
            worker, self._worker = self._worker, None
            self._stop_worker = True
            self._cond.notify_all()
        if worker is not None:
            worker.join()
        try:
            self.flush()
        except Exception:
            # A failed batch's tickets carry its error; only a flush that
            # failed before it popped the queues leaves requests behind.
            if self.pending():
                raise
        finally:
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
                if not any(self._due(key, queue, now)
                           for key, (_, queue) in self._queues.items()):
                    deadlines = [queue[0].deadline
                                 for _, queue in self._queues.values()]
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
            seed=entry.seed,
            stride=entry.request.stride,
        )

    def _track(self, count):
        """Count ``count`` requests as executing (inline or on the executor);
        :meth:`_untrack` balances it once their tickets are resolved."""
        with self._cond:
            self._inflight_requests += count

    def _untrack(self, count):
        with self._cond:
            self._inflight_requests -= count
            self._cond.notify_all()

    def _process_batch(self, resolved, entries):
        """Run one model's micro-batch inline (see :meth:`_run_batch`);
        re-raises the batch's final error."""
        self._run_batch(resolved, entries, self._execute_inline)

    def _dispatch_batch(self, resolved, entries):
        """Queue one model's micro-batch on the executor (see
        :meth:`_run_batch`); raises only a rejection at dispatch."""
        self._run_batch(resolved, entries, self.executor.dispatch)

    def _run_batch(self, resolved, entries, send):
        """Run one flushed batch as one :class:`BatchTask` through ``send``
        (the executor's ``dispatch``, or :meth:`_execute_inline`), which
        calls the task's hooks when an attempt ends.  A retryable failure
        sends the same seeded payloads again, so a retried response is
        bit-identical; a ``send`` that raises (a rejection at dispatch)
        fails the tickets and re-raises.  An inline ``send`` returns with
        every ticket resolved, so its final error re-raises here too."""
        started = self.clock()
        key = (resolved.name, resolved.version)
        attempts = 1
        failure = None

        def fail(error):
            nonlocal failure, task
            failure, task = error, None     # the batch is over (see on_done)
            # Capacity/lifecycle rejections say nothing about the model's
            # health; the lock keeps pruning from dropping the failure.
            if (self.circuit_policy is not None
                    and counts_as_breaker_failure(error)):
                with self._lock:
                    self._breaker(key).record_failure()
            # Tickets resolve before the in-flight count drops: stop()
            # returns at zero, with every ticket resolved.
            for entry in entries:
                entry.ticket._resolve(None, error)
            self._untrack(len(entries))

        def on_done(raws):
            nonlocal task
            # The batch is over: end the task -> hook -> task cycle, which
            # would hold its requests and responses until a gc pass.
            task = None
            breaker = self.circuit_policy and self._breakers.get(key)
            if breaker:
                breaker.record_success()
            self._complete(resolved, entries, raws, started)

        def on_error(error):
            nonlocal attempts
            if (self.retry_policy is not None
                    and self.retry_policy.should_retry(error, attempts)):
                self._backoff_sleep(attempts)
                attempts += 1
                # A re-send goes back through the pool's admission; a
                # rejection there fails the tickets.
                try:
                    send(task)
                    return
                except Exception as rejection:
                    error = rejection
            fail(error)

        task = BatchTask(artifact_path=resolved.path,
                         payloads=[self._payload(entry) for entry in entries],
                         on_done=on_done, on_error=on_error)
        self._track(len(entries))
        try:
            send(task)
        except Exception as error:
            # Rejected before the executor accepted it, so the hooks never
            # run: resolve the tickets here.
            fail(error)
            raise
        if failure is not None and send == self._execute_inline:
            raise failure

    def _execute_inline(self, task):
        """The inline ``send``: run the batch as a pool child would, under
        the serve lock, then call its hooks outside the lock."""
        try:
            with self._serve_lock:
                raws = execute_batch(process_backend(task.artifact_path),
                                     task.payloads)
                # Injection point: the flush failing after the batch ran
                # (its noise drawn), so a retry must replay exactly.
                faults.inject("service.flush")
        except Exception as error:
            task.on_error(error)
        else:
            task.on_done(raws)

    def _complete(self, resolved, entries, raws, started):
        """Resolve a served batch's tickets and update the counters."""
        batch_seconds = self.clock() - started
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
            previous = self._batch_ewma.get(resolved.name)
            self._batch_ewma[resolved.name] = (
                batch_seconds if previous is None
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
        # After the tickets: see _run_batch for the ordering with stop().
        self._untrack(len(entries))

    def _to_key(self, model):
        if isinstance(model, tuple):
            return model
        if isinstance(model, ResolvedModel):
            return (model.name, model.version)
        resolved = self.registry.resolve(model)
        return (resolved.name, resolved.version)
