"""Typed metric instruments behind one stable schema: the one metrics home.

Every layer of the stack reports into a typed :class:`MetricsRegistry` of
:class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments with
**dotted stable names**, one family per layer:

* ``service.*`` — admission, batching and resilience counters of the
  micro-batching service (``service.requests.served``,
  ``service.queue.depth``, ``service.retries``);
* ``pool.*`` — worker-pool scheduling (``pool.steals``,
  ``pool.batches.crashed``, ``pool.warm.seconds``);
* ``transport.*`` — the shared-memory data plane of process workers
  (``transport.bytes_staged``, ``transport.segments.active``);
* ``registry.*`` — the loaded-model LRU (``registry.cache.hits``);
* ``compiled.*`` — trace-and-replay compilation (``compiled.cache.hits``);
* ``gateway.*`` — the HTTP protocol layer (``gateway.requests``).

This module is a leaf: it imports only the standard library, so
:mod:`repro.inference` and :mod:`repro.serving` both import it without a
cycle.  (It is not :mod:`repro.metrics`, which holds the paper's
MAE / CRPS evaluation code.)

Families whose instruments are not owned by one serving object live in
:data:`PROCESS_METRICS`, the process-wide registry — today only the
``compiled.*`` counters every :class:`~repro.inference.CompiledStepCache`
in the process increments.  ``ImputationService.metrics_snapshot()`` merges
it, and a worker pool folds each child process's ``PROCESS_METRICS``
counters into the parent's through a :class:`WorkerCounterMerge`.

The flat snapshot is the only counter surface: ``service.metrics_snapshot()``
in-process and the ``"metrics"`` section of the gateway's ``/v1/stats``.

Design rules
------------
* **Names are the schema.**  A scraper never branches on executor mode:
  :meth:`MetricsRegistry.declare` pre-registers every name with a zero
  value, so a snapshot always carries the full key set — an inline service
  reports ``pool.steals == 0`` instead of omitting the key.
* **Counters are monotonic, gauges are instantaneous.**  A :class:`Gauge`
  may wrap a callback so queue depths and LRU occupancy are read live at
  snapshot time instead of being pushed on every transition.
* **Snapshots are flat.**  ``MetricsRegistry.snapshot()`` returns
  ``{dotted-name: number}`` with histogram instruments expanded to
  ``<name>.count`` / ``.sum`` / ``.min`` / ``.max``.
* **Worker merges are delta-folds.**  A worker thread or child process
  reports *cumulative* totals; :class:`WorkerCounterMerge` remembers the
  last snapshot per source and folds only the delta, so repeated folds are
  idempotent and a respawned worker (fresh source, counters back at zero)
  never subtracts history.

``tests/test_serving_metrics.py`` pins snapshot consistency under
concurrent writers, the stable-schema invariant across inline and
pool-backed services, and delta-folding across worker crash + respawn.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WorkerCounterMerge",
    "PROCESS_METRICS",
]


class Counter:
    """A monotonically increasing total (requests served, bytes staged)."""

    kind = "counter"

    def __init__(self, name):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount=1):
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter '{self.name}' cannot decrease (inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def values(self):
        return {self.name: self.value}


class Gauge:
    """An instantaneous value: set explicitly or read live via a callback."""

    kind = "gauge"

    def __init__(self, name, fn=None):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0
        self._fn = fn

    def set(self, value):
        with self._lock:
            self._fn = None
            self._value = value

    def set_max(self, value):
        """High-water mark update (e.g. the deepest backlog observed)."""
        with self._lock:
            self._fn = None
            self._value = max(self._value, value)

    def set_fn(self, fn):
        """Back the gauge with a live read callback (snapshot-time value)."""
        with self._lock:
            self._fn = fn

    @property
    def value(self):
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return fn()
        except Exception:
            # A gauge callback must never take the whole snapshot down
            # (e.g. a pool already stopped); report the zero default.
            return 0

    def values(self):
        return {self.name: self.value}


class Histogram:
    """A streaming summary of observations: count / sum / min / max.

    Snapshot keys are ``<name>.count``, ``<name>.sum``, ``<name>.min`` and
    ``<name>.max`` — always present (zeros before the first observation), so
    the schema does not depend on whether anything was recorded yet.
    """

    kind = "histogram"

    def __init__(self, name):
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value):
        value = float(value)
        with self._lock:
            if self.count == 0:
                self.min = value
                self.max = value
            else:
                self.min = min(self.min, value)
                self.max = max(self.max, value)
            self.count += 1
            self.sum += value

    def values(self):
        with self._lock:
            return {
                f"{self.name}.count": self.count,
                f"{self.name}.sum": self.sum,
                f"{self.name}.min": self.min,
                f"{self.name}.max": self.max,
            }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named set of instruments with a flat, stable snapshot.

    Instruments are created on first use (``counter(name)`` /
    ``gauge(name)`` / ``histogram(name)``) or pre-registered via
    :meth:`declare` so the snapshot's key set is fixed up front.  Asking for
    an existing name with a different kind is an error — names are the
    schema, and a name cannot be a counter in one mode and a gauge in
    another.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments = OrderedDict()

    def _instrument(self, kind, name):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = _KINDS[kind](name)
                self._instruments[name] = instrument
            elif instrument.kind != kind:
                raise ValueError(f"metric '{name}' is a {instrument.kind}, not a {kind}")
            return instrument

    def counter(self, name):
        return self._instrument("counter", name)

    def gauge(self, name, fn=None):
        gauge = self._instrument("gauge", name)
        if fn is not None:
            gauge.set_fn(fn)
        return gauge

    def histogram(self, name):
        return self._instrument("histogram", name)

    def declare(self, schema):
        """Pre-register ``{name: kind}`` instruments at their zero values.

        Declaring is what makes the snapshot schema *stable*: every declared
        name is present in every snapshot from now on, zero-valued until the
        owning component first touches it.  Idempotent.
        """
        for name, kind in schema.items():
            self._instrument(kind, name)
        return self

    def names(self):
        """Snapshot key set (sorted) — the declared schema plus expansions."""
        return sorted(self.snapshot())

    def snapshot(self):
        """Flat ``{dotted-name: number}`` across every instrument."""
        with self._lock:
            instruments = list(self._instruments.values())
        snapshot = {}
        for instrument in instruments:
            snapshot.update(instrument.values())
        return snapshot

    def fold(self, deltas):
        """Add counter deltas (``{name: amount}``) into this registry.

        The low-level half of the worker→parent merge: every named counter
        grows by its delta.  Negative or zero deltas are ignored — a
        cumulative snapshot can only move forward.
        """
        for name, amount in deltas.items():
            if amount and amount > 0:
                self.counter(name).inc(amount)


class WorkerCounterMerge:
    """Fold per-source *cumulative* counter snapshots into parent sinks.

    A worker pool keeps one per destination registry: worker threads fold
    their local batch/crash totals and the shm-transport totals of their
    arena and pipe into the pool's registry, and the ``compiled.*`` counters
    each child piggybacks on its batch replies fold into the parent's
    :data:`PROCESS_METRICS`.  The merge remembers
    the last snapshot per ``source`` (any hashable — a worker slot, a child
    process handle) and applies only the positive delta, so:

    * folding the same cumulative snapshot twice is a no-op,
    * a respawned worker registers as a *new* source whose counters start
      from zero — history is never subtracted, and
    * :meth:`retire` folds a final snapshot and forgets the source, which is
      exactly the crash path (the dead child's last observed totals still
      land in the parent).
    """

    def __init__(self, sink):
        if not callable(sink):
            raise TypeError("sink must be callable(deltas: dict)")
        self._sink = sink
        self._lock = threading.Lock()
        self._seen = {}  # source -> {name: last cumulative}

    def fold(self, source, cumulative):
        """Fold ``cumulative`` totals from ``source``; returns the deltas."""
        with self._lock:
            seen = self._seen.setdefault(source, {})
            deltas = {}
            for name, value in cumulative.items():
                delta = value - seen.get(name, 0)
                if delta > 0:
                    deltas[name] = delta
                seen[name] = max(value, seen.get(name, 0))
        if deltas:
            self._sink(deltas)
        return deltas

    def retire(self, source, cumulative=None):
        """Fold a final snapshot (if given) and forget ``source``."""
        deltas = self.fold(source, cumulative) if cumulative else {}
        with self._lock:
            self._seen.pop(source, None)
        return deltas

    def sources(self):
        with self._lock:
            return list(self._seen)


#: The process-wide registry: instrument families owned by no single serving
#: object (the ``compiled.*`` counters of every compile cache in this
#: process, plus whatever a worker pool folds in from its children).
PROCESS_METRICS = MetricsRegistry()
