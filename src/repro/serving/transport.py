"""Zero-copy shared-memory transport for the pool's worker processes.

The channel between a worker thread and its child process has two planes:

**Data plane** — a per-worker :class:`ShmArena` over
``multiprocessing.shared_memory``.  The parent *stages* each request's
tensors (float64 values, bool observed mask) into the arena and reserves the
response tensors (the output shapes — ``(time, node)`` median and
``(num_samples, time, node)`` samples, always float64 — are known from the
request alone).  The child maps the same segment and reads/writes the
tensors **in place** through numpy views: no tensor byte is ever pickled.

**Control plane** — the persistent worker pipe carries only small
:class:`PayloadDescriptor` records: ``(segment name, offset, shape, dtype)``
per tensor plus the request's ``num_samples``/``stride`` and its noise seed
(a ``numpy.random.SeedSequence``; the child builds the ``Generator`` from
it, exactly as an inline flush does).

Lifecycle invariants (pinned by ``tests/test_pool_transport.py``):

* **One live batch.**  The owning worker thread stages a batch, round-trips
  it, copies the responses out and releases it before it stages the next,
  so every ``stage()`` lays its batch out from offset 0 of one segment; a
  second ``stage()`` while a batch is live raises :class:`TransportError`.
  ``release()`` is idempotent, so the retry path can re-stage a batch
  without double-releasing the previous attempt.
* **One standing segment.**  Batches that fit share one segment of
  ``DEFAULT_SEGMENT_BYTES``, created on first use and reused batch after
  batch.  A larger batch gets a segment of its own, unlinked on release.
* **Segments are provably unlinked.**  Clean drain, ``stop(drain=False)``
  and worker crashes all funnel through ``release()``/``destroy()``; the
  arena counts ``transport.segments.created`` and
  ``transport.segments.unlinked`` into its owner's registry as each segment
  comes and goes, so tests and the chaos gate can assert zero leaked
  segments by name.
* **A failed detach never leaks.**  If a release fails (the
  ``transport.shm_detach`` injection point models this), the arena rebuilds:
  every segment is unlinked and the next batch starts on a fresh one.

Injection points (see :mod:`repro.serving.faults`): ``transport.stage``
(parent-side staging fails before anything crosses the channel),
``transport.shm_attach`` (the worker cannot map a segment) and
``transport.shm_detach`` (a release fails; the arena must rebuild, not leak).
"""

from __future__ import annotations

import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..inference.backend import ImputationBackend, RawImputation
from . import faults
from .errors import TransportError

__all__ = [
    "ShmArena",
    "StagedBatch",
    "TensorDescriptor",
    "PayloadDescriptor",
    "SegmentAttachments",
    "decode_batch",
    "DEFAULT_SEGMENT_BYTES",
    "TRANSPORT_METRIC_SCHEMA",
]

#: The ``transport.*`` section of the serving metric schema.  Every counter
#: is counted once, in the parent, where its event happens: the arenas count
#: segments, staged batches and bytes, and each worker's pipe counts control
#: bytes and batches run.  The gauges are live reads of the arenas.
TRANSPORT_METRIC_SCHEMA = {
    "transport.segments.created": "counter",
    "transport.segments.unlinked": "counter",
    "transport.batches.staged": "counter",
    "transport.bytes_staged": "counter",
    "transport.rebuilds": "counter",
    "transport.control.bytes_sent": "counter",
    "transport.control.bytes_received": "counter",
    "transport.batches.run": "counter",
    "transport.segments.active": "gauge",
    "transport.slots.live": "gauge",
}

#: Tensor alignment — cache-line sized so staged tensors never share a line.
_ALIGN = 64

#: Size of a worker's standing segment.  Segments are sparse files in
#: /dev/shm (pages commit on first touch), so a generous size costs address
#: space, not memory; batches that do not fit get a segment of their own.
DEFAULT_SEGMENT_BYTES = 8 << 20

#: Tensors of one staged request, in layout order.
_FIELDS = ("values", "observed_mask", "median", "samples")


def _align(nbytes):
    return (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class TensorDescriptor:
    """Where one tensor lives: ``(segment name, offset, shape, dtype)``."""

    segment: str
    offset: int
    shape: tuple
    dtype: str

    @property
    def nbytes(self):
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


@dataclass
class PayloadDescriptor:
    """The control-plane record of one staged request.

    ``values``/``observed_mask`` point at the staged request tensors;
    ``median``/``samples`` point at the response tensors the worker writes
    into.  Only this record (seed included) crosses the pipe.
    """

    values: TensorDescriptor
    observed_mask: TensorDescriptor
    median: TensorDescriptor
    samples: TensorDescriptor
    num_samples: int
    stride: int | None
    seed: np.random.SeedSequence


def _segment_name():
    """A unique, portably short shm name (macOS caps names at 31 chars)."""
    return f"rp{os.getpid():x}-{secrets.token_hex(6)}"


def _unlink(shm):
    try:
        shm.close()
    except BufferError:           # pragma: no cover - exported views still live
        pass
    try:
        shm.unlink()
    except FileNotFoundError:     # pragma: no cover - already gone
        pass


def _view(shm, descriptor):
    return np.ndarray(descriptor.shape, dtype=np.dtype(descriptor.dtype),
                      buffer=shm.buf, offset=descriptor.offset)


class ShmArena:
    """Parent-side staging segment of one worker.

    One arena per worker process, holding at most one live batch (see the
    module docstring).  Its ``transport.*`` counters go to ``metrics``, the
    owner's :class:`~repro.telemetry.MetricsRegistry` (a pool shares its
    own across its workers' arenas).  The lock is there because metrics
    snapshots and ``destroy()`` (pool stop / crash cleanup) come from other
    threads.
    """

    def __init__(self, metrics):
        self._metrics = metrics
        self._lock = threading.Lock()
        self._standing = None          # SharedMemory reused batch after batch
        self._oversize = None          # the live batch's own segment, if any
        self._live = None              # the live StagedBatch
        self._destroyed = False

    def _create_locked(self, size):
        shm = shared_memory.SharedMemory(create=True, name=_segment_name(), size=size)
        self._metrics.counter("transport.segments.created").inc()
        return shm

    def _segments_locked(self):
        return [shm for shm in (self._standing, self._oversize)
                if shm is not None]

    def _unlink_all_locked(self):
        for shm in self._segments_locked():
            _unlink(shm)
            self._metrics.counter("transport.segments.unlinked").inc()
        self._standing = self._oversize = self._live = None

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def stage(self, payloads):
        """Stage one batch of :class:`~repro.serving.pool.RequestPayload`-like
        objects; returns a :class:`StagedBatch`.

        Request values are normalised here exactly as the backend's
        ``_check_request`` would (NaN counts as missing, unobserved entries
        zeroed, mask ANDed with finiteness) — normalisation is idempotent, so
        the worker-side backend reproduces the same bits, and the parent
        keeps the normalised arrays for the response echo without a copy-out.
        Every payload is normalised before any shared memory is touched, so
        a bad payload fails the batch with nothing staged.
        """
        faults.inject("transport.stage", error=TransportError)
        layout = []     # (payload, values, mask, {field: (offset, shape, dtype)})
        end = 0
        total = 0
        for payload in payloads:
            values, mask = ImputationBackend._check_request(
                payload.values, payload.observed_mask)
            time_steps, nodes = values.shape
            shapes = (
                (values.shape, np.float64),
                (mask.shape, np.bool_),
                ((time_steps, nodes), np.float64),
                ((int(payload.num_samples), time_steps, nodes), np.float64),
            )
            fields = {}
            for field, (shape, dtype) in zip(_FIELDS, shapes):
                nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
                fields[field] = (end, tuple(int(dim) for dim in shape),
                                 np.dtype(dtype).str)
                end += _align(nbytes)
                total += nbytes
            layout.append((payload, values, mask, fields))
        with self._lock:
            if self._destroyed:
                raise TransportError("arena already destroyed")
            if self._live is not None:
                raise TransportError("a staged batch is still live; release "
                                     "it before staging the next")
            if end > DEFAULT_SEGMENT_BYTES:
                shm = self._oversize = self._create_locked(end)
            else:
                if self._standing is None:
                    self._standing = self._create_locked(DEFAULT_SEGMENT_BYTES)
                shm = self._standing
            entries = []
            for payload, values, mask, fields in layout:
                tensors = {field: TensorDescriptor(shm.name, *fields[field])
                           for field in _FIELDS}
                _view(shm, tensors["values"])[...] = values
                _view(shm, tensors["observed_mask"])[...] = mask
                entries.append(_StagedEntry(
                    descriptor=PayloadDescriptor(
                        num_samples=int(payload.num_samples),
                        stride=payload.stride, seed=payload.seed, **tensors),
                    values=values,
                    observed_mask=mask,
                ))
            self._live = StagedBatch(self, entries, total)
            self._metrics.counter("transport.batches.staged").inc()
            self._metrics.counter("transport.bytes_staged").inc(total)
            return self._live

    def _release(self, batch):
        with self._lock:
            if self._live is not batch:
                return                 # released already, or arena torn down
            self._live = None
            try:
                faults.inject("transport.shm_detach")
            except Exception:
                # A failed detach must never leak a segment: drop everything
                # and start over on a fresh standing segment.
                self._unlink_all_locked()
                self._metrics.counter("transport.rebuilds").inc()
                return
            if self._oversize is not None:
                _unlink(self._oversize)
                self._oversize = None
                self._metrics.counter("transport.segments.unlinked").inc()

    def view(self, descriptor):
        """Parent-side view of a staged tensor (response read path)."""
        with self._lock:
            for shm in self._segments_locked():
                if shm.name == descriptor.segment:
                    return _view(shm, descriptor)
        raise TransportError(
            f"segment '{descriptor.segment}' is no longer mapped")

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------
    def destroy(self):
        """Unlink every segment (worker retirement or crash cleanup);
        idempotent, and all later ``release()`` calls become no-ops."""
        with self._lock:
            if not self._destroyed:
                self._destroyed = True
                self._unlink_all_locked()

    def stats(self):
        """This arena's gauges plus its registry's ``transport.*`` counters
        (shared by every arena of a pool, so pool-wide there).

        Counters are read instrument by instrument, never through
        ``metrics.snapshot()``: the pool's ``transport.segments.active``
        gauge calls this method, so a snapshot here would recurse.
        """
        counters = {name: self._metrics.counter(name).value
                    for name, kind in TRANSPORT_METRIC_SCHEMA.items()
                    if kind == "counter"}
        with self._lock:
            live = self._live
            return dict(counters, **{
                "transport.segments.active": len(self._segments_locked()),
                "transport.slots.live": (len(_FIELDS) * len(live._entries)
                                         if live is not None else 0),
            })

    def segment_names(self):
        """Names of the currently mapped segments (leak tests attach-probe
        these after stop to prove they are gone)."""
        with self._lock:
            return sorted(shm.name for shm in self._segments_locked())


@dataclass
class _StagedEntry:
    descriptor: PayloadDescriptor
    values: np.ndarray             # normalised request values (parent copy)
    observed_mask: np.ndarray


class StagedBatch:
    """One staged batch: descriptors out, responses in."""

    def __init__(self, arena, entries, nbytes):
        self._arena = arena
        self._entries = entries
        self.nbytes = nbytes

    def descriptors(self):
        """The control-plane records to send to the worker."""
        return [entry.descriptor for entry in self._entries]

    def read_responses(self):
        """Copy the worker-written response tensors out of the arena and
        assemble per-payload :class:`RawImputation` results.

        The copy is what lets the segment be reused by the next batch while
        the responses live on in tickets; the echo arrays come from the
        parent-side normalised copies, not the arena.
        """
        raws = []
        for entry in self._entries:
            descriptor = entry.descriptor
            median = np.array(self._arena.view(descriptor.median))
            samples = np.array(self._arena.view(descriptor.samples))
            raws.append(RawImputation(median=median, samples=samples,
                                      values=entry.values,
                                      observed_mask=entry.observed_mask))
        return raws

    def release(self):
        """Free the arena for the next batch (idempotent — the retry path
        re-stages a fresh batch instead of re-using this one)."""
        self._arena._release(self)


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _attach_untracked(name):
    """Attach a segment without the resource tracker claiming ownership.

    A plain attach *registers* the segment with the resource tracker the
    child shares with the parent, corrupting the parent's register/unlink
    pairing for a segment the child does not own (the tracker's cache is a
    set, so a child-side ``unregister`` after the fact would instead eat
    the parent's registration and make the parent's eventual ``unlink``
    log a spurious ``KeyError``).  The parent tracks and unlinks every
    segment it creates; attachers must stay invisible — so the register
    call is suppressed for the duration of the attach.  The child's recv
    loop is single-threaded, making the swap race-free.
    """
    faults.inject("transport.shm_attach", error=TransportError)
    try:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
    except Exception:       # pragma: no cover - tracker internals moved
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SegmentAttachments:
    """Worker-side mapping of the segment the current batch names.

    One mapping: steady-state batches all name the worker's standing
    segment and reuse it.  A batch that names another segment (an oversize
    batch, or a rebuilt arena) closes the old mapping and attaches the new
    one; the previous batch's views must be gone by then.  A segment the
    parent has unlinked is freed once its last mapping closes.
    """

    def __init__(self):
        self._shm = None

    def view(self, descriptor):
        if self._shm is None or self._shm.name != descriptor.segment:
            self.close()
            self._shm = _attach_untracked(descriptor.segment)
        return _view(self._shm, descriptor)

    def close(self):
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:    # pragma: no cover - a view is still alive
                pass
            self._shm = None


def decode_batch(descriptors, attachments):
    """Worker-side decode: descriptors -> (payloads, response views).

    The returned payloads carry zero-copy views of the staged request
    tensors; the response views are where the worker writes ``median`` and
    ``samples`` for the parent to read back.  Imported lazily by the worker
    main loop — no service/pool state is touched here.
    """
    from .pool import RequestPayload

    payloads = []
    response_views = []
    for descriptor in descriptors:
        payloads.append(RequestPayload(
            values=attachments.view(descriptor.values),
            observed_mask=attachments.view(descriptor.observed_mask),
            num_samples=descriptor.num_samples,
            seed=descriptor.seed,
            stride=descriptor.stride,
        ))
        response_views.append((attachments.view(descriptor.median),
                               attachments.view(descriptor.samples)))
    return payloads, response_views
