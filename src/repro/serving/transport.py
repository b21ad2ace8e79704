"""Zero-copy shared-memory transport for the pool's worker processes.

Before this module, worker processes received every batch as a pickle:
request arrays, masks and RNG streams serialised over a ``Pipe()``, and the
full :class:`~repro.inference.backend.RawImputation` results pickled back.
That puts every tensor byte through pickle twice per hop and scales the
per-batch cost with payload size.  The shm transport splits the channel
into two planes:

**Data plane** — a per-worker :class:`ShmArena` of
``multiprocessing.shared_memory`` segments.  The parent *stages* each
request's tensors (float64 values, bool observed mask) into arena slots and
pre-allocates the response slots (the output shapes — ``(time, node)`` median
and ``(num_samples, time, node)`` samples, always float64 — are known from
the request alone).  The child maps the same segments and reads/writes the
tensors **in place** through numpy views: no tensor byte is ever pickled.

**Control plane** — the persistent worker pipe carries only small
:class:`PayloadDescriptor` records: ``(segment name, offset, shape, dtype)``
per tensor plus the request's ``num_samples``/``stride`` and its noise seed
(a ``numpy.random.SeedSequence``; the child builds the ``Generator`` from
it, exactly as an inline flush does).

Lifecycle invariants (pinned by ``tests/test_pool_transport.py``):

* **Slots are reference-counted.**  ``stage()`` returns a
  :class:`StagedBatch` holding one reference per slot; ``release()`` is
  idempotent, so the retry path can re-stage a batch without double-freeing
  the previous attempt's slots.
* **Segments are provably unlinked.**  Clean drain, ``stop(drain=False)``
  and worker crashes all funnel through ``release()``/``destroy()``; the
  arena's counters expose ``transport.segments.created ==
  transport.segments.unlinked`` so tests and the chaos gate can assert zero
  leaked segments by name.
* **A failed detach never leaks.**  If releasing a slot fails (the
  ``transport.shm_detach`` injection point models this), the arena rebuilds:
  every live segment is unlinked and the allocator starts fresh.

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

#: The ``transport.*`` section of the serving metric schema.  Counters are
#: cumulative and fold worker->parent through the pool's WorkerCounterMerge;
#: gauges are instantaneous reads of the live arenas.
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

#: Slot alignment — cache-line sized so staged tensors never share a line.
_ALIGN = 64

#: Default size of one arena segment.  Segments are sparse files in /dev/shm
#: (pages commit on first touch), so a generous default costs address space,
#: not memory; batches that do not fit get a dedicated overflow segment.
DEFAULT_SEGMENT_BYTES = 8 << 20


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
    ``median``/``samples`` point at the parent-pre-allocated response slots
    the worker writes into.  Only this record (seed included) crosses the
    pipe.
    """

    values: TensorDescriptor
    observed_mask: TensorDescriptor
    median: TensorDescriptor
    samples: TensorDescriptor
    num_samples: int
    stride: int | None
    seed: np.random.SeedSequence


class _Segment:
    """One shared-memory segment plus a first-fit free-list allocator."""

    def __init__(self, name, size):
        self.shm = shared_memory.SharedMemory(create=True, name=name, size=size)
        self.name = self.shm.name
        self.size = size
        self._free = [(0, size)]            # sorted, coalesced (offset, size)
        self.live_slots = 0

    def allocate(self, nbytes):
        """First-fit allocation of an aligned slot; ``None`` when full."""
        need = _align(nbytes)
        for index, (offset, size) in enumerate(self._free):
            if size >= need:
                if size == need:
                    del self._free[index]
                else:
                    self._free[index] = (offset + need, size - need)
                self.live_slots += 1
                return offset, need
        return None

    def free(self, offset, size):
        """Return a slot to the free list, coalescing neighbours."""
        self._free.append((offset, size))
        self._free.sort()
        merged = []
        for start, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((start, length))
        self._free = merged
        self.live_slots -= 1

    @property
    def empty(self):
        return self.live_slots == 0

    def view(self, offset, shape, dtype):
        return np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=offset)

    def unlink(self):
        try:
            self.shm.close()
        except BufferError:       # pragma: no cover - exported views still live
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _segment_name():
    """A unique, portably short shm name (macOS caps names at 31 chars)."""
    return f"rp{os.getpid():x}-{secrets.token_hex(6)}"


class ShmArena:
    """Parent-side shared-memory arena: segments, slots and refcounts.

    One arena per worker process.  The owning worker thread drives its child
    strictly serially, so at most one batch is staged at a time — but the
    allocator is still fully locked because metrics snapshots and
    ``destroy()`` (pool stop / crash cleanup) come from other threads.
    """

    def __init__(self, *, segment_bytes=DEFAULT_SEGMENT_BYTES):
        self.segment_bytes = int(segment_bytes)
        self._lock = threading.Lock()
        self._segments = {}            # name -> _Segment
        self._primary = None           # name of the keep-alive segment
        self._destroyed = False
        # Cumulative counters (survive into WorkerPool totals on retire).
        self.segments_created = 0
        self.segments_unlinked = 0
        self.batches_staged = 0
        self.bytes_staged = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _new_segment_locked(self, min_bytes):
        size = max(self.segment_bytes, _align(min_bytes))
        segment = _Segment(_segment_name(), size)
        self._segments[segment.name] = segment
        self.segments_created += 1
        if self._primary is None:
            self._primary = segment.name
        return segment

    def _allocate_locked(self, nbytes):
        for segment in self._segments.values():
            slot = segment.allocate(nbytes)
            if slot is not None:
                return segment, slot[0], slot[1]
        segment = self._new_segment_locked(nbytes)
        offset, size = segment.allocate(nbytes)
        return segment, offset, size

    def _free_locked(self, name, offset, size):
        segment = self._segments.get(name)
        if segment is None:
            return
        segment.free(offset, size)
        # Overflow segments retire as soon as they drain; the primary stays
        # mapped for the worker's lifetime so steady-state batches never churn
        # segment creation.
        if segment.empty and name != self._primary:
            segment.unlink()
            del self._segments[name]
            self.segments_unlinked += 1

    def _rebuild_locked(self):
        """Unlink every live segment and start fresh (failed-detach path)."""
        for segment in self._segments.values():
            segment.unlink()
            self.segments_unlinked += 1
        self._segments = {}
        self._primary = None
        self.rebuilds += 1

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
        """
        faults.inject("transport.stage", error=TransportError)
        entries = []
        slots = []
        total = 0
        try:
            with self._lock:
                if self._destroyed:
                    raise TransportError("arena already destroyed")
                for payload in payloads:
                    values, mask = ImputationBackend._check_request(
                        payload.values, payload.observed_mask)
                    num_samples = int(payload.num_samples)
                    time_steps, nodes = values.shape
                    tensors = {}
                    plan = (
                        ("values", values.shape, np.float64, values),
                        ("observed_mask", mask.shape, np.bool_, mask),
                        ("median", (time_steps, nodes), np.float64, None),
                        ("samples", (num_samples, time_steps, nodes),
                         np.float64, None),
                    )
                    for field, shape, dtype, source in plan:
                        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
                        segment, offset, size = self._allocate_locked(nbytes)
                        slots.append((segment.name, offset, size))
                        if source is not None:
                            segment.view(offset, shape, dtype)[...] = source
                        tensors[field] = TensorDescriptor(
                            segment=segment.name, offset=offset,
                            shape=tuple(int(dim) for dim in shape),
                            dtype=np.dtype(dtype).str)
                        total += nbytes
                    entries.append(_StagedEntry(
                        descriptor=PayloadDescriptor(
                            values=tensors["values"],
                            observed_mask=tensors["observed_mask"],
                            median=tensors["median"],
                            samples=tensors["samples"],
                            num_samples=num_samples,
                            stride=payload.stride,
                            seed=payload.seed,
                        ),
                        values=values,
                        observed_mask=mask,
                    ))
                self.batches_staged += 1
                self.bytes_staged += total
        except Exception:
            # A partially staged batch must not leak its slots.
            with self._lock:
                if not self._destroyed:
                    for name, offset, size in slots:
                        self._free_locked(name, offset, size)
            raise
        return StagedBatch(self, entries, slots, total)

    def _release(self, slots):
        with self._lock:
            if self._destroyed:
                return
            try:
                faults.inject("transport.shm_detach")
            except Exception:
                # A failed detach must never leak a segment: drop everything
                # and start over (the worker is serial, so no other batch
                # holds live slots right now).
                self._rebuild_locked()
                return
            for name, offset, size in slots:
                self._free_locked(name, offset, size)

    def view(self, descriptor):
        """Parent-side view of a staged tensor (response read path)."""
        with self._lock:
            segment = self._segments.get(descriptor.segment)
            if segment is None:
                raise TransportError(
                    f"segment '{descriptor.segment}' is no longer mapped")
            return segment.view(descriptor.offset, descriptor.shape,
                                np.dtype(descriptor.dtype))

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------
    def destroy(self):
        """Unlink every segment (worker retirement or crash cleanup);
        idempotent, and all later ``release()`` calls become no-ops."""
        with self._lock:
            if self._destroyed:
                return
            self._destroyed = True
            for segment in self._segments.values():
                segment.unlink()
                self.segments_unlinked += 1
            self._segments = {}
            self._primary = None

    def stats(self):
        """This arena's counters and gauges under their ``transport.*`` names."""
        with self._lock:
            return {
                "transport.segments.created": self.segments_created,
                "transport.segments.unlinked": self.segments_unlinked,
                "transport.segments.active": len(self._segments),
                "transport.slots.live": sum(segment.live_slots
                                            for segment in self._segments.values()),
                "transport.batches.staged": self.batches_staged,
                "transport.bytes_staged": self.bytes_staged,
                "transport.rebuilds": self.rebuilds,
            }

    def segment_names(self):
        """Names of the currently mapped segments (leak tests attach-probe
        these after stop to prove they are gone)."""
        with self._lock:
            return sorted(self._segments)


@dataclass
class _StagedEntry:
    descriptor: PayloadDescriptor
    values: np.ndarray             # normalised request values (parent copy)
    observed_mask: np.ndarray


class StagedBatch:
    """One staged batch: descriptors out, responses in, slots refcounted."""

    def __init__(self, arena, entries, slots, nbytes):
        self._arena = arena
        self._entries = entries
        self._slots = slots
        self.nbytes = nbytes
        self._released = False
        self._lock = threading.Lock()

    def descriptors(self):
        """The control-plane records to send to the worker."""
        return [entry.descriptor for entry in self._entries]

    def read_responses(self):
        """Copy the worker-written response tensors out of the arena and
        assemble per-payload :class:`RawImputation` results.

        The copy is what lets the slots be freed (and reused by the next
        batch) while the responses live on in tickets; the echo arrays come
        from the parent-side normalised copies, not the arena.
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
        """Drop this batch's slot references (idempotent — the retry path
        re-stages a fresh batch instead of re-using this one)."""
        with self._lock:
            if self._released:
                return
            self._released = True
        self._arena._release(self._slots)


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
    """Worker-side cache of attached segments, keyed by name.

    Attach-once: steady-state batches reuse the mapping.  ``trim()`` runs
    *between* batches (never while views are live — closing a segment with
    exported views raises ``BufferError``) and drops the least recently used
    mappings beyond ``max_attached``; segments the parent has retired linger
    harmlessly until then (an unlinked segment's memory is freed once the
    last mapping closes).
    """

    def __init__(self, max_attached=8):
        from collections import OrderedDict

        self.max_attached = int(max_attached)
        self._attached = OrderedDict()      # name -> SharedMemory

    def view(self, descriptor):
        shm = self._attached.get(descriptor.segment)
        if shm is None:
            shm = _attach_untracked(descriptor.segment)
            self._attached[descriptor.segment] = shm
        else:
            self._attached.move_to_end(descriptor.segment)
        return np.ndarray(descriptor.shape, dtype=np.dtype(descriptor.dtype),
                          buffer=shm.buf, offset=descriptor.offset)

    def trim(self):
        while len(self._attached) > self.max_attached:
            _, shm = self._attached.popitem(last=False)
            try:
                shm.close()
            except BufferError:    # pragma: no cover - a view is still alive
                self._attached[shm.name] = shm
                return

    def close(self):
        for shm in self._attached.values():
            try:
                shm.close()
            except BufferError:    # pragma: no cover - exiting anyway
                pass
        self._attached.clear()


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
