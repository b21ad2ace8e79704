"""Compiled reverse-diffusion sampling: trace one chunk, replay it flat.

The eager engine pays per-op Python overhead on every diffusion step of every
chunk — graph-node construction, fresh intermediate allocations, attribute
dispatch.  The *computation* of a chunk is fully determined by its signature
``(num_items, item shape, dtype, parameterization, step sequence)``, so this
module records it once with :mod:`repro.tensor.trace` and replays it as a
flat kernel schedule over a pre-planned buffer arena.  It owns no sampling
algorithm: the recorded loop is
:meth:`~repro.inference.engine.InferenceEngine._reverse_loop`, the same
Tensor-op loop the engine runs eagerly, run here under a
:class:`~repro.tensor.trace.Tracer`.

* :class:`CompiledStepCache` is the per-model LRU keyed by the chunk
  signature.  The first chunk of a signature traces, plans and validates
  (one replay on the trace inputs must reproduce the traced execution
  bit-for-bit); later chunks replay with zero graph construction.  Anything
  the tracer cannot capture — an op without a replay kernel, data-dependent
  parameters, an injected ``compile.trace`` fault — negative-caches a
  :data:`FALLBACK` sentinel so the signature never re-pays the trace cost.
* :func:`sample_chunk_compiled` serves one chunk whose noise the engine has
  already drawn.  Every path that is not a replay — compilation disabled, a
  negative-cached signature, a failed replay, a failed trace — runs the
  eager loop on those same draws, so fallback never changes results or the
  RNG stream.

``REPRO_COMPILE=0`` (or ``false`` / ``off``) disables compilation process-wide;
``PriSTIConfig.compile_inference`` disables it per model.  Module-global
counters aggregate hits / misses / fallbacks across every cache in the
process under their ``compiled.*`` metric names; a serving
:class:`~repro.serving.metrics.MetricsRegistry` reads them through
:func:`register_compiled_metrics`, and process-pool children piggyback them
on each batch reply for the parent to fold.  (They stay a plain dict here:
``repro.serving`` imports this package, so importing its metrics module at
module level would be circular.)
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from ..tensor.tensor import get_default_dtype
from ..tensor.trace import TraceUnsupported, compile_graph, trace

__all__ = [
    "FALLBACK",
    "CompiledSampler",
    "CompiledStepCache",
    "compile_enabled",
    "compiled_counters",
    "register_compiled_metrics",
    "reset_compiled_counters",
    "sample_chunk_compiled",
]

ENV_COMPILE = "REPRO_COMPILE"

#: Negative-cache sentinel: this signature was tried and cannot compile.
FALLBACK = object()


def compile_enabled():
    """Whether trace-and-replay compilation is enabled process-wide."""
    raw = os.environ.get(ENV_COMPILE, "").strip().lower()
    return raw not in ("0", "false", "off")


# ---------------------------------------------------------------------------
# Process-wide counters (serving telemetry)
# ---------------------------------------------------------------------------

_GLOBAL_LOCK = threading.Lock()
_GLOBAL_COUNTERS = {
    "compiled.cache.hits": 0,
    "compiled.cache.misses": 0,
    "compiled.fallbacks": 0,
    "compiled.cache.evictions": 0,
    "compiled.programs": 0,
}


def _bump(name, amount=1):
    with _GLOBAL_LOCK:
        _GLOBAL_COUNTERS[name] += amount


def compiled_counters():
    """Aggregated compile counters across every cache in this process.

    Pool workers fold their children's counters back into the
    parent's totals through each batch reply (see
    :func:`fold_compiled_counters`), so on a pool-owning process this also
    covers work the children did.
    """
    with _GLOBAL_LOCK:
        return dict(_GLOBAL_COUNTERS)


def fold_compiled_counters(delta):
    """Add another process's counter deltas into this process's totals.

    The worker pool calls this with the per-batch delta of a child
    process's cumulative counters, so ``compiled_counters()`` on the
    parent reflects compilation work wherever it physically ran.
    """
    with _GLOBAL_LOCK:
        for key, amount in delta.items():
            if key in _GLOBAL_COUNTERS and amount:
                _GLOBAL_COUNTERS[key] += int(amount)


def reset_compiled_counters():
    """Zero the process-wide counters (tests and benchmarks)."""
    with _GLOBAL_LOCK:
        for key in _GLOBAL_COUNTERS:
            _GLOBAL_COUNTERS[key] = 0


def register_compiled_metrics(metrics):
    """Register the ``compiled.*`` metrics on a ``MetricsRegistry``.

    The instruments are callback gauges over the process-global counters, so
    one registration covers every cache in the process (and, behind a worker
    pool, everything the children fold back through their batch replies) —
    there is no second copy of the totals to drift.
    """
    for name in _GLOBAL_COUNTERS:
        metrics.gauge(name, fn=lambda name=name: compiled_counters()[name])
    return metrics


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class CompiledSampler:
    """One compiled chunk program plus the lock serialising its replays.

    The replay arena is shared mutable state, so concurrent replays of the
    *same* signature are serialised here; different signatures (different
    cache entries) replay concurrently.
    """

    __slots__ = ("program", "_lock")

    def __init__(self, program):
        self.program = program
        self._lock = threading.Lock()

    def run(self, inputs):
        with self._lock:
            return self.program.run(inputs)[0]


class CompiledStepCache:
    """LRU of compiled chunk samplers, keyed by the chunk signature.

    Owned by the *model* (one cache per set of weights) and shared by every
    engine / backend the model hands out, so serving traffic — where a fresh
    backend is constructed per batch — still replays programs traced by
    earlier batches.  ``FALLBACK`` entries negative-cache signatures that
    cannot compile.  Thread-safe.
    """

    def __init__(self, capacity=8):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("cache capacity must be a positive integer")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        self.evictions = 0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def lookup(self, key):
        """Return the entry for ``key`` (sampler, ``FALLBACK`` or ``None``)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                if entry is not FALLBACK:
                    self.hits += 1
        if entry is None:
            _bump("compiled.cache.misses")
        elif entry is not FALLBACK:
            _bump("compiled.cache.hits")
        return entry

    def store(self, key, entry):
        evicted = 0
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            _bump("compiled.cache.evictions", evicted)
        if entry is not FALLBACK:
            _bump("compiled.programs")
        return entry

    def count_fallback(self):
        """One chunk was served by the eager path after a compile decision."""
        with self._lock:
            self.fallbacks += 1
        _bump("compiled.fallbacks")

    def clear(self):
        with self._lock:
            self._entries.clear()

    def stats(self):
        with self._lock:
            compiled = sum(1 for e in self._entries.values() if e is not FALLBACK)
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "compiled_entries": compiled,
                "fallback_entries": len(self._entries) - compiled,
                "hits": self.hits,
                "misses": self.misses,
                "fallbacks": self.fallbacks,
                "evictions": self.evictions,
            }


# ---------------------------------------------------------------------------
# Trace, validate and replay one chunk
# ---------------------------------------------------------------------------


def _chunk_key(engine, num_items, item_shape):
    """Cache key: everything that determines the traced computation.

    The default dtype participates because leaf construction inside the
    network follows it (``set_default_dtype`` must invalidate, not corrupt);
    the model itself is implicit — the cache is owned by one model.
    """
    if engine.ddim_steps is None:
        fingerprint = ("ddpm", engine.diffusion.num_steps)
    else:
        fingerprint = ("ddim", tuple(engine._step_sequence()), float(engine.ddim_eta))
    return (num_items, tuple(item_shape), str(engine.dtype),
            engine.parameterization, fingerprint, str(get_default_dtype()))


def _replay_inputs(start, step_noise, condition, conditional_mask):
    inputs = {"x": start, "condition": condition,
              "conditional_mask": conditional_mask}
    if step_noise.size:
        inputs["step_noise"] = step_noise
    return inputs


def _inject_trace_fault():
    # Deferred import as in inference.backend: serving depends on inference,
    # so a module-level import of repro.serving.faults here would be circular.
    from ..serving import faults

    faults.inject("compile.trace")


def _bit_identical(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True))


def sample_chunk_compiled(engine, start, step_noise, condition, conditional_mask):
    """Serve one chunk from ``engine.compiled_cache``, tracing on a miss.

    ``start`` / ``step_noise`` are the chunk's already-drawn noise (see
    :meth:`~repro.inference.engine.InferenceEngine._draw_noise`).  Returns
    the ``(num_items,) + item_shape`` samples: a replay of the signature's
    compiled program, the validated traced execution on a miss, or the eager
    loop on the same draws for every other path.
    """
    def eager():
        return engine._reverse_loop(start, step_noise, condition,
                                    conditional_mask).data

    if not compile_enabled():
        return eager()
    cache = engine.compiled_cache
    key = _chunk_key(engine, start.shape[0], start.shape[1:])
    inputs = _replay_inputs(start, step_noise, condition, conditional_mask)
    entry = cache.lookup(key)
    if entry is FALLBACK:
        cache.count_fallback()
        return eager()
    if entry is not None:
        try:
            return entry.run(inputs)
        except Exception:
            cache.count_fallback()
            return eager()

    # Cache miss: trace this execution, plan it, validate the replay.
    try:
        _inject_trace_fault()
        with trace() as tracer:
            result = engine._reverse_loop(start, step_noise, condition,
                                          conditional_mask, tracer=tracer)
            graph = tracer.finish([result])
        sampler = CompiledSampler(compile_graph(graph))
        if not _bit_identical(sampler.run(inputs), result.data):
            raise TraceUnsupported(
                "validation replay diverged from the traced execution")
    except Exception:
        cache.store(key, FALLBACK)
        cache.count_fallback()
        return eager()
    cache.store(key, sampler)
    return result.data
