"""Compiled reverse-diffusion sampling: trace one chunk, replay it flat.

The eager engine pays per-op Python overhead on every diffusion step of every
chunk — graph-node construction, fresh intermediate allocations, attribute
dispatch.  The engine's chunk groups ``(window, sample)`` items and draws
their noise; with compilation on, the engine caps a chunk at
:data:`MAX_CHUNK_ITEMS` (16) items, so a program and its buffer arena never
grow with ``inference_batch_size``.  The computation of a chunk is fully
determined by its signature ``(num_items, samples_per_plan, item shape,
dtype, parameterization, step sequence)`` — ``samples_per_plan`` because
the network computes the condition-only work once per plan, so 16 items in
two plans of 8 samples trace a different program from 16 one-sample plans
— so this module records it once with
:mod:`repro.tensor.trace` and replays it as a static tape of pre-bound
kernel calls over slots the program owns.  The recording holds the
chunk's condition-only work once, because the network itself computes it
once per chunk, and every step's ops once per step: the planner merges
no repeats.  It owns no sampling algorithm: the recorded loop is
:meth:`~repro.inference.engine.InferenceEngine._reverse_loop`, the same
Tensor-op loop the engine runs eagerly, run here under a
:class:`~repro.tensor.trace.Tracer`.

* Programs do not bake the network weights: the tracer binds a model's
  named parameters (its :class:`WeightSet`) as weight values, and each
  program keeps a *prefold* schedule — the folds that read weights, such as
  the step-embedding MLP and the adaptive adjacency — that
  :meth:`~repro.tensor.trace.CompiledProgram.bind` runs once per weight
  set.  A :class:`CompiledSampler` keeps one binding per live weight set,
  keyed weakly, so a binding dies with its model and a program never pins
  a retired model's parameters.
* :class:`CompiledStepCache` is the LRU keyed by the chunk signature, one
  per *architecture fingerprint* (everything a network is built from
  except its weights) in a process-level store, :func:`shared_step_cache`.
  Every model of a fingerprint shares its programs and its negative cache,
  so publishing new weights of the same architecture costs one prefold per
  ``(model, signature)``, not a trace.  The first chunk of a signature
  traces, plans and validates (one replay on the trace inputs must
  reproduce the traced execution bit-for-bit); later chunks replay with
  zero graph construction.  A chunk that misses while another thread traces
  its signature runs the eager loop instead of tracing it again.  Anything
  the tracer cannot capture — an op without a replay kernel,
  data-dependent parameters, an injected ``compile.trace`` fault —
  negative-caches a :data:`FALLBACK` sentinel so the signature never
  re-pays the trace cost.
* :func:`sample_chunk_compiled` serves one chunk whose noise the engine has
  already drawn.  Every path that is not a replay — compilation disabled, a
  negative-cached signature, a failed replay, a failed trace, a concurrent
  miss — runs the eager loop on the same draws, so fallback never changes
  results or the RNG stream.

``REPRO_COMPILE=0`` (or ``false`` / ``off``) disables compilation process-wide;
``PriSTIConfig.compile_inference`` disables it per model.  Every cache in the
process increments the same ordinary ``compiled.*`` counters in
:data:`repro.telemetry.PROCESS_METRICS`; a serving snapshot merges that
registry, and each process-pool child sends what it gained since its last
batch reply, for the parent to add to its own.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict

import numpy as np

from ..telemetry import PROCESS_METRICS
from ..tensor.tensor import get_default_dtype
from ..tensor.trace import TraceUnsupported, compile_graph, trace

__all__ = [
    "FALLBACK",
    "MAX_CHUNK_ITEMS",
    "NO_WEIGHTS",
    "CompiledSampler",
    "CompiledStepCache",
    "WeightSet",
    "clear_program_store",
    "compile_enabled",
    "sample_chunk_compiled",
    "shared_step_cache",
]

ENV_COMPILE = "REPRO_COMPILE"

#: Negative-cache sentinel: this signature was tried and cannot compile.
FALLBACK = object()

#: The most items the engine puts in a chunk that replays a compiled program.
MAX_CHUNK_ITEMS = 16


def compile_enabled():
    """Whether trace-and-replay compilation is enabled process-wide."""
    raw = os.environ.get(ENV_COMPILE, "").strip().lower()
    return raw not in ("0", "false", "off")


# Process-wide counters (serving telemetry): one set for every cache here.
_HITS = PROCESS_METRICS.counter("compiled.cache.hits")
_MISSES = PROCESS_METRICS.counter("compiled.cache.misses")
_FALLBACKS = PROCESS_METRICS.counter("compiled.fallbacks")
_EVICTIONS = PROCESS_METRICS.counter("compiled.cache.evictions")
_PROGRAMS = PROCESS_METRICS.counter("compiled.programs")


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class WeightSet:
    """The named parameter arrays one model binds compiled programs with.

    ``arrays()`` reads the network's parameters when called, so a trace and
    a bind see the arrays the network holds at that moment.  Samplers key
    their bindings weakly on this object: a model drops every binding by
    replacing its weight set (after training rewrote the weights), and the
    bindings of a collected model die with it.
    """

    __slots__ = ("_network", "__weakref__")

    def __init__(self, network=None):
        self._network = network

    def arrays(self):
        if self._network is None:
            return {}
        return {name: parameter.data
                for name, parameter in self._network.named_parameters()}


#: The weight set of engines whose predictor reads no trainable tensors.
NO_WEIGHTS = WeightSet()


class CompiledSampler:
    """One compiled chunk program, its bindings and the lock serialising
    its replays.

    The program's slots are shared mutable state, so concurrent replays of
    the *same* signature are serialised here; different signatures
    (different cache entries) replay concurrently.  A weight set seen for the first
    time is bound (the program's prefold runs on it) under the same lock.
    """

    __slots__ = ("program", "_lock", "_bindings")

    def __init__(self, program):
        self.program = program
        self._lock = threading.Lock()
        self._bindings = weakref.WeakKeyDictionary()   # WeightSet -> binding

    def run(self, inputs, weights):
        with self._lock:
            bound = self._bindings.get(weights)
            if bound is None:
                bound = self.program.bind(weights.arrays())
                self._bindings[weights] = bound
            return self.program.run(inputs, bound)[0]


class CompiledStepCache:
    """LRU of compiled chunk samplers, keyed by the chunk signature.

    One per architecture fingerprint (see :func:`shared_step_cache`),
    shared by every model of that architecture and every engine / backend
    those models hand out, so serving traffic — where a fresh backend is
    constructed per batch, and a rollout loads new weights — still replays
    programs traced earlier.  ``FALLBACK`` entries negative-cache
    signatures that cannot compile.  Keys being traced are tracked so that
    concurrent misses of one key trace it once (:meth:`claim`).
    Thread-safe; its counters are the ``compiled.*`` counters in
    :data:`~repro.telemetry.PROCESS_METRICS`.
    """

    def __init__(self, capacity=8):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("cache capacity must be a positive integer")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self._tracing = set()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def lookup(self, key):
        """Return the entry for ``key`` (sampler, ``FALLBACK`` or ``None``)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            _MISSES.inc()
        elif entry is not FALLBACK:
            _HITS.inc()
        return entry

    def claim(self, key):
        """Whether the caller may trace ``key``: true for one caller at a
        time until it calls :meth:`release`, false while another caller
        holds the claim or once ``key`` is stored."""
        with self._lock:
            if key in self._entries or key in self._tracing:
                return False
            self._tracing.add(key)
            return True

    def release(self, key):
        with self._lock:
            self._tracing.discard(key)

    def store(self, key, entry):
        evicted = 0
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            _EVICTIONS.inc(evicted)
        if entry is not FALLBACK:
            _PROGRAMS.inc()
        return entry


# The process-level program store: one cache per architecture fingerprint.
# Weak values: models hold their cache, the store holds none alive.
_STORE = weakref.WeakValueDictionary()
_STORE_LOCK = threading.Lock()


def shared_step_cache(fingerprint, capacity=8):
    """The process's :class:`CompiledStepCache` for ``fingerprint``.

    Created with ``capacity`` on first use and shared by every caller of the
    same fingerprint while any of them holds it.
    """
    with _STORE_LOCK:
        cache = _STORE.get(fingerprint)
        if cache is None:
            cache = CompiledStepCache(capacity)
            _STORE[fingerprint] = cache
        return cache


def clear_program_store():
    """Forget every shared cache; caches already handed out stay valid."""
    with _STORE_LOCK:
        _STORE.clear()


# ---------------------------------------------------------------------------
# Trace, validate and replay one chunk
# ---------------------------------------------------------------------------


def _chunk_key(engine, num_items, samples_per_plan, item_shape):
    """Cache key: everything that determines the traced computation.

    The default dtype participates because leaf construction inside the
    network follows it (``set_default_dtype`` must invalidate, not corrupt);
    the architecture is implicit — a cache serves one fingerprint.
    """
    if engine.ddim_steps is None:
        fingerprint = ("ddpm", engine.diffusion.num_steps)
    else:
        fingerprint = ("ddim", tuple(engine._step_sequence()), float(engine.ddim_eta))
    return (num_items, samples_per_plan, tuple(item_shape), str(engine.dtype),
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


def sample_chunk_compiled(engine, start, step_noise, condition, conditional_mask,
                          samples_per_plan=1):
    """Serve one chunk from ``engine.compiled_cache``, tracing on a miss.

    ``start`` / ``step_noise`` are the chunk's already-drawn noise (see
    :meth:`~repro.inference.engine.InferenceEngine._draw_noise`), and runs
    of ``samples_per_plan`` consecutive items share one condition.  Returns
    the ``(num_items,) + item_shape`` samples: a replay of the signature's
    compiled program bound to ``engine.weights``, the traced execution on a
    miss (also when its program then fails to compile or validate), or the
    eager loop on the same draws for every other path (compilation
    disabled, a negative-cached signature, a failed replay, a trace that
    failed before its loop finished, a miss on a key another thread is
    tracing).
    """
    def eager():
        return engine._reverse_loop(start, step_noise, condition, conditional_mask,
                                    samples_per_plan=samples_per_plan).data

    if not compile_enabled():
        return eager()
    cache = engine.compiled_cache
    weights = engine.weights
    key = _chunk_key(engine, start.shape[0], samples_per_plan, start.shape[1:])
    inputs = _replay_inputs(start, step_noise, condition, conditional_mask)
    entry = cache.lookup(key)
    if entry is FALLBACK:
        _FALLBACKS.inc()
        return eager()
    if entry is not None:
        try:
            return entry.run(inputs, weights)
        except Exception:
            _FALLBACKS.inc()
            return eager()
    if not cache.claim(key):
        return eager()

    # Cache miss: trace this execution, plan it, validate the replay.  Once
    # the traced loop has finished it holds the eager bits, so a failure to
    # compile or validate serves them instead of running the loop again.
    result = None
    try:
        _inject_trace_fault()
        with trace(weights.arrays()) as tracer:
            result = engine._reverse_loop(start, step_noise, condition,
                                          conditional_mask, tracer=tracer,
                                          samples_per_plan=samples_per_plan)
            graph = tracer.finish([result])
        sampler = CompiledSampler(compile_graph(graph))
        if not _bit_identical(sampler.run(inputs, weights), result.data):
            raise TraceUnsupported(
                "validation replay diverged from the traced execution")
    except Exception:
        cache.store(key, FALLBACK)
        _FALLBACKS.inc()
        return eager() if result is None else result.data
    else:
        cache.store(key, sampler)
        return result.data
    finally:
        cache.release(key)
