"""Spans around the serving stack's layers, recorded from outside the program.

:func:`install` wraps public functions and methods of the repository at the
name their caller looks them up by (``compile_graph`` is looked up in
``repro.inference.compiled``, not in ``repro.tensor.trace``), records one span
per call — name, start, end, parent span, request id, attributes — in memory,
and :meth:`Tracer.uninstall` puts every original back.  Nothing inside
``src/`` changes.

Parents follow a context variable.  A method wrapper captures the current
span when the bound method is *looked up*, so a call handed to an executor
thread (the gateway runs ``session.imputer.push`` that way) still hangs under
the request that scheduled it.  Spans of one request share the root span's id
as request id; work picked up by another thread (the service's flush worker,
the pool's worker threads) starts a new root.

Timestamps are ``time.monotonic()``: one system-wide clock, so spans of the
server, its pool children and the load generator's phase marks compare
directly.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time

#: Set to a directory in the server's environment to trace it; spawned pool
#: children inherit it, re-import the server module and trace themselves.
TRACE_ENV = "PERFBENCH_TRACE_DIR"

_current = contextvars.ContextVar("perfbench_span", default=None)
_thread = threading.local()

#: Layers in the order the doc and the metrics list them.
LAYERS = ("gateway", "service", "registry", "streaming", "pool", "transport",
          "backend", "engine", "compiled", "core")


class Tracer:
    """An in-memory span log plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._patches = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _call(self, name, fn, args, kwargs, parent, attrs):
        span_id = next(self._ids)
        request_id = parent[1] if parent else span_id
        token = _current.set((span_id, request_id))
        start = time.monotonic()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic()
            _current.reset(token)
            self.spans.append((name, start, end, span_id,
                               parent[0] if parent else 0, request_id,
                               attrs(args, result) if attrs else None))

    async def _acall(self, name, fn, args, kwargs, parent, attrs):
        span_id = next(self._ids)
        request_id = parent[1] if parent else span_id
        token = _current.set((span_id, request_id))
        start = time.monotonic()
        result = None
        try:
            result = await fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic()
            _current.reset(token)
            self.spans.append((name, start, end, span_id,
                               parent[0] if parent else 0, request_id,
                               attrs(args, result) if attrs else None))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap_function(self, module, attr, name, attrs=None, before=None):
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            return self._call(name, original, args, kwargs, _current.get(), attrs)

        self._patch(module, attr, original, wrapper)

    def wrap_method(self, cls, attr, name, attrs=None, before=None,
                    is_async=False):
        original = cls.__dict__[attr]
        call = self._acall if is_async else self._call

        class SpanMethod:
            """Binds like a method; the parent span is the one current at
            lookup time (see the module docstring)."""

            def __get__(self, obj, owner=None):
                if obj is None:
                    return original
                parent = _current.get()

                def bound(*args, **kwargs):
                    if before is not None:
                        before((obj,) + args)
                    return call(name, original, (obj,) + args, kwargs, parent,
                                attrs)

                return bound

        self._patch(cls, attr, original, SpanMethod())

    def hook_method(self, cls, attr, after):
        """Call ``after(result)`` on every return, without recording a span."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(result)
            return result

        self._patch(cls, attr, original, wrapper)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every patched attribute (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def flush(self, path):
        """Write the recorded spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


# ---------------------------------------------------------------------------
# The layer boundaries
# ---------------------------------------------------------------------------
def _lookup_outcome(entry):
    from repro.inference.compiled import FALLBACK

    _thread.outcome = ("miss" if entry is None
                       else "fallback" if entry is FALLBACK else "hit")


def _reset_outcome(args):
    _thread.outcome = "eager"


def _stamp_dispatch(args):
    now = time.monotonic()
    for payload in args[1].payloads:
        payload._perfbench_dispatched = now


def _run_attrs(args, result):
    process, task = args[0], args[1]
    stamps = [getattr(payload, "_perfbench_dispatched", None)
              for payload in task.payloads]
    stamps = [stamp for stamp in stamps if stamp is not None]
    return {"child_pid": process.process.pid, "requests": len(task.payloads),
            "dispatched": min(stamps) if stamps else None}


def install():
    """Wrap every layer boundary the benchmark reports; returns the tracer."""
    import repro.io
    from repro.core.model import PriSTINetwork
    from repro.inference import compiled, engine
    from repro.inference.backend import DiffusionBackend
    from repro.serving import gateway, pool, registry, service, streaming, transport
    from repro.tensor.trace import CompiledProgram

    tracer = Tracer()
    # gateway (serving/gateway.py)
    tracer.wrap_method(gateway.Gateway, "handle", "gateway.handle", is_async=True,
                       attrs=lambda args, result: {
                           "status": result.status if result is not None else 0})
    # Waiting for another thread to serve the request belongs to no layer:
    # it is a child of gateway.handle so the gateway's self time leaves it out.
    tracer.wrap_method(gateway.Gateway, "_await_pending", "await.result",
                       is_async=True)
    tracer.wrap_function(gateway, "decode_array_payload", "gateway.decode")
    tracer.wrap_function(gateway, "encode_response_body", "gateway.encode",
                         attrs=lambda args, result: {
                             "bytes": len(result),
                             "queued": float(args[0].queued_seconds)})
    tracer.wrap_function(gateway, "encode_streaming_update", "gateway.encode",
                         attrs=lambda args, result: {"bytes": len(result)})
    # service (serving/service.py)
    tracer.wrap_method(service.ImputationService, "submit", "service.submit")
    for method in ("_process_batch", "_dispatch_batch"):
        tracer.wrap_method(service.ImputationService, method, "service.batch",
                           attrs=lambda args, result: {"requests": len(args[2])})
    # registry (serving/registry.py; worker rehydration goes through repro.io)
    tracer.wrap_method(registry.ModelRegistry, "publish", "registry.publish")
    tracer.wrap_function(registry, "load_model", "registry.load")
    tracer.wrap_function(repro.io, "load_model", "registry.load")
    # streaming (serving/streaming.py)
    tracer.wrap_method(streaming.StreamingImputer, "push", "streaming.push",
                       attrs=lambda args, result: {
                           "emitted": result is not None,
                           "cached": bool(result is not None
                                          and result.condition_cached)})
    # pool (serving/pool.py)
    tracer.wrap_method(pool.WorkerPool, "dispatch", "pool.dispatch",
                       before=_stamp_dispatch)
    tracer.wrap_method(pool._WorkerProcess, "run", "pool.run", attrs=_run_attrs)
    tracer.wrap_function(pool, "execute_batch", "pool.execute",
                         attrs=lambda args, result: {"requests": len(args[1])})
    # transport (serving/transport.py)
    tracer.wrap_method(transport.ShmArena, "stage", "transport.stage")
    tracer.wrap_method(transport.StagedBatch, "read_responses", "transport.copy_out")
    # backend (inference/backend.py)
    tracer.wrap_method(DiffusionBackend, "plan_request", "backend.plan")
    tracer.wrap_method(DiffusionBackend, "assemble", "backend.assemble")
    # engine (inference/engine.py)
    tracer.wrap_method(engine.InferenceEngine, "sample_plans", "engine.sample_plans",
                       attrs=lambda args, result: {"items": len(args[1])})
    # compiled (inference/compiled.py + tensor/trace.py)
    tracer.hook_method(compiled.CompiledStepCache, "lookup", _lookup_outcome)
    tracer.wrap_function(engine, "sample_chunk_compiled", "compiled.chunk",
                         before=_reset_outcome,
                         attrs=lambda args, result: {
                             "outcome": getattr(_thread, "outcome", "eager")})
    tracer.wrap_function(compiled, "compile_graph", "compiled.compile_graph")
    tracer.wrap_method(compiled.CompiledSampler, "run", "compiled.sampler_run")
    tracer.wrap_method(CompiledProgram, "run", "compiled.replay")
    # core (core/model.py, the eager network)
    tracer.wrap_method(PriSTINetwork, "forward", "core.forward")
    return tracer


def install_in_pool_child(trace_dir):
    """Trace a spawned pool child; its spans are written when its worker
    loop returns, which is when the pool drains and stops it."""
    from repro.serving import pool

    tracer = install()
    original = pool._process_worker_main

    @functools.wraps(original)
    def worker_main(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            tracer.flush(os.path.join(trace_dir, f"spans-{os.getpid()}.json"))

    tracer._patch(pool, "_process_worker_main", original, worker_main)
    return tracer


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def load_spans(trace_dir):
    """All span files of a traced run: ``[(pid, span_tuple)]``."""
    spans = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(trace_dir, entry), encoding="utf-8") as handle:
                document = json.load(handle)
            spans.extend((document["pid"], tuple(span))
                         for span in document["spans"])
    return spans


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    Children are the spans naming it as parent in the same process, plus —
    across the process boundary — a pool child's ``pool.execute`` spans that
    lie inside the ``pool.run`` span driving that child.
    """
    duration = {}
    children = {}
    runs_by_child = {}
    for pid, span in spans:
        name, start, end, span_id, parent = span[:5]
        duration[(pid, span_id)] = end - start
        if parent:
            children.setdefault((pid, parent), []).append((pid, span_id))
        if name == "pool.run" and span[6]:
            runs_by_child.setdefault(span[6]["child_pid"], []).append(
                (start, end, (pid, span_id)))
    for pid, span in spans:
        name, start, end, span_id = span[:4]
        if name != "pool.execute":
            continue
        for run_start, run_end, key in runs_by_child.get(pid, ()):
            if run_start <= start and end <= run_end:
                children.setdefault(key, []).append((pid, span_id))
                break
    return {key: duration[key] - sum(duration[child]
                                     for child in children.get(key, ()))
            for key in duration}
