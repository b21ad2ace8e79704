"""Request-oriented serving stack: registry, micro-batching service, streams.

The offline path (``model.impute(dataset, segment=...)``) assumes the caller
owns a full dataset and a trained in-memory model.  This package is the
production-facing counterpart built on the stateless
:mod:`repro.inference.backend` layer:

:class:`ModelRegistry`
    ``name@version`` → :mod:`repro.io` artifacts.  It holds no loaded
    model: every process resolves models through its one backend cache
    (:func:`repro.inference.backend.process_backend`).
:class:`ImputationService`
    A request queue plus a dynamic micro-batcher: concurrent requests for
    the same model coalesce into shared inference-engine chunks
    (size- and deadline-triggered flush), while a noise seed per request
    keeps every response bit-identical to the request served alone.  An
    inline flush runs exactly what a pool child runs.
:class:`WorkerPool`
    Parallel batch execution behind the service: one FIFO batch queue
    that idle workers take from, admission control
    (:class:`ServiceOverloaded`) and one child process per worker that
    rehydrates models from the artifact tree and exchanges tensors over
    shared memory.
:class:`StreamingImputer`
    Tick-by-tick sessions over live sensor streams, backed by a ring-buffer
    sliding window with incremental emissions.
:class:`Gateway` / :class:`GatewayServer`
    The wire protocol in front of all of it: a minimal-dependency asyncio
    HTTP server exposing submit/result/streaming endpoints with JSON and NPZ
    payload codecs, boundary validation, overload -> 429 mapping and graceful
    drain on SIGTERM (see :mod:`repro.serving.gateway`).
:class:`MetricsRegistry`
    The typed observability spine under all of the above, re-exported from
    the leaf module :mod:`repro.telemetry`: every layer registers its
    counters/gauges/histograms under dotted stable names
    (``service.queue.depth``, ``pool.splits``, ``transport.bytes_staged``),
    the backend and compile caches count ``registry.cache.hits``,
    ``compiled.cache.hits`` and friends in the process-wide
    :data:`~repro.telemetry.PROCESS_METRICS`, every counter is counted
    once, where its event happens (a pool child's batch reply adds what
    its ``PROCESS_METRICS`` gained with :meth:`MetricsRegistry.fold`), and
    one flat :meth:`~ImputationService.metrics_snapshot` covers the whole
    stack with a mode-independent key set.
:mod:`repro.serving.faults` / :mod:`repro.serving.resilience`
    Deterministic chaos and the machinery that survives it: a seeded,
    schedule-driven :class:`~repro.serving.faults.FaultInjector` with named
    injection points in every layer (no-op unless a plan is installed), and
    the resilience primitives the service composes — per-request
    :class:`Deadline` admission, bit-identical :class:`RetryPolicy` replays,
    per-model :class:`CircuitBreaker`, and a degraded-mode
    :class:`FallbackRouter` over the statistical baselines.  The invariant
    (gated by ``tests/test_resilience.py`` and ``benchmarks/bench_chaos.py``):
    every issued ticket resolves — success, typed
    :class:`~repro.serving.errors.ServingError`, or tagged degraded result —
    under any seeded fault schedule.
"""

from . import faults
from .errors import (
    CircuitOpen,
    DeadlineExceeded,
    PoolStopped,
    ServiceOverloaded,
    ServingError,
    TransportError,
    WorkerCrashed,
)
from .gateway import (
    Gateway,
    GatewayClient,
    GatewayError,
    GatewayServer,
    InProcessClient,
)
from ..telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .pool import BatchTask, RequestPayload, WorkerPool
from .registry import ModelRegistry, RegistryError, ResolvedModel
from .resilience import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    Deadline,
    FallbackRouter,
    RetryPolicy,
)
from .service import (
    ImputationRequest,
    ImputationResponse,
    ImputationService,
    PendingImputation,
)
from .streaming import StreamingImputer, StreamingUpdate

__all__ = [
    "ModelRegistry",
    "RegistryError",
    "ResolvedModel",
    "ImputationRequest",
    "ImputationResponse",
    "ImputationService",
    "PendingImputation",
    "WorkerPool",
    "BatchTask",
    "RequestPayload",
    "ServingError",
    "ServiceOverloaded",
    "PoolStopped",
    "WorkerCrashed",
    "TransportError",
    "CircuitOpen",
    "DeadlineExceeded",
    "Deadline",
    "RetryPolicy",
    "CircuitBreakerPolicy",
    "CircuitBreaker",
    "FallbackRouter",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "faults",
    "StreamingImputer",
    "StreamingUpdate",
    "Gateway",
    "GatewayServer",
    "GatewayClient",
    "GatewayError",
    "InProcessClient",
]
