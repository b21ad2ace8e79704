"""Batched reverse-diffusion inference shared by the diffusion imputers.

:class:`InferenceEngine` owns the reverse-diffusion loop and samples
:class:`RequestPlan` items in shape-grouped chunks.  See
:mod:`repro.inference.engine` for the batching contract and
:mod:`repro.inference.compiled` for trace-and-replay of that loop.

:mod:`repro.inference.backend` layers the stateless request-oriented
backends on top: :class:`DiffusionBackend` / :class:`WindowedBackend` impute
``(values, observed_mask)`` arrays of arbitrary length.
:class:`DiffusionBackend` owns the window plan (window starts, the
per-window condition cache, strided-window overlap averaging) and runs every
diffusion imputation — ``model.impute``, raw arrays and the serving
micro-batcher — as plan → one engine pass → assemble.
"""

from .backend import (
    DiffusionBackend,
    ImputationBackend,
    RawImputation,
    RequestJob,
    WindowedBackend,
)
from .compiled import (
    CompiledSampler,
    CompiledStepCache,
    compile_enabled,
)
from .engine import InferenceEngine, RequestPlan

__all__ = [
    "InferenceEngine",
    "RequestPlan",
    "ImputationBackend",
    "DiffusionBackend",
    "WindowedBackend",
    "RawImputation",
    "RequestJob",
    "CompiledSampler",
    "CompiledStepCache",
    "compile_enabled",
]
