"""Batched reverse-diffusion inference shared by the diffusion imputers.

:class:`InferenceEngine` owns the reverse-diffusion loop, the chunking of
work items (uniform segment windows or heterogeneous :class:`RequestPlan`
traffic), the per-window condition cache and the strided-window overlap
averaging used by :meth:`repro.core.imputer.ConditionalDiffusionImputer.impute`.
See :mod:`repro.inference.engine` for the batching contract and
:mod:`repro.inference.compiled` for trace-and-replay of that loop.

:mod:`repro.inference.backend` layers the stateless request-oriented
backends on top: :class:`DiffusionBackend` / :class:`WindowedBackend` impute
raw ``(values, observed_mask)`` arrays of arbitrary length (scaling,
conditioning and engine dispatch inside) and expose the plan/assemble
protocol the serving micro-batcher coalesces.
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
