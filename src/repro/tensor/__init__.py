"""Automatic differentiation substrate built on numpy.

The subpackage exposes the :class:`Tensor` graph node, functional operations,
random helpers and a finite-difference gradient checker.  Every neural model
in the reproduction (PriSTI, CSDI, BRITS, GRIN, the forecaster, …) is built
on top of this engine.

Performance knobs
-----------------
The backend is tuned for CPU throughput; three independent switches control
the hot path (all on by default except the dtype):

``dtype`` — :func:`set_default_dtype` / :func:`dtype_scope` select the leaf
    dtype (``float64`` default, ``float32`` fast).  Models expose it as
    ``PriSTIConfig(dtype="float32")``, which threads the dtype through
    parameter initialisation, the diffusion schedules, the mask/conditioning
    arrays and the samplers.  Binary ops coerce non-tensor operands (Python
    and numpy scalars) to the tensor's dtype, so a float32 graph stays
    float32 under NEP 50 promotion; ``tests/test_fused_backend.py`` walks a
    full forward/backward graph to pin this down.  Random draws always
    consume the generator in float64 and cast, so float32/float64 runs under
    one seed differ only by rounding (measured final-loss agreement ~1e-8
    relative at the fast profile).

``fused ops`` — :func:`softmax`, :func:`silu`, :func:`gelu`,
    :func:`layer_norm`, :func:`add_n` and :func:`attention_weights` are single
    autograd nodes with hand-derived backwards instead of chains of
    elementary ops; :func:`fusion_disabled` restores the composed reference
    chains (used by the equivalence tests and the benchmark baseline).
    Gradient accumulation (`Tensor._accumulate`) adds in place via
    ``np.add(..., out=)``.

``vectorized training`` — the optimisers flatten parameters into one
    contiguous buffer (``repro.nn.optim``), making ``Adam.step`` /
    ``zero_grad`` / ``clip_grad_norm`` whole-buffer numpy calls, and the
    training loop samples mask strategies for a whole batch at once
    (``repro.data.masks``); ``PriSTIConfig(vectorized_training=False)``
    restores the per-parameter / per-window loops.

Measured on the fast profile (``benchmarks/bench_training_throughput.py``,
JSON under ``benchmarks/results/``): fused float64 alone ≈ 1.5-2x faster
``fit()`` than the seed backend, fused float32 ≈ 2.4-3.1x (spread is
machine-load noise; the benchmark takes best-of-2 and asserts ≥ 2x).
Batched inference (``inference_batch_size``, PR 1) adds a further ≈ 3x on
``impute()`` in either dtype.
"""

from .tensor import (
    Tensor,
    as_tensor,
    no_grad,
    is_grad_enabled,
    set_default_dtype,
    get_default_dtype,
    dtype_scope,
)
from . import ops
from .ops import (
    add_n,
    cat,
    stack,
    split,
    where,
    maximum,
    softmax,
    log_softmax,
    relu,
    sigmoid,
    tanh,
    gelu,
    silu,
    leaky_relu,
    layer_norm,
    attention_weights,
    mse_loss,
    mae_loss,
    masked_mse_loss,
    masked_mae_loss,
    binary_cross_entropy,
    pad_time,
    fusion_disabled,
)
from .random import default_rng, randn, rand, randn_like, seed_everything
from .gradcheck import check_gradient, numerical_gradient
from . import trace as trace_module
from .trace import (
    CompiledProgram,
    TraceGraph,
    TraceUnsupported,
    Tracer,
    compile_graph,
    trace,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "dtype_scope",
    "ops",
    "add_n",
    "cat",
    "stack",
    "split",
    "where",
    "maximum",
    "softmax",
    "log_softmax",
    "relu",
    "sigmoid",
    "tanh",
    "gelu",
    "silu",
    "leaky_relu",
    "layer_norm",
    "attention_weights",
    "fusion_disabled",
    "mse_loss",
    "mae_loss",
    "masked_mse_loss",
    "masked_mae_loss",
    "binary_cross_entropy",
    "pad_time",
    "default_rng",
    "randn",
    "rand",
    "randn_like",
    "seed_everything",
    "check_gradient",
    "numerical_gradient",
    "trace",
    "Tracer",
    "TraceGraph",
    "TraceUnsupported",
    "CompiledProgram",
    "compile_graph",
]
