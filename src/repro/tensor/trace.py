"""Trace-and-replay compilation of ``no_grad`` Tensor computations.

Eager inference pays a Python tax on every op: each call allocates a fresh
output ndarray, builds a :class:`~repro.tensor.Tensor` wrapper and (outside
``no_grad``) a backward closure.  For the reverse-diffusion hot loop the
*computation* is identical on every call of the same signature — only the
input buffers change — so this module records it once and replays it flat:

* a :class:`Tracer` (the ``trace(weights)`` context) hooks
  ``Tensor._from_op`` and records every op executed on the calling thread
  into a :class:`TraceGraph` of flat nodes.  Tensors whose arrays were
  registered as *inputs* stay symbolic.  The arrays of the ``weights``
  mapping (a network's named parameters) are resolved by identity as named
  *weight* values: instead of being baked, they are bound per weight set
  (below), so one program serves every set of weights of the same
  architecture.  Every other leaf (scalar diffusion coefficients,
  step-embedding table rows, graph supports) is captured **by reference**
  as a constant.  A ``reshape`` whose eager result did not alias its input
  (merging heads after ``swapaxes``) records as ``reshape_copy``, a copy
  into an arena slot rather than a view.
* :func:`compile_graph` plans the replay: constant folding splits off the
  nodes that read no input — capture-only folds are baked into the
  template, weight-reading folds (the step-embedding MLP, the adaptive
  adjacency) become the *prefold* schedule — dead code is dropped, a
  liveness pass assigns every intermediate a slot in a single pre-allocated
  buffer arena (slots are reused the moment their last consumer has run),
  and adjacent single-consumer elementwise ops are fused into one kernel
  closure.  The fused single-node ops from ``repro.tensor.ops`` (softmax,
  silu, gelu, layer_norm, attention_core, add_n) record as single nodes, so
  the planner reuses those kernels directly; gelu and layer_norm borrow
  their temporaries from the arena for the duration of the node.
* :meth:`CompiledProgram.bind` runs the prefold schedule on one weight set
  and returns the template :meth:`CompiledProgram.run` replays with; the
  traced weights bind through the same call.  ``run`` rebinds the inputs
  and executes the schedule — zero graph construction, zero Tensor
  wrappers, intermediates written in place via ``out=``.  What still
  allocates per replay: the output copies; the temporaries of the other
  fused kernels — softmax's shifted input, silu's sigmoid — and the per-row
  max and sum columns of every softmax and attention map (:func:`row_max`); the kernels that skip the
  arena (pow, where, stack, astype); and fancy ``getitem``, which copies
  while planned as a view.  The in-place layer norm takes its mean and
  variance columns from the arena (:func:`row_mean` writes into them); its
  allocating form, for an input that is not C-ordered, does not.

Bit-identity is the contract: every kernel replicates the *exact* numpy
expression of the eager op (same ufuncs, same operand order, same scalar
handling), so a replay produces the same bits as the recorded execution.
Anything the tracer cannot prove replayable — an op recorded without
metadata, a parameter derived from runtime data or from a weight, a
trainable tensor that is not one of the declared weights, an explicit
:func:`trace_barrier` — marks the trace failed; callers then fall back to
the eager path, which already ran to completion (tracing never changes what
the eager code computes).

The replay arena is shared mutable state: :meth:`CompiledProgram.run` is
not reentrant and callers (``repro.inference.compiled``) must serialise
replays of one program across threads.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from .tensor import _STATE

__all__ = [
    "TraceUnsupported",
    "TraceGraph",
    "Tracer",
    "CompiledProgram",
    "trace",
    "compile_graph",
    "active_trace",
    "trace_barrier",
    "trace_runtime_guard",
    "row_max",
    "row_mean",
]


class TraceUnsupported(RuntimeError):
    """The recorded computation cannot be compiled — fall back to eager."""


def active_trace():
    """Return the :class:`Tracer` recording on this thread, or ``None``."""
    return getattr(_STATE, "trace", None)


def trace_barrier(reason):
    """Mark any active trace on this thread as failed.

    Placed in code paths whose results depend on tensor *data* in ways the
    recorded graph cannot express (e.g. constants computed with raw numpy
    from an input, fresh RNG draws): replaying such a trace would silently
    bake stale values, so the trace is refused instead.
    """
    tracer = active_trace()
    if tracer is not None:
        tracer.fail(reason)


def trace_runtime_guard(array):
    """Fail any active trace if ``array`` holds runtime-traced data.

    Used by ops that consume an array *outside* the recorded dataflow (e.g.
    the ``where`` condition, which is converted to bool before recording):
    constants are fine to bake, values computed from the trace inputs are
    not.
    """
    tracer = active_trace()
    if tracer is not None and id(array) in tracer._runtime_ids:
        tracer.fail("op parameter derived from runtime data")


# ---------------------------------------------------------------------------
# Reductions shared by the fused ops and their replay kernels
# ---------------------------------------------------------------------------
# numpy reduces a short trailing axis row by row, with per-row overhead: a
# 16-wide mean costs about three times a length-16 contraction, and a max
# over the key axis of an attention map several times an elementwise
# ``np.maximum`` chain.  The fused eager ops in ``repro.tensor.ops`` and the
# kernels below call these helpers, so eager and replay run one expression.


def row_max(a, axis=-1):
    """``a.max(axis, keepdims=True)`` as an ``np.maximum`` chain along ``axis``.

    Max is exact, so the chain equals numpy's reduction except, possibly,
    for the sign of a zero maximum and the payload of a NaN; a softmax's
    subtract-then-exp maps both to the same bits.
    """
    parts = np.moveaxis(a, axis, 0)
    out = parts[0].copy()
    for part in parts[1:]:
        np.maximum(out, part, out=out)
    return np.expand_dims(out, axis)


@functools.lru_cache(maxsize=None)
def _mean_column(size, dtype):
    column = np.full((size, 1), 1.0 / size, dtype=dtype)
    column.setflags(write=False)
    return column


def row_mean(a, out=None):
    """``a.mean(axis=-1, keepdims=True)`` as a matmul with a ``(C, 1)``
    column of ``1/C`` (ulp-level from numpy's pairwise sum).

    The matmul runs per stacked ``(M, C)`` slice, so a row's result never
    depends on how many rows share the call; a 1-D or 2-D ``a``, whose
    ``M`` would be the batch, is contracted one row at a time (see
    ``repro.nn.Linear.forward``).  ``out`` is a C-ordered
    ``a.shape[:-1] + (1,)`` buffer.
    """
    column = _mean_column(a.shape[-1], a.dtype)
    if a.ndim >= 3:
        return np.matmul(a, column, out=out)
    rows = a.reshape(-1, 1, a.shape[-1])
    result = np.matmul(rows, column,
                       out=None if out is None else out.reshape(-1, 1, 1))
    return result.reshape(a.shape[:-1] + (1,)) if out is None else out


# ---------------------------------------------------------------------------
# Kernel registry
# ---------------------------------------------------------------------------
# Each kernel replays one recorded op: ``fn(out, params, *input_arrays)``
# returns the result array, writing into the arena slot ``out`` when one was
# planned (``uses_out``).  ``view`` kernels return a numpy view of their
# input (storage is aliased, never arena-allocated); ``elementwise`` flags
# feed the chain-fusion pass.  Every kernel mirrors the eager forward
# expression exactly — same ufuncs, same operand order — which is what makes
# replay bit-identical.


class _Kernel:
    __slots__ = ("fn", "elementwise", "view", "uses_out", "scratch")

    def __init__(self, fn, elementwise=False, view=False, uses_out=False,
                 scratch=None):
        self.fn = fn
        self.elementwise = elementwise
        self.view = view
        self.uses_out = uses_out
        # ``scratch(input_values, out_value)`` lists the ``(shape, dtype)``
        # temporaries the kernel's ``out`` form needs, or returns ``None``
        # when it cannot run in place; the planner lends them from the
        # arena and passes them as ``scratch=``.
        self.scratch = scratch


def _k_add(out, p, a, b):
    return a + b if out is None else np.add(a, b, out=out)


def _k_sub(out, p, a, b):
    return a - b if out is None else np.subtract(a, b, out=out)


def _k_mul(out, p, a, b):
    return a * b if out is None else np.multiply(a, b, out=out)


def _k_div(out, p, a, b):
    return a / b if out is None else np.true_divide(a, b, out=out)


def _k_neg(out, p, a):
    return -a if out is None else np.negative(a, out=out)


def _k_pow(out, p, a):
    # ``a ** e`` (ndarray.__pow__) may take integer-exponent fast paths that
    # plain np.power(..., out=) is not guaranteed to share bit-for-bit, so
    # this kernel replays the exact eager expression and skips the arena.
    return a ** p["exponent"]


def _k_matmul(out, p, a, b):
    return a @ b if out is None else np.matmul(a, b, out=out)


def _k_exp(out, p, a):
    return np.exp(a) if out is None else np.exp(a, out=out)


def _k_log(out, p, a):
    return np.log(a) if out is None else np.log(a, out=out)


def _k_sqrt(out, p, a):
    return np.sqrt(a) if out is None else np.sqrt(a, out=out)


def _k_abs(out, p, a):
    return np.abs(a) if out is None else np.abs(a, out=out)


def _k_tanh(out, p, a):
    return np.tanh(a) if out is None else np.tanh(a, out=out)


def _k_sigmoid(out, p, a):
    if out is None:
        return 1.0 / (1.0 + np.exp(-a))
    np.negative(a, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def _k_relu(out, p, a):
    mask = a > 0
    return a * mask if out is None else np.multiply(a, mask, out=out)


def _k_clip(out, p, a):
    return np.clip(a, p["min"], p["max"], out=out)


def _k_sum(out, p, a):
    return np.sum(a, axis=p["axis"], keepdims=p["keepdims"], out=out)


def _k_max(out, p, a):
    return np.max(a, axis=p["axis"], keepdims=p["keepdims"], out=out)


def _k_copy(out, p, a):
    if out is None:
        return a.copy()
    np.copyto(out, a)
    return out


def _k_astype(out, p, a):
    return a.astype(p["dtype"])


def _k_reshape(out, p, a):
    return a.reshape(p["shape"])


def _k_reshape_copy(out, p, a):
    # A reshape numpy cannot express as a view of its input (merging heads
    # after ``swapaxes``): copy in C order into the arena slot.
    if out is None:
        return a.reshape(p["shape"])
    np.copyto(out.reshape(a.shape), a)
    return out


def _k_transpose(out, p, a):
    return a.transpose(p["axes"])


def _k_expand_dims(out, p, a):
    return np.expand_dims(a, axis=p["axis"])


def _k_squeeze(out, p, a):
    return np.squeeze(a, axis=p["axis"])


def _k_broadcast_to(out, p, a):
    return np.broadcast_to(a, p["shape"])


def _k_getitem(out, p, a):
    return a[p["index"]]


def _k_add_n(out, p, *arrays):
    if out is None:
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        out = np.zeros(shape, dtype=np.result_type(*(a.dtype for a in arrays)))
    else:
        out[...] = 0
    for a in arrays:
        out += a
    return out


def _k_cat(out, p, *arrays):
    return np.concatenate(arrays, axis=p["axis"], out=out)


def _k_stack(out, p, *arrays):
    return np.stack(arrays, axis=p["axis"])


def _k_where(out, p, a, b):
    return np.where(p["condition"], a, b)


def _k_maximum(out, p, a, b):
    return np.maximum(a, b) if out is None else np.maximum(a, b, out=out)


def _k_softmax(out, p, a):
    axis = p["axis"]
    shifted = a - row_max(a, axis)
    if out is None:
        out = np.exp(shifted)
    else:
        np.exp(shifted, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _k_silu(out, p, a):
    sig = 1.0 / (1.0 + np.exp(-a))
    return a * sig if out is None else np.multiply(a, sig, out=out)


def _k_gelu(out, p, a, scratch=None):
    c = a.dtype.type(np.sqrt(2.0 / np.pi))
    if out is None:
        inner = np.tanh(c * (a + p["coeff"] * (a * a * a)))
        return 0.5 * a * (1.0 + inner)
    # The eager expression, one ufunc at a time: ``inner`` in the scratch
    # buffer, ``0.5 * a`` in the output slot.
    (inner,) = scratch
    np.multiply(a, a, out=inner)
    np.multiply(inner, a, out=inner)
    np.multiply(p["coeff"], inner, out=inner)
    np.add(a, inner, out=inner)
    np.multiply(c, inner, out=inner)
    np.tanh(inner, out=inner)
    np.add(1.0, inner, out=inner)
    np.multiply(0.5, a, out=out)
    np.multiply(out, inner, out=out)
    return out


def _gelu_scratch(ins, out):
    return [(out.shape, out.dtype)]


def _k_layer_norm(out, p, a, gamma, beta, scratch=None):
    # The in-place form keeps eager's reduction order only when ``a - mean``
    # is laid out like ``a``: a C-ordered ``a`` (the scratch is C-ordered).
    if out is None or scratch is None or not a.flags.c_contiguous:
        mean = row_mean(a)
        centered = a - mean
        variance = row_mean(centered * centered)
        inv_std = 1.0 / np.sqrt(variance + p["eps"])
        x_hat = centered * inv_std
        if out is None:
            return x_hat * gamma + beta
        np.add(x_hat * gamma, beta, out=out)
        return out
    # The same ufuncs in the same operand order: ``centered``/``x_hat`` in
    # one scratch buffer, the mean/variance/inv_std column in the other and
    # ``centered * centered`` in the output slot.
    centered, column = scratch
    row_mean(a, out=column)
    np.subtract(a, column, out=centered)
    np.multiply(centered, centered, out=out)
    row_mean(out, out=column)
    np.add(column, p["eps"], out=column)
    np.sqrt(column, out=column)
    np.true_divide(1.0, column, out=column)
    np.multiply(centered, column, out=centered)
    np.multiply(centered, gamma, out=centered)
    np.add(centered, beta, out=out)
    return out


def _layer_norm_scratch(ins, out):
    a, gamma, beta = ins
    if a.shape != out.shape or not (
            a.dtype == gamma.dtype == beta.dtype == out.dtype):
        return None
    return [(a.shape, a.dtype), (a.shape[:-1] + (1,), a.dtype)]


def _k_attention_core(out, p, q, k, v):
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= p["scale"]
    scores -= row_max(scores)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights @ v if out is None else np.matmul(weights, v, out=out)


def _k_attention_weights(out, p, q, k):
    # First half of _k_attention_core, split out by the planner so the
    # softmax attention map can be shared when Q and K are step-invariant
    # (PriSTI computes them from the prior, not the noisy stream).  The
    # ufunc sequence matches _k_attention_core exactly; the ``out`` form
    # runs the same ops in place on the arena slot.
    kt = np.swapaxes(k, -1, -2)
    scores = q @ kt if out is None else np.matmul(q, kt, out=out)
    scores *= p["scale"]
    scores -= row_max(scores)
    weights = np.exp(scores) if out is None else np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def _k_pad_time(out, p, a):
    axis = p["axis"]
    pad_width = [(0, 0)] * a.ndim
    pad_width[axis] = (p["pad_left"], p["pad_right"])
    if out is None:
        return np.pad(a, pad_width)
    out[...] = 0
    slicer = [slice(None)] * a.ndim
    slicer[axis] = slice(p["pad_left"], p["pad_left"] + a.shape[axis])
    out[tuple(slicer)] = a
    return out


_KERNELS = {
    "add": _Kernel(_k_add, elementwise=True, uses_out=True),
    "sub": _Kernel(_k_sub, elementwise=True, uses_out=True),
    "mul": _Kernel(_k_mul, elementwise=True, uses_out=True),
    "div": _Kernel(_k_div, elementwise=True, uses_out=True),
    "neg": _Kernel(_k_neg, elementwise=True, uses_out=True),
    "pow": _Kernel(_k_pow, elementwise=True),
    "matmul": _Kernel(_k_matmul, uses_out=True),
    "exp": _Kernel(_k_exp, elementwise=True, uses_out=True),
    "log": _Kernel(_k_log, elementwise=True, uses_out=True),
    "sqrt": _Kernel(_k_sqrt, elementwise=True, uses_out=True),
    "abs": _Kernel(_k_abs, elementwise=True, uses_out=True),
    "tanh": _Kernel(_k_tanh, elementwise=True, uses_out=True),
    "sigmoid": _Kernel(_k_sigmoid, elementwise=True, uses_out=True),
    "relu": _Kernel(_k_relu, elementwise=True, uses_out=True),
    "clip": _Kernel(_k_clip, elementwise=True, uses_out=True),
    "sum": _Kernel(_k_sum, uses_out=True),
    "max": _Kernel(_k_max, uses_out=True),
    "copy": _Kernel(_k_copy, uses_out=True),
    "astype": _Kernel(_k_astype),
    "reshape": _Kernel(_k_reshape, view=True),
    "reshape_copy": _Kernel(_k_reshape_copy, uses_out=True),
    "transpose": _Kernel(_k_transpose, view=True),
    "expand_dims": _Kernel(_k_expand_dims, view=True),
    "squeeze": _Kernel(_k_squeeze, view=True),
    "broadcast_to": _Kernel(_k_broadcast_to, view=True),
    # Basic getitem returns a view, fancy getitem a copy.  Both are planned
    # as views, which is safe but not free for a fancy index: its copy is a
    # fresh allocation outside the arena on every replay, and it keeps the
    # input's storage live for as long as the copy is used.
    "getitem": _Kernel(_k_getitem, view=True),
    "add_n": _Kernel(_k_add_n, uses_out=True),
    "cat": _Kernel(_k_cat, uses_out=True),
    "stack": _Kernel(_k_stack),
    "where": _Kernel(_k_where, elementwise=True),
    "maximum": _Kernel(_k_maximum, elementwise=True, uses_out=True),
    "softmax": _Kernel(_k_softmax, uses_out=True),
    "silu": _Kernel(_k_silu, elementwise=True, uses_out=True),
    "gelu": _Kernel(_k_gelu, elementwise=True, uses_out=True,
                    scratch=_gelu_scratch),
    "layer_norm": _Kernel(_k_layer_norm, uses_out=True,
                          scratch=_layer_norm_scratch),
    "attention_core": _Kernel(_k_attention_core, uses_out=True),
    "attention_weights": _Kernel(_k_attention_weights, uses_out=True),
    "pad_time": _Kernel(_k_pad_time, uses_out=True),
}


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class _Value:
    __slots__ = ("vid", "kind", "name", "shape", "dtype", "array")

    def __init__(self, vid, kind, shape, dtype, name=None, array=None):
        self.vid = vid
        self.kind = kind          # "input" | "weight" | "capture" | "op"
        self.name = name
        self.shape = shape
        self.dtype = dtype
        self.array = array        # captures only: the baked constant


class _Node:
    __slots__ = ("op", "params", "inputs", "out")

    def __init__(self, op, params, inputs, out):
        self.op = op
        self.params = params
        self.inputs = inputs
        self.out = out


class TraceGraph:
    """The flat op-node program a :class:`Tracer` records."""

    def __init__(self):
        self.values = []
        self.nodes = []
        self.inputs = {}          # name -> vid
        self.weights = {}         # name -> vid
        self.outputs = []         # vids
        self.failed = None        # first failure reason, or None


def _params_touch_runtime(value, runtime_ids):
    """Whether an op parameter smuggles in a runtime-traced array."""
    if isinstance(value, np.ndarray):
        return id(value) in runtime_ids
    if isinstance(value, dict):
        return any(_params_touch_runtime(v, runtime_ids) for v in value.values())
    if isinstance(value, (tuple, list)):
        return any(_params_touch_runtime(v, runtime_ids) for v in value)
    return False


class Tracer:
    """Records the ops executed on this thread into a :class:`TraceGraph`.

    Use as a context manager; the traced code runs eagerly and its results
    are valid whether or not the trace succeeds.  Values are resolved by the
    ``id`` of their underlying ndarray: arrays registered via
    :meth:`add_input` (and every recorded op output) are *runtime* values,
    the arrays of ``weights`` (name -> ndarray) are named weight values
    bound at replay time, and anything else reaching an op is captured by
    reference as a constant.  With ``weights`` given, a trainable tensor
    outside it fails the trace rather than bake one model's weights into a
    shared program.
    Runtime array ids are tracked through weak references so a collected
    intermediate can never alias a later allocation.
    """

    def __init__(self, weights=None):
        self.graph = TraceGraph()
        self._array_vids = {}
        self._runtime_ids = set()
        self._weakrefs = []
        self._captures = []          # strong refs: ids must stay stable
        self._input_arrays = {}
        self._weights_declared = weights is not None
        for name, array in (weights or {}).items():
            vid = self._new_value("weight", array.shape, array.dtype, name=name)
            self.graph.weights[name] = vid
            # Weights count as runtime data: an op parameter or a ``where``
            # condition holding one would bake it, so the guards refuse it.
            self._register_array(array, vid, runtime=True)

    # -- context management -------------------------------------------------
    def __enter__(self):
        if active_trace() is not None:
            raise RuntimeError("a trace is already active on this thread")
        _STATE.trace = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.trace = None
        return False

    # -- value registration -------------------------------------------------
    def _new_value(self, kind, shape, dtype, name=None, array=None):
        vid = len(self.graph.values)
        self.graph.values.append(_Value(vid, kind, shape, dtype, name, array))
        return vid

    def _register_array(self, array, vid, runtime):
        key = id(array)
        self._array_vids[key] = vid
        if runtime:
            self._runtime_ids.add(key)
            array_vids, runtime_ids = self._array_vids, self._runtime_ids

            def _purge(ref, key=key):
                array_vids.pop(key, None)
                runtime_ids.discard(key)

            self._weakrefs.append(weakref.ref(array, _purge))
        else:
            self._captures.append(array)

    def add_input(self, name, array):
        """Register ``array`` as a replay-time input and return it."""
        array = np.asarray(array)
        if name in self._input_arrays:
            raise ValueError(f"duplicate trace input {name!r}")
        vid = self._new_value("input", array.shape, array.dtype, name=name)
        self.graph.inputs[name] = vid
        self._input_arrays[name] = array
        self._register_array(array, vid, runtime=True)
        return array

    def _resolve(self, tensor):
        array = tensor.data
        vid = self._array_vids.get(id(array))
        if vid is not None:
            return vid
        if self._weights_declared and tensor.requires_grad:
            self.fail("a trainable tensor reached the trace without being "
                      "bound as a weight")
        vid = self._new_value("capture", array.shape, array.dtype, array=array)
        self._register_array(array, vid, runtime=False)
        return vid

    # -- recording ----------------------------------------------------------
    def fail(self, reason):
        if self.graph.failed is None:
            self.graph.failed = str(reason)

    def require_runtime(self, array, reason):
        """Fail the trace unless ``array`` was produced by recorded ops.

        Callers place this where a value computed *outside* the trace (raw
        numpy in a custom predictor, say) would otherwise resolve as a
        capture and silently bake one execution's data into every replay.
        """
        if self.graph.failed is None and id(array) not in self._runtime_ids:
            self.fail(reason)

    def record(self, op, inputs, params, out):
        """Hook called by ``Tensor._from_op`` (and friends) after each op."""
        if self.graph.failed is not None:
            return
        if op == "reshape" and not np.may_share_memory(out.data,
                                                       inputs[0].data):
            op = "reshape_copy"
        kernel = _KERNELS.get(op)
        if kernel is None:
            self.fail(f"op without a replay kernel: {op!r}")
            return
        if params and _params_touch_runtime(params, self._runtime_ids):
            self.fail(f"data-dependent parameter in op {op!r}")
            return
        in_vids = tuple(self._resolve(t) for t in inputs)
        data = out.data
        vid = self._new_value("op", data.shape, data.dtype)
        self.graph.nodes.append(_Node(op, params or {}, in_vids, vid))
        self._register_array(data, vid, runtime=True)

    def finish(self, outputs):
        """Declare the traced outputs and return the finished graph."""
        self.graph.outputs = [self._resolve(t) for t in outputs]
        return self.graph

    @property
    def failed(self):
        return self.graph.failed


def trace(weights=None):
    """Create a :class:`Tracer` (use as ``with trace() as tracer: ...``).

    ``weights`` maps names to the parameter arrays the traced code reads;
    they become bound weight values instead of baked constants.
    """
    return Tracer(weights)


# ---------------------------------------------------------------------------
# Planning and replay
# ---------------------------------------------------------------------------


def _make_step(kernel_fn, out_vid, in_vids, params, out_buf, scratch):
    if scratch is not None:
        kernel_fn = functools.partial(kernel_fn, scratch=scratch)

    def step(env):
        env[out_vid] = kernel_fn(out_buf, params, *[env[v] for v in in_vids])

    return step


def _make_fused(substeps):
    def step(env):
        for substep in substeps:
            substep(env)

    return step


class CompiledProgram:
    """A planned, replayable schedule compiled from a :class:`TraceGraph`."""

    def __init__(self, steps, template, input_specs, output_vids, stats,
                 weight_specs, prefold, bind_scratch):
        self._steps = steps
        self._template = template
        self._input_specs = input_specs
        self._output_vids = output_vids
        self._weight_specs = weight_specs
        self._prefold = prefold
        self._bind_scratch = bind_scratch
        self.stats = stats

    def bind(self, weights):
        """Bind a weight set; returns the template :meth:`run` replays with.

        ``weights`` maps names to arrays shaped like the traced ones.  The
        prefold schedule runs once on them, so a bound template holds the
        weight-derived constants (and the weights themselves) of this one
        weight set; nothing of it is kept by the program.
        """
        env = list(self._template)
        for name, (vid, shape, dtype) in self._weight_specs.items():
            array = weights.get(name)
            if array is None:
                raise TraceUnsupported(f"weight {name!r} is not bound")
            if array.shape != shape or array.dtype != dtype:
                raise TraceUnsupported(
                    f"weight {name!r} is {array.dtype}{array.shape}, traced "
                    f"as {dtype}{shape}"
                )
            env[vid] = array
        for fn, params, in_vids, out_vid in self._prefold:
            env[out_vid] = np.asarray(fn(None, params, *[env[v] for v in in_vids]))
        for vid in self._bind_scratch:
            env[vid] = None
        return env

    def run(self, inputs, bound=None):
        """Replay the schedule on fresh input arrays; returns output copies.

        ``bound`` is a template from :meth:`bind`; ``None`` binds no
        weights, which serves programs traced without any.  Not reentrant:
        intermediates live in a shared buffer arena, so concurrent replays
        of the same program must be serialised by the caller.
        """
        if set(inputs) != set(self._input_specs):
            raise TraceUnsupported(
                f"replay inputs {sorted(inputs)} do not match the traced "
                f"signature {sorted(self._input_specs)}"
            )
        env = list(self.bind({}) if bound is None else bound)
        for name, array in inputs.items():
            vid, shape, dtype = self._input_specs[name]
            if array.shape != shape or array.dtype != dtype:
                raise TraceUnsupported(
                    f"input {name!r} is {array.dtype}{array.shape}, traced "
                    f"as {dtype}{shape}"
                )
            env[vid] = array
        for step in self._steps:
            step(env)
        # The arena slots are reused on the next replay: hand back copies.
        return [np.array(env[vid]) for vid in self._output_vids]


def _freeze_param(value):
    """A hashable key for one op parameter (CSE node keys).

    Arrays freeze by identity — the tracer strong-refs every captured array,
    so two params are "the same" only when they are the same object, which is
    exactly the equality CSE needs (equal-but-distinct arrays stay distinct).
    ``slice`` is unhashable, so it freezes structurally.
    """
    if isinstance(value, np.ndarray):
        return ("nd", id(value))
    if isinstance(value, slice):
        return ("sl", value.start, value.stop, value.step)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_param(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return ("tu", tuple(_freeze_param(v) for v in value))
    if isinstance(value, np.dtype):
        return ("dt", str(value))
    return value


def compile_graph(graph):
    """Plan a :class:`TraceGraph` into a :class:`CompiledProgram`.

    Beyond scheduling, compilation runs three value-preserving optimisation
    passes before the arena/fusion planner:

    * **attention split** — each ``attention_core(q, k, v)`` node becomes
      ``attention_weights(q, k)`` + ``matmul(weights, v)`` (the exact same
      ufunc sequence, cut in two), so the softmax map becomes a node of its
      own that the next pass can deduplicate;
    * **constant folding** — nodes whose inputs are all constants leave the
      replay schedule.  Those fed by captures only run once here and bake
      their result into the template; those that read a weight (the
      diffusion step-embedding MLP: a table row through the projection
      weights) form the prefold schedule :meth:`CompiledProgram.bind` runs
      once per weight set;
    * **CSE** — structurally identical nodes fed by the same values merge.
      Reverse-diffusion traces recompute every prior-derived quantity (Q/K
      projections, attention maps, pooled keys) once per step; after CSE the
      replay computes each once per chunk.

    Raises :class:`TraceUnsupported` when the trace failed or recorded
    nothing replayable.
    """
    if graph.failed is not None:
        raise TraceUnsupported(graph.failed)
    if not graph.outputs:
        raise TraceUnsupported("trace declared no outputs")

    values = list(graph.values)

    # Pass 1: split attention_core so the (step-invariant, when Q/K come
    # from the conditioning prior) softmax map is CSE-able separately from
    # the step-varying value application.
    nodes = []
    attention_splits = 0
    for node in graph.nodes:
        if node.op == "attention_core":
            q_val, k_val = values[node.inputs[0]], values[node.inputs[1]]
            batch = np.broadcast_shapes(q_val.shape[:-2], k_val.shape[:-2])
            w_shape = tuple(batch) + (q_val.shape[-2], k_val.shape[-2])
            w_dtype = np.result_type(q_val.dtype, k_val.dtype)
            wid = len(values)
            values.append(_Value(wid, "op", w_shape, w_dtype))
            nodes.append(_Node("attention_weights", node.params,
                               (node.inputs[0], node.inputs[1]), wid))
            nodes.append(_Node("matmul", {}, (wid, node.inputs[2]), node.out))
            attention_splits += 1
        else:
            nodes.append(node)

    # Pass 2: constant folding.  ``baked`` maps vids produced purely from
    # captures to their compile-time result; ``weighted`` holds the weights
    # and every fold that reads one, which is deferred to the prefold
    # schedule.  Folded nodes leave the replay schedule either way.
    baked = {}
    weighted = set(graph.weights.values())

    def _constant(vid):
        return values[vid].kind == "capture" or vid in baked or vid in weighted

    folded = []
    prefold = []
    folded_ops = 0
    for node in nodes:
        if not node.inputs or not all(_constant(vin) for vin in node.inputs):
            folded.append(node)
            continue
        folded_ops += 1
        if any(vin in weighted for vin in node.inputs):
            weighted.add(node.out)
            prefold.append(node)
            continue
        arrays = [values[vin].array if values[vin].kind == "capture"
                  else baked[vin] for vin in node.inputs]
        baked[node.out] = np.asarray(
            _KERNELS[node.op].fn(None, node.params, *arrays))

    # Pass 3: common-subexpression elimination.  Processing in recorded
    # order lets merges cascade: once two steps' Q projections merge, the
    # head reshapes above them get identical input vids and merge too.
    remap = {}
    seen = {}
    cse_nodes = []
    cse_ops = 0
    for node in folded:
        inputs = tuple(remap.get(vin, vin) for vin in node.inputs)
        key = (node.op, _freeze_param(node.params), inputs)
        prior = seen.get(key)
        if prior is not None:
            remap[node.out] = prior
            cse_ops += 1
        else:
            seen[key] = node.out
            cse_nodes.append(_Node(node.op, node.params, inputs, node.out))
    outputs = [remap.get(vid, vid) for vid in graph.outputs]

    # Dead-code elimination: keep only nodes the outputs depend on.
    needed = set(outputs)
    schedule = []
    for node in reversed(cse_nodes):
        if node.out in needed:
            needed.update(node.inputs)
            schedule.append(node)
    schedule.reverse()

    # Storage roots: a view writes no buffer of its own — it aliases its
    # input's storage, which must stay live as long as the view is used.
    root = list(range(len(values)))
    for node in schedule:
        if _KERNELS[node.op].view:
            root[node.out] = root[node.inputs[0]]

    # Liveness: the schedule index after which each storage is dead.
    last_use = {}
    for index, node in enumerate(schedule):
        for vin in node.inputs:
            last_use[root[vin]] = index
        last_use[root[node.out]] = index
    for vid in outputs:
        last_use[root[vid]] = len(schedule)      # outputs are never freed

    release_at = {}
    for storage, index in last_use.items():
        if index < len(schedule):
            release_at.setdefault(index, []).append(storage)

    consumer_counts = {}
    for node in schedule:
        for vin in node.inputs:
            consumer_counts[vin] = consumer_counts.get(vin, 0) + 1
    output_set = set(outputs)

    # Arena assignment: exact (shape, dtype) slot reuse, freed only after
    # the producing/consuming node has fully run — an output buffer is never
    # one of the same node's dying inputs, which keeps kernels that read
    # while writing (matmul, reductions) trivially safe.  A kernel's scratch
    # buffers come from the same pool and go back to it right after the
    # node, so they never alias the node's inputs or output.
    pool = {}
    buffers = []
    buffer_of = {}
    node_steps = []
    reshape_copies = 0

    def _take(shape, dtype):
        free = pool.get((shape, dtype))
        if free:
            return free.pop()
        buf = np.empty(shape, dtype=dtype)
        buffers.append(buf)
        return buf

    def _give(buf):
        pool.setdefault((buf.shape, buf.dtype), []).append(buf)

    for index, node in enumerate(schedule):
        kernel = _KERNELS[node.op]
        out_value = values[node.out]
        out_buf = None
        scratch = None
        if kernel.uses_out and not kernel.view and out_value.kind == "op":
            out_buf = _take(out_value.shape, out_value.dtype)
            buffer_of[node.out] = out_buf
            if node.op == "reshape_copy":
                reshape_copies += 1
            needs = kernel.scratch and kernel.scratch(
                [values[vin] for vin in node.inputs], out_value)
            if needs:
                scratch = tuple(_take(shape, dtype) for shape, dtype in needs)
                for buf in scratch:
                    _give(buf)
        node_steps.append(_make_step(kernel.fn, node.out, node.inputs,
                                     node.params, out_buf, scratch))
        for storage in release_at.get(index, ()):
            buf = buffer_of.get(storage)
            if buf is not None:
                _give(buf)

    # Chain fusion: collapse maximal runs of elementwise ops where each op
    # is the sole consumer of its predecessor's result into one kernel
    # closure, removing per-op dispatch from the replay loop.
    steps = []
    fused_chains = 0
    fused_ops = 0
    index = 0
    while index < len(schedule):
        run_end = index
        while run_end + 1 < len(schedule):
            prev, nxt = schedule[run_end], schedule[run_end + 1]
            if (_KERNELS[prev.op].elementwise
                    and _KERNELS[nxt.op].elementwise
                    and prev.out in nxt.inputs
                    and consumer_counts.get(prev.out, 0) == 1
                    and prev.out not in output_set):
                run_end += 1
            else:
                break
        if run_end > index:
            steps.append(_make_fused(node_steps[index:run_end + 1]))
            fused_chains += 1
            fused_ops += run_end + 1 - index
        else:
            steps.append(node_steps[index])
        index = run_end + 1

    # Prefold: only the weight folds the schedule (or the outputs) read,
    # and what they read in turn.
    used = set(outputs)
    for node in schedule:
        used.update(node.inputs)
    needed = set(used)
    prefold_nodes = []
    for node in reversed(prefold):
        if node.out in needed:
            needed.update(node.inputs)
            prefold_nodes.append(node)
    prefold_nodes.reverse()

    # Template: only constants the schedule, the outputs or the prefold
    # read are retained — folding and CSE orphan many captures, and keeping
    # them would pin dead arrays for the lifetime of the program.
    template = [None] * len(values)
    constants = 0
    constant_scalars = 0
    for value in values:
        array = value.array if value.kind == "capture" else baked.get(value.vid)
        if array is not None and value.vid in needed:
            template[value.vid] = array
            constants += 1
            if array.size == 1:
                constant_scalars += 1

    input_specs = {
        values[vid].name: (vid, values[vid].shape, values[vid].dtype)
        for vid in graph.inputs.values()
    }
    weight_specs = {
        name: (vid, values[vid].shape, values[vid].dtype)
        for name, vid in graph.weights.items() if vid in needed
    }
    prefold_steps = [(_KERNELS[node.op].fn, node.params, node.inputs, node.out)
                     for node in prefold_nodes]

    stats = {
        "ops_recorded": len(graph.nodes),
        "ops_scheduled": len(schedule),
        "kernels": len(steps),
        "fused_chains": fused_chains,
        "fused_ops": fused_ops,
        "attention_splits": attention_splits,
        "folded_ops": folded_ops,
        "prefold_ops": len(prefold_nodes),
        "weights": len(weight_specs),
        "cse_ops": cse_ops,
        "reshape_copies": reshape_copies,
        "arena_buffers": len(buffers),
        "arena_bytes": int(sum(buf.nbytes for buf in buffers)),
        "values": len(values),
        "constants": constants,
        "constant_scalars": constant_scalars,
    }
    # A bound template drops what only the prefold reads.
    bind_scratch = sorted(needed - used)
    return CompiledProgram(steps, template, input_specs, outputs, stats,
                           weight_specs, prefold_steps, bind_scratch)
