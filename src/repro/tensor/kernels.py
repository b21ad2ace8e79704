"""The forward computation of every op that can be replayed.

A kernel ``fn(out, params, *arrays)`` has two forms.  With ``out`` ``None``,
the *allocating form* returns a fresh result: it is the op's eager forward
(the fused ops of :mod:`repro.tensor.ops` and ``Tensor.sigmoid`` call it)
and what the planner's constant folding and prefold run.  With ``out`` an
arena slot, the *``out=`` form* (``uses_out`` kernels) writes the result
there for the replay tape, running the allocating form's ufuncs in the same
operand order, so eager and replay agree bit for bit.  A kernel without an
``out=`` form only returns; ``view`` kernels return a view of their input,
taken once at plan time; a ``scratch`` callback lists the temporaries an
``out=`` form borrows from the arena.  Ops whose backward reuses forward
intermediates (gelu, silu, layer_norm) have a forward helper that returns
them, called by the eager op and the allocating form alike.

An ``inplace`` kernel's ``out=`` form may be handed one of its own operands
as ``out`` (same shape, dtype and layout): it reads each operand element
before it writes that element — an elementwise ufunc, or a fused op whose
reads all precede its first write to ``out`` or happen element by element —
so the aliased call has the bits of a call with a separate ``out``, and the
planner may write a node's result into an operand buffer that dies at the
node.  The flag is a fixed property of each kernel.  A kernel that zeroes
or overwrites its output before it has read its inputs (matmul,
attention_weights, cat, add_n, pad_time, reshape_copy, the reductions) is
never flagged.

Per replay an ``out=`` form still allocates softmax's shifted input, silu's
sigmoid and the row max and sum columns of each softmax and attention map;
the in-place layer norm takes its mean and variance columns from the arena,
and an input that is not C-ordered takes the allocating form.

A leaf module (numpy and the standard library only), so ``tensor.py``,
``ops.py`` and ``trace.py`` all import it without a cycle.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["row_max", "row_mean", "gelu_forward", "silu_forward", "layer_norm_forward"]


# numpy reduces a short trailing axis row by row, with per-row overhead: a
# 16-wide mean costs about three times a length-16 contraction, and a max
# over the key axis of an attention map several times an elementwise
# ``np.maximum`` chain.


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


def gelu_forward(a, coeff):
    """Tanh-approximation GELU; returns ``(out, tanh(u), c)``."""
    c = a.dtype.type(np.sqrt(2.0 / np.pi))
    # Cube by multiplication: ``a ** 3`` goes through libm ``pow``, which is
    # far slower and rounds differently from ``ops._gelu_reference``.
    inner = np.tanh(c * (a + coeff * (a * a * a)))
    return 0.5 * a * (1.0 + inner), inner, c


def silu_forward(a, out=None):
    """``a * sigmoid(a)``; returns ``(out, sigmoid(a))``."""
    sig = _k_sigmoid(None, None, a)
    return np.multiply(a, sig, out=out), sig


def layer_norm_forward(a, gamma, beta, eps, out=None):
    """Layer norm over the trailing axis, mean and variance by contraction;
    returns ``(out, x_hat, inv_std)``."""
    mean = row_mean(a)
    centered = a - mean
    variance = row_mean(centered * centered)
    inv_std = 1.0 / np.sqrt(variance + eps)
    x_hat = centered * inv_std
    return np.add(x_hat * gamma, beta, out=out), x_hat, inv_std


class _Kernel:
    __slots__ = ("fn", "view", "uses_out", "scratch", "inplace")

    def __init__(self, fn, view=False, uses_out=False, scratch=None,
                 inplace=False):
        self.fn = fn
        self.view = view
        self.uses_out = uses_out
        # ``inplace``: the ``out=`` form is exact with ``out`` one of its
        # operands (see the module docstring).
        self.inplace = inplace
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
    # this kernel replays the exact eager expression (copied into its slot).
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
    return silu_forward(a, out=out)[0]


def _k_gelu(out, p, a, scratch=None):
    if out is None:
        return gelu_forward(a, p["coeff"])[0]
    # :func:`gelu_forward` one ufunc at a time: ``inner`` in the scratch
    # buffer, ``0.5 * a`` in the output slot.
    c = a.dtype.type(np.sqrt(2.0 / np.pi))
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
    # The in-place form keeps the reduction order of the allocating form
    # only when ``a - mean`` is laid out like ``a``: a C-ordered ``a`` (the
    # scratch is C-ordered).
    if out is None or scratch is None or not a.flags.c_contiguous:
        return layer_norm_forward(a, gamma, beta, p["eps"], out=out)[0]
    # :func:`layer_norm_forward`'s ufuncs in the same operand order:
    # ``centered``/``x_hat`` in one scratch buffer, the mean/variance/inv_std
    # column in the other and ``centered * centered`` in the output slot.
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
    # Never replayed: the planner splits every attention_core node into
    # attention_weights + matmul, which is this composition.
    return np.matmul(_k_attention_weights(None, p, q, k), v, out=out)


def _k_attention_weights(out, p, q, k):
    # The softmax map ``softmax(q kᵀ · scale)`` of attention_core; the
    # ``out`` form runs the same ops in place on the arena slot.
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
    "add": _Kernel(_k_add, uses_out=True, inplace=True),
    "sub": _Kernel(_k_sub, uses_out=True, inplace=True),
    "mul": _Kernel(_k_mul, uses_out=True, inplace=True),
    "div": _Kernel(_k_div, uses_out=True, inplace=True),
    "neg": _Kernel(_k_neg, uses_out=True, inplace=True),
    "pow": _Kernel(_k_pow),
    "matmul": _Kernel(_k_matmul, uses_out=True),
    "exp": _Kernel(_k_exp, uses_out=True, inplace=True),
    "log": _Kernel(_k_log, uses_out=True, inplace=True),
    "sqrt": _Kernel(_k_sqrt, uses_out=True, inplace=True),
    "abs": _Kernel(_k_abs, uses_out=True, inplace=True),
    "tanh": _Kernel(_k_tanh, uses_out=True, inplace=True),
    "sigmoid": _Kernel(_k_sigmoid, uses_out=True, inplace=True),
    "relu": _Kernel(_k_relu, uses_out=True, inplace=True),
    "clip": _Kernel(_k_clip, uses_out=True),
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
    # Basic getitem returns a view, which the planner takes once; fancy
    # getitem returns a copy, which fails the planner's aliasing check and
    # replays as its eager copy written into a slot.  Liveness still treats
    # it as a view: the input's storage stays live while the copy is used,
    # and the copy's slot is never reused.
    "getitem": _Kernel(_k_getitem, view=True),
    "add_n": _Kernel(_k_add_n, uses_out=True),
    "cat": _Kernel(_k_cat, uses_out=True),
    "stack": _Kernel(_k_stack),
    "where": _Kernel(_k_where),
    "maximum": _Kernel(_k_maximum, uses_out=True, inplace=True),
    "softmax": _Kernel(_k_softmax, uses_out=True, inplace=True),
    "silu": _Kernel(_k_silu, uses_out=True, inplace=True),
    "gelu": _Kernel(_k_gelu, uses_out=True, scratch=_gelu_scratch,
                    inplace=True),
    "layer_norm": _Kernel(_k_layer_norm, uses_out=True,
                          scratch=_layer_norm_scratch, inplace=True),
    "attention_core": _Kernel(_k_attention_core, uses_out=True),
    "attention_weights": _Kernel(_k_attention_weights, uses_out=True),
    "pad_time": _Kernel(_k_pad_time, uses_out=True),
}
