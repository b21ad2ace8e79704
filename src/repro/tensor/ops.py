"""Functional operations on :class:`~repro.tensor.Tensor` objects.

These complement the methods defined on the tensor class with operations that
naturally take several tensors (concatenation, stacking, where) or that are
conventionally written in functional form (softmax, losses).

Fused kernels
-------------
The hot-path operations — :func:`softmax`, :func:`silu`, :func:`gelu`,
:func:`layer_norm`, :func:`add_n`, :func:`attention_weights` and
:func:`pad_time` — are *single* autograd nodes: one forward and one
hand-derived backward closure, instead of a chain of elementary ``Tensor``
ops each allocating its own output and gradient temporaries.  The forward is
the op's replay kernel from :mod:`repro.tensor.kernels` (its allocating
form, or the forward helper that also returns what the backward reuses), so
the eager op and a compiled replay run one spelling of the math; only the
backward lives here.  The chained reference implementations are kept
(``fusion_disabled()`` switches every dispatching op to them) both as
executable documentation and so tests can assert the fused and composed
paths agree to machine precision.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .kernels import (_k_add_n, _k_attention_weights, _k_pad_time, _k_softmax,
                      gelu_forward, layer_norm_forward, silu_forward)
from .tensor import Tensor, as_tensor, _unbroadcast
from .trace import trace_barrier, trace_runtime_guard

__all__ = [
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
    "mse_loss",
    "mae_loss",
    "masked_mse_loss",
    "masked_mae_loss",
    "binary_cross_entropy",
    "pad_time",
    "fusion_disabled",
]

_FUSION_ENABLED = [True]


@contextlib.contextmanager
def fusion_disabled():
    """Context manager that routes fusable ops through the composed chains.

    Used by the equivalence tests and by the training benchmark to measure
    the seed (unfused) backend.
    """
    previous = _FUSION_ENABLED[0]
    _FUSION_ENABLED[0] = False
    try:
        yield
    finally:
        _FUSION_ENABLED[0] = previous


def _add_n_reference(tensors):
    """Left-fold chain of ``__add__`` nodes (the seed implementation)."""
    out = tensors[0]
    for tensor in tensors[1:]:
        out = out + tensor
    return out


def add_n(tensors):
    """Sum a sequence of tensors elementwise as a single graph node.

    The seed implementation left-folded ``__add__``, which built ``n - 1``
    graph nodes and as many full-size temporaries — quadratic traffic for the
    long skip-connection sums of the noise-estimation stack.  The fused
    version allocates one output and distributes the output gradient to every
    parent directly.
    """
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("add_n() requires at least one tensor")
    if len(tensors) == 1:
        return tensors[0]
    if not _FUSION_ENABLED[0]:
        return _add_n_reference(tensors)

    out_data = _k_add_n(None, None, *(t.data for t in tensors))

    def backward(grad):
        grad = np.asarray(grad)
        for tensor in tensors:
            if tensor.requires_grad:
                tensor._accumulate(_unbroadcast(grad, tensor.data.shape))

    return Tensor._from_op(out_data, tuple(tensors), backward, "add_n")


def cat(tensors, axis=0):
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        grad = np.asarray(grad)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not tensor.requires_grad:
                continue
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._from_op(out_data, tuple(tensors), backward, "cat",
                            {"axis": axis})


def stack(tensors, axis=0):
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        grad = np.asarray(grad)
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(piece.reshape(tensor.data.shape))

    return Tensor._from_op(out_data, tuple(tensors), backward, "stack",
                            {"axis": axis})


def split(tensor, sections, axis=0):
    """Split a tensor into equally sized chunks along ``axis``."""
    tensor = as_tensor(tensor)
    size = tensor.shape[axis]
    if size % sections != 0:
        raise ValueError(f"cannot split axis of size {size} into {sections} sections")
    chunk = size // sections
    outputs = []
    for i in range(sections):
        slicer = [slice(None)] * tensor.ndim
        slicer[axis] = slice(i * chunk, (i + 1) * chunk)
        outputs.append(tensor[tuple(slicer)])
    return outputs


def where(condition, x, y):
    """Elementwise select ``x`` where ``condition`` else ``y``.

    ``condition`` is treated as a constant (no gradient flows through it).
    """
    condition = np.asarray(condition.data if isinstance(condition, Tensor) else condition)
    # The condition is baked into the replay as a constant; refuse to trace
    # when it was computed from runtime data.
    trace_runtime_guard(condition)
    mask = condition.astype(bool)
    x = as_tensor(x)
    y = as_tensor(y)
    out_data = np.where(mask, x.data, y.data)

    def backward(grad):
        grad = np.asarray(grad)
        if x.requires_grad:
            x._accumulate(_reduce_like(grad * mask, x.data.shape))
        if y.requires_grad:
            y._accumulate(_reduce_like(grad * (~mask), y.data.shape))

    return Tensor._from_op(out_data, (x, y), backward, "where",
                            {"condition": mask})


def _reduce_like(grad, shape):
    return _unbroadcast(np.asarray(grad), shape)


def maximum(x, y):
    """Elementwise maximum with subgradient split evenly on ties."""
    x = as_tensor(x)
    y = as_tensor(y)
    out_data = np.maximum(x.data, y.data)
    x_wins = (x.data > y.data).astype(out_data.dtype)
    ties = (x.data == y.data).astype(out_data.dtype) * 0.5

    def backward(grad):
        grad = np.asarray(grad)
        if x.requires_grad:
            x._accumulate(_reduce_like(grad * (x_wins + ties), x.data.shape))
        if y.requires_grad:
            y._accumulate(_reduce_like(grad * (1.0 - x_wins - ties), y.data.shape))

    return Tensor._from_op(out_data, (x, y), backward, "maximum")


def _softmax_reference(x, axis=-1):
    """Composed softmax: max-shift, exp, normalise (four graph nodes)."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis`` (fused single node).

    Backward uses the standard Jacobian-vector product
    ``dx = y * (dy - sum(dy * y))`` without materialising the Jacobian.
    """
    x = as_tensor(x)
    if not _FUSION_ENABLED[0]:
        return _softmax_reference(x, axis=axis)
    params = {"axis": axis}
    out_data = _k_softmax(None, params, x.data)

    def backward(grad):
        if x.requires_grad:
            inner = grad * out_data
            inner -= out_data * inner.sum(axis=axis, keepdims=True)
            x._accumulate(inner)

    return Tensor._from_op(out_data, (x,), backward, "softmax", params)


def log_softmax(x, axis=-1):
    """Log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def relu(x):
    return as_tensor(x).relu()


def sigmoid(x):
    return as_tensor(x).sigmoid()


def tanh(x):
    return as_tensor(x).tanh()


_GELU_COEFF = 0.044715


def _gelu_reference(x):
    """Composed tanh-approximation GELU (seven graph nodes)."""
    inner = (x + x * x * x * _GELU_COEFF) * float(np.sqrt(2.0 / np.pi))
    return x * 0.5 * (inner.tanh() + 1.0)


def gelu(x):
    """Gaussian error linear unit using the tanh approximation (fused)."""
    x = as_tensor(x)
    if not _FUSION_ENABLED[0]:
        return _gelu_reference(x)
    data = x.data
    out_data, inner, c = gelu_forward(data, _GELU_COEFF)

    def backward(grad):
        if x.requires_grad:
            # d/dx [0.5 x (1 + tanh(u))] with u = c (x + a x^3)
            local = 0.5 * (1.0 + inner)
            local += 0.5 * data * (1.0 - inner ** 2) * c * (1.0 + 3.0 * _GELU_COEFF * data ** 2)
            x._accumulate(grad * local)

    return Tensor._from_op(out_data, (x,), backward, "gelu",
                            {"coeff": _GELU_COEFF})


def _silu_reference(x):
    """Composed SiLU: ``x * sigmoid(x)`` (two graph nodes)."""
    return x * x.sigmoid()


def silu(x):
    """Sigmoid-weighted linear unit (a.k.a. swish), fused into one node."""
    x = as_tensor(x)
    if not _FUSION_ENABLED[0]:
        return _silu_reference(x)
    out_data, sig = silu_forward(x.data)

    def backward(grad):
        if x.requires_grad:
            # d/dx [x s(x)] = s(x) (1 + x (1 - s(x)))
            x._accumulate(grad * (sig * (1.0 + x.data * (1.0 - sig))))

    return Tensor._from_op(out_data, (x,), backward, "silu")


def leaky_relu(x, negative_slope=0.01):
    x = as_tensor(x)
    # The slope mask is a fresh leaf computed from x's data with raw numpy:
    # a replay would bake it stale, so refuse to trace through it.
    trace_barrier("leaky_relu computes a data-dependent constant")
    mask = (x.data > 0).astype(x.data.dtype)
    scale = Tensor(mask + negative_slope * (1.0 - mask), dtype=x.data.dtype)
    return x * scale


def layer_norm(x, gamma, beta, eps=1e-5):
    """Layer normalisation over the trailing axis as a single graph node.

    Normalises ``x`` to zero mean / unit (biased) variance along the last
    axis, then applies the learned affine ``gamma * x_hat + beta``.  The
    composed implementation (mean/var/sqrt chain, kept under
    :func:`fusion_disabled`) builds ~10 graph nodes per call; the fused
    backward is the standard three-term layer-norm gradient.
    """
    x = as_tensor(x)
    gamma = as_tensor(gamma)
    beta = as_tensor(beta)
    if not _FUSION_ENABLED[0]:
        mean = x.mean(axis=-1, keepdims=True)
        variance = x.var(axis=-1, keepdims=True)
        normalised = (x - mean) / (variance + eps).sqrt()
        return normalised * gamma + beta

    out_data, x_hat, inv_std = layer_norm_forward(x.data, gamma.data,
                                                  beta.data, eps)

    def backward(grad):
        grad = np.asarray(grad)
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(grad, beta.data.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(grad * x_hat, gamma.data.shape))
        if x.requires_grad:
            d_hat = grad * gamma.data
            term = d_hat - d_hat.mean(axis=-1, keepdims=True)
            term -= x_hat * np.mean(d_hat * x_hat, axis=-1, keepdims=True)
            x._accumulate(inv_std * term)

    return Tensor._from_op(out_data, (x, gamma, beta), backward, "layer_norm",
                            {"eps": eps})


def attention_weights(queries, keys, scale=1.0):
    """Fused scaled-dot-product attention map ``softmax(Q Kᵀ · scale)``.

    ``queries`` are ``(..., S_q, d)`` and ``keys`` ``(..., S_k, d)`` with
    broadcastable leading (batch/head) axes; the map is ``(..., S_q, S_k)``
    and is applied to the values with an ordinary matmul.  The composed
    path (a matmul node, a scaling node and a four-node softmax)
    materialises five intermediate tensors per call; the fused node keeps
    only the map, and its backward is the softmax Jacobian-vector product
    followed by the two score products.
    """
    queries = as_tensor(queries)
    keys = as_tensor(keys)
    if not _FUSION_ENABLED[0]:
        scores = queries @ keys.swapaxes(-1, -2)
        return softmax(scores * float(scale), axis=-1)

    scale = queries.data.dtype.type(scale)
    params = {"scale": scale}
    weights = _k_attention_weights(None, params, queries.data, keys.data)

    def backward(grad):
        d_scores = weights * grad
        d_scores -= weights * d_scores.sum(axis=-1, keepdims=True)
        d_scores *= scale
        if queries.requires_grad:
            queries._accumulate(
                _unbroadcast(d_scores @ keys.data, queries.data.shape)
            )
        if keys.requires_grad:
            keys._accumulate(
                _unbroadcast(np.swapaxes(d_scores, -1, -2) @ queries.data, keys.data.shape)
            )

    return Tensor._from_op(weights, (queries, keys), backward,
                            "attention_weights", params)


def mse_loss(prediction, target):
    """Mean squared error between two tensors."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def mae_loss(prediction, target):
    """Mean absolute error between two tensors."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    return (prediction - target).abs().mean()


def _loss_target_like(prediction, target):
    """Coerce a loss target to the prediction's dtype.

    ``as_tensor`` leaves existing Tensors untouched, so a float64 target
    Tensor would silently upcast a float32 loss graph under numpy promotion.
    Constant targets (the overwhelmingly common case) are cast; a target
    that itself requires grad keeps its dtype, since casting would detach it.
    """
    target = as_tensor(target, dtype=prediction.data.dtype)
    if target.data.dtype != prediction.data.dtype and not target.requires_grad:
        target = target.astype(prediction.data.dtype)
    return target


def masked_mse_loss(prediction, target, mask, eps=1e-8):
    """Mean squared error restricted to entries where ``mask`` is 1."""
    prediction = as_tensor(prediction)
    target = _loss_target_like(prediction, target)
    mask_array = np.asarray(mask.data if isinstance(mask, Tensor) else mask,
                            dtype=prediction.data.dtype)
    mask_tensor = Tensor(mask_array, dtype=mask_array.dtype)
    diff = (prediction - target) * mask_tensor
    denom = float(mask_array.sum()) + eps
    return (diff * diff).sum() * (1.0 / denom)


def masked_mae_loss(prediction, target, mask, eps=1e-8):
    """Mean absolute error restricted to entries where ``mask`` is 1."""
    prediction = as_tensor(prediction)
    target = _loss_target_like(prediction, target)
    mask_array = np.asarray(mask.data if isinstance(mask, Tensor) else mask,
                            dtype=prediction.data.dtype)
    mask_tensor = Tensor(mask_array, dtype=mask_array.dtype)
    diff = ((prediction - target) * mask_tensor).abs()
    denom = float(mask_array.sum()) + eps
    return diff.sum() * (1.0 / denom)


def binary_cross_entropy(prediction, target, eps=1e-7):
    """Binary cross entropy on probabilities (used by the GAN baseline)."""
    prediction = as_tensor(prediction).clip(eps, 1.0 - eps)
    target = as_tensor(target)
    loss = -(target * prediction.log() + (1.0 - target) * (1.0 - prediction).log())
    return loss.mean()


def pad_time(x, pad_left, pad_right, axis=-2):
    """Zero-pad a tensor along the time axis (constant padding)."""
    x = as_tensor(x)
    params = {"pad_left": pad_left, "pad_right": pad_right, "axis": axis}
    out_data = _k_pad_time(None, params, x.data)
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(pad_left, pad_left + x.shape[axis])
    slicer = tuple(slicer)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(np.asarray(grad)[slicer])

    return Tensor._from_op(out_data, (x,), backward, "pad_time", params)
