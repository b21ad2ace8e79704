"""Reverse-mode automatic differentiation over numpy ndarrays.

This module is the computational substrate of the whole reproduction: the
paper's noise-prediction network, its baselines and the training loops are all
expressed in terms of :class:`Tensor`.  The design mirrors the familiar
define-by-run style of PyTorch autograd: every operation records the parent
tensors and a closure that propagates the output gradient back to them, and
:meth:`Tensor.backward` walks the recorded graph in reverse topological order.

Only the operations needed by the model zoo are implemented, but each one
supports full numpy broadcasting, and gradients are validated against finite
differences in ``tests/tensor``.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .kernels import _k_sigmoid

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "dtype_scope",
]

# Both interpreter-wide switches have a *thread-local* override layer: the
# process-wide value is what ``set_default_dtype`` writes, while ``dtype_scope``
# and ``no_grad`` only ever touch the calling thread's view.  The serving
# service's flush thread can run inference while other threads train, impute
# directly or drive a flush themselves (``serve``, ``flush``, a ``result``
# call with no flush worker), and a scope entered by one request must not
# change the numerics (dtype casts) or the graph policy of a request running
# on another thread — that isolation is part of the micro-batching bit-identity contract.
_STATE = threading.local()

_GRAD_ENABLED_DEFAULT = True

_DEFAULT_DTYPE = [np.dtype(np.float64)]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype):
    """Set the dtype used for newly created leaf tensors (process-wide).

    ``float64`` (the default) is required for finite-difference gradient
    checking; ``float32`` halves the memory traffic of the training and
    inference hot paths.  Operation *results* always follow their input
    dtypes, so an existing graph is unaffected by changing the default.
    Prefer :func:`dtype_scope` inside library code — it is scoped to the
    calling thread and restores itself.
    """
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError("default dtype must be float32 or float64")
    _DEFAULT_DTYPE[0] = dtype


def get_default_dtype():
    """Return the dtype used for newly created leaf tensors.

    The calling thread's :func:`dtype_scope` override wins over the
    process-wide :func:`set_default_dtype` value.
    """
    override = getattr(_STATE, "dtype_override", None)
    return _DEFAULT_DTYPE[0] if override is None else override


@contextlib.contextmanager
def dtype_scope(dtype):
    """Context manager that temporarily changes the default dtype.

    Used by the imputers to run a whole ``fit()`` / ``impute()`` in
    ``float32`` while leaving the process-wide default untouched.  The scope
    is **thread-local**: a serving thread loading a ``float32`` model never
    changes the dtype another thread's in-flight ``float64`` request resolves.
    """
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError("default dtype must be float32 or float64")
    previous = getattr(_STATE, "dtype_override", None)
    _STATE.dtype_override = dtype
    try:
        yield
    finally:
        _STATE.dtype_override = previous


class no_grad:
    """Context manager that disables graph construction (thread-local).

    Used by samplers and evaluation loops where gradients are never needed,
    which keeps memory flat during the (potentially long) reverse diffusion
    process.  Only the calling thread's graph policy changes, so concurrent
    training and serving threads cannot flip each other's recording state.
    """

    def __enter__(self):
        self._prev = getattr(_STATE, "grad_enabled", _GRAD_ENABLED_DEFAULT)
        _STATE.grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.grad_enabled = self._prev
        return False


def is_grad_enabled():
    """Return ``True`` when new operations will be recorded on the graph."""
    return getattr(_STATE, "grad_enabled", _GRAD_ENABLED_DEFAULT)


def _trace_fail_if_active(reason):
    """Mark any active trace on this thread failed (see repro.tensor.trace)."""
    trace = getattr(_STATE, "trace", None)
    if trace is not None:
        trace.fail(reason)


def _unbroadcast(grad, shape):
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    numpy broadcasting may add leading axes and/or stretch length-1 axes; the
    corresponding gradient contribution is the sum over those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from length 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, dtype=None):
    """Coerce ``value`` (Tensor, ndarray or scalar) into a :class:`Tensor`.

    ``dtype`` defaults to the library default (:func:`get_default_dtype`).
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


class Tensor:
    """A node in the autodiff graph wrapping a numpy array.

    Parameters
    ----------
    data:
        Array-like payload; converted to the library default dtype
        (``float64`` unless changed with :func:`set_default_dtype`) when no
        explicit ``dtype`` is given.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    dtype:
        Optional explicit dtype for the payload.  Operation results bypass
        this coercion entirely (they keep the dtype numpy computed), so the
        default only governs *leaf* tensors.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad=False, _parents=(), name=None, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype or get_default_dtype())
        self.grad = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward = None
        self._parents = tuple(_parents) if is_grad_enabled() else ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self):
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self):
        """Return the value of a scalar (size-1) tensor as a Python float."""
        # A Python float read off a traced value is data-dependent control
        # flow as far as a replay is concerned — refuse to bake it.
        _trace_fail_if_active("Tensor.item() during trace")
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self):
        """Return a new tensor sharing data but detached from the graph.

        The detached tensor shares its ndarray, so an active trace resolves
        it to the same recorded value — no op node is needed.
        """
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self):
        """Return a detached deep copy of the tensor."""
        out = Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)
        trace = getattr(_STATE, "trace", None)
        if trace is not None:
            trace.record("copy", (self,), None, out)
        return out

    def astype(self, dtype):
        """Return a detached copy cast to ``dtype``."""
        data = self.data.astype(np.dtype(dtype))   # ndarray.astype always copies
        out = Tensor(data, requires_grad=False, dtype=data.dtype)
        trace = getattr(_STATE, "trace", None)
        if trace is not None:
            trace.record("astype", (self,), {"dtype": np.dtype(dtype)}, out)
        return out

    def zero_grad(self):
        """Reset the accumulated gradient."""
        self.grad = None

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_op(cls, data, parents, backward, op=None, params=None):
        data = np.asarray(data)
        requires = any(p.requires_grad for p in parents)
        # Pass the computed dtype through unchanged: results follow their
        # inputs, only leaf construction applies the default dtype.
        out = cls(data, requires_grad=requires,
                  _parents=parents if requires else (), dtype=data.dtype)
        if requires and is_grad_enabled():
            out._backward = backward
        # ``op``/``params`` name the replay kernel for trace-and-replay
        # compilation (repro.tensor.trace); an op recorded without them
        # marks any active trace failed, which triggers the eager fallback.
        trace = getattr(_STATE, "trace", None)
        if trace is not None:
            trace.record(op, parents, params, out)
        return out

    def _coerce(self, other):
        """Wrap a non-Tensor operand in this tensor's dtype.

        Keeps scalar constants (Python floats, ``np.float64`` values such as
        ``np.sqrt(2.0)``) from upcasting a float32 graph under NEP 50
        promotion rules.
        """
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=self.data.dtype)

    def _accumulate(self, grad):
        """Accumulate ``grad`` into :attr:`grad` without fresh temporaries.

        The first contribution allocates the buffer (in this tensor's dtype);
        subsequent ones add in place via ``np.add(..., out=)``, which removes
        one full-size temporary per graph edge on the training hot path.
        """
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            np.add(self.grad, grad, out=self.grad)

    def backward(self, grad=None):
        """Backpropagate through the recorded graph starting from this node.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ``1`` which is only valid for scalar outputs.
        """
        _trace_fail_if_active("Tensor.backward() during trace")
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the reachable subgraph.
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward, "sub")

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.data.shape)
                )

        return Tensor._from_op(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        out_data = -self.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._from_op(out_data, (self,), backward, "neg")

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(out_data, (self,), backward, "pow",
                               {"exponent": exponent})

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def matmul(self, other):
        """Batched matrix multiplication following numpy ``@`` semantics."""
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.data.shape))
            if other.requires_grad:
                grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(grad_other, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward, "matmul")

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._from_op(out_data, (self,), backward, "exp")

    def log(self):
        out_data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._from_op(out_data, (self,), backward, "log")

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return Tensor._from_op(out_data, (self,), backward, "sqrt")

    def abs(self):
        out_data = np.abs(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._from_op(out_data, (self,), backward, "abs")

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._from_op(out_data, (self,), backward, "tanh")

    def sigmoid(self):
        out_data = _k_sigmoid(None, None, self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward, "sigmoid")

    def relu(self):
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(out_data, (self,), backward, "relu")

    def clip(self, min_value=None, max_value=None):
        """Clamp values; gradient is passed through inside the active range."""
        out_data = np.clip(self.data, min_value, max_value)
        mask = np.ones_like(self.data)
        if min_value is not None:
            mask = mask * (self.data >= min_value)
        if max_value is not None:
            mask = mask * (self.data <= max_value)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(out_data, (self,), backward, "clip",
                               {"min": min_value, "max": max_value})

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            grad = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad, self.data.shape)
            else:
                if not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                expanded = np.broadcast_to(grad, self.data.shape)
            self._accumulate(expanded)

        return Tensor._from_op(out_data, (self,), backward, "sum",
                               {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims=False):
        """Biased variance (matches LayerNorm usage)."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims=False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            grad = np.asarray(grad)
            if axis is None:
                mask = (self.data == out_data).astype(self.data.dtype)
                mask = mask / mask.sum()
                self._accumulate(mask * grad)
            else:
                expanded_out = out_data if keepdims else np.expand_dims(out_data, axis=axis)
                mask = (self.data == expanded_out).astype(self.data.dtype)
                mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
                grad_exp = grad if keepdims else np.expand_dims(grad, axis=axis)
                self._accumulate(mask * grad_exp)

        return Tensor._from_op(out_data, (self,), backward, "max",
                               {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(original_shape))

        return Tensor._from_op(out_data, (self,), backward, "reshape",
                               {"shape": shape})

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.asarray(grad).transpose(inverse))

        return Tensor._from_op(out_data, (self,), backward, "transpose",
                               {"axes": axes})

    def swapaxes(self, axis1, axis2):
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(axes)

    def expand_dims(self, axis):
        out_data = np.expand_dims(self.data, axis=axis)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(self.data.shape))

        return Tensor._from_op(out_data, (self,), backward, "expand_dims",
                               {"axis": axis})

    def squeeze(self, axis=None):
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(self.data.shape))

        return Tensor._from_op(out_data, (self,), backward, "squeeze",
                               {"axis": axis})

    def broadcast_to(self, shape):
        out_data = np.broadcast_to(self.data, shape)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(np.asarray(grad), self.data.shape))

        return Tensor._from_op(out_data, (self,), backward, "broadcast_to",
                               {"shape": shape})

    def __getitem__(self, index):
        out_data = self.data[index]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, np.asarray(grad))
                self._accumulate(full)

        return Tensor._from_op(out_data, (self,), backward, "getitem",
                               {"index": index})
