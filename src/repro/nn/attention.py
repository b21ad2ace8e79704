"""Multi-head attention blocks.

Three flavours are provided, mirroring the paper:

* :class:`MultiHeadAttention` — standard dot-product self/cross attention
  (Vaswani et al.) over the second-to-last axis; used by the conditional
  feature extraction module where queries, keys and values all come from the
  interpolated conditional information.
* Prior-conditioned attention (Eq. 7–8) — obtained by calling the same module
  with different ``query``/``key`` and ``value`` sources: the attention
  weights are computed from the conditional feature ``H^pri`` while the values
  carry the noisy input ``H^in``.  The prior may have one row per *window*
  while the values have one row per (window, sample) item: the ``W`` maps are
  broadcast over each window's ``B/W`` consecutive samples
  (:func:`_window_attention`), with the same bits as ``B`` per-item maps.
* :class:`VirtualNodeAttention` (Eq. 9) — spatial attention whose keys and
  values are first projected from ``N`` physical nodes onto ``k`` virtual
  nodes, reducing the cost of the similarity computation from ``O(N^2 d)`` to
  ``O(N k d)``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import attention_core, softmax
from . import init
from .linear import Linear
from .module import Module, Parameter

__all__ = ["MultiHeadAttention", "VirtualNodeAttention"]


def _split_heads(x, num_heads):
    """(..., S, d) -> (..., heads, S, d/heads)."""
    *batch, seq, dim = x.shape
    head_dim = dim // num_heads
    x = x.reshape(*batch, seq, num_heads, head_dim)
    return x.swapaxes(-2, -3)


def _merge_heads(x):
    """(..., heads, S, d/heads) -> (..., S, d)."""
    x = x.swapaxes(-2, -3)
    *batch, seq, heads, head_dim = x.shape
    return x.reshape(*batch, seq, heads * head_dim)


def _window_attention(queries, keys, values, scale):
    """``attention_core`` with Q/K of ``W`` windows against the values of
    ``B`` items, ``B/W`` consecutive items per window.

    Q/K gain a unit sample axis and the values are viewed as ``(W, B/W,
    ...)``, so each window's map is computed once and broadcast over its
    samples.  Every map and matmul slice is the one the per-item form
    computes, so the bits do not depend on ``W``; ``W = B`` is ordinary
    attention.
    """
    windows = queries.shape[0]
    grouped = values.reshape(windows, values.shape[0] // windows, *values.shape[1:])
    context = attention_core(queries.expand_dims(1), keys.expand_dims(1), grouped,
                             scale=scale)
    return context.reshape(values.shape[0], *context.shape[2:])


class MultiHeadAttention(Module):
    """Dot-product multi-head attention over the ``-2`` axis.

    Inputs are ``(..., S, d_model)``; every leading axis is a batch axis.  For
    temporal attention the caller passes ``(batch, node, time, d)`` directly;
    for spatial attention the caller first swaps the node and time axes.

    The ``query_source`` / ``key_source`` may differ from the ``value`` input,
    which implements the prior-conditioned attention of Eq. (7)–(8): the
    attention map A is computed from the conditional feature while values are
    taken from the noisy representation.  The sources may have one leading
    row per window and ``value`` one per item (see :func:`_window_attention`).
    """

    def __init__(self, d_model, num_heads, rng=None):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.query_proj = Linear(d_model, d_model, rng=rng)
        self.key_proj = Linear(d_model, d_model, rng=rng)
        self.value_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)

    def _project_qk(self, query_source, key_source):
        """Project and head-split the Q/K sources (shared by both paths)."""
        queries = _split_heads(self.query_proj(query_source), self.num_heads)
        keys = _split_heads(self.key_proj(key_source), self.num_heads)
        return queries, keys

    def attention_weights(self, query_source, key_source):
        """Return the softmax attention map built from the given sources."""
        queries, keys = self._project_qk(query_source, key_source)
        scores = queries @ keys.swapaxes(-1, -2)
        scores = scores * (1.0 / np.sqrt(self.head_dim))
        return softmax(scores, axis=-1)

    def forward(self, value, query_source=None, key_source=None):
        """Apply attention.

        Parameters
        ----------
        value:
            ``(..., S, d)`` tensor that provides V.
        query_source, key_source:
            Optional tensors providing Q and K.  Default to ``value``
            (standard self-attention).
        """
        query_source = value if query_source is None else query_source
        key_source = query_source if key_source is None else key_source
        queries, keys = self._project_qk(query_source, key_source)
        values = _split_heads(self.value_proj(value), self.num_heads)
        context = _window_attention(queries, keys, values,
                                    scale=1.0 / np.sqrt(self.head_dim))
        return self.out_proj(_merge_heads(context))


class VirtualNodeAttention(Module):
    """Spatial attention with keys/values projected onto ``k`` virtual nodes.

    Implements Eq. (9): ``K_S = H^pri P_K W_K`` and ``V_S = H^tem P_V W_V``
    where ``P_K, P_V`` project the node axis from ``N`` to ``k``.  Queries stay
    at full resolution so the output keeps one row per physical node.
    """

    def __init__(self, d_model, num_heads, num_nodes, num_virtual_nodes, rng=None):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.num_nodes = num_nodes
        self.num_virtual_nodes = min(num_virtual_nodes, num_nodes)
        self.query_proj = Linear(d_model, d_model, rng=rng)
        self.key_proj = Linear(d_model, d_model, rng=rng)
        self.value_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)
        self.key_pool = Parameter(
            init.xavier_uniform((num_nodes, self.num_virtual_nodes), rng=rng)
        )
        self.value_pool = Parameter(
            init.xavier_uniform((num_nodes, self.num_virtual_nodes), rng=rng)
        )

    @staticmethod
    def _pool_nodes(x, pool):
        """Project the node axis (-2) from N to k using ``pool`` (N, k)."""
        swapped = x.swapaxes(-1, -2)          # (..., d, N)
        pooled = swapped @ pool               # (..., d, k)
        return pooled.swapaxes(-1, -2)        # (..., k, d)

    def forward(self, value, query_source=None, key_source=None):
        query_source = value if query_source is None else query_source
        key_source = query_source if key_source is None else key_source

        queries = _split_heads(self.query_proj(query_source), self.num_heads)
        pooled_keys = self._pool_nodes(key_source, self.key_pool)
        pooled_values = self._pool_nodes(value, self.value_pool)
        keys = _split_heads(self.key_proj(pooled_keys), self.num_heads)
        values = _split_heads(self.value_proj(pooled_values), self.num_heads)

        context = _window_attention(queries, keys, values,
                                    scale=1.0 / np.sqrt(self.head_dim))
        return self.out_proj(_merge_heads(context))
