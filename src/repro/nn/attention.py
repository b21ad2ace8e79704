"""Multi-head attention blocks.

Every block has one form: :meth:`attention_weights` builds the softmax map
``softmax(Q Kᵀ / √d_h)`` from the Q/K sources (one fused
:func:`~repro.tensor.attention_weights` node), and ``forward`` applies a
map to the values with an ordinary matmul — the given ``weights`` or, by
default, the values' own map (self-attention).

* :class:`MultiHeadAttention` — standard dot-product self/cross attention
  (Vaswani et al.) over the second-to-last axis; used by the conditional
  feature extraction module where queries, keys and values all come from the
  interpolated conditional information.
* Prior-conditioned attention (Eq. 7–8) — the map is built from the
  conditional feature ``H^pri`` while the values carry the noisy input
  ``H^in``.  Since the prior does not change across the reverse diffusion
  steps, neither does the map: PriSTI builds it once per chunk
  (``PriSTINetwork.prepare_conditioning``) and passes it as ``weights`` at
  every step.  A map may have one row per *window* while the values have
  one row per (window, sample) item: each window's map is broadcast over
  its ``B/W`` consecutive samples (:func:`_apply_weights`), with the same
  bits as ``B`` per-item maps.
* :class:`VirtualNodeAttention` (Eq. 9) — spatial attention whose keys and
  values are first projected from ``N`` physical nodes onto ``k`` virtual
  nodes, reducing the cost of the similarity computation from ``O(N^2 d)`` to
  ``O(N k d)``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import attention_weights as _attention_weights
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


def _apply_weights(weights, values):
    """Apply the maps of ``W`` windows to the values of ``B`` items, ``B/W``
    consecutive items per window.

    The map gains a unit sample axis and the values are viewed as ``(W,
    B/W, ...)``, so each window's map is broadcast over its samples.  Every
    matmul slice is the one the per-item form computes, so the bits do not
    depend on ``W``; ``W = B`` is ordinary attention.
    """
    windows = weights.shape[0]
    grouped = values.reshape(windows, values.shape[0] // windows, *values.shape[1:])
    context = weights.expand_dims(1) @ grouped
    return context.reshape(values.shape[0], *context.shape[2:])


class MultiHeadAttention(Module):
    """Dot-product multi-head attention over the ``-2`` axis.

    Inputs are ``(..., S, d_model)``; every leading axis is a batch axis.  For
    temporal attention the caller passes ``(batch, node, time, d)`` directly;
    for spatial attention the caller first swaps the node and time axes.

    ``forward`` may be given a map built from another source, which
    implements the prior-conditioned attention of Eq. (7)–(8): the attention
    map A is computed from the conditional feature while values are taken
    from the noisy representation.  A map may have one leading row per
    window and ``value`` one per item (see :func:`_apply_weights`).
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

    def attention_weights(self, query_source, key_source=None):
        """The ``(..., heads, S_q, S_k)`` softmax map built from the sources
        (``key_source`` defaults to ``query_source``)."""
        key_source = query_source if key_source is None else key_source
        queries = _split_heads(self.query_proj(query_source), self.num_heads)
        keys = _split_heads(self.key_proj(key_source), self.num_heads)
        return _attention_weights(queries, keys, scale=1.0 / np.sqrt(self.head_dim))

    def forward(self, value, weights=None):
        """Apply attention.

        Parameters
        ----------
        value:
            ``(..., S, d)`` tensor that provides V.
        weights:
            Optional map from :meth:`attention_weights`.  Defaults to the
            map of ``value`` itself (standard self-attention).
        """
        if weights is None:
            weights = self.attention_weights(value)
        values = _split_heads(self.value_proj(value), self.num_heads)
        return self.out_proj(_merge_heads(_apply_weights(weights, values)))


class VirtualNodeAttention(MultiHeadAttention):
    """Spatial attention with keys/values projected onto ``k`` virtual nodes.

    Implements Eq. (9): ``K_S = H^pri P_K W_K`` and ``V_S = H^tem P_V W_V``
    where ``P_K, P_V`` project the node axis from ``N`` to ``k``.  Queries stay
    at full resolution so the output keeps one row per physical node.
    """

    def __init__(self, d_model, num_heads, num_nodes, num_virtual_nodes, rng=None):
        super().__init__(d_model, num_heads, rng=rng)
        self.num_nodes = num_nodes
        self.num_virtual_nodes = min(num_virtual_nodes, num_nodes)
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

    def attention_weights(self, query_source):
        """The ``(..., heads, N, k)`` map of the queries against their own
        keys pooled onto the virtual nodes."""
        return super().attention_weights(
            query_source, self._pool_nodes(query_source, self.key_pool))

    def forward(self, value, weights=None):
        if weights is None:
            weights = self.attention_weights(value)
        return super().forward(self._pool_nodes(value, self.value_pool),
                               weights=weights)
