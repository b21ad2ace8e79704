"""Noise estimation module (Eq. 6–9, Fig. 3 right).

Each layer consumes the noisy representation ``H^in`` together with the prior
``H^pri`` and the adjacency.  Temporal dependencies are learned first
(``H^tem = Attn_tem(H^in)``), then aggregated spatially
(``H^spa = MLP(φ_SA(H^tem) + φ_MP(H^tem, A))``).  Crucially, the attention
*weights* of both attention blocks are computed from the conditional feature
``H^pri`` (Eq. 7–8) so that the similarity structure is not corrupted by the
sampled Gaussian noise; values still come from the noisy stream.  Spatial
attention keys/values can be pooled onto ``k`` virtual nodes (Eq. 9).

The maps depend on the prior alone, so they are the same at every diffusion
step: :meth:`NoiseEstimationLayer.attention_maps` builds them, the network
calls it once per chunk (``PriSTINetwork.prepare_conditioning``) and hands
each layer its maps at every step.  Without a prior (the w/o CF ablation,
CSDI) each block builds its map from its own input on every call.

Layers follow the DiffWave/CSDI residual design: the diffusion-step embedding
is added to the input, the spatiotemporal block produces a gated activation,
and the result is split into a residual connection (input of the next layer)
and a skip connection (summed across layers for the output head).
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    Conv1x1,
    GatedActivation,
    LayerNorm,
    Linear,
    MLP,
    Module,
    MPNN,
    MultiHeadAttention,
    VirtualNodeAttention,
)

__all__ = ["NoiseEstimationLayer"]

_SQRT_HALF = 1.0 / np.sqrt(2.0)


class NoiseEstimationLayer(Module):
    """One residual layer of the noise estimation module.

    Parameters
    ----------
    channels, heads:
        Hidden width and number of attention heads.
    adjacency:
        Geographic adjacency used by the MPNN branch.
    num_nodes, virtual_nodes:
        Node count and the number of virtual nodes for the spatial attention
        (``virtual_nodes >= num_nodes`` falls back to full attention).
    diffusion_dim:
        Width of the projected diffusion-step embedding.
    use_*:
        Ablation switches corresponding to the Table VI variants (w/o CF is
        a network without a prior, which passes no maps).
    """

    def __init__(self, channels, heads, adjacency, num_nodes, virtual_nodes,
                 diffusion_dim, mpnn_order=2, use_temporal=True, use_spatial=True,
                 use_spatial_attention=True, use_mpnn=True, rng=None):
        super().__init__()
        if not (use_spatial_attention or use_mpnn):
            raise ValueError("the spatial module needs at least one of attention / MPNN")
        self.channels = channels
        self.use_temporal = use_temporal
        self.use_spatial = use_spatial
        self.use_spatial_attention = use_spatial_attention
        self.use_mpnn = use_mpnn

        self.diffusion_projection = Linear(diffusion_dim, channels, rng=rng)

        if use_temporal:
            self.temporal_attention = MultiHeadAttention(channels, heads, rng=rng)

        if use_spatial:
            if use_spatial_attention:
                if virtual_nodes < num_nodes:
                    self.spatial_attention = VirtualNodeAttention(
                        channels, heads, num_nodes, virtual_nodes, rng=rng
                    )
                else:
                    self.spatial_attention = MultiHeadAttention(channels, heads, rng=rng)
                self.spatial_norm = LayerNorm(channels)
            if use_mpnn:
                self.message_passing = MPNN(channels, adjacency, order=mpnn_order, rng=rng)
            self.spatial_mlp = MLP(channels, channels, channels, activation="gelu", rng=rng)

        self.gate_projection = Conv1x1(channels, 2 * channels, rng=rng)
        self.gate = GatedActivation()
        self.output_projection = Conv1x1(channels, 2 * channels, rng=rng)

    # ------------------------------------------------------------------
    # Sub-blocks
    # ------------------------------------------------------------------
    def attention_maps(self, prior):
        """The ``(temporal, spatial)`` attention maps with Q/K from the prior.

        ``prior`` is ``(W, node, time, channels)``, one row per window; each
        map has ``W`` rows and is broadcast over a window's samples when
        applied.  A disabled block's map is ``None``.
        """
        temporal = spatial = None
        if self.use_temporal:
            temporal = self.temporal_attention.attention_weights(prior)
        if self.use_spatial and self.use_spatial_attention:
            spatial = self.spatial_attention.attention_weights(prior.swapaxes(1, 2))
        return temporal, spatial

    def _temporal_block(self, hidden, weights):
        """γ_T: temporal attention; ``weights`` ``None`` uses the map of
        ``hidden`` itself."""
        if not self.use_temporal:
            return hidden
        return self.temporal_attention(hidden, weights=weights)

    def _spatial_block(self, hidden, weights):
        """γ_S: spatial attention + MPNN aggregation (Eq. 6)."""
        if not self.use_spatial:
            return hidden
        branches = []
        if self.use_spatial_attention:
            swapped = hidden.swapaxes(1, 2)               # (B, L, N, d)
            attended = self.spatial_attention(swapped, weights=weights)
            attended = attended.swapaxes(1, 2)
            branches.append(self.spatial_norm(attended + hidden))
        if self.use_mpnn:
            branches.append(self.message_passing(hidden))
        combined = branches[0]
        for branch in branches[1:]:
            combined = combined + branch
        return self.spatial_mlp(combined)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, hidden, maps, diffusion_embedding, auxiliary=None):
        """Process one layer.

        Parameters
        ----------
        hidden:
            ``(batch, node, time, channels)`` noisy representation.
        maps:
            This layer's :meth:`attention_maps` of the prior ``H^pri``, or
            ``None`` without a prior (the w/o CF ablation): each attention
            block then builds its map from its own input.
        diffusion_embedding:
            ``(batch, diffusion_dim)`` embedded diffusion step.
        auxiliary:
            Optional auxiliary information ``U`` added to the hidden state.

        Returns
        -------
        (residual, skip):
            Residual output feeding the next layer and the skip connection.
        """
        step = self.diffusion_projection(diffusion_embedding)     # (B, d)
        step = step.expand_dims(1).expand_dims(1)                 # (B, 1, 1, d)
        x = hidden + step
        if auxiliary is not None:
            x = x + auxiliary

        temporal_map, spatial_map = (None, None) if maps is None else maps
        temporal = self._temporal_block(x, temporal_map)
        spatial = self._spatial_block(temporal, spatial_map)

        gated = self.gate(self.gate_projection(spatial))
        projected = self.output_projection(gated)
        residual = projected[..., : self.channels]
        skip = projected[..., self.channels:]
        return (hidden + residual) * _SQRT_HALF, skip
