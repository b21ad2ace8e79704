"""The PriSTI noise prediction network ϵθ (Fig. 2).

The network takes

* the noisy imputation target ``x_t`` (only meaningful on target positions),
* the interpolated conditional information ``X`` (or the raw observed values
  for the mix-STI ablation),
* the geographic adjacency, and
* the diffusion step ``t``

and predicts the Gaussian noise that was added to the target.  Internally it

1. lifts the conditional information to ``d`` channels and runs the
   conditional feature extraction module to obtain the prior ``H^pri``, and
   builds every noise estimation layer's attention maps from it,
2. lifts the concatenation ``X || x_t`` to ``d`` channels (``H^in``),
3. runs a stack of noise estimation layers that apply those maps to the
   noisy stream, accumulating skip connections, and
4. maps the summed skips through two 1×1 convolutions to a single channel.

Step 1 depends on the condition alone, so
:meth:`PriSTINetwork.prepare_conditioning` runs it once per chunk of reverse
diffusion, and every step reuses it.
"""

from __future__ import annotations

import numpy as np

from ..nn import Conv1x1, DiffusionStepEmbedding, Module, ModuleList
from ..tensor import Tensor, add_n, cat
from .auxiliary import AuxiliaryInfo
from .conditional_feature import ConditionalFeatureExtraction
from .config import PriSTIConfig
from .noise_estimation import NoiseEstimationLayer

__all__ = ["PriSTINetwork"]


class PriSTINetwork(Module):
    """Noise prediction model ϵθ(x_t, X, A, t)."""

    def __init__(self, config, num_nodes, adjacency, rng=None):
        super().__init__()
        if not isinstance(config, PriSTIConfig):
            raise TypeError("config must be a PriSTIConfig")
        self.config = config
        self.num_nodes = num_nodes
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.shape != (num_nodes, num_nodes):
            raise ValueError("adjacency shape does not match num_nodes")

        channels = config.channels
        # Inputs: conditional information, noisy target and the conditional
        # mask (the "Mask" block of Fig. 2) stacked on the channel axis.
        self.input_projection = Conv1x1(3, channels, rng=rng)
        self.condition_projection = Conv1x1(1, channels, rng=rng)

        self.diffusion_embedding = DiffusionStepEmbedding(
            config.num_diffusion_steps,
            embedding_dim=config.diffusion_embedding_dim,
            projection_dim=channels,
            rng=rng,
        )
        self.auxiliary = AuxiliaryInfo(
            num_nodes,
            config.window_length,
            channels,
            temporal_dim=config.temporal_encoding_dim,
            node_dim=config.node_embedding_dim,
            rng=rng,
        )

        if config.use_conditional_feature:
            self.conditional_feature = ConditionalFeatureExtraction(
                channels, config.heads, adjacency, mpnn_order=config.mpnn_order, rng=rng
            )
        else:
            self.conditional_feature = None

        self.layers = ModuleList(
            NoiseEstimationLayer(
                channels,
                config.heads,
                adjacency,
                num_nodes=num_nodes,
                virtual_nodes=config.virtual_nodes,
                diffusion_dim=channels,
                mpnn_order=config.mpnn_order,
                use_temporal=config.use_temporal,
                use_spatial=config.use_spatial,
                use_spatial_attention=config.use_spatial_attention,
                use_mpnn=config.use_mpnn,
                rng=rng,
            )
            for _ in range(config.layers)
        )

        self.output_projection1 = Conv1x1(channels, channels, rng=rng)
        self.output_projection2 = Conv1x1(channels, 1, rng=rng)
        # Zero-init the final projection (as in DiffWave / CSDI) so the model
        # starts from the neutral prediction and training only adds signal.
        self.output_projection2.weight.data[...] = 0.0

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    @property
    def dtype(self):
        """The parameter dtype; array inputs are cast to it in forward."""
        return self.input_projection.weight.data.dtype

    def prepare_conditioning(self, condition, batch_size):
        """Precompute the step-independent conditioning tensors.

        The auxiliary encodings, the conditional-feature prior ``H^pri`` and
        every layer's attention maps (Eq. 7–8, Q/K from the prior) depend
        only on the condition and the batch size — not on the noisy target
        ``x_t`` or the diffusion step — so during reverse-diffusion sampling
        they are computed once per window batch and reused for every
        diffusion step.  ``condition`` holds one row per *window* (``W``
        rows); the batch holds ``batch_size`` items, ``B/W`` consecutive
        samples per window.  The prior and the maps have ``W`` rows, the
        auxiliary encodings ``B``.  Without a prior (w/o CF, CSDI) there
        are no maps: each layer builds its own from its input on every call.
        Returns a dict accepted by :meth:`forward`'s ``conditioning``
        parameter; it is only valid while ``condition`` and the batch size
        stay unchanged.
        """
        condition = condition if isinstance(condition, Tensor) \
            else Tensor(condition, dtype=self.dtype)
        condition_channel = condition.expand_dims(-1)             # (W, N, L, 1)
        auxiliary = self.auxiliary(batch_size)                    # (B, N, L, d)
        if self.conditional_feature is not None:
            prior_hidden = self.condition_projection(condition_channel).relu()
            prior = self.conditional_feature(
                prior_hidden + auxiliary[:condition.shape[0]])    # (W, N, L, d)
            maps = [layer.attention_maps(prior) for layer in self.layers]
        else:
            maps = [None] * len(self.layers)
        return {"auxiliary": auxiliary, "maps": maps}

    def forward(self, noisy_target, condition, steps, conditional_mask=None,
                conditioning=None, samples_per_plan=1):
        """Predict the network output (noise or clean-target residual).

        Parameters
        ----------
        noisy_target:
            ``(batch, node, time)`` tensor or ndarray — the perturbed target
            ``x_t`` (zero outside the imputation target).
        condition:
            ``(batch, node, time)`` interpolated conditional information
            (or raw observed values for the mix-STI ablation).
        steps:
            ``(batch,)`` integer diffusion steps.
        conditional_mask:
            ``(batch, node, time)`` binary mask, 1 where the conditional
            information is genuinely observed (the "Mask" input of Fig. 2).
            Defaults to all ones.
        conditioning:
            Optional precomputed output of :meth:`prepare_conditioning` for
            this ``condition`` / batch size; skips recomputing the auxiliary
            encodings, the prior ``H^pri`` and its attention maps on every
            diffusion step.  ``None`` computes them here (training).
        samples_per_plan:
            ``S``: the batch is ``batch / S`` windows (engine plans) of
            ``S`` consecutive items that share one condition row.  The prior
            and the attention maps it conditions are computed once per window
            and broadcast over its samples; the result has the same bits as
            ``S = 1``.

        Returns
        -------
        Tensor of shape ``(batch, node, time)``.
        """
        dtype = self.dtype
        noisy_target = noisy_target if isinstance(noisy_target, Tensor) \
            else Tensor(noisy_target, dtype=dtype)
        condition = condition if isinstance(condition, Tensor) \
            else Tensor(condition, dtype=dtype)
        batch_size = noisy_target.shape[0]
        if conditional_mask is None:
            conditional_mask = np.ones(noisy_target.shape, dtype=dtype)
        mask_tensor = conditional_mask if isinstance(conditional_mask, Tensor) \
            else Tensor(conditional_mask, dtype=dtype)

        noisy_channel = noisy_target.expand_dims(-1)              # (B, N, L, 1)
        condition_channel = condition.expand_dims(-1)             # (B, N, L, 1)
        mask_channel = mask_tensor.expand_dims(-1)                # (B, N, L, 1)

        if conditioning is None:
            conditioning = self.prepare_conditioning(
                condition[::samples_per_plan], batch_size)
        auxiliary = conditioning["auxiliary"]

        hidden_in = self.input_projection(
            cat([condition_channel, noisy_channel, mask_channel], axis=-1)
        ).relu()

        step_embedding = self.diffusion_embedding(steps)

        skips = []
        hidden = hidden_in
        for layer, maps in zip(self.layers, conditioning["maps"]):
            hidden, skip = layer(hidden, maps, step_embedding, auxiliary=auxiliary)
            skips.append(skip)
        # One fused graph node for the whole skip sum instead of a chain of
        # binary adds (see repro.tensor.ops.add_n).
        skips = add_n(skips) * (1.0 / np.sqrt(len(self.layers)))

        output = self.output_projection1(skips).relu()
        output = self.output_projection2(output)
        return output.squeeze(-1)
