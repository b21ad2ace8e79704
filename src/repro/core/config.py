"""Configuration for the PriSTI model and its training loop.

Defaults follow Table II of the paper (channel size 64, 4 noise-estimation
layers, 8 attention heads, quadratic noise schedule with beta in
[1e-4, 0.2], Adam at 1e-3 decayed at 75 % / 90 % of the epochs).  The *fast*
profile used by tests and CPU benchmarks shrinks the channel size, the number
of layers and the number of diffusion steps; see
:meth:`PriSTIConfig.fast` and :meth:`PriSTIConfig.paper`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral

__all__ = ["PriSTIConfig"]


@dataclass
class PriSTIConfig:
    """Hyperparameters of PriSTI (model + diffusion + optimisation).

    Attributes mirror Table II; the ablation switches correspond to the
    variants of Table VI.
    """

    # Window / data
    window_length: int = 24
    batch_size: int = 16

    # Network architecture
    channels: int = 64
    layers: int = 4
    heads: int = 8
    virtual_nodes: int = 64
    diffusion_embedding_dim: int = 128
    temporal_encoding_dim: int = 128
    node_embedding_dim: int = 16
    adaptive_embedding_dim: int = 10
    mpnn_order: int = 2

    # Diffusion process
    num_diffusion_steps: int = 50
    beta_min: float = 1e-4
    beta_max: float = 0.2
    schedule: str = "quadratic"
    #: "epsilon" trains the network to predict the added noise (Eq. 4, the
    #: paper's objective).  "x0_residual" trains it to predict the clean
    #: target as a residual on top of the conditional information and derives
    #: the noise analytically — an equivalent DDPM parameterisation that
    #: converges far faster under small CPU training budgets.
    parameterization: str = "epsilon"
    #: Probability of zeroing the noisy-target input channel for a training
    #: sample.  Forces the network to impute from the conditional information
    #: alone (the regime that dominates sampling quality when the training
    #: budget is small).  0 reproduces the paper's training exactly.
    condition_dropout: float = 0.0

    # Optimisation
    learning_rate: float = 1e-3
    epochs: int = 300
    iterations_per_epoch: int | None = None
    lr_milestones: tuple = (0.75, 0.9)
    lr_gamma: float = 0.1
    grad_clip: float = 5.0
    mask_strategy: str = "hybrid"
    #: Use the vectorised training hot path: batched mask-strategy sampling
    #: (one draw per batch instead of a Python loop over windows) and the
    #: flat-buffer optimiser (whole-buffer Adam / clip / zero_grad).  ``False``
    #: restores the seed's per-window, per-parameter loops; numerics are
    #: statistically equivalent but not RNG-identical (see
    #: :mod:`repro.data.masks`).
    vectorized_training: bool = True

    # Numerics
    #: Floating-point dtype for the whole train + inference path.  "float64"
    #: (the default) keeps the seed's precision and is what the gradient
    #: checks require; "float32" halves memory traffic and is the fast
    #: production setting — see ``benchmarks/bench_training_throughput`` for
    #: the measured speedup and the float32-vs-float64 loss agreement.
    #: (RNG-identical training relative to the seed additionally needs
    #: ``vectorized_training=False``; see that flag's note.)
    dtype: str = "float64"

    # Inference
    num_samples: int = 100
    ddim_steps: int | None = None
    #: DDIM stochasticity parameter ``eta``; 0 (the default) keeps the
    #: deterministic trajectories of the paper's fast sampler, values > 0
    #: re-inject per-step noise.  Only meaningful when ``ddim_steps`` is set.
    ddim_eta: float = 0.0
    #: Compile the reverse-diffusion chunk loop with trace-and-replay (see
    #: :mod:`repro.inference.compiled`): the first chunk of each signature is
    #: recorded into a flat kernel schedule, later chunks replay it with zero
    #: graph construction.  Results are bit-identical (uncompilable
    #: signatures fall back to the eager loop automatically); set ``False``
    #: — or export ``REPRO_COMPILE=0`` — to force the eager path everywhere.
    compile_inference: bool = True
    #: Maximum number of compiled chunk programs kept per architecture (LRU):
    #: every model with the same config, node count and adjacency shares one
    #: cache in the process, binding its own weights to the shared programs,
    #: so new weights of a published architecture replay without a trace.
    #: Each entry holds a buffer arena sized like one chunk's intermediates,
    #: and compiled chunks hold at most 16 items, so one item shape (one
    #: window geometry) needs at most 16 entries.  Serving mixes of many
    #: shapes may want a larger cache, memory-tight deployments a smaller
    #: one.
    compiled_cache_size: int = 8
    #: Maximum number of ``(window, sample)`` items the batched inference
    #: engine groups into one chunk, whose noise it draws at once; larger
    #: values let chunks span window boundaries.  ``None`` means no bound: a
    #: served micro-batch packs all its same-shape items into one chunk.
    #: ``model.impute`` (``DiffusionBackend.impute_segment``) reads ``None``
    #: as one window's ``num_samples`` per chunk.  The eager loop runs a
    #: chunk in one network call per step; compiled replay caps a chunk at
    #: 16 items, whatever this is set to.  Peak
    #: memory for ancestral sampling scales with ``items per chunk *
    #: num_diffusion_steps * nodes * window_length`` (the pre-drawn per-step
    #: noise buffer), so set this when raising the step count or the serving
    #: batch size.  See :mod:`repro.inference.engine`.
    inference_batch_size: int | None = None

    # Ablation switches (Table VI variants)
    use_interpolation: bool = True           # mix-STI sets this to False
    use_conditional_feature: bool = True     # w/o CF sets this to False
    use_temporal: bool = True                # w/o tem
    use_spatial: bool = True                 # w/o spa
    use_spatial_attention: bool = True       # w/o Attn
    use_mpnn: bool = True                    # w/o MPNN

    seed: int = 0

    def __post_init__(self):
        if self.channels % self.heads != 0:
            raise ValueError("channels must be divisible by heads")
        if self.layers < 1:
            raise ValueError("at least one noise estimation layer is required")
        if not 0 < self.beta_min < self.beta_max < 1:
            raise ValueError("noise levels must satisfy 0 < beta_min < beta_max < 1")
        if self.parameterization not in ("epsilon", "x0_residual"):
            raise ValueError("parameterization must be 'epsilon' or 'x0_residual'")
        if self.inference_batch_size is not None and self.inference_batch_size < 1:
            raise ValueError("inference_batch_size must be a positive integer (or None)")
        if self.ddim_steps is not None and (isinstance(self.ddim_steps, bool)
                                            or not isinstance(self.ddim_steps, Integral)
                                            or self.ddim_steps < 1):
            raise ValueError("ddim_steps must be None or a positive integer")
        if self.ddim_eta < 0:
            raise ValueError("ddim_eta must be non-negative")
        if self.compiled_cache_size < 1:
            raise ValueError("compiled_cache_size must be a positive integer")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, dataset="metr-la"):
        """Hyperparameters of Table II for a named dataset."""
        if dataset in ("aqi36", "aqi-36"):
            return cls(window_length=36, epochs=200, num_diffusion_steps=100,
                       virtual_nodes=16)
        if dataset in ("metr-la", "pems-bay"):
            return cls(window_length=24, epochs=300, num_diffusion_steps=50,
                       virtual_nodes=64)
        raise ValueError(f"unknown dataset preset '{dataset}'")

    @classmethod
    def fast(cls, window_length=16, **overrides):
        """Small configuration for CPU tests and fast benchmarks."""
        defaults = dict(
            window_length=window_length,
            batch_size=4,
            channels=16,
            layers=2,
            heads=4,
            virtual_nodes=8,
            diffusion_embedding_dim=32,
            temporal_encoding_dim=32,
            node_embedding_dim=8,
            adaptive_embedding_dim=4,
            num_diffusion_steps=20,
            epochs=5,
            iterations_per_epoch=4,
            num_samples=8,
            parameterization="x0_residual",
        )
        defaults.update(overrides)
        return cls(**defaults)

    def variant(self, **overrides):
        """Return a copy of this config with some fields overridden."""
        data = asdict(self)
        data.update(overrides)
        return PriSTIConfig(**data)

    def ablation(self, name):
        """Return the configuration of one of the Table VI ablation variants."""
        variants = {
            "pristi": {},
            "mix-sti": {"use_interpolation": False, "use_conditional_feature": False},
            "w/o cf": {"use_conditional_feature": False},
            "w/o spa": {"use_spatial": False},
            "w/o tem": {"use_temporal": False},
            "w/o mpnn": {"use_mpnn": False},
            "w/o attn": {"use_spatial_attention": False},
        }
        key = name.lower()
        if key not in variants:
            raise ValueError(f"unknown ablation variant '{name}' (valid: {sorted(variants)})")
        return self.variant(**variants[key])
