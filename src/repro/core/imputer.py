"""High-level imputation API for conditional diffusion models.

:class:`ConditionalDiffusionImputer` owns the training loop (Algorithm 1) and
the sampling loop (Algorithm 2) shared by PriSTI and the CSDI baseline; the
subclasses only decide which network to build and how the conditional
information is constructed (linear interpolation for PriSTI, raw observed
values for CSDI / mix-STI).

:class:`PriSTI` is the user-facing class: ``fit`` on a
:class:`~repro.data.datasets.SpatioTemporalDataset`, then ``impute`` /
``evaluate`` on any split.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..data.datasets import SpatioTemporalDataset
from ..data.masks import MaskStrategy
from ..data.scalers import StandardScaler
from ..data.windows import WindowSampler
from ..diffusion import GaussianDiffusion, make_schedule
from ..inference import DiffusionBackend, InferenceEngine
from ..inference.compiled import WeightSet, compile_enabled, shared_step_cache
from ..metrics import imputation_metrics
from ..io.artifacts import PersistableModel
from ..nn import Adam, MilestoneLR
from ..tensor import Tensor, dtype_scope, masked_mse_loss, no_grad
from ..training import Trainer, TrainingPlan
from .config import PriSTIConfig
from .interpolation import linear_interpolation
from .model import PriSTINetwork

__all__ = ["ImputationResult", "ConditionalDiffusionImputer", "PriSTI"]


@dataclass
class ImputationResult:
    """Output of :meth:`ConditionalDiffusionImputer.impute`.

    Attributes
    ----------
    median:
        ``(time, node)`` deterministic imputation (median of the samples) with
        observed values passed through unchanged.
    samples:
        ``(num_samples, time, node)`` posterior samples.
    values, observed_mask, eval_mask:
        The evaluated segment's ground truth and masks, kept so metrics can be
        computed without re-slicing the dataset.
    """

    median: np.ndarray
    samples: np.ndarray
    values: np.ndarray
    observed_mask: np.ndarray
    eval_mask: np.ndarray

    def metrics(self):
        """MAE / MSE / RMSE / CRPS on the evaluation mask."""
        return imputation_metrics(self.median, self.samples, self.values, self.eval_mask)


class ConditionalDiffusionImputer(PersistableModel):
    """Shared training / sampling machinery for diffusion-based imputers."""

    #: Human-readable name used in result tables.
    name = "diffusion"

    def __init__(self, config=None, rng=None):
        self.config = config or PriSTIConfig()
        self.rng = rng or np.random.default_rng(self.config.seed)
        self.scaler = StandardScaler()
        self.network = None
        self.diffusion = None
        self.num_nodes = None
        self.adjacency = None
        self.history = {"loss": []}
        self.trainer = None
        self.training_seconds = 0.0
        self.inference_seconds = 0.0
        # The shared compiled-chunk cache of this architecture (held here so
        # the process store keeps it while the model lives) and the weight
        # set its programs bind for this model.
        self._compiled_cache = None
        self._weights = None

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def build_network(self, num_nodes, adjacency):
        """Create the noise-prediction network (subclass hook)."""
        raise NotImplementedError

    def build_condition(self, values, mask):
        """Construct the conditional information from masked observations.

        ``values`` and ``mask`` are ``(batch, node, time)`` arrays where
        ``mask`` marks the entries the model may look at.
        """
        raise NotImplementedError

    @property
    def dtype(self):
        """Floating-point dtype of the train + inference path (from config)."""
        return np.dtype(self.config.dtype)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _ensure_built(self, dataset):
        if self.network is not None:
            return
        self._build(dataset.num_nodes, dataset.adjacency)

    def _build(self, num_nodes, adjacency):
        """Construct the network + diffusion process for a known graph."""
        self.num_nodes = num_nodes
        self.adjacency = np.asarray(adjacency, dtype=self.dtype)
        # Build the network under the configured dtype so every parameter,
        # embedding table and graph support comes out in that precision.
        with dtype_scope(self.dtype):
            self.network = self.build_network(self.num_nodes, self.adjacency)
        schedule = make_schedule(
            self.config.schedule,
            self.config.num_diffusion_steps,
            beta_min=self.config.beta_min,
            beta_max=self.config.beta_max,
        )
        self.diffusion = GaussianDiffusion(schedule, rng=self.rng, dtype=self.dtype)

    def _make_trainer(self):
        optimizer = Adam(
            self.network.parameters(),
            lr=self.config.learning_rate,
            vectorized=self.config.vectorized_training,
        )
        scheduler = MilestoneLR(
            optimizer,
            total_epochs=self.config.epochs,
            milestones=self.config.lr_milestones,
            gamma=self.config.lr_gamma,
        )
        return Trainer(self, optimizer, scheduler,
                       total_epochs=self.config.epochs, dtype=self.dtype)

    # ------------------------------------------------------------------
    # Training (Algorithm 1)
    # ------------------------------------------------------------------
    def fit(self, dataset, segment="train", verbose=False, max_epochs=None, callbacks=()):
        """Train the noise prediction model on a dataset split.

        Training runs through the shared :class:`~repro.training.Trainer`
        until ``config.epochs`` total epochs are reached, so a model restored
        from a checkpoint (see :mod:`repro.io`) resumes where it stopped.
        ``max_epochs`` caps the additional epochs of this call; ``callbacks``
        are extra :class:`~repro.training.Callback` hooks.  Returns ``self``
        (the loss history lives in ``self.history``).
        """
        if not isinstance(dataset, SpatioTemporalDataset):
            raise TypeError("fit expects a SpatioTemporalDataset")
        self._ensure_built(dataset)
        if self._budget_exhausted():
            # Epoch budget exhausted: a further fit is a no-op.  Returning
            # before the scaler refit keeps the normalisation statistics in
            # sync with the (unchanged) weights they were trained under.
            return self

        values, observed_mask, eval_mask = dataset.segment(segment)
        input_mask = observed_mask & ~eval_mask
        self.scaler.fit(values, input_mask)

        sampler = WindowSampler(
            values, observed_mask, eval_mask, self.config.window_length, stride=1
        )
        strategy = MaskStrategy(self.config.mask_strategy, rng=self.rng)
        trainer = self._ensure_trainer()
        iterations = (self.config.iterations_per_epoch
                      or max(len(sampler) // self.config.batch_size, 1))
        plan = TrainingPlan(
            iterations,
            lambda optimizer: self._training_step(
                sampler.random_batch(self.config.batch_size, rng=self.rng),
                strategy, optimizer,
            ),
        )
        try:
            trainer.fit(plan, max_epochs=max_epochs, callbacks=callbacks,
                        verbose=verbose)
        finally:
            # Training rewrote the weights, and creating the trainer may have
            # re-pointed ``parameter.data`` at flat-buffer views: drop this
            # model's bindings so the next chunk re-prefolds on the current
            # arrays.
            self._weights = None
        return self

    def _training_step(self, batch, strategy, optimizer):
        """One gradient step on a batch of windows."""
        observed = batch.input_mask                         # (B, N, L) model-visible data
        values = self.scaler.transform(batch.values).astype(self.dtype) * observed

        if self.config.vectorized_training:
            # One vectorised mask draw for the whole batch (Algorithm 1's
            # per-window strategy loop was a training-time hot spot).
            historical = None
            if strategy.name == "hybrid-historical":
                partners = self.rng.integers(0, len(batch), size=len(batch))
                historical = observed[partners]
            conditional_mask = strategy.batch(observed, historical_masks=historical)
        else:
            conditional_masks = []
            for index in range(len(batch)):
                historical = None
                if strategy.name == "hybrid-historical":
                    other = int(self.rng.integers(len(batch)))
                    historical = batch.input_mask[other]
                conditional_masks.append(strategy(observed[index], historical_mask=historical))
            conditional_mask = np.stack(conditional_masks)
        target_mask = observed & ~conditional_mask

        if target_mask.sum() == 0:
            return 0.0

        condition = self.build_condition(values * conditional_mask, conditional_mask)

        x0 = values * target_mask
        steps = self.diffusion.sample_steps(len(batch))
        noisy, noise = self.diffusion.q_sample(x0, steps)
        noisy = noisy * target_mask
        if self.config.condition_dropout > 0:
            # Hide the noisy channel for some samples so the network also
            # learns to impute purely from the conditional information.
            keep = (self.rng.random(len(batch)) >= self.config.condition_dropout)
            noisy = noisy * keep[:, None, None]

        optimizer.zero_grad()
        predicted = self.network(noisy, condition, steps, conditional_mask=conditional_mask)
        if self.config.parameterization == "epsilon":
            # Eq. (4): regress the added Gaussian noise.
            loss = masked_mse_loss(predicted, Tensor(noise), target_mask)
        else:
            # x0-residual parameterisation: the network predicts the clean
            # target as a correction on top of the conditional information.
            reconstruction = predicted + Tensor(condition)
            loss = masked_mse_loss(reconstruction, Tensor(values), target_mask)
        loss.backward()
        # Whole-buffer clipping when the optimiser is vectorised; falls back
        # to the per-parameter loop otherwise.
        optimizer.clip_grad_norm(self.config.grad_clip)
        optimizer.step()
        return float(loss.data)

    # ------------------------------------------------------------------
    # Imputation (Algorithm 2)
    # ------------------------------------------------------------------
    def impute(self, dataset, segment="test", num_samples=None, stride=None):
        """Impute all missing values of a dataset split.

        Returns an :class:`ImputationResult`; every missing entry (both the
        artificially removed evaluation targets and the originally missing
        data) is imputed, observed entries are passed through.

        This is a thin wrapper over the stateless
        :class:`~repro.inference.DiffusionBackend` (see :meth:`backend`),
        which runs the recipe a served request runs (segments shorter than
        the window are padded and cropped): sampling runs through the shared
        :class:`~repro.inference.InferenceEngine`, which packs ``(window,
        sample)`` pairs into chunks of ``config.inference_batch_size`` and
        calls the network once per diffusion step per chunk
        (``inference_batch_size=1`` is the unbatched run, identical output
        under a shared RNG seed).
        """
        if self.network is None:
            raise RuntimeError("impute() called before fit()")
        num_samples = num_samples or self.config.num_samples
        values, observed_mask, eval_mask = dataset.segment(segment)
        input_mask = observed_mask & ~eval_mask

        inference_start = time.perf_counter()
        raw = self.backend().impute_segment(
            values, input_mask, num_samples=num_samples, stride=stride,
        )
        self.inference_seconds = time.perf_counter() - inference_start

        return ImputationResult(
            median=raw.median,
            samples=raw.samples,
            values=values,
            observed_mask=observed_mask,
            eval_mask=eval_mask,
        )

    def backend(self):
        """The stateless request-oriented imputation backend of this model.

        The backend imputes raw ``(values, observed_mask)`` arrays of
        arbitrary length — no dataset required — and is what the serving
        stack (:mod:`repro.serving`) loads, micro-batches and streams
        through.  It shares this model's network, scaler and engine, so it is
        cheap to construct per call.
        """
        if self.network is None:
            raise RuntimeError("backend() called before fit()")
        return DiffusionBackend(
            engine=self.inference_engine(),
            scaler=self.scaler,
            build_condition=self.build_condition,
            window_length=self.config.window_length,
            network=self.network,
        )

    def inference_engine(self):
        """The batched reverse-diffusion engine configured for this model."""
        if self.network is None:
            raise RuntimeError("inference_engine() called before fit()")
        return InferenceEngine(
            self.diffusion,
            self._predict_raw,
            parameterization=self.config.parameterization,
            inference_batch_size=self.config.inference_batch_size,
            ddim_steps=self.config.ddim_steps,
            ddim_eta=self.config.ddim_eta,
            compiled_cache=self.compiled_step_cache(),
            weights=self._weight_set(),
        )

    def compiled_step_cache(self):
        """The :class:`~repro.inference.compiled.CompiledStepCache` of this
        model's architecture.

        Taken from the process-level program store on first use and shared
        with every model of the same :meth:`architecture_fingerprint` (each
        binds its own weights) when ``config.compile_inference`` is on and
        the ``REPRO_COMPILE`` kill switch is not set; ``None`` otherwise,
        which keeps every chunk on the eager path.
        """
        if not self.config.compile_inference or not compile_enabled():
            return None
        if self._compiled_cache is None:
            self._compiled_cache = shared_step_cache(
                self.architecture_fingerprint(),
                capacity=self.config.compiled_cache_size)
        return self._compiled_cache

    def architecture_fingerprint(self):
        """Everything the network is built from except its weights: the
        model class, the config, the node count and the adjacency (bytes
        and dtype).  Models with equal fingerprints share compiled
        programs."""
        adjacency = np.ascontiguousarray(self.adjacency)
        return (type(self).__module__, type(self).__qualname__,
                json.dumps(asdict(self.config), sort_keys=True),
                int(self.num_nodes), adjacency.dtype.str, adjacency.shape,
                hashlib.sha256(adjacency.tobytes()).hexdigest())

    def _weight_set(self):
        if self._weights is None:
            self._weights = WeightSet(self.network)
        return self._weights

    def _predict_raw(self, noisy_target, condition, steps, conditional_mask, cache=None):
        """Gradient-free network forward used by the inference engine.

        ``cache`` is the engine's per-chunk scratch dict: the step-independent
        conditioning tensors (auxiliary encodings and the prior ``H^pri``) are
        computed on the first diffusion step of a chunk and reused for the
        rest.  ``None`` recomputes them per call.
        """
        with no_grad():
            conditioning = None
            if cache is not None:
                conditioning = cache.get("conditioning")
                if conditioning is None:
                    conditioning = self.network.prepare_conditioning(
                        condition, noisy_target.shape[0]
                    )
                    cache["conditioning"] = conditioning
            return self.network(
                noisy_target, condition, steps, conditional_mask=conditional_mask,
                conditioning=conditioning,
            ).data

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, dataset, segment="test", num_samples=None):
        """Impute a split and return MAE / MSE / RMSE / CRPS on its eval mask."""
        result = self.impute(dataset, segment=segment, num_samples=num_samples)
        return result.metrics()


class PriSTI(ConditionalDiffusionImputer):
    """PriSTI: conditional diffusion with interpolated prior conditioning."""

    name = "PriSTI"

    def build_network(self, num_nodes, adjacency):
        return PriSTINetwork(self.config, num_nodes, adjacency,
                             rng=np.random.default_rng(self.config.seed))

    def build_condition(self, values, mask):
        """Interpolated conditional information (or raw values for mix-STI)."""
        if self.config.use_interpolation:
            return linear_interpolation(values, mask)
        return np.asarray(values, dtype=self.dtype)
