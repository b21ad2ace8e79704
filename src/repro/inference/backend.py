"""Stateless request-oriented imputation backends.

The historical entry point ``model.impute(dataset, segment=...)`` binds
imputation to a full offline :class:`~repro.data.datasets.SpatioTemporalDataset`.
The serving stack needs the opposite shape: impute a raw ``(values,
observed_mask)`` array pair of arbitrary length — a single request window, a
live stream's ring buffer — without a dataset, a split or any mutation of
training state.  :class:`ImputationBackend` is that split: it owns the
*inference-only* closure of a trained model (scaler statistics, conditional
information builder, the batched :class:`~repro.inference.engine.InferenceEngine`)
and nothing else.

Two concrete backends mirror the two trainable families:

:class:`DiffusionBackend`
    PriSTI / CSDI, and the only module that knows window geometry
    (:func:`window_starts`).  Every diffusion imputation runs one recipe:
    ``plan_request`` cuts a series into windows and builds each window's
    condition once, :meth:`DiffusionBackend.sample_jobs` draws every job's
    items in one :meth:`~repro.inference.engine.InferenceEngine.sample_plans`
    pass, and ``assemble`` overlap-averages them back.  ``impute_segment``
    (behind ``model.impute``) and ``impute_arrays`` are that recipe for one
    job; the :class:`~repro.serving.ImputationService` micro-batcher runs it
    for a whole batch (:func:`repro.serving.pool.execute_batch`).  Series
    shorter than the model's trained window are zero-padded on the time axis
    (masked out, so the pad never conditions the model) and cropped after
    sampling; longer ones run the strided sliding-window plan with overlap
    averaging.

:class:`WindowedBackend`
    The windowed neural baselines (BRITS, GRIN, rGAIN, VAE).  Same
    surface over the subclass's ``reconstruct`` forward, on the same window
    starts; no diffusion engine, so no plan protocol — the service serves
    these per-request.

Backends are deliberately stateless with respect to requests: per-request RNG
streams ride on the plans themselves (see
:class:`~repro.inference.engine.RequestPlan`), so one backend instance can
serve arbitrarily interleaved traffic and every response is a function of the
request alone.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..io.artifacts import _artifact_signature
from ..telemetry import PROCESS_METRICS

__all__ = ["RawImputation", "ImputationBackend", "DiffusionBackend",
           "WindowedBackend", "RequestJob", "window_starts", "load_backend",
           "BackendCache", "process_backend", "resident_backends"]

_HITS = PROCESS_METRICS.counter("registry.cache.hits")
_MISSES = PROCESS_METRICS.counter("registry.cache.misses")
_EVICTIONS = PROCESS_METRICS.counter("registry.cache.evictions")


def window_starts(length, window_length, stride):
    """Start offsets of the sliding windows covering ``[0, length)``.

    Every time index is covered by at least one window (the property tests
    in ``tests/test_property_based.py`` pin this for all combinations):
    consecutive starts are ``stride`` apart and a final flush-right window is
    appended when the stride pattern would stop short of the end.  A stride
    larger than the window would leave uncovered gaps between windows, so it
    is rejected.
    """
    if length < window_length:
        raise ValueError(
            f"segment of length {length} is shorter than the window {window_length}"
        )
    if not 1 <= stride <= window_length:
        raise ValueError(
            f"stride must be in [1, window_length={window_length}] to cover "
            f"every index (got {stride})"
        )
    starts = list(range(0, length - window_length + 1, stride))
    if starts[-1] != length - window_length:
        starts.append(length - window_length)
    return starts


def load_backend(artifact_path):
    """Rehydrate a stateless backend from a :mod:`repro.io` artifact on disk.

    The loader behind :class:`BackendCache`: a pool child is handed nothing
    but the artifact *path* of the resolved model and rebuilds its own
    private backend from it, so no live network objects ever cross the
    process boundary; an inline flush loads the same way.  The artifact
    round-trip is bit-exact (``tests/test_persistence.py``), which keeps
    pool-served responses bit-identical to the serve-alone path.
    """
    from ..io import load_model
    # Imported lazily: repro.serving imports this module, so a top-level
    # import of repro.serving.faults here would be circular.
    from ..serving import faults

    # Injection point: rehydration failing on a cache miss (artifact
    # unreadable, version pulled mid-flight), in a pool child or inline.
    faults.inject("backend.load")
    return load_model(artifact_path).backend()


class BackendCache:
    """A small LRU of rehydrated backends keyed by artifact path.

    Each process serves from one (``_PROCESS_BACKENDS``, behind
    :func:`process_backend`): a pool child for its batches, the parent for
    inline flushes and :meth:`repro.serving.ModelRegistry.backend`, from
    several threads — hence the lock.  Colder models are evicted and
    transparently re-loaded on the next request.  Lookups count
    ``registry.cache.hits`` / ``.misses`` / ``.evictions`` in
    :data:`repro.telemetry.PROCESS_METRICS`, which a worker pool folds from
    its children into the parent.

    A version *path* may be republished in place, by any registry or
    process, so every lookup probes the artifact's on-disk signature
    (:func:`repro.io.artifacts._artifact_signature`, two ``os.stat``)
    outside the lock.  An unchanged signature is a hit; a changed one
    reloads and counts as a miss; no artifact files (a republish between
    its two renames, or a pulled version) keep the resident backend.
    """

    def __init__(self, max_loaded=4):
        if max_loaded < 1:
            raise ValueError("max_loaded must be a positive integer")
        self.max_loaded = int(max_loaded)
        self._lock = threading.Lock()
        # artifact path -> (backend, on-disk signature at load)
        self._backends = OrderedDict()

    def get(self, artifact_path):
        """The backend for an artifact path, loading and evicting as needed."""
        # Probed before loading: if a republish lands mid-load, the older
        # signature is cached and the next lookup reloads.
        signature = _artifact_signature(artifact_path)
        with self._lock:
            entry = self._backends.get(artifact_path)
            if entry is not None and signature in (None, entry[1]):
                self._backends.move_to_end(artifact_path)
                _HITS.inc()
                return entry[0]
            self._backends.pop(artifact_path, None)
            _MISSES.inc()
            backend = load_backend(artifact_path)
            self._backends[artifact_path] = (backend, signature)
            while len(self._backends) > self.max_loaded:
                self._backends.popitem(last=False)
                _EVICTIONS.inc()
            return backend


#: The process's one backend cache.  A pool worker's child process is
#: single-threaded, so there it is exactly the worker's LRU; in the parent it
#: backs inline batches and ``ModelRegistry.backend``.
_PROCESS_BACKENDS = BackendCache(max_loaded=4)


def process_backend(artifact_path):
    """The calling process's resident backend for ``artifact_path``.

    The one model lookup of the serving stack, called by a pool child's
    batch loop and by the service's inline flush: rehydration happens once
    per (process, save of the artifact).
    """
    return _PROCESS_BACKENDS.get(artifact_path)


def resident_backends():
    """How many backends this process's cache holds."""
    with _PROCESS_BACKENDS._lock:
        return len(_PROCESS_BACKENDS._backends)


@dataclass
class RawImputation:
    """Output of a backend call over raw arrays.

    Attributes
    ----------
    median:
        ``(time, node)`` deterministic imputation (median over samples),
        observed entries passed through unchanged.
    samples:
        ``(num_samples, time, node)`` posterior samples.
    values, observed_mask:
        The request's inputs, echoed back so callers can compute metrics or
        build an :class:`~repro.core.imputer.ImputationResult` without
        re-slicing anything.
    """

    median: np.ndarray
    samples: np.ndarray
    values: np.ndarray
    observed_mask: np.ndarray


@dataclass
class RequestJob:
    """A planned request: engine work items plus everything needed to
    reassemble their samples into a :class:`RawImputation`.

    ``items`` is the flat ``(window, sample)`` product in window-major order —
    the same order the serve-alone path consumes, which is what makes a
    micro-batched response bit-identical to the request served by itself.
    """

    items: list                    # RequestPlan per (window, sample)
    window_length: int
    num_samples: int
    length: int                    # original request length (pre-padding)
    padded_length: int
    values: np.ndarray             # (time, node) raw request values
    observed_mask: np.ndarray      # (time, node) bool

    @property
    def num_windows(self):
        return len(self.items) // self.num_samples


class ImputationBackend:
    """Shared surface of the stateless inference backends."""

    def __init__(self, *, scaler, window_length, network=None):
        self.scaler = scaler
        self.window_length = int(window_length)
        self.network = network

    @contextmanager
    def eval_mode(self):
        """Run the network in eval mode (dropout off) for the duration."""
        if self.network is None:
            yield
            return
        self.network.eval()
        try:
            yield
        finally:
            self.network.train()

    def _finalize(self, samples_scaled, values, observed_mask):
        """Scaled samples -> :class:`RawImputation` (unscale, pass-through,
        median) — the exact tail of the historical ``impute`` path."""
        samples = self.scaler.inverse_transform(samples_scaled)
        samples = np.where(observed_mask[None], values[None], samples)
        median = np.median(samples, axis=0)
        return RawImputation(median=median, samples=samples,
                             values=values, observed_mask=observed_mask)

    @staticmethod
    def _check_request(values, observed_mask):
        """Normalise a raw request: NaN/inf readings count as missing (the
        streaming convention), the mask defaults to "everything finite", and
        unobserved entries are stored as zero (the dataset convention) so no
        NaN can leak through the scaler into the condition or the output."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("request values must be a (time, node) array")
        finite = np.isfinite(values)
        if observed_mask is None:
            observed_mask = finite
        else:
            observed_mask = np.asarray(observed_mask).astype(bool)
            if observed_mask.shape != values.shape:
                raise ValueError("observed_mask must have the same shape as values")
            observed_mask = observed_mask & finite
        if values.shape[0] < 1:
            raise ValueError("request must contain at least one time step")
        return np.where(observed_mask, values, 0.0), observed_mask

    def impute_arrays(self, values, observed_mask=None, **kwargs):
        """Impute a raw ``(time, node)`` array pair (subclass hook)."""
        raise NotImplementedError


class DiffusionBackend(ImputationBackend):
    """Stateless reverse-diffusion imputation for PriSTI / CSDI."""

    def __init__(self, *, engine, scaler, build_condition, window_length,
                 network=None):
        super().__init__(scaler=scaler, window_length=window_length, network=network)
        self.engine = engine
        self.build_condition = build_condition

    # ------------------------------------------------------------------
    # Dataset-segment path (the thin wrapper behind model.impute)
    # ------------------------------------------------------------------
    def impute_segment(self, values, input_mask, *, num_samples, stride=None):
        """Impute a full dataset segment (the body of ``model.impute``): the
        serving recipe for one job, on the diffusion object's shared noise
        stream (``rng=None``).

        Chunks hold ``inference_batch_size`` items; ``None`` here means one
        window's ``num_samples`` per chunk (a served micro-batch packs each
        whole same-shape group into one chunk instead).
        """
        job = self.plan_request(values, input_mask, num_samples=num_samples,
                                stride=stride)
        chunk_size = self.engine.inference_batch_size or job.num_samples
        return self.sample_jobs([job], chunk_size=chunk_size)[0]

    # ------------------------------------------------------------------
    # Request-plan protocol (every diffusion imputation runs through it)
    # ------------------------------------------------------------------
    def plan_request(self, values, observed_mask=None, *, num_samples=1,
                     rng=None, stride=None):
        """Plan a raw request into engine work items.

        Parameters
        ----------
        values, observed_mask:
            ``(time, node)`` raw observations and visibility mask; any length
            ≥ 1 is accepted (short requests are zero-padded to the model
            window and cropped after sampling).
        num_samples:
            Posterior samples to draw for the request.
        rng:
            Per-request RNG stream — an integer seed or a
            ``numpy.random.Generator``.  ``None`` consumes the engine's
            shared diffusion stream (fine for direct calls; the serving
            stack always sets one so responses are independent of batching).
        stride:
            Sliding-window stride for requests longer than the model window;
            defaults to the window length (non-overlapping).
        """
        values, observed_mask = self._check_request(values, observed_mask)
        num_samples = int(num_samples)
        if num_samples < 1:
            raise ValueError("num_samples must be a positive integer")
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        length, num_nodes = values.shape
        window = self.window_length
        padded_length = max(length, window)

        scaled = self.scaler.transform(values)
        mask = observed_mask
        if padded_length > length:
            # Mask-padded tail: the pad is invisible to the model (mask 0
            # zeroes it out of the condition) and cropped from the output.
            scaled = np.pad(scaled, ((0, padded_length - length), (0, 0)))
            mask = np.pad(mask, ((0, padded_length - length), (0, 0)))

        from .engine import RequestPlan

        dtype = self.engine.dtype
        scaled = np.asarray(scaled, dtype=dtype)
        stride = stride or window
        windows = []
        for start in window_starts(padded_length, window, stride):
            stop = start + window
            window_values = scaled[start:stop].T[None]
            window_mask = mask[start:stop].T[None].astype(dtype)
            condition = np.asarray(
                self.build_condition(window_values * window_mask, window_mask),
                dtype=dtype,
            )
            windows.append(RequestPlan(start, window_values, window_mask,
                                       condition, rng=rng))
        # Window-major (window, sample) order — identical to the serve-alone
        # consumption order of the request's RNG stream.
        items = [windows[w] for w in range(len(windows)) for _ in range(num_samples)]
        return RequestJob(items=items, window_length=window,
                          num_samples=num_samples, length=length,
                          padded_length=padded_length,
                          values=values, observed_mask=observed_mask)

    def assemble(self, job, item_samples):
        """Reassemble engine samples for one job into a :class:`RawImputation`.

        ``item_samples`` is aligned with ``job.items`` (window-major).  The
        samples are overlap-averaged in window order, padding is cropped and
        the standard unscale / pass-through / median tail runs.
        """
        num_samples = job.num_samples
        length, num_nodes = job.values.shape
        sums = np.zeros((num_samples, job.padded_length, num_nodes))
        counts = np.zeros((job.padded_length, num_nodes))
        for w in range(job.num_windows):
            plan = job.items[w * num_samples]
            stop = plan.start + job.window_length
            window_block = np.stack(
                item_samples[w * num_samples:(w + 1) * num_samples]
            )                                                   # (S, N, L)
            sums[:, plan.start:stop, :] += window_block.transpose(0, 2, 1)
            counts[plan.start:stop, :] += 1.0
        counts = np.maximum(counts, 1.0)
        samples_scaled = (sums / counts[None])[:, :length, :]
        return self._finalize(samples_scaled, job.values, job.observed_mask)

    def sample_jobs(self, jobs, chunk_size=None):
        """Sample planned jobs in one engine pass; one :class:`RawImputation`
        per job.

        Every job's items run through a single
        :meth:`~repro.inference.engine.InferenceEngine.sample_plans` call
        (``chunk_size`` as there), then each job is assembled from its own
        slice.  A job's items keep their window-major order and draw from the
        job's own stream, so a job sampled with others gets the bits it gets
        alone.
        """
        items = [item for job in jobs for item in job.items]
        with self.eval_mode():
            flat = self.engine.sample_plans(items, chunk_size=chunk_size)
        raws, offset = [], 0
        for job in jobs:
            raws.append(self.assemble(job, flat[offset:offset + len(job.items)]))
            offset += len(job.items)
        return raws

    # ------------------------------------------------------------------
    # Raw-array path
    # ------------------------------------------------------------------
    def impute_arrays(self, values, observed_mask=None, *, num_samples=1,
                      rng=None, stride=None):
        """Impute a raw ``(time, node)`` request end to end: one job through
        :meth:`sample_jobs`, the recipe a served micro-batch runs for all
        its requests, which is why a batched response is bit-identical to
        this serve-alone path."""
        job = self.plan_request(values, observed_mask, num_samples=num_samples,
                                rng=rng, stride=stride)
        return self.sample_jobs([job])[0]


class WindowedBackend(ImputationBackend):
    """Stateless windowed reconstruction for the deep baselines."""

    def __init__(self, *, scaler, sample_window, window_length, network=None):
        super().__init__(scaler=scaler, window_length=window_length, network=network)
        self.sample_window = sample_window

    def _predict_windows(self, values, input_mask, num_samples):
        """Reconstruct a segment of at least one window, window by window
        (non-overlapping :func:`window_starts`), averaging overlaps."""
        length, num_nodes = values.shape
        window = self.window_length
        sums = np.zeros((num_samples, length, num_nodes))
        counts = np.zeros((length, num_nodes))
        for start in window_starts(length, window, window):
            stop = start + window
            scaled = self.scaler.transform(values[start:stop]).T[None]
            mask = input_mask[start:stop].T[None]
            for sample_index in range(num_samples):
                reconstruction = self.sample_window(scaled * mask, mask, sample_index)
                sums[sample_index, start:stop] += reconstruction[0].T
            counts[start:stop] += 1.0
        counts = np.maximum(counts, 1.0)
        return sums / counts[None]

    def impute_segment(self, values, input_mask, *, num_samples=1):
        """Impute a ``(time, node)`` segment of any length ≥ 1 (the body of
        ``model.impute``).

        Segments shorter than the trained window are mask-padded to it and
        cropped after reconstruction — some windowed decoders (the VAE
        family) emit a fixed window length, so short inputs cannot be fed
        through directly.
        """
        length = values.shape[0]
        pad = max(self.window_length - length, 0)
        with self.eval_mode():
            samples_scaled = self._predict_windows(
                np.pad(values, ((0, pad), (0, 0))),
                np.pad(input_mask, ((0, pad), (0, 0))), num_samples)
        return self._finalize(samples_scaled[:, :length, :], values, input_mask)

    def impute_arrays(self, values, observed_mask=None, *, num_samples=1,
                      rng=None, stride=None):
        """Impute a raw ``(time, node)`` request of any length ≥ 1.

        ``rng`` / ``stride`` are accepted for interface parity with
        :class:`DiffusionBackend` and ignored: windowed reconstruction has no
        engine-side noise to control — stochastic windowed models (VAE,
        rGAIN) draw from their *model-owned* stream, so replayable streams
        are a diffusion-backend guarantee only.
        """
        values, observed_mask = self._check_request(values, observed_mask)
        num_samples = int(num_samples)
        if num_samples < 1:
            raise ValueError("num_samples must be a positive integer")
        return self.impute_segment(values, observed_mask, num_samples=num_samples)
