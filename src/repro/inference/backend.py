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
    PriSTI / CSDI.  Exposes the dataset-segment path (``impute_segment``, the
    thin wrapper behind ``model.impute`` — bit-identical to the pre-backend
    code), the raw-array path (``impute_arrays``) and the request-plan
    protocol (``plan_request`` / ``assemble``) the
    :class:`~repro.serving.ImputationService` micro-batcher uses to coalesce
    concurrent requests into shared engine chunks.  Requests shorter than the
    model's trained window are zero-padded on the time axis (masked out, so
    the pad never conditions the model) and cropped after sampling; longer
    requests run the familiar strided sliding-window plan with overlap
    averaging.

:class:`WindowedBackend`
    The windowed neural baselines (BRITS, GRIN, rGAIN, VAE).  Same raw-array
    surface over the subclass's ``reconstruct`` forward; no diffusion engine,
    so no plan protocol — the service serves these per-request.

Backends are deliberately stateless with respect to requests: per-request RNG
streams ride on the plans themselves (see
:class:`~repro.inference.engine.RequestPlan`), so one backend instance can
serve arbitrarily interleaved traffic and every response is a function of the
request alone.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = ["RawImputation", "ImputationBackend", "DiffusionBackend",
           "WindowedBackend", "RequestJob", "load_backend", "BackendCache",
           "process_backend"]


def load_backend(artifact_path):
    """Rehydrate a stateless backend from a :mod:`repro.io` artifact on disk.

    This is the worker-side hook of the serving
    :class:`~repro.serving.pool.WorkerPool`: a pool worker's child process
    is handed nothing but the artifact *path* of the resolved model and
    rebuilds its own private backend from it, so no live network objects
    ever cross the process boundary.  The loaded
    model is a faithful copy of the published one (the artifact round-trip is
    bit-exact, see ``tests/test_persistence.py``), which is what keeps
    pool-served responses bit-identical to the in-process serve-alone path.
    """
    from ..io import load_model
    # Imported lazily: repro.serving imports this module, so a top-level
    # import of repro.serving.faults here would be circular.
    from ..serving import faults

    # Injection point: worker-side rehydration failing (artifact unreadable
    # from the worker's process, version pulled mid-flight).
    faults.inject("backend.load")
    return load_model(artifact_path).backend()


#: The artifact files whose ``(mtime_ns, size)`` pair identifies a publish:
#: ``save_model`` stages and atomically swaps both, so an in-place republish
#: of the same version always changes this signature.
_ARTIFACT_FILES = ("manifest.json", "arrays.npz")


def _artifact_signature(artifact_path):
    """A cheap on-disk fingerprint of an artifact (two ``stat`` calls)."""
    signature = []
    for name in _ARTIFACT_FILES:
        try:
            stat = os.stat(os.path.join(artifact_path, name))
            signature.append((name, stat.st_mtime_ns, stat.st_size))
        except OSError:
            signature.append((name, None, None))
    return tuple(signature)


class BackendCache:
    """A small per-worker LRU of rehydrated backends keyed by artifact path.

    Every pool worker's child process owns one (``_PROCESS_BACKENDS``):
    repeated batches for the same model reuse the worker's resident copy
    (keeping its shard "hot"), while colder models are evicted and
    transparently re-loaded on the next request.  Unlike the
    :class:`~repro.serving.ModelRegistry` LRU this cache is **not** shared —
    one instance per worker means one model instance per worker, so
    concurrent workers never run inference through the same mutable network
    object.

    Staleness is generation-gated.  A registry ``publish`` may overwrite an
    existing version *path* in place, so a path-keyed cache can silently
    serve a superseded model.  Callers that know the registry's publish
    ``generation`` pass it to :meth:`get`:

    * generation unchanged since the entry was cached → pure LRU hit, **no
      filesystem access** (the steady-state request path);
    * generation bumped (or unknown) → one cheap ``stat`` probe of the
      artifact files; the backend is re-loaded only when the on-disk
      signature actually changed (``stale_reloads``), otherwise the entry is
      revalidated against the new generation and stays resident.
    """

    def __init__(self, max_loaded=4):
        if max_loaded < 1:
            raise ValueError("max_loaded must be a positive integer")
        self.max_loaded = int(max_loaded)
        # artifact path -> [backend, generation, on-disk signature]
        self._backends = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stat_probes = 0
        self.stale_reloads = 0

    def get(self, artifact_path, generation=None):
        """The backend for an artifact path, loading and evicting as needed.

        ``generation`` is the caller's view of the registry publish counter
        (see :attr:`repro.serving.ModelRegistry.generation`); ``None`` means
        unknown, which degrades to a stat probe per call — still correct,
        just not free.
        """
        entry = self._backends.get(artifact_path)
        if entry is not None:
            backend, cached_generation, cached_signature = entry
            if generation is not None and generation == cached_generation:
                self._backends.move_to_end(artifact_path)
                self.hits += 1
                return backend
            self.stat_probes += 1
            if _artifact_signature(artifact_path) == cached_signature:
                # Same bytes on disk — revalidate against the new generation
                # so the next steady-state call skips the probe too.
                entry[1] = generation
                self._backends.move_to_end(artifact_path)
                self.hits += 1
                return backend
            self.stale_reloads += 1
            del self._backends[artifact_path]
        self.misses += 1
        # Snapshot the signature *before* loading: if a republish lands
        # mid-load we cache the older signature and the next probe reloads,
        # instead of pinning fresh stat data to a half-superseded backend.
        signature = _artifact_signature(artifact_path)
        backend = load_backend(artifact_path)
        self._backends[artifact_path] = [backend, generation, signature]
        while len(self._backends) > self.max_loaded:
            self._backends.popitem(last=False)
            self.evictions += 1
        return backend

    def stats(self):
        """Cache counters (hits / misses / evictions / staleness probes)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "resident": len(self._backends),
                "stat_probes": self.stat_probes,
                "stale_reloads": self.stale_reloads}


#: Process-global cache used by pool worker *processes*: each worker process
#: is single-threaded, so one cache per process == one cache per worker.
_PROCESS_BACKENDS = BackendCache(max_loaded=4)


def process_backend(artifact_path, generation=None):
    """The calling process's resident backend for ``artifact_path``.

    Entry point of the process-pool workers (see
    :func:`repro.serving.pool._process_worker_main`): rehydration happens at
    most once per (process, artifact) thanks to the process-global
    :class:`BackendCache`.  ``generation`` rides in from the parent's control
    message so steady-state batches skip the artifact stat probe entirely.
    """
    return _PROCESS_BACKENDS.get(artifact_path, generation=generation)


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
        """Impute a full dataset segment — bit-identical to the pre-backend
        ``ConditionalDiffusionImputer.impute`` body (same engine call, same
        unscale / pass-through / median tail)."""
        stride = stride or self.window_length
        with self.eval_mode():
            samples_scaled = self.engine.impute_segment(
                self.scaler.transform(values), input_mask,
                window_length=self.window_length, stride=stride,
                num_samples=num_samples, build_condition=self.build_condition,
            )
        return self._finalize(samples_scaled, values, input_mask)

    # ------------------------------------------------------------------
    # Request-plan protocol (used by the serving micro-batcher)
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
        for start in self.engine.window_starts(padded_length, window, stride):
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
        overlap-averaging accumulation order matches the segment path, then
        padding is cropped and the standard unscale / pass-through / median
        tail runs.
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

    # ------------------------------------------------------------------
    # Raw-array path
    # ------------------------------------------------------------------
    def impute_arrays(self, values, observed_mask=None, *, num_samples=1,
                      rng=None, stride=None):
        """Impute a raw ``(time, node)`` request end to end.

        This is exactly ``plan_request`` → engine → ``assemble``; the serving
        micro-batcher runs the same three stages with the middle one shared
        across coalesced requests, which is why a batched response is
        bit-identical to this serve-alone path.
        """
        job = self.plan_request(values, observed_mask, num_samples=num_samples,
                                rng=rng, stride=stride)
        with self.eval_mode():
            item_samples = self.engine.sample_plans(job.items)
        return self.assemble(job, item_samples)


class WindowedBackend(ImputationBackend):
    """Stateless windowed reconstruction for the deep baselines."""

    def __init__(self, *, scaler, sample_window, window_length, network=None):
        super().__init__(scaler=scaler, window_length=window_length, network=network)
        self.sample_window = sample_window

    def _predict_windows(self, values, input_mask, num_samples):
        """Reconstruct a full segment window-by-window, averaging overlaps —
        verbatim the historical ``WindowedNeuralImputer._predict_windows``."""
        length, num_nodes = values.shape
        window = self.window_length
        starts = list(range(0, length - window + 1, window))
        if starts and starts[-1] != length - window:
            starts.append(length - window)
        if not starts:
            starts = [0]

        sums = np.zeros((num_samples, length, num_nodes))
        counts = np.zeros((length, num_nodes))
        for start in starts:
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
        """Impute a full dataset segment — bit-identical to the pre-backend
        ``WindowedNeuralImputer.impute`` body."""
        with self.eval_mode():
            samples_scaled = self._predict_windows(values, input_mask, num_samples)
        return self._finalize(samples_scaled, values, input_mask)

    def impute_arrays(self, values, observed_mask=None, *, num_samples=1,
                      rng=None, stride=None):
        """Impute a raw ``(time, node)`` request of any length ≥ 1.

        Requests shorter than the trained window are mask-padded to it and
        cropped after reconstruction — some windowed decoders (the VAE
        family) emit a fixed window length, so short inputs cannot be fed
        through directly.  ``rng`` / ``stride`` are accepted for interface
        parity with :class:`DiffusionBackend` and ignored: windowed
        reconstruction has no engine-side noise to control — stochastic
        windowed models (VAE, rGAIN) draw from their *model-owned* stream,
        so replayable streams are a diffusion-backend guarantee only.
        """
        values, observed_mask = self._check_request(values, observed_mask)
        num_samples = int(num_samples)
        if num_samples < 1:
            raise ValueError("num_samples must be a positive integer")
        length = values.shape[0]
        window = self.window_length
        if length >= window:
            return self.impute_segment(values, observed_mask, num_samples=num_samples)
        padded_values = np.pad(values, ((0, window - length), (0, 0)))
        padded_mask = np.pad(observed_mask, ((0, window - length), (0, 0)))
        with self.eval_mode():
            samples_scaled = self._predict_windows(padded_values, padded_mask,
                                                   num_samples)
        return self._finalize(samples_scaled[:, :length, :], values, observed_mask)
