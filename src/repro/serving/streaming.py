"""Streaming imputation sessions over live, incrementally-arriving data.

The conditional-diffusion imputers are trained on fixed windows of an offline
dataset, but the setting they model — sensor networks with dropouts — is
inherently online: readings arrive tick by tick, with gaps, and the freshest
imputation is the valuable one.  :class:`StreamingImputer` closes that gap:

* observations are ingested one ``(node,)`` vector per tick into a
  :class:`~repro.data.windows.SlidingWindowBuffer` (NaN = missing),
* every ``emit_stride`` ticks the current window is imputed through the
  backend's raw-array path (cold starts are fine — windows shorter than the
  model's trained length are mask-padded),
* the emitted :class:`StreamingUpdate` carries the full imputed window plus
  the *incremental* slice — the ticks imputed for the first time since the
  previous emission.

Each imputation builds the window's conditional information once, whatever
``num_samples`` is.

The backend is anything exposing ``window_length`` and ``impute_arrays``: a
model's :class:`~repro.inference.DiffusionBackend` /
:class:`~repro.inference.WindowedBackend` in process, or — behind the HTTP
gateway — a view of :class:`~repro.serving.ImputationService` that turns each
emission into one seeded :class:`~repro.serving.ImputationRequest`, so stream
ticks are micro-batched, admitted and pooled like every other request.

The session owns one private RNG stream (``seed``) and draws one integer
seed from it per emission; the emission imputes with that seed alone.  Each
emission is therefore self-contained: it is bit-identical whether it runs
in process, on a worker pool or as a retried batch, and a replayed stream
reproduces its imputations exactly.  (The guarantee is specific to the
diffusion backends: stochastic *windowed* models — VAE, rGAIN — sample from
their model-owned stream, which the backend interface does not control.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.windows import SlidingWindowBuffer

__all__ = ["StreamingImputer", "StreamingUpdate"]


@dataclass
class StreamingUpdate:
    """One emitted imputation of the session's current window.

    Attributes
    ----------
    tick:
        Absolute index of the newest ingested tick (0-based).
    start:
        Absolute index of the first tick covered by ``median``.
    median:
        ``(window, node)`` imputed window (observed entries passed through).
    samples:
        ``(num_samples, window, node)`` posterior samples of the window.
    new_median:
        ``(new_ticks, node)`` tail of ``median`` covering only the ticks not
        included in the previous emission — the incremental output.
    observed_mask:
        ``(window, node)`` visibility of the window's raw readings.
    condition_cached:
        Always ``False``: every emission builds its window's condition (the
        deterministic ``build_condition``).  The field stays because stream
        consumers read it — the gateway's stream meta carries it, and the
        benchmark's span tracer reports its share.
    """

    tick: int
    start: int
    median: np.ndarray
    samples: np.ndarray
    new_median: np.ndarray
    observed_mask: np.ndarray
    condition_cached: bool


class StreamingImputer:
    """A live imputation session over one sensor stream.

    Parameters
    ----------
    backend:
        A stateless imputation backend (``model.backend()``), or anything
        exposing ``impute_arrays`` / ``window_length`` (the gateway passes a
        view of its service).
    num_nodes:
        Number of sensors in the stream.
    num_samples:
        Posterior samples per emission.
    emit_stride:
        Emit every this-many ticks (1 = every tick).
    min_history:
        Ticks required before the first emission (default 1: cold starts are
        served from a mask-padded short window; raise it to wait for a fuller
        window).
    seed:
        Seed of the session's private RNG stream, which yields one integer
        seed per emission.
    """

    def __init__(self, backend, num_nodes, *, num_samples=1, emit_stride=1,
                 min_history=1, seed=0):
        if emit_stride < 1:
            raise ValueError("emit_stride must be a positive integer")
        if num_samples < 1:
            raise ValueError("num_samples must be a positive integer")
        window_length = int(backend.window_length)
        if not 1 <= min_history <= window_length:
            raise ValueError("min_history must be in [1, window_length]")
        self.backend = backend
        self.num_samples = int(num_samples)
        self.emit_stride = int(emit_stride)
        self.min_history = int(min_history)
        self.buffer = SlidingWindowBuffer(window_length, num_nodes)
        self._rng = np.random.default_rng(seed)
        self._last_emitted_tick = -1    # absolute index of the newest emitted tick

    @property
    def tick(self):
        """Absolute index of the newest ingested tick (-1 before any)."""
        return self.buffer.total_pushed - 1

    @property
    def warm(self):
        """Whether enough history has arrived to emit."""
        return len(self.buffer) >= self.min_history

    def push(self, values, mask=None):
        """Ingest one tick; returns a :class:`StreamingUpdate` when the
        session emits (warm and on-stride), else ``None``."""
        self.buffer.push(values, mask)
        if not self.warm:
            return None
        if self.buffer.total_pushed % self.emit_stride != 0:
            return None
        return self.query()

    def query(self):
        """Impute the current window on demand (also used by :meth:`push`).

        Safe to call repeatedly between ticks: the emitted update's
        ``new_median`` is empty when nothing new arrived.
        """
        if not self.warm:
            raise RuntimeError(
                f"streaming session needs {self.min_history} tick(s) before imputing"
            )
        values, mask = self.buffer.window()
        start = self.buffer.start
        seed = int(self._rng.integers(2**63))
        raw = self.backend.impute_arrays(
            values, mask, num_samples=self.num_samples, rng=seed,
        )

        new_ticks = self.tick - self._last_emitted_tick
        new_ticks = int(np.clip(new_ticks, 0, raw.median.shape[0]))
        update = StreamingUpdate(
            tick=self.tick,
            start=start,
            median=raw.median,
            samples=raw.samples,
            new_median=raw.median[raw.median.shape[0] - new_ticks:],
            observed_mask=mask,
            condition_cached=False,
        )
        self._last_emitted_tick = self.tick
        return update
