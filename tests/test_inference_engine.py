"""Tests for batched reverse-diffusion imputation.

Covers ``(window, sample)`` chunking in the engine and the two window-plan
duties of :class:`~repro.inference.DiffusionBackend` — per-window condition
caching and strided-window overlap averaging — plus the equivalence contract
between ``model.impute`` and the plain-numpy serial reference in
``tests/serial_reference.py`` (per window, per sample, batch-1 network
calls).
"""

import numpy as np
import pytest

from repro import InferenceEngine, PriSTI, PriSTIConfig
from repro.baselines import CSDIImputer
from repro.data import DatasetSplit, SpatioTemporalDataset, StandardScaler
from repro.diffusion import GaussianDiffusion, quadratic_schedule
from repro.inference import DiffusionBackend
from repro.inference.backend import window_starts
from serial_reference import impute_segment_serial, impute_serial


def _fast_config(**overrides):
    defaults = dict(window_length=12, epochs=1, iterations_per_epoch=1,
                    num_diffusion_steps=8, num_samples=3, batch_size=4)
    defaults.update(overrides)
    return PriSTIConfig.fast(**defaults)


def _reseeded_impute(model, dataset, seed=99, **kwargs):
    """Impute with a freshly seeded sampling RNG so runs are comparable."""
    model.diffusion.rng = np.random.default_rng(seed)
    return model.impute(dataset, segment="test", **kwargs)


def _reseeded_serial(model, dataset, seed=99, **kwargs):
    """The serial reference under the same seed as :func:`_reseeded_impute`."""
    model.diffusion.rng = np.random.default_rng(seed)
    return impute_serial(model, dataset, segment="test", **kwargs)


def _identity_backend(engine, window_length, build_condition):
    """A backend over ``engine`` whose scaler leaves values unchanged."""
    scaler = StandardScaler().fit(np.array([-1.0, 1.0]))    # mean 0, std 1
    return DiffusionBackend(engine=engine, scaler=scaler,
                            build_condition=build_condition,
                            window_length=window_length)


# ----------------------------------------------------------------------
# Engine-level tests (fake predictor; no training involved)
# ----------------------------------------------------------------------
class TestEngineMechanics:
    def _engine(self, num_steps=6, **kwargs):
        diffusion = GaussianDiffusion(quadratic_schedule(num_steps),
                                      rng=np.random.default_rng(0))

        def predict(x_t, condition, steps, conditional_mask, cache=None,
                    samples_per_plan=1):
            assert x_t.shape == condition.shape == conditional_mask.shape
            assert len(steps) == x_t.shape[0]
            return np.zeros_like(x_t.data)

        return InferenceEngine(diffusion, predict, **kwargs)

    def test_condition_built_once_per_window(self):
        engine = self._engine()
        calls = []

        def build_condition(values, mask):
            calls.append(values.shape)
            return np.asarray(values, dtype=np.float64)

        values = np.arange(40.0).reshape(20, 2)
        mask = np.ones((20, 2), dtype=bool)
        raw = _identity_backend(engine, 8, build_condition).impute_segment(
            values, mask, num_samples=5, stride=4)
        starts = window_starts(20, 8, 4)                 # [0, 4, 8, 12]
        assert raw.samples.shape == (5, 20, 2)
        # One call per window — never per (window, sample) pair.
        assert len(calls) == len(starts) == 4
        assert all(shape == (1, 2, 8) for shape in calls)

    def test_chunk_size_does_not_change_results(self):
        values = np.linspace(-1, 1, 36).reshape(18, 2)
        # Observed entries are passed through, so only the unobserved ones
        # show the sampled values.
        mask = np.arange(36).reshape(18, 2) % 3 != 0
        def build(v, m):
            return np.asarray(v, dtype=np.float64)
        reference = None
        for batch_size in (1, 2, 3, 7, 64, None):
            engine = self._engine(inference_batch_size=batch_size)
            raw = _identity_backend(engine, 6, build).impute_segment(
                values, mask, num_samples=3, stride=3)
            result = raw.samples[:, ~mask]
            if reference is None:
                reference = result
            else:
                np.testing.assert_allclose(result, reference, atol=1e-10, rtol=0)

    def test_overlap_counts_average_strided_windows(self):
        """Uneven window coverage must still yield a finite full-segment result."""
        diffusion = GaussianDiffusion(quadratic_schedule(4), rng=np.random.default_rng(0))

        def predict(x_t, condition, steps, conditional_mask, cache=None,
                    samples_per_plan=1):
            return np.zeros_like(x_t.data)

        engine = InferenceEngine(diffusion, predict)
        values = np.zeros((10, 1))
        mask = np.zeros((10, 1), dtype=bool)      # every entry sampled
        raw = _identity_backend(engine, 6, lambda v, m: v).impute_segment(
            values, mask, num_samples=2, stride=2)
        # starts = [0, 2, 4]: coverage 1..3 windows per time step; averaging
        # must keep the output finite and shaped like the segment.
        assert raw.samples.shape == (2, 10, 1)
        assert np.all(np.isfinite(raw.samples))

    def test_cache_dict_passed_on_batched_path_only(self):
        diffusion = GaussianDiffusion(quadratic_schedule(5), rng=np.random.default_rng(0))
        seen = []

        def predict(x_t, condition, steps, conditional_mask, cache=None,
                    samples_per_plan=1):
            seen.append(cache)
            return np.zeros(x_t.shape)

        engine = InferenceEngine(diffusion, predict)
        values, mask = np.zeros((8, 2)), np.ones((8, 2), dtype=bool)
        _identity_backend(engine, 8, lambda v, m: v).impute_segment(
            values, mask, num_samples=2)
        assert all(isinstance(cache, dict) for cache in seen)
        # One chunk: the same scratch dict is reused across its steps.
        assert len({id(cache) for cache in seen}) == 1

        # Batch-1 chunks still get one scratch dict per chunk.
        seen.clear()
        engine = InferenceEngine(diffusion, predict, inference_batch_size=1)
        _identity_backend(engine, 8, lambda v, m: v).impute_segment(
            values, mask, num_samples=2)
        assert all(isinstance(cache, dict) for cache in seen)
        assert len({id(cache) for cache in seen}) == 2

        # The serial reference recomputes everything per call.
        seen.clear()
        impute_segment_serial(engine, values, mask, window_length=8, num_samples=2,
                              build_condition=lambda v, m: v)
        assert seen and all(cache is None for cache in seen)

    def test_invalid_arguments_rejected(self):
        diffusion = GaussianDiffusion(quadratic_schedule(4), rng=np.random.default_rng(0))
        def predict(*a, **k):
            return None
        with pytest.raises(ValueError):
            InferenceEngine(diffusion, predict, parameterization="bogus")
        with pytest.raises(ValueError):
            InferenceEngine(diffusion, predict, inference_batch_size=0)
        for ddim_steps in (0, -2, 2.5, True):
            with pytest.raises(ValueError, match="ddim_steps"):
                InferenceEngine(diffusion, predict, ddim_steps=ddim_steps)
        assert InferenceEngine(diffusion, predict, ddim_steps=np.int64(3)).ddim_steps == 3


# ----------------------------------------------------------------------
# Model-level equivalence (trained imputers, both parameterizations)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained_models(tiny_traffic_dataset):
    """One cheaply trained PriSTI per parameterization."""
    models = {}
    for parameterization in ("epsilon", "x0_residual"):
        model = PriSTI(_fast_config(parameterization=parameterization))
        model.fit(tiny_traffic_dataset)
        models[parameterization] = model
    return models


class TestBatchedImputeEquivalence:
    @pytest.mark.parametrize("parameterization", ["epsilon", "x0_residual"])
    def test_strided_batched_matches_serial(self, trained_models, tiny_traffic_dataset,
                                            parameterization):
        """stride < window: batched engine == serial reference (≤1e-10)."""
        model = trained_models[parameterization]
        batched = _reseeded_impute(model, tiny_traffic_dataset, num_samples=3, stride=5)
        serial = _reseeded_serial(model, tiny_traffic_dataset, num_samples=3, stride=5)
        np.testing.assert_allclose(batched.samples, serial.samples, atol=1e-10, rtol=0)
        np.testing.assert_allclose(batched.median, serial.median, atol=1e-10, rtol=0)

    def test_ddim_batched_matches_serial(self, tiny_traffic_dataset):
        model = PriSTI(_fast_config(ddim_steps=4))
        model.fit(tiny_traffic_dataset)
        batched = _reseeded_impute(model, tiny_traffic_dataset, num_samples=2, stride=7)
        serial = _reseeded_serial(model, tiny_traffic_dataset, num_samples=2, stride=7)
        np.testing.assert_allclose(batched.samples, serial.samples, atol=1e-10, rtol=0)

    def test_cross_window_chunks_match_default(self, trained_models, tiny_traffic_dataset):
        """Chunks spanning window boundaries must not change the output."""
        model = trained_models["x0_residual"]
        reference = _reseeded_impute(model, tiny_traffic_dataset, num_samples=3, stride=5)
        for batch_size in (1, 2, 7, 64):
            model.config.inference_batch_size = batch_size
            try:
                result = _reseeded_impute(model, tiny_traffic_dataset, num_samples=3, stride=5)
            finally:
                model.config.inference_batch_size = None
            np.testing.assert_allclose(result.samples, reference.samples,
                                       atol=1e-10, rtol=0)

    def test_observed_entries_passed_through_strided(self, trained_models,
                                                     tiny_traffic_dataset):
        model = trained_models["epsilon"]
        result = _reseeded_impute(model, tiny_traffic_dataset, num_samples=2, stride=4)
        values, observed, evaluation = tiny_traffic_dataset.segment("test")
        visible = observed & ~evaluation
        assert np.allclose(result.median[visible], values[visible])
        assert np.allclose(result.samples[:, visible], values[visible][None])

    def test_short_segment_padded_and_cropped(self, trained_models,
                                              tiny_traffic_dataset):
        """A segment shorter than the window is mask-padded and cropped, as
        a served request is: same bits as ``impute_arrays`` on its arrays."""
        data = tiny_traffic_dataset
        split = DatasetSplit(data.split.train, data.split.valid,
                             slice(data.num_steps - 5, data.num_steps))
        short = SpatioTemporalDataset(data.values, data.observed_mask,
                                      data.eval_mask, data.network,
                                      data.steps_per_day, split=split)
        model = trained_models["epsilon"]
        result = _reseeded_impute(model, short, num_samples=2)
        values, observed, evaluation = short.segment("test")
        assert result.median.shape == values.shape == (5, data.num_nodes)
        assert result.samples.shape == (2, 5, data.num_nodes)
        assert np.all(np.isfinite(result.samples))
        model.diffusion.rng = np.random.default_rng(99)
        raw = model.backend().impute_arrays(values, observed & ~evaluation,
                                            num_samples=2)
        assert np.array_equal(result.samples, raw.samples)
        assert np.array_equal(result.median, raw.median)

    def test_csdi_shares_engine(self, tiny_traffic_dataset):
        model = CSDIImputer(_fast_config())
        model.fit(tiny_traffic_dataset)
        batched = _reseeded_impute(model, tiny_traffic_dataset, num_samples=2, stride=5)
        serial = _reseeded_serial(model, tiny_traffic_dataset, num_samples=2, stride=5)
        np.testing.assert_allclose(batched.samples, serial.samples, atol=1e-10, rtol=0)

    def test_engine_requires_fit(self, tiny_traffic_dataset):
        with pytest.raises(RuntimeError):
            PriSTI(_fast_config()).inference_engine()

    def test_config_rejects_bad_inference_batch_size(self):
        with pytest.raises(ValueError):
            _fast_config(inference_batch_size=0)
        assert _fast_config(inference_batch_size=32).inference_batch_size == 32

    @pytest.mark.slow
    def test_equivalence_sweep(self, tiny_traffic_dataset):
        """Exhaustive engine-vs-serial-reference sweep; run with --run-slow."""
        for parameterization in ("epsilon", "x0_residual"):
            for ddim_steps in (None, 4):
                for stride in (3, 6, 12):
                    model = PriSTI(_fast_config(parameterization=parameterization,
                                                ddim_steps=ddim_steps))
                    model.fit(tiny_traffic_dataset)
                    batched = _reseeded_impute(model, tiny_traffic_dataset,
                                               num_samples=3, stride=stride)
                    serial = _reseeded_serial(model, tiny_traffic_dataset,
                                              num_samples=3, stride=stride)
                    np.testing.assert_allclose(batched.samples, serial.samples,
                                               atol=1e-10, rtol=0)
