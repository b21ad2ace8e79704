"""Tests for PriSTI's building blocks: config, interpolation, modules, network."""

import numpy as np
import pytest

from repro.core import (
    AuxiliaryInfo,
    ConditionalFeatureExtraction,
    NoiseEstimationLayer,
    PriSTIConfig,
    PriSTINetwork,
    interpolate_series,
    linear_interpolation,
)
from repro.tensor import Tensor


@pytest.fixture
def adjacency(rng):
    a = rng.random((5, 5))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


class TestConfig:
    def test_defaults_match_table_2(self):
        config = PriSTIConfig()
        assert config.channels == 64
        assert config.layers == 4
        assert config.heads == 8
        assert config.beta_min == pytest.approx(1e-4)
        assert config.beta_max == pytest.approx(0.2)
        assert config.schedule == "quadratic"

    def test_paper_presets(self):
        aqi = PriSTIConfig.paper("aqi36")
        assert aqi.window_length == 36
        assert aqi.num_diffusion_steps == 100
        assert aqi.virtual_nodes == 16
        traffic = PriSTIConfig.paper("metr-la")
        assert traffic.window_length == 24
        assert traffic.num_diffusion_steps == 50
        with pytest.raises(ValueError):
            PriSTIConfig.paper("imagenet")

    def test_validation(self):
        with pytest.raises(ValueError):
            PriSTIConfig(channels=10, heads=3)
        with pytest.raises(ValueError):
            PriSTIConfig(beta_min=0.3, beta_max=0.2)
        with pytest.raises(ValueError):
            PriSTIConfig(layers=0)
        with pytest.raises(ValueError):
            PriSTIConfig(parameterization="something")
        # ddim_steps=0 used to run full DDPM silently and -2 failed only
        # inside numpy at the first impute().
        for ddim_steps in (0, -2, 2.5, True):
            with pytest.raises(ValueError, match="ddim_steps"):
                PriSTIConfig(ddim_steps=ddim_steps)
        assert PriSTIConfig(ddim_steps=4).ddim_steps == 4

    def test_variant_overrides(self):
        config = PriSTIConfig.fast()
        other = config.variant(channels=32, heads=4)
        assert other.channels == 32
        assert config.channels != 32 or config.channels == 16

    def test_ablation_variants(self):
        config = PriSTIConfig.fast()
        assert config.ablation("mix-STI").use_interpolation is False
        assert config.ablation("w/o CF").use_conditional_feature is False
        assert config.ablation("w/o spa").use_spatial is False
        assert config.ablation("w/o tem").use_temporal is False
        assert config.ablation("w/o MPNN").use_mpnn is False
        assert config.ablation("w/o Attn").use_spatial_attention is False
        assert config.ablation("PriSTI").use_interpolation is True
        with pytest.raises(ValueError):
            config.ablation("w/o everything")


class TestInterpolation:
    def test_fills_interior_gap_linearly(self):
        values = np.array([0.0, 0.0, 0.0, 3.0])
        mask = np.array([True, False, False, True])
        values[0] = 0.0
        result = interpolate_series(values, mask)
        assert np.allclose(result, [0.0, 1.0, 2.0, 3.0])

    def test_extrapolates_with_nearest(self):
        values = np.array([0.0, 5.0, 0.0, 0.0])
        mask = np.array([False, True, False, False])
        assert np.allclose(interpolate_series(values, mask), 5.0)

    def test_all_missing_gives_zeros(self):
        assert np.allclose(interpolate_series(np.array([7.0, 7.0]), np.array([False, False])), 0.0)

    def test_fully_observed_is_identity(self, rng):
        values = rng.standard_normal(10)
        assert np.allclose(interpolate_series(values, np.ones(10, dtype=bool)), values)

    def test_observed_positions_preserved(self, rng):
        values = rng.standard_normal(30)
        mask = rng.random(30) > 0.4
        if mask.sum() == 0:
            mask[0] = True
        result = interpolate_series(values * mask, mask)
        assert np.allclose(result[mask], values[mask])

    def test_batched_shapes(self, rng):
        values = rng.standard_normal((3, 4, 20))
        mask = rng.random((3, 4, 20)) > 0.3
        result = linear_interpolation(values, mask)
        assert result.shape == values.shape
        with pytest.raises(ValueError):
            linear_interpolation(values, mask[..., :10])
        with pytest.raises(ValueError):
            linear_interpolation(rng.standard_normal(5), np.ones(5, dtype=bool))


class TestModules:
    def test_auxiliary_info_shape(self, rng):
        auxiliary = AuxiliaryInfo(num_nodes=5, window_length=7, channels=8,
                                  temporal_dim=16, node_dim=4, rng=rng)
        out = auxiliary(batch_size=3)
        assert out.shape == (3, 5, 7, 8)

    def test_conditional_feature_shape(self, rng, adjacency):
        module = ConditionalFeatureExtraction(8, 2, adjacency, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 6, 8)))
        assert module(x).shape == (2, 5, 6, 8)

    def test_noise_estimation_layer_outputs(self, rng, adjacency):
        layer = NoiseEstimationLayer(8, 2, adjacency, num_nodes=5, virtual_nodes=3,
                                     diffusion_dim=8, rng=rng)
        hidden = Tensor(rng.standard_normal((2, 5, 6, 8)))
        prior = Tensor(rng.standard_normal((2, 5, 6, 8)))
        step = Tensor(rng.standard_normal((2, 8)))
        residual, skip = layer(hidden, prior, step)
        assert residual.shape == (2, 5, 6, 8)
        assert skip.shape == (2, 5, 6, 8)

    def test_noise_estimation_layer_requires_spatial_component(self, rng, adjacency):
        with pytest.raises(ValueError):
            NoiseEstimationLayer(8, 2, adjacency, num_nodes=5, virtual_nodes=3,
                                 diffusion_dim=8, use_spatial_attention=False,
                                 use_mpnn=False, rng=rng)

    def test_noise_estimation_ablation_flags(self, rng, adjacency):
        for flags in (dict(use_temporal=False), dict(use_spatial=False),
                      dict(use_mpnn=False), dict(use_spatial_attention=False),
                      dict(use_conditional_feature=False)):
            layer = NoiseEstimationLayer(8, 2, adjacency, num_nodes=5, virtual_nodes=5,
                                         diffusion_dim=8, rng=rng, **flags)
            hidden = Tensor(rng.standard_normal((1, 5, 4, 8)))
            prior = None if flags.get("use_conditional_feature") is False else hidden
            residual, skip = layer(hidden, prior, Tensor(rng.standard_normal((1, 8))))
            assert residual.shape == (1, 5, 4, 8)


class TestPriSTINetwork:
    def _network(self, rng, adjacency, **overrides):
        config = PriSTIConfig.fast(window_length=6, channels=8, heads=2, layers=2,
                                   num_diffusion_steps=10, **overrides)
        return PriSTINetwork(config, num_nodes=5, adjacency=adjacency, rng=rng), config

    def test_output_shape(self, rng, adjacency):
        network, _ = self._network(rng, adjacency)
        noisy = rng.standard_normal((3, 5, 6))
        condition = rng.standard_normal((3, 5, 6))
        out = network(noisy, condition, np.array([0, 3, 9]))
        assert out.shape == (3, 5, 6)

    def test_zero_initialised_output(self, rng, adjacency):
        network, _ = self._network(rng, adjacency)
        out = network(rng.standard_normal((1, 5, 6)), rng.standard_normal((1, 5, 6)), np.array([2]))
        assert np.allclose(out.data, 0.0)

    def test_gradients_reach_all_parameters(self, rng, adjacency):
        network, _ = self._network(rng, adjacency)
        out = network(rng.standard_normal((2, 5, 6)),
                      rng.standard_normal((2, 5, 6)), np.array([1, 4]))
        (out * out).sum().backward()
        named = dict(network.named_parameters())
        with_grad = [name for name, parameter in named.items() if parameter.grad is not None]
        # The final zero-initialised projection blocks gradient to nothing else
        # only if the whole path is dead; the bulk of parameters must get grads.
        assert len(with_grad) > len(named) * 0.5

    def test_ablation_without_conditional_feature(self, rng, adjacency):
        network, _ = self._network(rng, adjacency, use_conditional_feature=False)
        assert network.conditional_feature is None
        out = network(rng.standard_normal((1, 5, 6)), rng.standard_normal((1, 5, 6)), np.array([0]))
        assert out.shape == (1, 5, 6)

    def test_adjacency_shape_validation(self, rng):
        config = PriSTIConfig.fast(window_length=6, channels=8, heads=2)
        with pytest.raises(ValueError):
            PriSTINetwork(config, num_nodes=5, adjacency=np.eye(4), rng=rng)

    def test_config_type_validation(self, rng, adjacency):
        with pytest.raises(TypeError):
            PriSTINetwork({"channels": 8}, num_nodes=5, adjacency=adjacency, rng=rng)

    def test_mask_channel_changes_output(self, rng, adjacency):
        network, _ = self._network(rng, adjacency)
        # Give the network some non-trivial output first.
        network.output_projection2.weight.data[...] = rng.standard_normal(
            network.output_projection2.weight.shape) * 0.1
        noisy = rng.standard_normal((1, 5, 6))
        condition = rng.standard_normal((1, 5, 6))
        full_mask = np.ones((1, 5, 6))
        half_mask = np.array(full_mask)
        half_mask[:, :, 3:] = 0.0
        out_full = network(noisy, condition, np.array([1]), conditional_mask=full_mask)
        out_half = network(noisy, condition, np.array([1]), conditional_mask=half_mask)
        assert not np.allclose(out_full.data, out_half.data)
