"""Tests for attention, graph message passing, embeddings and recurrent cells."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor


@pytest.fixture
def adjacency(rng):
    a = rng.random((6, 6))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        attention = nn.MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 5, 8)))
        assert attention(x).shape == (2, 3, 5, 8)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, 3)

    def test_attention_weights_are_distributions(self, rng):
        attention = nn.MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 8)))
        keys = Tensor(rng.standard_normal((1, 6, 8)))
        for key_source, shape in ((x, (1, 2, 4, 4)), (keys, (1, 2, 4, 6))):
            weights = attention.attention_weights(x, key_source).data
            assert weights.shape == shape
            assert np.allclose(weights.sum(axis=-1), 1.0)
            assert np.all(weights >= 0)

    def test_prior_conditioned_weights_independent_of_value(self, rng):
        """Eq. 7: the attention map must depend only on the prior source."""
        attention = nn.MultiHeadAttention(8, 2, rng=rng)
        prior = Tensor(rng.standard_normal((1, 5, 8)))
        value_a = Tensor(rng.standard_normal((1, 5, 8)))
        value_b = Tensor(rng.standard_normal((1, 5, 8)))
        weights_a = attention.attention_weights(prior).data
        out_a = attention(value_a, weights=attention.attention_weights(prior))
        out_b = attention(value_b, weights=attention.attention_weights(prior))
        weights_after = attention.attention_weights(prior).data
        assert np.allclose(weights_a, weights_after)
        assert not np.allclose(out_a.data, out_b.data)

    def test_gradients_flow_to_parameters(self, rng):
        attention = nn.MultiHeadAttention(4, 2, rng=rng)
        x = Tensor(rng.standard_normal((1, 3, 4)))
        attention(x).sum().backward()
        for parameter in attention.parameters():
            assert parameter.grad is not None


class TestVirtualNodeAttention:
    def test_output_keeps_full_node_resolution(self, rng):
        attention = nn.VirtualNodeAttention(8, 2, num_nodes=10, num_virtual_nodes=3, rng=rng)
        x = Tensor(rng.standard_normal((2, 4, 10, 8)))
        assert attention(x).shape == (2, 4, 10, 8)

    def test_virtual_nodes_clamped_to_num_nodes(self, rng):
        attention = nn.VirtualNodeAttention(8, 2, num_nodes=4, num_virtual_nodes=100, rng=rng)
        assert attention.num_virtual_nodes == 4

    def test_pooling_parameters_have_expected_shape(self, rng):
        attention = nn.VirtualNodeAttention(8, 2, num_nodes=10, num_virtual_nodes=3, rng=rng)
        assert attention.key_pool.shape == (10, 3)
        assert attention.value_pool.shape == (10, 3)

    def test_gradients_flow(self, rng):
        attention = nn.VirtualNodeAttention(4, 2, num_nodes=5, num_virtual_nodes=2, rng=rng)
        x = Tensor(rng.standard_normal((1, 3, 5, 4)))
        attention(x).sum().backward()
        assert attention.key_pool.grad is not None


class TestGraphConv:
    def test_mpnn_shape_and_residual(self, rng, adjacency):
        mpnn = nn.MPNN(8, adjacency, rng=rng)
        x = Tensor(rng.standard_normal((2, 6, 4, 8)))
        assert mpnn(x).shape == (2, 6, 4, 8)

    def test_graph_conv_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            nn.GraphWaveNetConv(4, 4, np.zeros((3, 4)))

    def test_adaptive_adjacency_rows_sum_to_one(self, rng, adjacency):
        conv = nn.GraphWaveNetConv(4, 4, adjacency, rng=rng)
        adaptive = conv.adaptive_adjacency().data
        assert adaptive.shape == (6, 6)
        assert np.allclose(adaptive.sum(axis=-1), 1.0)

    def test_without_adaptive_support(self, rng, adjacency):
        conv = nn.GraphWaveNetConv(4, 5, adjacency, use_adaptive=False, rng=rng)
        out = conv(Tensor(rng.standard_normal((1, 6, 3, 4))))
        assert out.shape == (1, 6, 3, 5)

    def test_propagation_mixes_neighbours(self, rng):
        # A path graph: node 0 only connects to node 1, so after one round of
        # propagation node 0's features must depend on node 1's input.
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[1, 2] = adjacency[2, 1] = 1.0
        conv = nn.GraphWaveNetConv(2, 2, adjacency, order=1, use_adaptive=False,
                                   rng=np.random.default_rng(0))
        x = np.zeros((1, 3, 1, 2))
        x[0, 1, 0, :] = 1.0
        out_with = conv(Tensor(x)).data
        out_without = conv(Tensor(np.zeros_like(x))).data
        assert not np.allclose(out_with[0, 0], out_without[0, 0])


class TestEmbeddings:
    def test_sinusoidal_table_shape_and_range(self):
        table = nn.sinusoidal_table(50, 32)
        assert table.shape == (50, 32)
        assert np.all(np.abs(table) <= 1.0 + 1e-9)

    def test_temporal_encoding_distinct_rows(self):
        table = nn.temporal_encoding(20, 16)
        assert not np.allclose(table[0], table[10])

    def test_diffusion_step_embedding_shape(self, rng):
        embedding = nn.DiffusionStepEmbedding(30, embedding_dim=16, projection_dim=8, rng=rng)
        out = embedding(np.array([0, 5, 29]))
        assert out.shape == (3, 8)

    def test_diffusion_step_embedding_distinguishes_steps(self, rng):
        embedding = nn.DiffusionStepEmbedding(30, embedding_dim=16, projection_dim=8, rng=rng)
        out = embedding(np.array([0, 29])).data
        assert not np.allclose(out[0], out[1])

    def test_node_embedding_trainable(self, rng):
        embedding = nn.NodeEmbedding(7, 4, rng=rng)
        assert embedding().shape == (7, 4)
        assert embedding.weight.requires_grad


class TestRecurrent:
    def test_gru_cell_step(self, rng):
        cell = nn.GRUCell(3, 5, rng=rng)
        hidden = cell.initial_state(2)
        out = cell(Tensor(rng.standard_normal((2, 3))), hidden)
        assert out.shape == (2, 5)

    def test_gru_sequence_shapes(self, rng):
        gru = nn.GRU(3, 4, rng=rng)
        outputs, final = gru(Tensor(rng.standard_normal((2, 6, 3))))
        assert outputs.shape == (2, 6, 4)
        assert final.shape == (2, 4)
        assert np.allclose(outputs.data[:, -1, :], final.data)

    def test_gru_gradients_flow_through_time(self, rng):
        gru = nn.GRU(2, 3, rng=rng)
        x = Tensor(rng.standard_normal((1, 5, 2)), requires_grad=True)
        outputs, _ = gru(x)
        outputs.sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad[0, 0]).sum() > 0       # earliest step still receives gradient


class TestOptim:
    def test_adam_minimises_quadratic(self, rng):
        weights = nn.Parameter(rng.standard_normal(5))
        optimizer = nn.Adam([weights], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            loss = (weights * weights).sum()
            loss.backward()
            optimizer.step()
        assert float((weights.data ** 2).sum()) < 1e-4

    def test_sgd_momentum_minimises(self, rng):
        weights = nn.Parameter(np.array([5.0]))
        optimizer = nn.SGD([weights], lr=0.1, momentum=0.5)
        for _ in range(100):
            optimizer.zero_grad()
            ((weights - 1.0) ** 2).sum().backward()
            optimizer.step()
        assert abs(weights.data[0] - 1.0) < 1e-2

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_milestone_lr_decays(self, rng):
        weights = nn.Parameter(np.zeros(1))
        optimizer = nn.Adam([weights], lr=1e-3)
        scheduler = nn.MilestoneLR(optimizer, total_epochs=10, milestones=(0.5, 0.9), gamma=0.1)
        lrs = [scheduler.step() for _ in range(10)]
        assert lrs[4] == pytest.approx(1e-4)
        assert lrs[-1] == pytest.approx(1e-5)

    def test_clip_grad_norm(self, rng):
        weights = nn.Parameter(np.zeros(4))
        weights.grad = np.full(4, 10.0)
        norm = nn.clip_grad_norm([weights], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(weights.grad) == pytest.approx(1.0)

    def test_weight_decay_shrinks(self):
        weights = nn.Parameter(np.array([1.0]))
        optimizer = nn.Adam([weights], lr=0.01, weight_decay=1.0)
        weights.grad = np.array([0.0])
        for _ in range(50):
            optimizer.step()
        assert abs(weights.data[0]) < 1.0
