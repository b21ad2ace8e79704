"""Replay kernels that keep their temporaries in the arena.

Pins the fused GELU expression (eager, arena replay and constant folding all
agree with the composed reference bit-for-bit), the copying-reshape node the
tracer records when a reshape cannot be a view, the in-place layer-norm
kernel, and the memory contract that follows from them: a warm replay of an
attention block allocates no full-size intermediate.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn import MLP, LayerNorm, MultiHeadAttention
from repro.tensor import Tensor, compile_graph, gelu, layer_norm, no_grad, trace
from repro.tensor.ops import _gelu_reference

DTYPES = [np.float32, np.float64]


def _trace(fn, **inputs):
    """Trace ``fn`` over named input arrays; returns (graph, program, out)."""
    with trace() as tracer:
        bound = {name: tracer.add_input(name, array)
                 for name, array in inputs.items()}
        with no_grad():
            out = fn(**{name: Tensor(array, dtype=array.dtype)
                        for name, array in bound.items()})
        graph = tracer.finish([out])
    return graph, compile_graph(graph), out.data


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _gelu_points(dtype):
    rng = np.random.default_rng(0)
    big = 1e30 if dtype == np.float32 else 1e200
    special = [0.0, -0.0, 30.0, -30.0, 1e3, -1e3, 1e6, -1e6, big, -big]
    return np.concatenate([special, rng.normal(size=5000)]).astype(dtype)


# The large magnitudes overflow the cube to inf on purpose.
overflow_ok = pytest.mark.filterwarnings("ignore:overflow encountered")


@overflow_ok
@pytest.mark.parametrize("dtype", DTYPES)
def test_fused_gelu_equals_composed_reference(dtype):
    x = _gelu_points(dtype)
    with no_grad():
        fused = gelu(Tensor(x, dtype=dtype)).data
        reference = _gelu_reference(Tensor(x, dtype=dtype)).data
    assert _same_bits(fused, reference)


@overflow_ok
@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_replay_and_folding_equal_eager(dtype):
    x = _gelu_points(dtype)
    with no_grad():
        eager = gelu(Tensor(x, dtype=dtype)).data

    # Through the arena: the runtime input makes gelu a scheduled node.
    _, program, traced = _trace(lambda a: gelu(a), a=x)
    assert _same_bits(traced, eager)
    assert _same_bits(program.run({"a": x})[0], eager)

    # Through folding: gelu of a captured constant runs at compile time.
    table = Tensor(x, dtype=dtype)
    zeros = np.zeros_like(x)
    _, program, _ = _trace(lambda a: a * gelu(table), a=np.ones_like(x))
    assert program.stats["folded_ops"] == 1
    replay = program.run({"a": np.ones_like(x)})[0]
    assert _same_bits(replay, eager)
    with no_grad():
        expected = (Tensor(zeros, dtype=dtype) * gelu(table)).data
    assert _same_bits(program.run({"a": zeros})[0], expected)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("transposed", [False, True])
def test_layer_norm_replay_equals_eager(dtype, transposed):
    rng = np.random.default_rng(1)
    x = rng.normal(loc=2.0, scale=5.0, size=(6, 5, 24)).astype(dtype)
    gamma = rng.normal(size=24).astype(dtype)
    beta = rng.normal(size=24).astype(dtype)

    def fn(a):
        # ``transposed`` feeds the kernel a non-contiguous input, which takes
        # the allocating form.
        a = a.swapaxes(0, 1) if transposed else a
        return layer_norm(a, Tensor(gamma, dtype=dtype), Tensor(beta, dtype=dtype))

    _, program, traced = _trace(fn, a=x)
    assert _same_bits(program.run({"a": x})[0], traced)
    x2 = (x * 0.5 - 1.0).astype(dtype)
    with no_grad():
        expected = fn(Tensor(x2, dtype=dtype)).data
    assert _same_bits(program.run({"a": x2})[0], expected)


def test_reshape_of_transposed_value_is_planned_with_a_slot():
    a = np.linspace(-1.0, 1.0, 2 * 3 * 4 * 5).reshape(2, 3, 4, 5)

    def merge(a):
        return a.swapaxes(1, 2).reshape(2, 4, 15) * 2.0

    graph, program, traced = _trace(merge, a=a)
    assert "reshape_copy" in [node.op for node in graph.nodes]
    assert program.stats["reshape_copies"] == 1
    assert _same_bits(program.run({"a": a})[0], traced)
    a2 = a * 3.0 - 0.5
    with no_grad():
        expected = merge(Tensor(a2)).data
    assert _same_bits(program.run({"a": a2})[0], expected)


def test_reshape_of_contiguous_value_stays_a_view():
    a = np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4)
    graph, program, traced = _trace(lambda a: (a * 2.0).reshape(6, 4) + 1.0, a=a)
    assert [node.op for node in graph.nodes].count("reshape") == 1
    assert program.stats["reshape_copies"] == 0
    assert _same_bits(program.run({"a": a})[0], traced)


def test_warm_replay_allocates_no_full_size_intermediate():
    # A post-norm transformer block: attention (whose heads merge after
    # swapaxes), two layer norms and a GELU MLP.  The summed output keeps
    # the replay's returned copy small.
    rng = np.random.default_rng(2)
    d_model = 32
    attention = MultiHeadAttention(d_model, num_heads=4, rng=rng)
    mlp = MLP(d_model, d_model * 2, d_model, activation="gelu", rng=rng)
    norm1, norm2 = LayerNorm(d_model), LayerNorm(d_model)

    def block(x):
        y = norm1(x + attention(x))
        return norm2(y + mlp(y)).sum(axis=-1)

    x = rng.normal(size=(8, 4, 24, d_model))
    _, program, traced = _trace(block, x=x)
    assert program.stats["reshape_copies"] == 1
    slot_bytes = x.nbytes

    assert _same_bits(program.run({"x": x})[0], traced)     # warm-up replay
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        replay = program.run({"x": x})[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_bits(replay, traced)
    assert peak - baseline < slot_bytes
