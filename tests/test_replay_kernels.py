"""Replay kernels that keep their temporaries in the arena.

Pins the fused GELU expression against the composed reference bit-for-bit;
for every fused op in float32 and float64 on C-ordered and transposed
inputs, eager, arena replay and constant folding agreeing bit-for-bit (the
eager op runs its kernel's allocating form, the arena its ``out=`` form);
the copying-reshape node the tracer records when a reshape cannot be a
view, the in-place layer-norm kernel, and the memory contract that follows
from them: a warm replay of an attention block allocates no full-size
intermediate.  Also the shared reductions: the softmax / attention-map row
max as an ``np.maximum`` chain keeps the bits of the ``np.max`` form (ties,
±0.0, ``-inf`` and NaN rows), and the layer-norm mean by contraction keeps
each row's bits independent of the rows batched with it, eager and
replayed.  And the in-place contract: every kernel flagged ``inplace``
gives the same bits with ``out`` set to any same-shaped operand as with a
separate ``out``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn import MLP, LayerNorm, MultiHeadAttention
from repro.tensor import (
    Tensor,
    add_n,
    attention_weights,
    compile_graph,
    gelu,
    layer_norm,
    maximum,
    no_grad,
    pad_time,
    silu,
    softmax,
    trace,
)
from repro.tensor.kernels import _KERNELS, row_max, row_mean
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


# Every fused op: (function of Tensors, input shapes).  GELU takes its
# special points (a 10 x 501 grid of them); layer_norm's gamma and beta
# broadcast over the trailing axis.
FUSED_OPS = {
    "gelu": (gelu, [None]),
    "silu": (silu, [(6, 5, 8)]),
    "sigmoid": (lambda a: a.sigmoid(), [(6, 5, 8)]),
    "softmax-1": (lambda a: softmax(a, axis=-1), [(6, 5, 8)]),
    "softmax-2": (lambda a: softmax(a, axis=-2), [(6, 5, 8)]),
    "layer_norm": (layer_norm, [(6, 5, 24), (24,), (24,)]),
    "attention_weights": (lambda q, k: attention_weights(q, k, scale=0.37),
                          [(3, 2, 6, 4), (3, 2, 7, 4)]),
    "add_n": (lambda *ts: add_n(ts), [(6, 5, 8)] * 3),
    "pad_time": (lambda a: pad_time(a, 2, 3), [(6, 5, 8)]),
}


def _fused_inputs(op, dtype, transposed, seed=0):
    """The op's input arrays; ``transposed`` lays every array of two or more
    axes out with its first two axes swapped in memory (same values)."""
    rng = np.random.default_rng(seed)
    arrays = []
    for shape in FUSED_OPS[op][1]:
        if shape is None:
            array = _gelu_points(dtype).reshape(10, 501)
        else:
            array = rng.normal(loc=0.5, scale=3.0, size=shape).astype(dtype)
        if transposed and array.ndim >= 2:
            array = np.ascontiguousarray(array.swapaxes(0, 1)).swapaxes(0, 1)
        arrays.append(array)
    return arrays


@overflow_ok
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("op", sorted(FUSED_OPS))
def test_fused_op_replay_and_folding_equal_eager(op, transposed, dtype):
    fn = FUSED_OPS[op][0]
    xs = _fused_inputs(op, dtype, transposed)
    names = [f"x{i}" for i in range(len(xs))]

    def eager(arrays):
        with no_grad():
            return fn(*(Tensor(a, dtype=dtype) for a in arrays)).data

    expected = eager(xs)

    # Through the arena: runtime inputs make the op a scheduled node.
    graph, program, traced = _trace(lambda **ts: fn(*(ts[n] for n in names)),
                                    **dict(zip(names, xs)))
    assert [node.op for node in graph.nodes] == [op.split("-")[0]]
    assert _same_bits(traced, expected)
    assert _same_bits(program.run(dict(zip(names, xs)))[0], expected)
    fresh = _fused_inputs(op, dtype, transposed, seed=1)
    assert _same_bits(program.run(dict(zip(names, fresh)))[0], eager(fresh))

    # Through folding: the op on captured constants runs at compile time.
    captured = [Tensor(a, dtype=dtype) for a in xs]
    ones = np.ones_like(expected)
    _, program, _ = _trace(lambda a: a * fn(*captured), a=ones)
    assert program.stats["folded_ops"] == 1
    assert _same_bits(program.run({"a": ones})[0], expected)
    zeros = np.zeros_like(expected)
    with no_grad():
        masked = (Tensor(zeros, dtype=dtype) * fn(*captured)).data
    assert _same_bits(program.run({"a": zeros})[0], masked)


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


# ----------------------------------------------------------------------
# Shared reductions: row max and row mean
# ----------------------------------------------------------------------


def _score_rows(dtype):
    """Attention-score rows with ties, signed zeros, infinities and NaNs."""
    rows = np.random.default_rng(3).normal(size=(12, 7))
    rows[0] = 1.5                              # all tied
    rows[1, :3], rows[1, 3:] = 2.0, -1.0       # tied at the max
    rows[2] = 0.0
    rows[2, ::2] = -0.0                        # +0.0 / -0.0 max
    rows[3] = -0.0
    rows[4] = -np.inf                          # all -inf
    rows[5, :4] = -np.inf
    rows[6] = np.nan                           # all NaN
    rows[7, 3] = np.nan
    rows[8, 5] = np.inf
    return rows.astype(dtype)


def _old_softmax(a, axis=-1):
    """The fused softmax as it was, with numpy's max reduction."""
    out = np.exp(a - a.max(axis=axis, keepdims=True))
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a, b, equal_nan=True)


nan_rows_ok = pytest.mark.filterwarnings("ignore:invalid value encountered")


@nan_rows_ok
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("axis", [-1, 0, 1])
def test_row_max_equals_the_max_reduction(dtype, axis):
    scores = _score_rows(dtype).reshape(3, 4, 7)
    assert _equal(row_max(scores, axis), scores.max(axis=axis, keepdims=True))


@nan_rows_ok
@pytest.mark.parametrize("dtype", DTYPES)
def test_softmax_keeps_the_max_reduction_bits(dtype):
    scores = _score_rows(dtype).reshape(3, 4, 7)
    with no_grad():
        for axis in (-1, 1):
            eager = softmax(Tensor(scores, dtype=dtype), axis=axis).data
            assert _equal(eager, _old_softmax(scores, axis))
    _, program, traced = _trace(lambda a: softmax(a, axis=-1), a=scores)
    assert _equal(traced, _old_softmax(scores))
    assert _equal(program.run({"a": scores})[0], traced)


@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_keeps_the_max_reduction_bits(dtype):
    rng = np.random.default_rng(4)
    q, k, v = (rng.normal(size=(2, 3, 6, 4)).astype(dtype) for _ in range(3))
    scale = dtype(0.5)
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    old = _old_softmax(scores) @ v

    def attend(q, k, v):
        return attention_weights(q, k, scale=0.5) @ v

    with no_grad():
        eager = attend(Tensor(q, dtype=dtype), Tensor(k, dtype=dtype),
                       Tensor(v, dtype=dtype)).data
    assert _same_bits(eager, old)
    graph, program, traced = _trace(attend, q=q, k=k, v=v)
    assert [node.op for node in graph.nodes] == ["attention_weights", "matmul"]
    assert _same_bits(traced, old)
    assert _same_bits(program.run({"q": q, "k": k, "v": v})[0], old)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(16, 5, 12, 16), (16, 12, 16), (16, 24), (24,)])
def test_row_mean_is_close_to_numpy_mean(dtype, shape):
    x = np.random.default_rng(5).normal(loc=3.0, size=shape).astype(dtype)
    tolerance = 1e-6 if dtype == np.float32 else 1e-14
    mean = row_mean(x)
    assert mean.shape == x.shape[:-1] + (1,)
    np.testing.assert_allclose(mean, x.mean(axis=-1, keepdims=True),
                               rtol=tolerance, atol=tolerance)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(16, 5, 12, 16), (16, 12, 16), (16, 24)])
def test_layer_norm_row_bits_do_not_depend_on_the_batch(dtype, shape):
    """One row normalised alone has the bits it has inside a 16-row batch:
    the mean and variance contract per stacked slice, never over the batch."""
    rng = np.random.default_rng(6)
    x = rng.normal(loc=2.0, scale=5.0, size=shape).astype(dtype)
    gamma = Tensor(rng.normal(size=shape[-1]).astype(dtype), dtype=dtype)
    beta = Tensor(rng.normal(size=shape[-1]).astype(dtype), dtype=dtype)
    with no_grad():
        batch = layer_norm(Tensor(x, dtype=dtype), gamma, beta).data
        for row in (0, 7, 15):
            alone = layer_norm(Tensor(x[row:row + 1], dtype=dtype), gamma, beta).data
            assert _same_bits(alone, batch[row:row + 1])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("transposed", [False, True])
def test_layer_norm_replay_equals_eager_on_rows(dtype, transposed):
    """The row-at-a-time contraction of 2-D inputs replays bit for bit."""
    rng = np.random.default_rng(7)
    x = rng.normal(loc=2.0, scale=5.0, size=(24, 16)).astype(dtype)
    gamma = rng.normal(size=16 if not transposed else 24).astype(dtype)
    beta = rng.normal(size=gamma.shape).astype(dtype)

    def fn(a):
        a = a.swapaxes(0, 1) if transposed else a
        return layer_norm(a, Tensor(gamma, dtype=dtype), Tensor(beta, dtype=dtype))

    _, program, traced = _trace(fn, a=x)
    assert _same_bits(program.run({"a": x})[0], traced)
    x2 = (x * 0.5 - 1.0).astype(dtype)
    with no_grad():
        expected = fn(Tensor(x2, dtype=dtype)).data
    assert _same_bits(program.run({"a": x2})[0], expected)


# ----------------------------------------------------------------------
# In-place kernels: an aliased ``out`` equals a separate one
# ----------------------------------------------------------------------

# Every kernel the planner may run in place, plus two that zero their
# output before reading (``add_n``; ``pad_time`` with no padding keeps the
# shape): (function of Tensors, input shapes).
ALIASING_OPS = {
    "add": (lambda a, b: a + b, [(6, 5, 8), (6, 5, 8)]),
    "sub": (lambda a, b: a - b, [(6, 5, 8), (6, 5, 8)]),
    "mul": (lambda a, b: a * b, [(6, 5, 8), (6, 5, 8)]),
    "div": (lambda a, b: a / b, [(6, 5, 8), (6, 5, 8)]),
    "maximum": (maximum, [(6, 5, 8), (6, 5, 8)]),
    "neg": (lambda a: -a, [(6, 5, 8)]),
    "exp": (lambda a: a.exp(), [(6, 5, 8)]),
    "log": (lambda a: a.abs().log(), [(6, 5, 8)]),
    "sqrt": (lambda a: a.abs().sqrt(), [(6, 5, 8)]),
    "abs": (lambda a: a.abs(), [(6, 5, 8)]),
    "tanh": (lambda a: a.tanh(), [(6, 5, 8)]),
    "sigmoid": (lambda a: a.sigmoid(), [(6, 5, 8)]),
    "relu": (lambda a: a.relu(), [(6, 5, 8)]),
    "gelu": (gelu, [(6, 5, 8)]),
    "silu": (silu, [(6, 5, 8)]),
    "softmax": (lambda a: softmax(a, axis=-2), [(6, 5, 8)]),
    "layer_norm": (layer_norm, [(6, 5, 24), (24,), (24,)]),
    "add_n": (lambda *ts: add_n(ts), [(6, 5, 8)] * 3),
    "pad_time": (lambda a: pad_time(a, 0, 0), [(6, 5, 8)]),
}

INPLACE_KERNELS = sorted(name for name, kernel in _KERNELS.items()
                         if kernel.inplace)


def test_kernels_that_write_before_they_read_are_not_in_place():
    for name in ("matmul", "attention_weights", "cat", "add_n", "pad_time",
                 "reshape_copy", "sum", "max"):
        assert not _KERNELS[name].inplace, name


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("op", INPLACE_KERNELS)
def test_inplace_kernel_with_an_aliased_out_equals_a_separate_out(
        op, transposed, dtype):
    assert op in ALIASING_OPS, f"{op} is flagged inplace without a case here"
    fn, shapes = ALIASING_OPS[op]
    rng = np.random.default_rng(8)
    arrays = []
    for shape in shapes:
        array = rng.normal(loc=0.5, scale=3.0, size=shape).astype(dtype)
        if transposed and array.ndim >= 2:
            array = np.ascontiguousarray(array.swapaxes(0, 1)).swapaxes(0, 1)
        arrays.append(array)
    # The node the op records (its kernel name and params), on the ops
    # that feed it.
    graph, _, _ = _trace(lambda **ts: fn(*(ts[f"x{i}"] for i in range(len(ts)))),
                         **{f"x{i}": array for i, array in enumerate(arrays)})
    node = graph.nodes[-1]
    assert node.op == op
    values = {vid: array for vid, array in zip(
        (graph.inputs[f"x{i}"] for i in range(len(arrays))), arrays)}
    for prior in graph.nodes[:-1]:              # abs before log and sqrt
        values[prior.out] = _KERNELS[prior.op].fn(
            None, prior.params, *(values[v] for v in prior.inputs))
    operands = [values[vid] for vid in node.inputs]
    kernel = _KERNELS[op]

    def run(out, ins):
        needs = kernel.scratch and kernel.scratch(ins, out)
        extra = {"scratch": tuple(np.empty(shape, dtype=dtype)
                                  for shape, dtype in needs)} if needs else {}
        return kernel.fn(out, node.params, *ins, **extra)

    out_shape = kernel.fn(None, node.params, *operands).shape
    aliased_any = False
    for index, operand in enumerate(operands):
        if operand.shape != out_shape:
            continue
        separate = np.empty_like(operand)
        run(separate, [np.copy(a, order="K") for a in operands])
        ins = [np.copy(a, order="K") for a in operands]
        run(ins[index], ins)
        assert _same_bits(ins[index], separate), index
        aliased_any = True
    assert aliased_any
