"""The replay tape of :mod:`repro.tensor.trace`.

A compiled program owns every array a replay touches — one slot per graph
input, the weight slots a binding is copied into, and the arena — takes
every view once, at plan time, on those slots, and replays as a flat list
of pre-bound kernel calls.  These tests pin what that must not break:
replays on fresh inputs read the input slots (never an array a caller
passed earlier), alternating bindings reload the weight slots only on a
switch, a view numpy would copy is never hoisted, the kernels without an
``out=`` form write their eager result into their slot, and the work
ledger in ``stats`` counts what the tape does.  Also the planner's two
bit-neutral writes: an ``inplace`` kernel writes into an operand buffer
that dies at its node (never into one still read later), and a matmul
whose result reaches a copying reshape only through single-consumer views
writes straight into that reshape's slot, the copy leaving the tape.
"""

import numpy as np

from repro.tensor import (
    Tensor,
    compile_graph,
    no_grad,
    stack,
    tanh,
    trace,
    where,
)


def _trace(fn, weights=None, **inputs):
    """Trace ``fn`` over named input arrays (and named weight arrays);
    returns ``(graph, traced_out)``."""
    weights = weights or {}
    with trace(weights) as tracer:
        bound = {name: tracer.add_input(name, array)
                 for name, array in inputs.items()}
        with no_grad():
            out = fn(**{name: Tensor(array, dtype=array.dtype)
                        for name, array in bound.items()},
                     **{name: Tensor(array, dtype=array.dtype)
                        for name, array in weights.items()})
        graph = tracer.finish([out])
    return graph, out.data


def _eager(fn, weights=None, **inputs):
    with no_grad():
        return fn(**{name: Tensor(array, dtype=array.dtype)
                     for name, array in {**inputs, **(weights or {})}.items()}).data


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_replays_read_the_input_slots_not_an_earlier_callers_arrays():
    def fn(a):
        head = a[:, 1:]                               # views of the input
        flat = a.reshape(6, 4)
        turned = a.transpose(2, 0, 1)
        return ((tanh(head) * 2.0).sum(axis=1)
                + turned.sum(axis=-1).swapaxes(0, 1)  # a view of a slot
                + flat[:2])

    rng = np.random.default_rng(0)
    traced_with = rng.normal(size=(2, 3, 4))
    graph, traced = _trace(fn, a=traced_with)
    program = compile_graph(graph)
    assert program.stats["hoisted_views"] == 5
    assert _same_bits(program.run({"a": traced_with})[0], traced)
    first, second = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    replay_first = program.run({"a": first})[0]
    replay_second = program.run({"a": second})[0]
    assert _same_bits(replay_first, _eager(fn, a=first))
    assert _same_bits(replay_second, _eager(fn, a=second))


def test_bindings_alternate_bit_for_bit_and_only_a_switch_copies():
    def fn(a, w):
        # ``a @ w`` reads the weight slot; ``tanh(w).sum(0)`` is a prefold
        # result bound into a slot of its own.
        return a @ w + tanh(w).sum(axis=0)

    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    weight_a, weight_b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    graph, _ = _trace(fn, weights={"w": weight_a}, a=a)
    program = compile_graph(graph)
    binding_a = program.bind({"w": weight_a})
    binding_b = program.bind({"w": weight_b})
    expected_a = _eager(fn, weights={"w": weight_a}, a=a)
    expected_b = _eager(fn, weights={"w": weight_b}, a=a)

    switches = []
    for binding, expected in ((binding_a, expected_a), (binding_b, expected_b),
                              (binding_a, expected_a), (binding_a, expected_a)):
        assert _same_bits(program.run({"a": a}, binding)[0], expected)
        switches.append(program.switches)
    assert switches == [1, 2, 3, 3]


def test_a_reshape_whose_numpy_result_copies_is_never_hoisted():
    def fn(a):
        return a.swapaxes(1, 2).reshape(2, 4, 15) * 2.0

    rng = np.random.default_rng(2)
    graph, _ = _trace(fn, a=rng.normal(size=(2, 3, 4, 5)))
    # Record the merge as a plain reshape, as a trace whose operand numpy
    # could view would: on the transposed slot numpy copies, so a view
    # taken at plan time would be a stale copy.
    (node,) = [node for node in graph.nodes if node.op == "reshape_copy"]
    node.op = "reshape"
    program = compile_graph(graph)
    assert program.stats["hoisted_views"] == 1      # the swapaxes only
    assert program.stats["reshape_copies"] == 1
    for _ in range(2):
        a = rng.normal(size=(2, 3, 4, 5))
        assert _same_bits(program.run({"a": a})[0], _eager(fn, a=a))


def test_kernels_without_out_and_a_transposed_weight_replay_exactly():
    condition = np.array([[True, False, True, False]] * 3)

    def fn(a, w):
        squared = a ** 2                                     # pow
        picked = where(condition, squared, a)                # where
        both = stack([picked, a], axis=0)                    # stack
        rounded = both.astype(np.float32).astype(np.float64)  # astype
        rows = rounded[:, [0, 2]]                            # fancy getitem
        return rows @ w.transpose()                          # a view of w

    rng = np.random.default_rng(3)
    weight = rng.normal(size=(3, 4))
    graph, _ = _trace(fn, weights={"w": weight}, a=rng.normal(size=(3, 4)))
    program = compile_graph(graph)
    assert program.stats["hoisted_views"] == 1      # w.T, on its weight slot
    binding = program.bind({"w": weight})
    for _ in range(2):
        a = rng.normal(size=(3, 4))
        expected = _eager(fn, weights={"w": weight}, a=a)
        assert _same_bits(program.run({"a": a}, binding)[0], expected)
    other = rng.normal(size=(3, 4))
    expected = _eager(fn, weights={"w": other}, a=a)
    assert _same_bits(program.run({"a": a}, program.bind({"w": other}))[0],
                      expected)


def test_work_ledger_counts_a_tiny_graph_by_hand():
    def fn(a, w):
        return ((a @ w).swapaxes(-1, -2) * 2.0).sum(axis=-1)

    a = np.ones((2, 3, 4))
    weight = np.ones((4, 5))
    graph, _ = _trace(fn, weights={"w": weight}, a=a)
    stats = compile_graph(graph).stats
    # Tape: matmul (2, 3, 5), mul (2, 5, 3), sum (2, 5); the swapaxes is a
    # view of the matmul's slot, taken at plan time.  No slot is free for
    # reuse when the next is taken: 240 + 240 + 80 arena bytes.
    assert stats["kernels"] == 3
    assert stats["hoisted_views"] == 1
    assert stats["replay_calls"] == 1 + 3 + 1       # load a, tape, copy out
    assert stats["arena_buffers"] == 3
    assert stats["arena_bytes"] == 560
    assert stats["slot_bytes"] == 560 + 192 + 160   # + input a + weight w
    assert stats["matmul_flops"] == 2 * 4 * (2 * 3 * 5)


def _heads_block(x, c, w, b, m):
    hidden = tanh(x @ w + b) * c                      # (2, 3, 6)
    heads = hidden.reshape(2, 3, 2, 3).swapaxes(1, 2)  # (2, 2, 3, 3) views
    merged = (heads @ m).swapaxes(1, 2).reshape(2, 3, 6)   # the heads merge
    return merged * 2.0


def test_work_ledger_counts_in_place_and_write_through_by_hand():
    rng = np.random.default_rng(4)
    inputs = {"x": rng.normal(size=(2, 3, 4)), "c": rng.normal(size=(3, 6))}
    weights_a = {"w": rng.normal(size=(4, 6)), "b": rng.normal(size=6),
                 "m": rng.normal(size=(3, 3))}
    weights_b = {name: rng.normal(size=array.shape)
                 for name, array in weights_a.items()}
    graph, traced = _trace(_heads_block, weights=weights_a, **inputs)
    program = compile_graph(graph)
    stats = program.stats
    # Tape: x @ w into buffer A; + b, tanh and * c in place on A; the heads
    # reshape and both swapaxes are views; heads @ m writes through into the
    # merge's slot S, so the copy leaves the tape; * 2.0 in place on S.
    # Six entries of 2 * 3 * 6 float64 each.
    assert stats["kernels"] == 6
    assert stats["inplace_ops"] == 4
    assert stats["write_through"] == stats["reshape_copies"] == 1
    assert stats["hoisted_views"] == 3
    assert stats["arena_buffers"] == 2
    assert stats["arena_bytes"] == 2 * 288
    # + inputs x and c, weights w, b and m.
    assert stats["slot_bytes"] == 2 * 288 + 192 + 144 + 192 + 48 + 72
    assert stats["bytes_written"] == 6 * 288
    assert stats["replay_calls"] == 2 + 6 + 1
    assert stats["matmul_flops"] == 2 * 4 * 36 + 2 * 3 * 36

    binding_a, binding_b = program.bind(weights_a), program.bind(weights_b)
    assert _same_bits(program.run(inputs, binding_a)[0], traced)
    for step, (binding, weights) in enumerate(
            [(binding_a, weights_a), (binding_b, weights_b),
             (binding_a, weights_a)]):
        fresh = {name: rng.normal(size=array.shape)
                 for name, array in inputs.items()}
        expected = _eager(_heads_block, weights=weights, **fresh)
        assert _same_bits(program.run(fresh, binding)[0], expected), step


def test_an_operand_read_later_is_never_written_in_place():
    def fn(a, w):
        hidden = tanh(a @ w)
        return (hidden * 2.0) * hidden      # ``hidden`` outlives the first mul

    rng = np.random.default_rng(5)
    weight = rng.normal(size=(4, 4))
    graph, traced = _trace(fn, weights={"w": weight}, a=rng.normal(size=(3, 4)))
    program = compile_graph(graph)
    # tanh on the matmul's buffer and the last mul on the first mul's: the
    # first mul takes a fresh buffer because ``hidden`` is read after it.
    assert program.stats["inplace_ops"] == 2
    assert program.stats["arena_buffers"] == 2
    binding = program.bind({"w": weight})
    for _ in range(2):
        a = rng.normal(size=(3, 4))
        assert _same_bits(program.run({"a": a}, binding)[0],
                          _eager(fn, weights={"w": weight}, a=a))


def test_write_through_inverts_a_transpose_that_is_not_its_own_inverse():
    def fn(a, w):
        # (2, 3, 4, 5) -> (3, 4, 2, 5) -> (12, 10): a copying merge whose
        # transpose (1, 2, 0, 3) is undone by (2, 0, 1, 3).
        return (a @ w).transpose(1, 2, 0, 3).reshape(12, 10) + 1.0

    rng = np.random.default_rng(6)
    weight = rng.normal(size=(6, 5))
    graph, traced = _trace(fn, weights={"w": weight},
                           a=rng.normal(size=(2, 3, 4, 6)))
    program = compile_graph(graph)
    assert program.stats["write_through"] == 1
    assert program.stats["kernels"] == 2
    binding = program.bind({"w": weight})
    for _ in range(2):
        a = rng.normal(size=(2, 3, 4, 6))
        assert _same_bits(program.run({"a": a}, binding)[0],
                          _eager(fn, weights={"w": weight}, a=a))


def test_write_through_needs_a_blas_out_and_a_single_consumer_chain():
    def moved_inner_axis(a, w):
        # The merge would put the matmul's last axis at stride 3: not a
        # BLAS output, so the copy stays.
        return (a @ w).transpose(0, 2, 3, 1).reshape(2, 4, 15) + 1.0

    def shared_view(a, w):
        turned = (a @ w).swapaxes(1, 2)       # read by the merge and the sum
        return (turned.reshape(2, 4, 15)
                + turned.sum(axis=-1).sum(axis=-1, keepdims=True))

    rng = np.random.default_rng(7)
    for fn, shape in ((moved_inner_axis, (2, 3, 4, 6)),
                      (shared_view, (2, 3, 4, 6))):
        weight = rng.normal(size=(6, 5))
        graph, _ = _trace(fn, weights={"w": weight}, a=rng.normal(size=shape))
        program = compile_graph(graph)
        assert program.stats["reshape_copies"] == 1
        assert program.stats["write_through"] == 0
        a = rng.normal(size=shape)
        assert _same_bits(program.run({"a": a}, program.bind({"w": weight}))[0],
                          _eager(fn, weights={"w": weight}, a=a))
