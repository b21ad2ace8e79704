"""Unit tests for the tracing JIT (:mod:`repro.tensor.trace`).

Exercises the recorder and the planner directly: record/replay round-trips
on fresh inputs, the compile-time optimisation passes (attention-core
splitting, constant folding, cross-step CSE), view/arena interaction, and
the refusal paths (unsupported ops, runtime-derived parameters, untraced
values, input-signature mismatches), and weight binding: a program traced
with named weights replays any weight set of the same shapes.
"""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    TraceUnsupported,
    attention_core,
    compile_graph,
    leaky_relu,
    no_grad,
    tanh,
    trace,
)


def _record(fn, **inputs):
    """Trace ``fn`` over named input arrays; returns (program, traced_out)."""
    with trace() as tracer:
        bound = {name: tracer.add_input(name, array)
                 for name, array in inputs.items()}
        with no_grad():
            out = fn(**{name: Tensor(array, dtype=array.dtype)
                        for name, array in bound.items()})
        graph = tracer.finish([out])
    return compile_graph(graph), out.data


def test_record_replay_on_fresh_inputs():
    def fn(a, b):
        return tanh(a) * b + a.sum(axis=0, keepdims=True)

    a = np.linspace(-1, 1, 12).reshape(3, 4)
    b = np.linspace(2, 3, 12).reshape(3, 4)
    program, traced = _record(fn, a=a, b=b)
    assert np.array_equal(program.run({"a": a, "b": b})[0], traced)

    a2, b2 = a * 1.7 + 0.1, b - 0.5
    with no_grad():
        expected = fn(a=Tensor(a2), b=Tensor(b2)).data
    assert np.array_equal(program.run({"a": a2, "b": b2})[0], expected)


def test_replay_buffers_are_isolated_copies():
    program, _ = _record(lambda a: tanh(a) * 2.0,
                         a=np.linspace(0, 1, 6).reshape(2, 3))
    first = program.run({"a": np.full((2, 3), 0.25)})[0]
    snapshot = first.copy()
    program.run({"a": np.full((2, 3), 0.75)})[0]
    # The arena is reused between replays; returned outputs must not be.
    assert np.array_equal(first, snapshot)


def test_cse_merges_repeated_subexpressions():
    def fn(a, b):
        return tanh(a) * b + tanh(a) * b

    a = np.linspace(-2, 2, 8).reshape(2, 4)
    b = np.linspace(1, 2, 8).reshape(2, 4)
    program, traced = _record(fn, a=a, b=b)
    assert program.stats["cse_ops"] >= 2        # tanh and mul each deduped
    assert np.array_equal(program.run({"a": a, "b": b})[0], traced)


def test_constant_folding_bakes_capture_only_subgraphs():
    table = np.linspace(0.0, 1.0, 4)

    def fn(a):
        return a + tanh(Tensor(table, dtype=table.dtype)) * 2.0

    a = np.linspace(-1, 1, 4)
    program, traced = _record(fn, a=a)
    # tanh(table) and the scalar multiply run at compile time; only the
    # runtime add stays in the schedule.
    assert program.stats["folded_ops"] >= 2
    assert program.stats["ops_scheduled"] == 1
    assert np.array_equal(program.run({"a": a})[0], traced)


def test_attention_core_split_and_weight_reuse():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(2, 3, 4))
    k = rng.normal(size=(2, 3, 4))
    v1 = rng.normal(size=(2, 3, 4))
    v2 = rng.normal(size=(2, 3, 4))

    def fn(q, k, v1, v2):
        # Same (q, k) applied to two value streams — the per-step pattern of
        # prior-conditioned attention.  After the split + CSE the softmax
        # map is computed once.
        return attention_core(q, k, v1, scale=0.5) \
            + attention_core(q, k, v2, scale=0.5)

    program, traced = _record(fn, q=q, k=k, v1=v1, v2=v2)
    assert program.stats["attention_splits"] == 2
    assert program.stats["cse_ops"] >= 1        # the shared weights node
    replay = program.run({"q": q, "k": k, "v1": v1, "v2": v2})[0]
    assert np.array_equal(replay, traced)


def test_unsupported_op_fails_the_trace():
    with trace() as tracer:
        a = tracer.add_input("a", np.linspace(-1, 1, 6))
        with no_grad():
            out = leaky_relu(Tensor(a, dtype=a.dtype))
        graph = tracer.finish([out])
    assert graph.failed is not None
    with pytest.raises(TraceUnsupported):
        compile_graph(graph)


def test_require_runtime_rejects_untraced_values():
    with trace() as tracer:
        a = tracer.add_input("a", np.ones(3))
        with no_grad():
            outside = np.tanh(a)           # computed behind the tracer's back
            tracer.require_runtime(outside, "prediction was not traced")
            out = Tensor(outside, dtype=outside.dtype) * 2.0
        graph = tracer.finish([out])
    assert "not traced" in graph.failed
    with pytest.raises(TraceUnsupported):
        compile_graph(graph)


def test_views_alias_storage_across_arena_reuse():
    def fn(a, b):
        folded = a.reshape(4, 2).transpose(1, 0)
        return folded * b + folded

    a = np.linspace(0, 1, 8).reshape(2, 4)
    b = np.linspace(1, 2, 8).reshape(2, 4)
    program, traced = _record(fn, a=a, b=b)
    a2, b2 = a + 3.0, b * 0.5
    with no_grad():
        expected = fn(a=Tensor(a2), b=Tensor(b2)).data
    assert np.array_equal(program.run({"a": a2, "b": b2})[0], expected)
    assert np.array_equal(program.run({"a": a, "b": b})[0], traced)


def test_replay_validates_input_signature():
    program, _ = _record(lambda a: tanh(a), a=np.ones((2, 3)))
    with pytest.raises(TraceUnsupported, match="do not match"):
        program.run({"b": np.ones((2, 3))})
    with pytest.raises(TraceUnsupported, match="traced as"):
        program.run({"a": np.ones((3, 2))})
    with pytest.raises(TraceUnsupported, match="traced as"):
        program.run({"a": np.ones((2, 3), dtype=np.float32)})


def _record_with_weights(fn, weights, **inputs):
    with trace(weights) as tracer:
        bound = {name: tracer.add_input(name, array)
                 for name, array in inputs.items()}
        with no_grad():
            out = fn(**{name: Tensor(array, dtype=array.dtype)
                        for name, array in bound.items()})
        graph = tracer.finish([out])
    return compile_graph(graph), out.data


def test_bound_weights_replay_any_weight_set():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    table = np.linspace(0.0, 1.0, 4)

    def fn(a):
        # ``tanh(w) @ table`` reads only a weight and a capture: it folds
        # into the prefold schedule that bind() reruns per weight set.
        return a @ w + tanh(w) @ Tensor(table, dtype=table.dtype)

    a = rng.normal(size=(3, 4))
    program, traced = _record_with_weights(fn, {"w": w.data}, a=a)
    assert program.stats["weights"] == 1
    assert program.stats["prefold_ops"] >= 2
    assert np.array_equal(program.run({"a": a}, program.bind({"w": w.data}))[0],
                          traced)

    other = rng.normal(size=(4, 4))
    with no_grad():
        expected = (Tensor(a) @ Tensor(other)
                    + tanh(Tensor(other)) @ Tensor(table)).data
    assert np.array_equal(program.run({"a": a}, program.bind({"w": other}))[0],
                          expected)
    with pytest.raises(TraceUnsupported, match="not bound"):
        program.run({"a": a})
    with pytest.raises(TraceUnsupported, match="traced as"):
        program.bind({"w": np.ones((4, 3))})


def test_undeclared_trainable_tensor_fails_a_weighted_trace():
    w = Tensor(np.eye(3), requires_grad=True)
    # Without a weights mapping the tensor is baked like any capture ...
    program, traced = _record(lambda a: a @ w, a=np.ones((2, 3)))
    assert np.array_equal(program.run({"a": np.ones((2, 3))})[0], traced)
    # ... with one, a trainable tensor outside it refuses the trace.
    with trace({}) as tracer:
        a = tracer.add_input("a", np.ones((2, 3)))
        with no_grad():
            out = Tensor(a, dtype=a.dtype) @ w
        graph = tracer.finish([out])
    assert "bound as a weight" in graph.failed


def test_stats_shape():
    program, _ = _record(lambda a: tanh(a) * 2.0 + 1.0, a=np.ones(5))
    stats = program.stats
    for key in ("ops_recorded", "ops_scheduled", "kernels", "replay_calls",
                "hoisted_views", "attention_splits", "folded_ops", "cse_ops",
                "reshape_copies", "arena_buffers", "arena_bytes", "slot_bytes",
                "matmul_flops", "constants"):
        assert key in stats
    assert stats["ops_recorded"] >= stats["ops_scheduled"]
