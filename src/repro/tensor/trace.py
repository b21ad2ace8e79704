"""Trace-and-replay compilation of ``no_grad`` Tensor computations.

Eager inference pays a Python tax on every op: each call allocates a fresh
output ndarray, builds a :class:`~repro.tensor.Tensor` wrapper and (outside
``no_grad``) a backward closure.  For the reverse-diffusion hot loop the
*computation* is identical on every call of the same signature — only the
input buffers change — so this module records it once and replays it flat:

* a :class:`Tracer` (the ``trace(weights)`` context) hooks
  ``Tensor._from_op`` and records every op executed on the calling thread
  into a :class:`TraceGraph` of flat nodes.  Tensors whose arrays were
  registered as *inputs* stay symbolic.  The arrays of the ``weights``
  mapping (a network's named parameters) are resolved by identity as named
  *weight* values: instead of being baked, they are bound per weight set
  (below), so one program serves every set of weights of the same
  architecture.  Every other leaf (scalar diffusion coefficients,
  step-embedding table rows, graph supports) is captured **by reference**
  as a constant.  A ``reshape`` whose eager result did not alias its input
  (merging heads after ``swapaxes``) records as ``reshape_copy``, a copy
  into an arena slot rather than a view.
* :func:`compile_graph` plans the replay as a static tape: constant
  folding splits off the nodes that read no input — capture-only folds
  are baked into the program, weight-reading folds (the step-embedding
  MLP, the adaptive adjacency) become the *prefold* schedule — dead code is
  dropped, and every array a replay touches gets a slot the program owns:
  one per graph input, one per weight and non-view prefold result the
  replay reads, and the buffer-arena slots of the intermediates (a
  liveness pass reuses an arena slot the moment its last consumer has
  run).  Each slot is laid out like the value it holds was when traced, so
  no operand of a replayed kernel changes its strides.  Every view op —
  reshape, transpose, basic indexing, the views of weights in the prefold
  — is evaluated once, at plan time, on its slot, and kept only if
  ``np.shares_memory`` confirms it aliases its base; otherwise it is
  planned as a copy into a slot.  Each remaining node becomes one
  ``functools.partial(kernel, out, params, *operands)`` bound to its slots,
  over the kernel table of :mod:`repro.tensor.kernels`.  The fused ops
  (softmax, silu, gelu, layer_norm, attention_core, add_n, pad_time) record
  as single nodes; gelu and layer_norm borrow their temporaries from the
  arena for the duration of the node.  The planner writes each result
  where it is read: an ``inplace`` kernel writes into the arena buffer of
  an operand that dies at its node, and a matmul whose result reaches a
  copying reshape only through single-consumer reshape/transpose views
  (merging attention heads) writes through their inverse views straight
  into the reshape's slot, so the copy leaves the tape.
* :meth:`CompiledProgram.bind` runs the prefold schedule on one weight set
  and returns the binding :meth:`CompiledProgram.run` replays with; the
  traced weights bind through the same call.  ``run`` copies a binding
  into the weight slots only when the program switches binding, copies the
  inputs into their slots, calls each tape entry in order — zero graph
  construction, zero Tensor wrappers, zero views built — and copies the
  outputs.  A kernel without an ``out=`` form (pow, where, stack, astype,
  fancy ``getitem``) computes its eager result, which is copied into its
  slot.

Bit-identity is the contract: the fused eager ops compute their forward
with the kernels the tape replays and constant folding runs, and every
other kernel spells its eager op's numpy expression (see
:mod:`repro.tensor.kernels`), so a replay produces the same bits as the
recorded execution.  Anything the tracer cannot prove replayable — an op
recorded without metadata, a parameter derived from runtime data or from a
weight, a trainable tensor that is not one of the declared weights, an
explicit :func:`trace_barrier` — marks the trace failed; callers then fall
back to the eager path, which already ran to completion (tracing never
changes what the eager code computes).

The slots are shared mutable state: :meth:`CompiledProgram.run` is not
reentrant and callers (``repro.inference.compiled``) must serialise replays
of one program across threads.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from .kernels import _KERNELS
from .tensor import _STATE

__all__ = [
    "TraceUnsupported",
    "TraceGraph",
    "Tracer",
    "CompiledProgram",
    "trace",
    "compile_graph",
    "active_trace",
    "trace_barrier",
    "trace_runtime_guard",
]


class TraceUnsupported(RuntimeError):
    """The recorded computation cannot be compiled — fall back to eager."""


def active_trace():
    """Return the :class:`Tracer` recording on this thread, or ``None``."""
    return getattr(_STATE, "trace", None)


def trace_barrier(reason):
    """Mark any active trace on this thread as failed.

    Placed in code paths whose results depend on tensor *data* in ways the
    recorded graph cannot express (e.g. constants computed with raw numpy
    from an input, fresh RNG draws): replaying such a trace would silently
    bake stale values, so the trace is refused instead.
    """
    tracer = active_trace()
    if tracer is not None:
        tracer.fail(reason)


def trace_runtime_guard(array):
    """Fail any active trace if ``array`` holds runtime-traced data.

    Used by ops that consume an array *outside* the recorded dataflow (e.g.
    the ``where`` condition, which is converted to bool before recording):
    constants are fine to bake, values computed from the trace inputs are
    not.
    """
    tracer = active_trace()
    if tracer is not None and id(array) in tracer._runtime_ids:
        tracer.fail("op parameter derived from runtime data")


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def _layout(array):
    """The axes of ``array`` from outermost to innermost in memory (numpy's
    ``K`` order), or ``None`` for the C order."""
    strides = array.strides
    axes = tuple(sorted(range(array.ndim), key=lambda axis: -abs(strides[axis])))
    return None if axes == tuple(range(array.ndim)) else axes


def _empty(shape, dtype, layout=None):
    """``np.empty`` laid out in ``layout`` (see :func:`_layout`)."""
    if layout is None:
        return np.empty(shape, dtype=dtype)
    buf = np.empty(tuple(shape[axis] for axis in layout), dtype=dtype)
    return buf.transpose(np.argsort(layout))


class _Value:
    __slots__ = ("vid", "kind", "name", "shape", "dtype", "layout", "array")

    def __init__(self, vid, kind, shape, dtype, name=None, array=None,
                 layout=None):
        self.vid = vid
        self.kind = kind          # "input" | "weight" | "capture" | "op"
        self.name = name
        self.shape = shape
        self.dtype = dtype
        self.layout = layout      # memory order when traced (:func:`_layout`)
        self.array = array        # captures only: the baked constant


class _Node:
    __slots__ = ("op", "params", "inputs", "out")

    def __init__(self, op, params, inputs, out):
        self.op = op
        self.params = params
        self.inputs = inputs
        self.out = out


class TraceGraph:
    """The flat op-node program a :class:`Tracer` records."""

    def __init__(self):
        self.values = []
        self.nodes = []
        self.inputs = {}          # name -> vid
        self.weights = {}         # name -> vid
        self.outputs = []         # vids
        self.failed = None        # first failure reason, or None


def _params_touch_runtime(value, runtime_ids):
    """Whether an op parameter smuggles in a runtime-traced array."""
    if isinstance(value, np.ndarray):
        return id(value) in runtime_ids
    if isinstance(value, dict):
        return any(_params_touch_runtime(v, runtime_ids) for v in value.values())
    if isinstance(value, (tuple, list)):
        return any(_params_touch_runtime(v, runtime_ids) for v in value)
    return False


class Tracer:
    """Records the ops executed on this thread into a :class:`TraceGraph`.

    Use as a context manager; the traced code runs eagerly and its results
    are valid whether or not the trace succeeds.  Values are resolved by the
    ``id`` of their underlying ndarray: arrays registered via
    :meth:`add_input` (and every recorded op output) are *runtime* values,
    the arrays of ``weights`` (name -> ndarray) are named weight values
    bound at replay time, and anything else reaching an op is captured by
    reference as a constant.  With ``weights`` given, a trainable tensor
    outside it fails the trace rather than bake one model's weights into a
    shared program.
    Runtime array ids are tracked through weak references so a collected
    intermediate can never alias a later allocation.
    """

    def __init__(self, weights=None):
        self.graph = TraceGraph()
        self._array_vids = {}
        self._runtime_ids = set()
        self._weakrefs = []
        self._captures = []          # strong refs: ids must stay stable
        self._input_arrays = {}
        self._weights_declared = weights is not None
        for name, array in (weights or {}).items():
            vid = self._new_value("weight", array.shape, array.dtype, name=name,
                                  layout=_layout(array))
            self.graph.weights[name] = vid
            # Weights count as runtime data: an op parameter or a ``where``
            # condition holding one would bake it, so the guards refuse it.
            self._register_array(array, vid, runtime=True)

    # -- context management -------------------------------------------------
    def __enter__(self):
        if active_trace() is not None:
            raise RuntimeError("a trace is already active on this thread")
        _STATE.trace = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.trace = None
        return False

    # -- value registration -------------------------------------------------
    def _new_value(self, kind, shape, dtype, name=None, array=None, layout=None):
        vid = len(self.graph.values)
        self.graph.values.append(_Value(vid, kind, shape, dtype, name, array,
                                        layout))
        return vid

    def _register_array(self, array, vid, runtime):
        key = id(array)
        self._array_vids[key] = vid
        if runtime:
            self._runtime_ids.add(key)
            array_vids, runtime_ids = self._array_vids, self._runtime_ids

            def _purge(ref, key=key):
                array_vids.pop(key, None)
                runtime_ids.discard(key)

            self._weakrefs.append(weakref.ref(array, _purge))
        else:
            self._captures.append(array)

    def add_input(self, name, array):
        """Register ``array`` as a replay-time input and return it."""
        array = np.asarray(array)
        if name in self._input_arrays:
            raise ValueError(f"duplicate trace input {name!r}")
        vid = self._new_value("input", array.shape, array.dtype, name=name,
                              layout=_layout(array))
        self.graph.inputs[name] = vid
        self._input_arrays[name] = array
        self._register_array(array, vid, runtime=True)
        return array

    def _resolve(self, tensor):
        array = tensor.data
        vid = self._array_vids.get(id(array))
        if vid is not None:
            return vid
        if self._weights_declared and tensor.requires_grad:
            self.fail("a trainable tensor reached the trace without being "
                      "bound as a weight")
        vid = self._new_value("capture", array.shape, array.dtype, array=array)
        self._register_array(array, vid, runtime=False)
        return vid

    # -- recording ----------------------------------------------------------
    def fail(self, reason):
        if self.graph.failed is None:
            self.graph.failed = str(reason)

    def require_runtime(self, array, reason):
        """Fail the trace unless ``array`` was produced by recorded ops.

        Callers place this where a value computed *outside* the trace (raw
        numpy in a custom predictor, say) would otherwise resolve as a
        capture and silently bake one execution's data into every replay.
        """
        if self.graph.failed is None and id(array) not in self._runtime_ids:
            self.fail(reason)

    def record(self, op, inputs, params, out):
        """Hook called by ``Tensor._from_op`` (and friends) after each op."""
        if self.graph.failed is not None:
            return
        if op == "reshape" and not np.may_share_memory(out.data,
                                                       inputs[0].data):
            op = "reshape_copy"
        kernel = _KERNELS.get(op)
        if kernel is None:
            self.fail(f"op without a replay kernel: {op!r}")
            return
        if params and _params_touch_runtime(params, self._runtime_ids):
            self.fail(f"data-dependent parameter in op {op!r}")
            return
        in_vids = tuple(self._resolve(t) for t in inputs)
        data = out.data
        vid = self._new_value("op", data.shape, data.dtype, layout=_layout(data))
        self.graph.nodes.append(_Node(op, params or {}, in_vids, vid))
        self._register_array(data, vid, runtime=True)

    def finish(self, outputs):
        """Declare the traced outputs and return the finished graph."""
        self.graph.outputs = [self._resolve(t) for t in outputs]
        return self.graph

    @property
    def failed(self):
        return self.graph.failed


def trace(weights=None):
    """Create a :class:`Tracer` (use as ``with trace() as tracer: ...``).

    ``weights`` maps names to the parameter arrays the traced code reads;
    they become bound weight values instead of baked constants.
    """
    return Tracer(weights)


# ---------------------------------------------------------------------------
# Planning and replay
# ---------------------------------------------------------------------------


def _address(array):
    """The address of ``array``'s first element."""
    return array.__array_interface__["data"][0]


def _write(fn, out, params, *arrays):
    """Replay a kernel without an ``out=`` form: its eager result, copied
    into the slot."""
    np.copyto(out, fn(None, params, *arrays))


class _Binding:
    """The arrays one weight set fills a program's weight slots with."""

    __slots__ = ("arrays", "__weakref__")

    def __init__(self, arrays):
        self.arrays = arrays


class CompiledProgram:
    """A planned, replayable tape compiled from a :class:`TraceGraph`.

    ``switches`` counts the replays that loaded a binding into the weight
    slots (the first replay of a binding after another one ran).
    """

    def __init__(self, tape, input_specs, outputs, stats, weight_specs,
                 prefold, bind_template, bound_vids, bound_slots):
        self._tape = tape
        self._input_specs = input_specs
        self._outputs = outputs
        self._weight_specs = weight_specs
        self._prefold = prefold
        self._bind_template = bind_template
        self._bound_vids = bound_vids
        self._bound_slots = bound_slots
        self._loaded = None       # weakref to the binding in the slots
        self.switches = 0
        self.stats = stats

    def bind(self, weights):
        """Bind a weight set; returns the binding :meth:`run` replays with.

        ``weights`` maps names to arrays shaped like the traced ones.  The
        prefold schedule runs once on them, so a binding holds the
        weight-derived constants (and the weights themselves) of this one
        weight set; the program keeps a binding only while it is loaded in
        the weight slots, and then only weakly.
        """
        env = list(self._bind_template)
        for name, (vid, shape, dtype) in self._weight_specs.items():
            array = weights.get(name)
            if array is None:
                raise TraceUnsupported(f"weight {name!r} is not bound")
            if array.shape != shape or array.dtype != dtype:
                raise TraceUnsupported(
                    f"weight {name!r} is {array.dtype}{array.shape}, traced "
                    f"as {dtype}{shape}"
                )
            env[vid] = array
        for fn, params, in_vids, out_vid in self._prefold:
            env[out_vid] = np.asarray(fn(None, params, *[env[v] for v in in_vids]))
        return _Binding([env[vid] for vid in self._bound_vids])

    def run(self, inputs, bound=None):
        """Replay the tape on fresh input arrays; returns output copies.

        ``bound`` is a binding from :meth:`bind`; ``None`` binds no weights,
        which serves programs traced without any.  Not reentrant: the
        program owns every array a replay touches, so concurrent replays of
        the same program must be serialised by the caller.
        """
        if inputs.keys() != self._input_specs.keys():
            raise TraceUnsupported(
                f"replay inputs {sorted(inputs)} do not match the traced "
                f"signature {sorted(self._input_specs)}"
            )
        for name, array in inputs.items():
            slot, shape, dtype = self._input_specs[name]
            if array.shape != shape or array.dtype != dtype:
                raise TraceUnsupported(
                    f"input {name!r} is {array.dtype}{array.shape}, traced "
                    f"as {dtype}{shape}"
                )
            if slot is not None:
                np.copyto(slot, array)
        if bound is None:
            bound = self.bind({})
        if self._loaded is None or self._loaded() is not bound:
            for slot, array in zip(self._bound_slots, bound.arrays):
                np.copyto(slot, array)
            self._loaded = weakref.ref(bound)
            self.switches += 1
        for call in self._tape:
            call()
        # The slots are rewritten on the next replay: hand back copies.
        return [np.array(array) for array in self._outputs]


def _freeze_param(value):
    """A hashable key for one op parameter (CSE node keys).

    Arrays freeze by identity — the tracer strong-refs every captured array,
    so two params are "the same" only when they are the same object, which is
    exactly the equality CSE needs (equal-but-distinct arrays stay distinct).
    ``slice`` is unhashable, so it freezes structurally.
    """
    if isinstance(value, np.ndarray):
        return ("nd", id(value))
    if isinstance(value, slice):
        return ("sl", value.start, value.stop, value.step)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_param(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return ("tu", tuple(_freeze_param(v) for v in value))
    if isinstance(value, np.dtype):
        return ("dt", str(value))
    return value


def compile_graph(graph):
    """Plan a :class:`TraceGraph` into a :class:`CompiledProgram`.

    Beyond scheduling, compilation runs three value-preserving optimisation
    passes before the slot planner builds the tape:

    * **attention split** — each ``attention_core(q, k, v)`` node becomes
      ``attention_weights(q, k)`` + ``matmul(weights, v)`` (the exact same
      ufunc sequence, cut in two), so the softmax map becomes a node of its
      own that the next pass can deduplicate;
    * **constant folding** — nodes whose inputs are all constants leave the
      replay schedule.  Those fed by captures only run once here and bake
      their result into the program; those that read a weight (the
      diffusion step-embedding MLP: a table row through the projection
      weights) form the prefold schedule :meth:`CompiledProgram.bind` runs
      once per weight set;
    * **CSE** — structurally identical nodes fed by the same values merge.
      Reverse-diffusion traces recompute every prior-derived quantity (Q/K
      projections, attention maps, pooled keys) once per step; after CSE the
      replay computes each once per chunk.

    The slot planner then makes two bit-neutral moves, each changing only
    where a value lives, never the ufuncs that compute it:

    * **in place** — an ``inplace`` kernel (:mod:`repro.tensor.kernels`)
      writes its result into an operand's buffer when that operand is a
      kernel-written arena buffer (not a view, input, weight, prefold or
      constant slot) whose storage dies at the node, is no graph output,
      has the result's shape, dtype and layout and shares storage with no
      other operand;
    * **write-through** — a matmul whose result reaches a ``reshape_copy``
      only through single-consumer ``reshape``/``transpose`` views is given,
      as ``out``, the inverse views of the copy's slot.  It is planned so
      only if the forward views of that ``out`` put every element exactly
      where the copy would and ``out`` is a BLAS operand (unit inner
      stride, row stride at least the row length); the copy then leaves
      the tape.  Otherwise the node is planned as it stands.

    ``stats`` is the work ledger, all read from shapes at plan time:
    ``kernels`` tape entries, ``replay_calls`` numpy calls per warm replay
    (input loads, tape entries, output copies), ``hoisted_views`` views
    taken at plan time, ``slot_bytes`` every slot the program owns (inputs,
    weights and prefold results, arena), of which ``arena_bytes`` are the
    arena, ``matmul_flops``, ``2·K`` per output element of each
    replayed matmul and attention map, ``bytes_written``, the output bytes
    every tape entry writes per replay, ``inplace_ops`` tape entries that
    write into an operand, ``reshape_copies`` copying reshapes in the
    schedule, of which ``write_through`` left the tape.

    Raises :class:`TraceUnsupported` when the trace failed or recorded
    nothing replayable.
    """
    if graph.failed is not None:
        raise TraceUnsupported(graph.failed)
    if not graph.outputs:
        raise TraceUnsupported("trace declared no outputs")

    values = list(graph.values)

    # Pass 1: split attention_core so the (step-invariant, when Q/K come
    # from the conditioning prior) softmax map is CSE-able separately from
    # the step-varying value application.
    nodes = []
    attention_splits = 0
    for node in graph.nodes:
        if node.op == "attention_core":
            q_val, k_val = values[node.inputs[0]], values[node.inputs[1]]
            batch = np.broadcast_shapes(q_val.shape[:-2], k_val.shape[:-2])
            w_shape = tuple(batch) + (q_val.shape[-2], k_val.shape[-2])
            w_dtype = np.result_type(q_val.dtype, k_val.dtype)
            wid = len(values)
            values.append(_Value(wid, "op", w_shape, w_dtype))
            nodes.append(_Node("attention_weights", node.params,
                               (node.inputs[0], node.inputs[1]), wid))
            nodes.append(_Node("matmul", {}, (wid, node.inputs[2]), node.out))
            attention_splits += 1
        else:
            nodes.append(node)

    # Pass 2: constant folding.  ``baked`` maps vids produced purely from
    # captures to their compile-time result; ``weighted`` holds the weights
    # and every fold that reads one, which is deferred to the prefold
    # schedule.  Folded nodes leave the replay schedule either way.
    baked = {}
    weighted = set(graph.weights.values())

    def _constant(vid):
        return values[vid].kind == "capture" or vid in baked or vid in weighted

    folded = []
    prefold = []
    folded_ops = 0
    for node in nodes:
        if not node.inputs or not all(_constant(vin) for vin in node.inputs):
            folded.append(node)
            continue
        folded_ops += 1
        if any(vin in weighted for vin in node.inputs):
            weighted.add(node.out)
            prefold.append(node)
            continue
        arrays = [values[vin].array if values[vin].kind == "capture"
                  else baked[vin] for vin in node.inputs]
        baked[node.out] = np.asarray(
            _KERNELS[node.op].fn(None, node.params, *arrays))

    # Pass 3: common-subexpression elimination.  Processing in recorded
    # order lets merges cascade: once two steps' Q projections merge, the
    # head reshapes above them get identical input vids and merge too.
    remap = {}
    seen = {}
    cse_nodes = []
    cse_ops = 0
    for node in folded:
        inputs = tuple(remap.get(vin, vin) for vin in node.inputs)
        key = (node.op, _freeze_param(node.params), inputs)
        prior = seen.get(key)
        if prior is not None:
            remap[node.out] = prior
            cse_ops += 1
        else:
            seen[key] = node.out
            cse_nodes.append(_Node(node.op, node.params, inputs, node.out))
    outputs = [remap.get(vid, vid) for vid in graph.outputs]

    # Dead-code elimination: keep only nodes the outputs depend on.
    needed = set(outputs)
    schedule = []
    for node in reversed(cse_nodes):
        if node.out in needed:
            needed.update(node.inputs)
            schedule.append(node)
    schedule.reverse()

    # Prefold: only the weight folds the schedule (or the outputs) read,
    # and what they read in turn.
    used = set(outputs)
    for node in schedule:
        used.update(node.inputs)
    needed = set(used)
    prefold_nodes = []
    for node in reversed(prefold):
        if node.out in needed:
            needed.update(node.inputs)
            prefold_nodes.append(node)
    prefold_nodes.reverse()

    # ``array_of`` maps each value a replay reads to the array it reads:
    # a constant, a slot, or a view of a slot taken here.  Only constants
    # something reads are retained — folding and CSE orphan many captures,
    # and keeping them would pin dead arrays for the lifetime of the program.
    array_of = {}
    constants = 0
    constant_scalars = 0
    for value in values:
        array = value.array if value.kind == "capture" else baked.get(value.vid)
        if array is not None and value.vid in needed:
            array_of[value.vid] = array
            constants += 1
            if array.size == 1:
                constant_scalars += 1

    def _hoist(node):
        """Take the view ``node`` makes of its input's array, unless numpy's
        result does not alias it (and so would go stale); returns whether
        it did."""
        base = array_of[node.inputs[0]]
        view = _KERNELS[node.op].fn(None, node.params, base)
        if isinstance(view, np.ndarray) and np.shares_memory(view, base):
            array_of[node.out] = view
            return True
        return False

    # Weight slots: the weights and prefold results the replay reads, and
    # the bases of the prefold views it reads.  A view of a weight slot is
    # taken here; whatever else it reads is bound into a slot of its own.
    materialise = {vid for vid in used if vid in weighted}
    for node in reversed(prefold_nodes):
        if node.out in materialise and _KERNELS[node.op].view:
            materialise.add(node.inputs[0])
    bound_vids = []
    bound_slots = []
    hoisted_views = 0

    def _bind_slot(vid):
        value = values[vid]
        slot = _empty(value.shape, value.dtype, value.layout)
        array_of[vid] = slot
        bound_vids.append(vid)
        bound_slots.append(slot)

    for vid in graph.weights.values():
        if vid in materialise:
            _bind_slot(vid)
    for node in prefold_nodes:
        if node.out not in materialise:
            continue
        if _KERNELS[node.op].view and _hoist(node):
            hoisted_views += 1
        else:
            _bind_slot(node.out)

    input_specs = {}
    input_slots = []
    for name, vid in graph.inputs.items():
        value = values[vid]
        slot = None
        if vid in used:
            slot = _empty(value.shape, value.dtype, value.layout)
            array_of[vid] = slot
            input_slots.append(slot)
        input_specs[name] = (slot, value.shape, value.dtype)

    # Storage roots: a view writes no buffer of its own — it aliases its
    # input's storage, which must stay live as long as the view is used.
    root = list(range(len(values)))
    for node in schedule:
        if _KERNELS[node.op].view:
            root[node.out] = root[node.inputs[0]]

    # Liveness: the schedule index after which each storage is dead.
    last_use = {}
    for index, node in enumerate(schedule):
        for vin in node.inputs:
            last_use[root[vin]] = index
        last_use[root[node.out]] = index
    for vid in outputs:
        last_use[root[vid]] = len(schedule)      # outputs are never freed

    release_at = {}
    for storage, index in last_use.items():
        if index < len(schedule):
            release_at.setdefault(index, []).append(storage)

    # Arena assignment: exact (shape, dtype, layout) slot reuse, freed only
    # after the producing/consuming node has fully run — so a kernel that
    # zeroes or overwrites its output before reading its inputs (matmul,
    # cat, add_n, pad_time, the reductions) never writes over a dying
    # input.  The one exception is an ``inplace`` kernel (see
    # :mod:`repro.tensor.kernels`), which writes into the buffer of an
    # operand that dies at the node (:func:`_dying_operand`).  A kernel's
    # scratch buffers come from the same pool and go back to it right after
    # the node, so they never alias the node's inputs or output.  A view
    # whose numpy result copies gets a slot of its own that is never freed
    # (liveness counts it as a view of its input).
    pool = {}
    buffers = []
    buffer_of = {}
    tape = []
    reshape_copies = 0
    matmul_flops = 0
    inplace_ops = 0
    bytes_written = 0
    written_through = set()
    consumers = {}
    for index, node in enumerate(schedule):
        for vin in node.inputs:
            consumers.setdefault(vin, []).append(index)

    def _take(shape, dtype, layout=None):
        free = pool.get((shape, dtype, layout))
        if free:
            return free.pop()
        buf = _empty(shape, dtype, layout)
        buffers.append(buf)
        return buf

    def _give(buf, layout):
        pool.setdefault((buf.shape, buf.dtype, layout), []).append(buf)

    def _dying_operand(index, node, value):
        """The arena entry of an operand ``node`` can write its result
        into, removed from ``buffer_of``: a kernel-written buffer (not a
        view, input, weight or constant slot) whose storage dies at this
        node, laid out like ``value`` and shared with no other operand."""
        key = (value.shape, value.dtype, value.layout)
        for vin in node.inputs:
            entry = buffer_of.get(vin)
            if (entry is not None and root[vin] == vin
                    and last_use[vin] == index
                    and (entry[0].shape, entry[0].dtype, entry[1]) == key
                    and sum(root[other] == vin for other in node.inputs) == 1):
                del buffer_of[vin]
                return entry
        return None

    def _write_through(node):
        """Plan a matmul straight into the slot of the copying reshape its
        result reaches only through single-consumer reshape/transpose views
        (merging attention heads).  Returns ``(copy node, slot, out)`` —
        ``out`` the inverse views of the slot — or ``None`` when there is
        no such chain, or the forward views of ``out`` would not put each
        element where the copy puts it, or ``out`` is not a BLAS operand."""
        vid, chain = node.out, []
        while True:
            users = consumers.get(vid, ())
            if vid in outputs or len(users) != 1:
                return None
            user = schedule[users[0]]
            if user.op == "reshape_copy":
                break
            if user.op not in ("reshape", "transpose"):
                return None
            chain.append(user)
            vid = user.out
        target = values[user.out]

        def inverse(slot):
            out = slot.reshape(values[vid].shape)
            for view in reversed(chain):
                if view.op == "transpose":
                    out = out.transpose(np.argsort(view.params["axes"]))
                else:
                    out = out.reshape(values[view.inputs[0]].shape)
            return out

        # A slot's geometry depends only on its shape and dtype: check on a
        # probe that each element the forward views reach from ``out`` is
        # the one the copy writes, then take the slot.
        probe = np.empty(target.shape, target.dtype)
        out = landed = inverse(probe)
        for view in chain:
            landed = _KERNELS[view.op].fn(None, view.params, landed)
        copied = probe.reshape(values[vid].shape)
        item = out.itemsize
        if not (out.shape == values[node.out].shape and out.ndim >= 2
                and landed.shape == copied.shape
                and _address(landed) == _address(copied)
                and all(a == b for a, b, n in zip(landed.strides,
                                                  copied.strides, copied.shape)
                        if n > 1)
                and out.strides[-1] == item and out.strides[-2] % item == 0
                and out.strides[-2] >= out.shape[-1] * item):
            return None
        slot = _take(target.shape, target.dtype)
        return user, slot, inverse(slot)

    for index, node in enumerate(schedule):
        if _KERNELS[node.op].view and _hoist(node):
            hoisted_views += 1
        elif node.out in written_through:
            reshape_copies += 1
        else:
            op = "reshape_copy" if node.op == "reshape" else node.op
            kernel = _KERNELS[op]
            out_value = values[node.out]
            # A copying reshape writes through a C-ordered reshape of its slot.
            layout = None if op == "reshape_copy" else out_value.layout
            entry = kernel.inplace and _dying_operand(index, node, out_value)
            through = not entry and op == "matmul" and _write_through(node)
            if entry:
                inplace_ops += 1
                buffer_of[node.out] = entry
                out = entry[0]
            elif through:
                copy, slot, out = through
                written_through.add(copy.out)
                buffer_of[copy.out] = (slot, None)
                array_of[copy.out] = slot
            else:
                out = _take(out_value.shape, out_value.dtype, layout)
                buffer_of[node.out] = (out, layout)
            operands = [array_of[vin] for vin in node.inputs]
            if op == "reshape_copy":
                reshape_copies += 1
            if op in ("matmul", "attention_weights"):
                matmul_flops += 2 * values[node.inputs[0]].shape[-1] * int(
                    np.prod(out_value.shape))
            bytes_written += out.nbytes
            if not kernel.uses_out:
                tape.append(functools.partial(_write, kernel.fn, out,
                                              node.params, *operands))
            else:
                needs = kernel.scratch and kernel.scratch(
                    [values[vin] for vin in node.inputs], out_value)
                extra = {}
                if needs:
                    scratch = tuple(_take(shape, dtype) for shape, dtype in needs)
                    for buf in scratch:
                        _give(buf, None)
                    extra["scratch"] = scratch
                tape.append(functools.partial(kernel.fn, out, node.params,
                                              *operands, **extra))
            array_of[node.out] = out
        for storage in release_at.get(index, ()):
            entry = buffer_of.get(storage)
            if entry is not None:
                _give(*entry)

    output_arrays = [array_of[vid] for vid in outputs]
    weight_specs = {
        name: (vid, values[vid].shape, values[vid].dtype)
        for name, vid in graph.weights.items() if vid in needed
    }
    # ``bind`` runs only the prefold nodes the bound slots need: a view the
    # replay reads is already taken on its weight slot.
    bind_needed = set(bound_vids)
    prefold_steps = []
    for node in reversed(prefold_nodes):
        if node.out in bind_needed:
            bind_needed.update(node.inputs)
            prefold_steps.append((_KERNELS[node.op].fn, node.params,
                                  node.inputs, node.out))
    prefold_steps.reverse()
    bind_template = [None] * len(values)
    for vid in bind_needed:
        if values[vid].kind == "capture" or vid in baked:
            bind_template[vid] = array_of[vid]
    arena_bytes = int(sum(buf.nbytes for buf in buffers))
    stats = {
        "ops_recorded": len(graph.nodes),
        "ops_scheduled": len(schedule),
        "kernels": len(tape),
        "replay_calls": len(input_slots) + len(tape) + len(output_arrays),
        "hoisted_views": hoisted_views,
        "attention_splits": attention_splits,
        "folded_ops": folded_ops,
        "prefold_ops": len(prefold_nodes),
        "weights": len(weight_specs),
        "cse_ops": cse_ops,
        "reshape_copies": reshape_copies,
        "write_through": len(written_through),
        "inplace_ops": inplace_ops,
        "bytes_written": bytes_written,
        "arena_buffers": len(buffers),
        "arena_bytes": arena_bytes,
        "slot_bytes": arena_bytes + int(sum(
            slot.nbytes for slot in input_slots + bound_slots)),
        "matmul_flops": matmul_flops,
        "values": len(values),
        "constants": constants,
        "constant_scalars": constant_scalars,
    }
    return CompiledProgram(tape, input_specs, output_arrays, stats,
                           weight_specs, prefold_steps, bind_template,
                           bound_vids, bound_slots)
