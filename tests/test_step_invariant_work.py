"""The network, not the compiler, hoists PriSTI's step-invariant work.

PriSTI's attention maps are built from the prior ``H^pri`` (Eq. 7–8), which
does not change across the reverse diffusion steps, so neither do the maps.
``PriSTINetwork.prepare_conditioning`` builds them once per chunk, and the
planner has no common-subexpression pass to find repeats.  This guard traces
whole chunks and finds no two replayed nodes that compute the same thing:
the same op with the same params on the same input values.  Views are left
out (they are taken once, at plan time), and so are the nodes that constant
folding takes off the tape.  Covered: PriSTI, its w/o CF ablation and CSDI
(no prior: every step builds its maps from the noisy stream), DDPM and DDIM
with eta 0.3, one and eight samples per window.
"""

import numpy as np
import pytest

from repro import PriSTI, PriSTIConfig
from repro.baselines import CSDIImputer
from repro.inference import RequestPlan, compiled
from repro.tensor.kernels import _KERNELS

STEPS = 4
DDIM_STEPS = 3


@pytest.fixture(scope="module")
def models(tiny_traffic_dataset):
    config = PriSTIConfig.fast(window_length=12, epochs=1, iterations_per_epoch=1,
                               num_diffusion_steps=STEPS, num_samples=2,
                               batch_size=4)
    return {
        "pristi": PriSTI(config).fit(tiny_traffic_dataset),
        "w/o cf": PriSTI(config.ablation("w/o cf")).fit(tiny_traffic_dataset),
        "csdi": CSDIImputer(config).fit(tiny_traffic_dataset),
    }


def _key(value):
    """A hashable form of an op parameter; arrays compare by identity."""
    if isinstance(value, np.ndarray):
        return ("array", id(value))
    if isinstance(value, slice):
        return ("slice", value.start, value.stop, value.step)
    if isinstance(value, dict):
        return tuple(sorted((name, _key(item)) for name, item in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(_key(item) for item in value)
    if isinstance(value, np.dtype):
        return str(value)
    return value


def _trace_chunk(model, monkeypatch, samples_per_plan):
    graphs = []
    compile_graph = compiled.compile_graph

    def spy(graph):
        graphs.append(graph)
        return compile_graph(graph)

    monkeypatch.setattr(compiled, "compile_graph", spy)
    monkeypatch.setattr(model, "_compiled_cache", None)
    rng = np.random.default_rng(0)
    shape = (1, model.num_nodes, 12)
    plans = [RequestPlan(start=index, values=rng.normal(size=shape),
                         mask=np.ones(shape), condition=rng.normal(size=shape))
             for index in range(2)]
    engine = model.inference_engine()
    engine.sample_plans([plan for plan in plans for _ in range(samples_per_plan)])
    (graph,) = graphs
    return graph


@pytest.mark.parametrize("samples_per_plan", [1, 8])
@pytest.mark.parametrize("sampler", ["ddpm", "ddim"])
@pytest.mark.parametrize("name", ["pristi", "w/o cf", "csdi"])
def test_no_replayed_node_repeats_another(models, monkeypatch, name, sampler,
                                          samples_per_plan):
    model = models[name]
    steps = STEPS
    if sampler == "ddim":
        monkeypatch.setattr(model.config, "ddim_steps", DDIM_STEPS)
        monkeypatch.setattr(model.config, "ddim_eta", 0.3)
        steps = DDIM_STEPS
    graph = _trace_chunk(model, monkeypatch, samples_per_plan)
    assert graph.failed is None

    constant = set(graph.weights.values())
    constant.update(value.vid for value in graph.values if value.kind == "capture")
    seen = {}
    repeats = []
    for node in graph.nodes:
        if all(vid in constant for vid in node.inputs):
            constant.add(node.out)
            continue
        if _KERNELS[node.op].view:
            continue
        key = (node.op, _key(node.params), node.inputs)
        if key in seen:
            repeats.append(node.op)
        seen[key] = node.out
    assert repeats == []

    # Two maps (temporal, spatial) per layer: once per chunk from the prior,
    # next to the two self-attention maps that build the prior; once per
    # step without a prior.
    maps = sum(node.op == "attention_weights" for node in graph.nodes)
    layer_maps = 2 * model.config.layers
    assert maps == (2 + layer_maps if name == "pristi" else layer_maps * steps)
