"""Numbers a refactor of the network or the planner must keep.

* The work ledger of the two perfbench-shaped programs (8 nodes, 12-step
  windows, 10 diffusion steps, float64; see ``perfbench/common.py``): the
  ``bulk-pool`` program (16 items: two windows of 8 samples) and the 2-item
  ``stream-rollout`` program (two one-sample windows).  ``kernels``,
  ``matmul_flops`` and ``bytes_written`` follow from shapes alone.
* The loss history and final parameters of a fast-config ``fit()``.  The
  literals are the bits of x86-64 NumPy 2.4.6 with scipy-openblas
  0.3.31.188.0 and are compared bit for bit there; another NumPy or BLAS
  build may round a matmul differently, so elsewhere the losses are
  compared to 1e-9 relative and the parameter digest is not compared.
"""

import hashlib
import platform

import numpy as np
import pytest

from repro import PriSTI, PriSTIConfig
from repro.data import metr_la_like
from repro.inference import RequestPlan, compiled

LEDGER = {
    "bulk-pool": {"kernels": 1055, "matmul_flops": 347_314_176,
                  "bytes_written": 212_226_048},
    "stream-rollout": {"kernels": 1055, "matmul_flops": 46_258_176,
                       "bytes_written": 28_270_080},
}

FIT = {
    "pristi": (
        [0.15417667103272426, 0.14141827394751488, 0.11937755365161819],
        "6a27a121040b3da23c087bc551e5722569490c0332f44eae48d1b95764026ed2",
    ),
    "virtual-nodes": (
        [0.15411600542906373, 0.14154646692420383, 0.11918750880234683],
        "2d43b602e3b15a7e22e7d44813ab0c5c269d1d5e13e764e6c97e6c87fac1eae6",
    ),
    "w/o cf": (
        [0.15421701504821, 0.14188598658835938, 0.11940871373505355],
        "5ec7199d3ddd7b650a5f9a455227dfd1695375d3d9386d4cb5743179aae282ff",
    ),
}


def _recorded_environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (platform.machine() == "x86_64" and np.__version__ == "2.4.6"
            and blas.get("name") == "scipy-openblas"
            and blas.get("version") == "0.3.31.188.0")


def _parameter_digest(network):
    digest = hashlib.sha256()
    for name, array in sorted(network.state_dict().items()):
        array = np.ascontiguousarray(array)
        digest.update(f"{name}:{array.dtype}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _fit(name, dataset):
    config = PriSTIConfig.fast(window_length=12, epochs=3, iterations_per_epoch=2,
                               num_diffusion_steps=4, num_samples=2, batch_size=4)
    config = {"pristi": config,
              "virtual-nodes": config.variant(virtual_nodes=3),
              "w/o cf": config.ablation("w/o cf")}[name]
    return PriSTI(config).fit(dataset)


@pytest.fixture(scope="module")
def perfbench_model():
    dataset = metr_la_like(num_nodes=8, num_days=16, steps_per_day=48,
                           missing_pattern="block", seed=3)
    config = PriSTIConfig.fast(window_length=12, epochs=1, iterations_per_epoch=1,
                               num_diffusion_steps=10, num_samples=1,
                               inference_batch_size=64, seed=0)
    return PriSTI(config).fit(dataset)


@pytest.mark.parametrize("workload", sorted(LEDGER))
def test_perfbench_program_ledger(perfbench_model, monkeypatch, workload):
    stats = []
    compile_graph = compiled.compile_graph

    def spy(graph):
        program = compile_graph(graph)
        stats.append(program.stats)
        return program

    monkeypatch.setattr(compiled, "compile_graph", spy)
    monkeypatch.setattr(perfbench_model, "_compiled_cache", None)
    rng = np.random.default_rng(0)
    shape = (1, perfbench_model.num_nodes, 12)
    windows, samples = (8, 8) if workload == "bulk-pool" else (2, 1)
    plans = [RequestPlan(start=index, values=rng.normal(size=shape),
                         mask=np.ones(shape), condition=rng.normal(size=shape))
             for index in range(windows)]
    perfbench_model.inference_engine().sample_plans(
        [plan for plan in plans for _ in range(samples)])
    (program_stats,) = stats
    assert {key: program_stats[key] for key in LEDGER[workload]} == LEDGER[workload]


@pytest.mark.parametrize("name", sorted(FIT))
def test_fit_loss_history_and_parameters(tiny_traffic_dataset, name):
    model = _fit(name, tiny_traffic_dataset)
    losses, digest = FIT[name]
    if _recorded_environment():
        assert model.history["loss"] == losses
        assert _parameter_digest(model.network) == digest
    else:
        assert np.allclose(model.history["loss"], losses, rtol=1e-9, atol=0)
