"""Checks of the benchmark itself (not collected by pytest; run directly).

    python3 perfbench/selftest.py

* a short untraced and a short traced run of every workload print every
  metric named in ``BENCHMARK.json`` with its unit, with correct outputs;
* the traced runs produce spans for every layer the workload is designed
  to exercise, and none for the layers it is designed to bypass, and show
  the designed compile contrast (misses on small-poisson and
  stream-rollout, none on bulk-pool);
* ``tracing.install()`` / ``uninstall()`` leave every wrapped attribute as
  it was;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the command fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import common

HERE = os.path.dirname(os.path.abspath(__file__))
#: Length and seed of the short runs.
SECONDS = 5.0
SEED = 7

#: Span-name prefixes each workload must produce / must not produce.
EXPECTED_SPANS = {
    "small-poisson": {
        "present": ["gateway.", "service.submit", "service.batch", "backend.",
                    "engine.", "compiled.chunk", "compiled.replay",
                    "compiled.compile_graph", "core.forward"],
        "absent": ["pool.", "transport.", "streaming."],
    },
    "bulk-pool": {
        "present": ["gateway.", "service.submit", "service.batch", "pool.dispatch",
                    "pool.run", "pool.execute", "transport.stage", "backend.",
                    "engine.", "compiled.replay", "registry.load"],
        "absent": ["streaming."],
    },
    "stream-rollout": {
        "present": ["gateway.", "streaming.push", "registry.load", "backend.",
                    "engine.", "compiled.chunk", "compiled.compile_graph",
                    "compiled.replay", "core.forward"],
        "absent": ["service.batch", "pool.", "transport."],
    },
}


def _benchmark():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, seed, seconds, trace, cwd=common.ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return completed


def _result(completed):
    if completed.returncode != 0:
        raise AssertionError(f"run failed:\n{completed.stderr[-4000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_metrics(result, declared):
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    emitted = result["metrics"]
    for metric in declared:
        assert metric["name"] in emitted, f"missing metric {metric['name']}"
        assert emitted[metric["name"]]["unit"] == metric["unit"], metric
    assert set(emitted) == {metric["name"] for metric in declared}, sorted(emitted)


def check_trace(workload, seed):
    path = os.path.join(common.WORK_ROOT, "results",
                        f"{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    names = report["span_counts"]
    expected = EXPECTED_SPANS[workload]
    for prefix in expected["present"]:
        assert any(name.startswith(prefix) for name in names), (workload, prefix)
    for prefix in expected["absent"]:
        assert not any(name.startswith(prefix) for name in names), (workload, prefix)
    misses = report["result"]["metrics"]["compiled.misses"]["value"]
    if workload == "bulk-pool":
        assert misses == 0, (workload, misses)
    else:
        assert misses > 0, (workload, misses)


def check_uninstall():
    common.use_source_tree()
    import tracing

    before = {}
    tracer = tracing.install()
    for owner, attr, original in tracer._patches:
        before.setdefault((owner, attr), original)
        assert vars(owner)[attr] is not original, (owner, attr)
    tracer.uninstall()
    assert before and not tracer._patches
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, (owner, attr)


def check_refuses_without_source():
    bare = os.path.join(common.WORK_ROOT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
    try:
        completed = _run("small-poisson", 1, 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def main():
    benchmark = _benchmark()
    check_uninstall()
    print("ok: wrappers removed after uninstall", flush=True)
    check_refuses_without_source()
    print("ok: refuses to run without the source tree", flush=True)
    for workload in common.WORKLOADS:
        check_metrics(_result(_run(workload, SEED, SECONDS, 0)),
                      benchmark["end_to_end"])
        print(f"ok: {workload} end-to-end metrics", flush=True)
        check_metrics(_result(_run(workload, SEED, SECONDS, 1)),
                      benchmark["per_layer"])
        check_trace(workload, SEED)
        print(f"ok: {workload} per-layer metrics and spans", flush=True)
    print("all perfbench self-tests passed")


if __name__ == "__main__":
    main()
