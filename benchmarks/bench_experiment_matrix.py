"""Experiment-matrix smoke: a 2x2 cell table with resume validation.

Runs a small :class:`~repro.experiments.ExperimentMatrix` — executor mode
(inline / process) crossed with micro-batch size — through the real
service/pool/metrics stack, then re-validates the matrix's two structural
guarantees end to end:

* **Resume**: a second run over the same output directory executes zero
  cells, and a run interrupted after its first cell resumes from the
  on-disk manifests and finishes with ``run_table.csv`` byte-identical to
  the uninterrupted run's.
* **Bit-identity across executors**: every (scenario, batch, dtype, rep)
  workload carries mode-independent seeds, so the inline and process cells
  of the same workload must report the same response checksum.

The payload also pins ``stable_stats_schema``: every cell's flat metrics
snapshot exposes the same key set, whatever executor mode produced it.

Results land in ``benchmarks/results/experiment_matrix.json``.  Run directly
(``PYTHONPATH=src python benchmarks/bench_experiment_matrix.py``) or through
pytest (``pytest benchmarks/bench_experiment_matrix.py``).
"""

import json
import tempfile
import time
from pathlib import Path

from repro.experiments import ExperimentMatrix, compare_run_tables

MODES = ("inline", "process")
BATCH_SIZES = (2, 4)
REQUESTS_PER_CELL = 4


def _build_matrix():
    return ExperimentMatrix(modes=MODES, workers=(2,),
                            batch_sizes=BATCH_SIZES,
                            scenarios=("burst",), repetitions=1,
                            base_seed=17, requests_per_cell=REQUESTS_PER_CELL)


class _InterruptAfterFirstCell(RuntimeError):
    pass


def run_benchmark():
    matrix = _build_matrix()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)

        # Uninterrupted reference run + a no-op resume pass over it.
        reference = matrix.run(workdir / "reference")
        reference_table = Path(reference["run_table_csv"]).read_bytes()
        noop = matrix.run(workdir / "reference")
        noop_table = Path(noop["run_table_csv"]).read_bytes()

        # Interrupted run: die after the first completed cell, then resume.
        executed = []

        def interrupt(cell, outcome):
            if outcome == "run":
                executed.append(cell.cell_id)
                raise _InterruptAfterFirstCell(cell.cell_id)

        interrupted = False
        try:
            matrix.run(workdir / "resumed", progress=interrupt)
        except _InterruptAfterFirstCell:
            interrupted = True
        resumed = matrix.run(workdir / "resumed")
        resumed_table = Path(resumed["run_table_csv"]).read_bytes()

        verdict = compare_run_tables(resumed["rows"], reference["rows"])

        # Stable observability schema: every manifest's snapshot keys agree.
        key_sets = set()
        for cell in matrix.cells():
            manifest_path = (workdir / "resumed" / "manifests"
                             / f"{cell.cell_id}.json")
            manifest = json.loads(manifest_path.read_text())
            key_sets.add(tuple(manifest["stats_keys"]))

    by_id = {row["cell_id"]: row for row in reference["rows"]}
    checksum_pairs = []
    for batch in BATCH_SIZES:
        inline = by_id[f"burst-inline-w0-s1-b{batch}-float64-r0"]
        process = by_id[f"burst-process-w2-s1-b{batch}-float64-r0"]
        checksum_pairs.append(inline["checksum"] == process["checksum"])

    payload = {
        "num_cells": reference["cells_total"],
        "cells_executed": reference["cells_executed"],
        "noop_resume_executed": noop["cells_executed"],
        "interrupted_cells_executed": len(executed),
        "resumed_cells_executed": resumed["cells_executed"],
        "resumed_cells_skipped": resumed["cells_skipped"],
        "seconds": round(time.perf_counter() - started, 3),
        "cells": {
            row["cell_id"]: {"checksum": row["checksum"],
                             "requests": row["requests"],
                             "batches": row["batches"]}
            for row in reference["rows"]
        },
        "resume_validated": (interrupted
                             and noop["cells_executed"] == 0
                             and resumed["cells_executed"]
                             == reference["cells_total"] - 1),
        "run_table_bit_identical": (resumed_table == reference_table
                                    and noop_table == reference_table
                                    and verdict["matches"]),
        "checksum_mode_invariant": all(checksum_pairs),
        "stable_stats_schema": len(key_sets) == 1,
    }
    return payload


def test_bench_experiment_matrix(save_json):
    payload = run_benchmark()
    save_json("experiment_matrix", payload)
    assert payload["resume_validated"]
    assert payload["run_table_bit_identical"]
    assert payload["checksum_mode_invariant"]
    assert payload["stable_stats_schema"]


if __name__ == "__main__":
    payload = run_benchmark()
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "experiment_matrix.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    for flag in ("resume_validated", "run_table_bit_identical",
                 "checksum_mode_invariant", "stable_stats_schema"):
        if not payload[flag]:
            raise SystemExit(f"experiment-matrix invariant '{flag}' failed")
