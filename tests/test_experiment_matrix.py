"""Tests for the declarative, resumable serving experiment matrix.

Pins the enumeration contract (deterministic cell order, inline worker
collapse, workload-derived seeds), the resume contract (a killed run picks
up from its manifests and produces a run table byte-identical to an
uninterrupted run), and the comparison step.
"""

import json

import pytest

from repro.experiments import (
    ExperimentMatrix,
    MatrixCell,
    ServingCellRunner,
    compare_run_tables,
    format_comparison,
)
from repro.experiments.matrix import RUN_TABLE_COLUMNS, render_run_table_csv


def _tiny_matrix(**overrides):
    """The smallest matrix that still exercises two modes and two sizes."""
    defaults = dict(modes=("inline", "process"), workers=(2,),
                    batch_sizes=(2, 4), repetitions=1, base_seed=5,
                    requests_per_cell=2)
    defaults.update(overrides)
    return ExperimentMatrix(**defaults)


class TestEnumeration:
    def test_cells_are_deterministic_and_ordered(self):
        matrix = _tiny_matrix()
        ids = [cell.cell_id for cell in matrix.cells()]
        assert ids == [cell.cell_id for cell in matrix.cells()]
        assert ids == [
            "steady-inline-w0-s1-b2-float64-r0",
            "steady-inline-w0-s1-b4-float64-r0",
            "steady-process-w2-s1-b2-float64-r0",
            "steady-process-w2-s1-b4-float64-r0",
        ]

    def test_inline_cells_collapse_worker_levels(self):
        matrix = _tiny_matrix(modes=("inline",), workers=(1, 2, 4),
                              batch_sizes=(2,))
        assert [cell.cell_id for cell in matrix.cells()] == [
            "steady-inline-w0-s1-b2-float64-r0",
        ]

    def test_seed_ignores_mode_and_workers(self):
        shared = dict(scenario="burst", shards=2, batch_size=4,
                      dtype="float64", repetition=1, base_seed=9)
        inline = MatrixCell(mode="inline", workers=0, **shared)
        process = MatrixCell(mode="process", workers=4, **shared)
        assert inline.seed == process.seed
        other = MatrixCell(mode="inline", workers=0,
                           **{**shared, "repetition": 2})
        assert other.seed != inline.seed

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            ExperimentMatrix(modes=("fiber",))
        with pytest.raises(ValueError):
            ExperimentMatrix(modes=("inline", "thread"))
        with pytest.raises(ValueError):
            ExperimentMatrix(scenarios=("spiky",))
        with pytest.raises(ValueError):
            ExperimentMatrix(repetitions=0)


class TestComparison:
    ROW = {"cell_id": "a", "checksum": "f00", "requests": 4, "batches": 2,
           "status": "completed"}

    def test_identical_tables_match(self):
        verdict = compare_run_tables([dict(self.ROW)], [dict(self.ROW)])
        assert verdict["matches"]
        assert "matches baseline" in format_comparison(verdict)

    def test_field_diff_and_missing_cells_surface(self):
        current = [dict(self.ROW, checksum="bad")]
        baseline = [dict(self.ROW), dict(self.ROW, cell_id="b")]
        verdict = compare_run_tables(current, baseline)
        assert not verdict["matches"]
        assert verdict["diffs"] == [{"cell_id": "a", "field": "checksum",
                                     "baseline": "f00", "current": "bad"}]
        assert verdict["missing"] == ["b"]
        report = format_comparison(verdict)
        assert "a: checksum" in report and "b: missing" in report


class TestExecution:
    def test_run_resume_and_bit_identity(self, tmp_path):
        """The headline acceptance criterion: a run killed mid-matrix,
        resumed, finishes the remaining cells and emits a run table
        byte-identical to an uninterrupted run of the same matrix."""
        matrix = _tiny_matrix()

        # Uninterrupted reference run.
        reference = matrix.run(tmp_path / "reference")
        assert reference["cells_executed"] == 4
        with open(reference["run_table_csv"], "rb") as handle:
            reference_table = handle.read()

        # Interrupted run: die after the second completed cell.
        class Killed(RuntimeError):
            pass

        executed = []

        def die_after_two(cell, outcome):
            if outcome == "run":
                executed.append(cell.cell_id)
                if len(executed) == 2:
                    raise Killed(cell.cell_id)

        with pytest.raises(Killed):
            matrix.run(tmp_path / "resumed", progress=die_after_two)

        # Resume completes only the remaining cells...
        summary = matrix.run(tmp_path / "resumed")
        assert summary["cells_skipped"] == 2
        assert summary["cells_executed"] == 2
        with open(summary["run_table_csv"], "rb") as handle:
            resumed_table = handle.read()
        # ...and the regenerated table is byte-identical to the reference.
        assert resumed_table == reference_table
        # A third pass is a pure no-op with the same bytes again.
        third = matrix.run(tmp_path / "resumed")
        assert third["cells_executed"] == 0
        with open(third["run_table_csv"], "rb") as handle:
            assert handle.read() == resumed_table

    def test_stale_manifest_is_not_reused(self, tmp_path):
        matrix = _tiny_matrix(modes=("inline",), batch_sizes=(2,))
        summary = matrix.run(tmp_path)
        assert summary["cells_executed"] == 1
        [cell] = matrix.cells()
        path = tmp_path / "manifests" / f"{cell.cell_id}.json"
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["cell"]["seed"] = manifest["cell"]["seed"] + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        assert matrix.run(tmp_path)["cells_executed"] == 1

    def test_output_dir_is_pinned_to_one_matrix(self, tmp_path):
        _tiny_matrix(modes=("inline",), batch_sizes=(2,)).run(tmp_path)
        other = _tiny_matrix(modes=("inline",), batch_sizes=(4,))
        with pytest.raises(ValueError):
            other.run(tmp_path)

    def test_checksums_are_mode_invariant(self, tmp_path):
        """The matrix doubles as a bit-identity harness: executor variants
        of the same workload must produce the same response checksum."""
        rows = _tiny_matrix().run(tmp_path)["rows"]
        by_id = {row["cell_id"]: row for row in rows}
        for batch in (2, 4):
            inline = by_id[f"steady-inline-w0-s1-b{batch}-float64-r0"]
            process = by_id[f"steady-process-w2-s1-b{batch}-float64-r0"]
            assert inline["checksum"] == process["checksum"]
            assert inline["seed"] == process["seed"]

    def test_manifest_carries_metrics_snapshot(self, tmp_path):
        matrix = _tiny_matrix(modes=("inline",), batch_sizes=(2,))
        matrix.run(tmp_path)
        [cell] = matrix.cells()
        with open(tmp_path / "manifests" / f"{cell.cell_id}.json",
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["status"] == "completed"
        assert manifest["metrics"]["service.requests.served"] == 2
        assert "pool.batches.executed" in manifest["metrics"]
        assert manifest["stats_keys"] == sorted(manifest["metrics"])

    def test_burst_scenario_coalesces(self, tmp_path):
        matrix = _tiny_matrix(modes=("inline",), scenarios=("burst",),
                              batch_sizes=(4,), requests_per_cell=4)
        rows = matrix.run(tmp_path)["rows"]
        assert rows[0]["requests"] == 4
        assert rows[0]["batches"] < 4        # burst traffic shares flushes

    def test_render_run_table_csv_columns(self):
        row = {column: 0 for column in RUN_TABLE_COLUMNS}
        text = render_run_table_csv([row])
        header, line, trailer = text.split("\n")
        assert header == ",".join(RUN_TABLE_COLUMNS)
        assert trailer == ""

    def test_runner_rejects_oversized_shard_request(self, tmp_path):
        runner = ServingCellRunner(tmp_path)
        cell = MatrixCell(scenario="steady", mode="inline", workers=0,
                          shards=ServingCellRunner.MAX_SHARDS + 1,
                          batch_size=2, dtype="float64", repetition=0,
                          base_seed=0)
        with pytest.raises(ValueError):
            runner.requests(cell)
