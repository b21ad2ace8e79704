"""Declarative, resumable experiment matrices over the serving stack.

The per-table runners in :mod:`repro.experiments.runner` reproduce the
paper's figures; this module is the *systems* counterpart: a declarative
:class:`ExperimentMatrix` sweeps serving configurations — executor mode,
worker count, shard fan-out, micro-batch size, model dtype, traffic scenario
— with pinned per-repetition seeds, boots the real
service/pool/metrics stack for every cell, and records the outcome durably.

Execution contract
------------------
* **One manifest per cell**, written atomically (tmp + rename) into
  ``<output_dir>/manifests/<cell_id>.json`` the moment the cell finishes.
  A manifest is the unit of resume: re-running a matrix skips every cell
  whose manifest is already present and compatible, so a killed run picks
  up exactly where it stopped.
* **The run table is always regenerated** from the full manifest set, in
  deterministic cell order — never appended to in execution order.  A
  resumed run therefore produces byte-identical ``run_table.csv`` /
  ``run_table.json`` to an uninterrupted one.
* **Checksums are mode-invariant.**  Each cell's request seeds derive from
  the *workload* coordinates only (scenario, shards, batch size, dtype,
  repetition — never mode or workers), and per-request RNG streams make
  responses independent of batching and parallelism, so the response
  checksum of a process cell must equal its inline twin.  This
  turns the matrix into an end-to-end bit-identity harness: any executor
  that changes the bits shows up as a checksum diff across a mode column.
* **Comparison is a first-class step**: :func:`compare_run_tables` diffs a
  run table against a committed baseline cell-by-cell and
  :func:`format_comparison` renders the verdict, so regressions surface as
  named cells, not eyeballed CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from ..core import PriSTI, PriSTIConfig
from ..data import metr_la_like
from ..serving import (
    ImputationRequest,
    ImputationService,
    ModelRegistry,
    WorkerPool,
)

__all__ = [
    "MatrixCell",
    "ExperimentMatrix",
    "ServingCellRunner",
    "compare_run_tables",
    "format_comparison",
    "RUN_TABLE_COLUMNS",
]

#: Traffic scenarios a cell can drive (see :meth:`ServingCellRunner.run`).
SCENARIOS = ("steady", "burst")

#: Deterministic run-table columns, in emission order.  Timings and metric
#: snapshots live in the manifests only — the table must be byte-identical
#: across independent runs of the same matrix, so it carries nothing that
#: depends on the wall clock.
RUN_TABLE_COLUMNS = (
    "cell_id", "scenario", "mode", "workers", "shards", "batch_size",
    "dtype", "repetition", "seed", "requests", "batches", "checksum",
    "status",
)


def _stable_seed(*parts):
    """A 32-bit seed derived from string/int coordinates (stable across
    processes and Python hash randomization)."""
    digest = hashlib.blake2b("|".join(str(part) for part in parts).encode(),
                             digest_size=4)
    return int.from_bytes(digest.digest(), "big")


def _atomic_write_text(path, text):
    """Write ``text`` to ``path`` via tmp + rename, so a killed run never
    leaves a half-written manifest behind to poison the resume scan."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _json_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class MatrixCell:
    """One fully pinned configuration of the matrix."""

    scenario: str
    mode: str              # "inline" | "process"
    workers: int
    shards: int
    batch_size: int
    dtype: str
    repetition: int
    base_seed: int

    @property
    def cell_id(self):
        """Filesystem-safe slug, unique within a matrix."""
        return (f"{self.scenario}-{self.mode}-w{self.workers}-s{self.shards}"
                f"-b{self.batch_size}-{self.dtype}-r{self.repetition}")

    @property
    def seed(self):
        """The cell's request-seed root.  Derived from the *workload*
        coordinates only — mode and worker count are excluded on purpose, so
        executor variants of the same workload draw identical noise and
        their response checksums are comparable bit-for-bit."""
        return _stable_seed(self.base_seed, self.scenario, self.shards,
                            self.batch_size, self.dtype, self.repetition)

    def as_dict(self):
        return {
            "scenario": self.scenario, "mode": self.mode,
            "workers": self.workers, "shards": self.shards,
            "batch_size": self.batch_size, "dtype": self.dtype,
            "repetition": self.repetition, "seed": self.seed,
        }


@dataclass
class ExperimentMatrix:
    """A declarative factor sweep over the serving stack.

    Parameters
    ----------
    modes, workers, shards, batch_sizes, dtypes, scenarios:
        The factor levels.  The cross product is taken in declaration order;
        ``workers`` is ignored (fixed at 0) for inline cells, which collapse
        to one cell per worker level via deduplication.
    repetitions:
        Seeded repeats of every cell (``r0``, ``r1``, …).
    base_seed:
        Root of every derived seed; two matrices with the same factors and
        base seed drive byte-identical workloads.
    requests_per_cell:
        Requests each cell submits (defaults to ``2 * batch_size`` with a
        floor of 4 when left ``None``).
    """

    modes: tuple = ("inline", "process")
    workers: tuple = (2,)
    shards: tuple = (1,)
    batch_sizes: tuple = (4,)
    dtypes: tuple = ("float64",)
    scenarios: tuple = ("steady",)
    repetitions: int = 1
    base_seed: int = 0
    requests_per_cell: int | None = None

    def __post_init__(self):
        for mode in self.modes:
            if mode not in ("inline", "process"):
                raise ValueError(f"unknown mode '{mode}'")
        for scenario in self.scenarios:
            if scenario not in SCENARIOS:
                raise ValueError(f"unknown scenario '{scenario}' "
                                 f"(choose from {', '.join(SCENARIOS)})")
        if self.repetitions < 1:
            raise ValueError("repetitions must be a positive integer")
        if not all(count >= 1 for count in self.workers):
            raise ValueError("worker counts must be positive integers")

    def cells(self):
        """Every cell, in deterministic enumeration order (the run-table
        order).  Inline cells ignore the worker factor, so one inline cell
        is emitted per remaining coordinate regardless of worker levels."""
        cells = []
        seen = set()
        for scenario in self.scenarios:
            for mode in self.modes:
                for workers in self.workers:
                    for shards in self.shards:
                        for batch_size in self.batch_sizes:
                            for dtype in self.dtypes:
                                for repetition in range(self.repetitions):
                                    cell = MatrixCell(
                                        scenario=scenario, mode=mode,
                                        workers=0 if mode == "inline" else workers,
                                        shards=shards, batch_size=batch_size,
                                        dtype=dtype, repetition=repetition,
                                        base_seed=self.base_seed,
                                    )
                                    if cell.cell_id in seen:
                                        continue
                                    seen.add(cell.cell_id)
                                    cells.append(cell)
        return cells

    def describe(self):
        """The matrix's own manifest payload (factors + derived size)."""
        return {
            "modes": list(self.modes),
            "workers": list(self.workers),
            "shards": list(self.shards),
            "batch_sizes": list(self.batch_sizes),
            "dtypes": list(self.dtypes),
            "scenarios": list(self.scenarios),
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "requests_per_cell": self.requests_per_cell,
            "num_cells": len(self.cells()),
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, output_dir, *, resume=True, runner=None, progress=None):
        """Execute every cell, resumably; returns a summary dict.

        ``resume=True`` (default) skips cells whose manifest already exists
        with matching pinned parameters; ``resume=False`` re-runs everything.
        ``runner`` defaults to a :class:`ServingCellRunner` preparing its
        model artifacts under ``output_dir``; ``progress`` is an optional
        ``callback(cell, outcome)`` hook (outcome is ``"run"`` / ``"skip"``).
        """
        output_dir = os.fspath(output_dir)
        manifest_dir = os.path.join(output_dir, "manifests")
        os.makedirs(manifest_dir, exist_ok=True)
        self._pin_matrix_manifest(output_dir)
        if runner is None:
            runner = ServingCellRunner(output_dir,
                                       requests_per_cell=self.requests_per_cell)
        cells = self.cells()
        executed = skipped = 0
        for cell in cells:
            path = os.path.join(manifest_dir, f"{cell.cell_id}.json")
            if resume and self._manifest_is_reusable(path, cell):
                skipped += 1
                if progress is not None:
                    progress(cell, "skip")
                continue
            manifest = runner.run(cell)
            manifest["cell"] = cell.as_dict()
            manifest["cell_id"] = cell.cell_id
            _atomic_write_text(path, _json_dumps(manifest))
            executed += 1
            if progress is not None:
                progress(cell, "run")
        rows = self._rows_from_manifests(manifest_dir, cells)
        table_csv = os.path.join(output_dir, "run_table.csv")
        table_json = os.path.join(output_dir, "run_table.json")
        _atomic_write_text(table_csv, render_run_table_csv(rows))
        _atomic_write_text(table_json, _json_dumps(rows))
        return {
            "cells_total": len(cells),
            "cells_executed": executed,
            "cells_skipped": skipped,
            "run_table_csv": table_csv,
            "run_table_json": table_json,
            "rows": rows,
        }

    def _pin_matrix_manifest(self, output_dir):
        """Write (or verify) the matrix's own manifest, so two different
        matrices can never silently interleave manifests in one directory."""
        path = os.path.join(output_dir, "matrix.json")
        description = self.describe()
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                existing = json.load(handle)
            if existing != description:
                raise ValueError(
                    f"output dir '{output_dir}' holds a different matrix; "
                    f"use a fresh directory or delete matrix.json"
                )
            return
        _atomic_write_text(path, _json_dumps(description))

    @staticmethod
    def _manifest_is_reusable(path, cell):
        """A manifest resumes its cell iff it parses, completed, and pins
        the same parameters (a factor edit invalidates stale manifests)."""
        if not os.path.exists(path):
            return False
        try:
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return False
        return (manifest.get("status") == "completed"
                and manifest.get("cell") == cell.as_dict())

    @staticmethod
    def _rows_from_manifests(manifest_dir, cells):
        """Run-table rows regenerated from the manifest set, in cell order.

        Regeneration (instead of append) is what makes a killed-and-resumed
        run's table byte-identical to an uninterrupted one: the table is a
        pure function of the manifests, not of execution history.
        """
        rows = []
        for cell in cells:
            path = os.path.join(manifest_dir, f"{cell.cell_id}.json")
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            row = dict(cell.as_dict())
            row["cell_id"] = cell.cell_id
            row["requests"] = manifest["requests"]
            row["batches"] = manifest["batches"]
            row["checksum"] = manifest["checksum"]
            row["status"] = manifest["status"]
            rows.append({column: row[column] for column in RUN_TABLE_COLUMNS})
        return rows


def render_run_table_csv(rows):
    """The run table as CSV text (deterministic column and row order)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=RUN_TABLE_COLUMNS,
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


class ServingCellRunner:
    """Boots the real serving stack for one cell and drives its scenario.

    Model artifacts are prepared lazily, once per dtype, under
    ``<output_dir>/models/<dtype>`` — a tiny PriSTI trained on a seeded
    synthetic traffic dataset and published under ``shard0..shardN`` names
    (enough for the matrix's widest shard fan-out).  Preparation is itself
    resumable: an artifact tree already on disk is reused as-is.
    """

    #: Tiny-but-real model/workload knobs (one training run per dtype).
    WINDOW_LENGTH = 10
    NUM_NODES = 5
    NUM_DIFFUSION_STEPS = 6
    NUM_SAMPLES = 2
    MAX_SHARDS = 4
    DATASET_SEED = 7

    def __init__(self, output_dir, *, requests_per_cell=None):
        self.output_dir = os.fspath(output_dir)
        self.requests_per_cell = requests_per_cell
        self._dataset = None

    # ------------------------------------------------------------------
    # Preparation (once per dtype)
    # ------------------------------------------------------------------
    def dataset(self):
        if self._dataset is None:
            self._dataset = metr_la_like(
                num_nodes=self.NUM_NODES, num_days=4, steps_per_day=24,
                missing_pattern="block", seed=self.DATASET_SEED,
            )
        return self._dataset

    def prepare(self, dtype):
        """Train-and-publish (or reuse) the dtype's artifact tree; returns
        its registry root."""
        root = os.path.join(self.output_dir, "models", dtype)
        registry = ModelRegistry(root, max_loaded=self.MAX_SHARDS + 1)
        missing = [shard for shard in range(self.MAX_SHARDS)
                   if not registry.versions(f"shard{shard}")]
        if missing:
            config = PriSTIConfig.fast(
                window_length=self.WINDOW_LENGTH, epochs=1,
                iterations_per_epoch=1,
                num_diffusion_steps=self.NUM_DIFFUSION_STEPS,
                num_samples=self.NUM_SAMPLES, batch_size=4, dtype=dtype,
            )
            model = PriSTI(config).fit(self.dataset())
            for shard in missing:
                registry.publish(model, f"shard{shard}")
        return root

    # ------------------------------------------------------------------
    # Per-cell execution
    # ------------------------------------------------------------------
    def requests(self, cell):
        """The cell's seeded request list (a pure function of its seed)."""
        if cell.shards > self.MAX_SHARDS:
            raise ValueError(f"cell wants {cell.shards} shards; runner "
                             f"publishes at most {self.MAX_SHARDS}")
        count = self.requests_per_cell
        if count is None:
            count = max(2 * cell.batch_size, 4)
        values, observed, evaluation = self.dataset().segment("test")
        mask = observed & ~evaluation
        last_start = values.shape[0] - self.WINDOW_LENGTH
        requests = []
        for index in range(count):
            start = index % (last_start + 1)
            requests.append(ImputationRequest(
                model=f"shard{index % cell.shards}",
                values=values[start:start + self.WINDOW_LENGTH],
                observed_mask=mask[start:start + self.WINDOW_LENGTH],
                num_samples=self.NUM_SAMPLES,
                seed=cell.seed + index,
            ))
        return requests

    def run(self, cell):
        """Boot the stack, drive the scenario, return the cell manifest."""
        root = self.prepare(cell.dtype)
        registry = ModelRegistry(root, max_loaded=self.MAX_SHARDS + 1)
        pool = None
        if cell.mode != "inline":
            pool = WorkerPool(num_workers=cell.workers,
                              name=f"matrix-{cell.cell_id}")
        service = ImputationService(
            registry,
            max_batch_requests=cell.batch_size,
            max_delay_seconds=0.002,
            seed=cell.seed,
            executor=pool,
        )
        started = time.perf_counter()
        try:
            responses = self._drive(service, cell)
        finally:
            service.stop()
            if pool is not None:
                pool.stop()
        elapsed = time.perf_counter() - started
        snapshot = service.metrics_snapshot()
        return {
            "status": "completed",
            "requests": len(responses),
            "batches": int(snapshot["service.batches"]),
            "checksum": self._checksum(responses),
            "elapsed_seconds": round(elapsed, 6),
            "metrics": snapshot,
            "stats_keys": sorted(snapshot),
        }

    def _drive(self, service, cell):
        requests = self.requests(cell)
        if cell.scenario == "steady":
            # One request at a time, resolved before the next is submitted —
            # the queue never coalesces; throughput is the serial floor.
            return [service.submit(request).result(timeout=120)
                    for request in requests]
        # "burst": everything lands at once, so micro-batching and the
        # executor actually see concurrent work.
        tickets = [service.submit(request) for request in requests]
        service.flush()
        return [ticket.result(timeout=120) for ticket in tickets]

    @staticmethod
    def _checksum(responses):
        """Order-independent digest over the response bits.

        Each response is hashed alone (median + samples bytes, under its
        request seed tag) and the per-response digests are XOR-folded, so
        the checksum is invariant to completion order — and, by the
        per-request RNG-stream contract, to batching and executor mode.
        """
        folded = 0
        for response in responses:
            digest = hashlib.blake2b(digest_size=16)
            for array in (response.median, response.samples):
                array = np.ascontiguousarray(array)
                digest.update(str((array.shape, str(array.dtype))).encode())
                digest.update(array.tobytes())
            folded ^= int.from_bytes(digest.digest(), "big")
        return f"{folded:032x}"


# ----------------------------------------------------------------------
# Cross-run comparison
# ----------------------------------------------------------------------
def compare_run_tables(current_rows, baseline_rows,
                       fields=("checksum", "requests", "batches", "status")):
    """Diff two run tables cell-by-cell; returns a structured verdict.

    ``baseline_rows`` is typically a committed ``run_table.json``.  The
    verdict lists per-cell field mismatches plus cells present on only one
    side; an empty ``diffs``/``missing``/``extra`` means the runs agree.
    """
    current = {row["cell_id"]: row for row in current_rows}
    baseline = {row["cell_id"]: row for row in baseline_rows}
    diffs = []
    for cell_id in sorted(set(current) & set(baseline)):
        for field_name in fields:
            if current[cell_id].get(field_name) != baseline[cell_id].get(field_name):
                diffs.append({
                    "cell_id": cell_id,
                    "field": field_name,
                    "baseline": baseline[cell_id].get(field_name),
                    "current": current[cell_id].get(field_name),
                })
    return {
        "matches": not diffs and set(current) == set(baseline),
        "diffs": diffs,
        "missing": sorted(set(baseline) - set(current)),
        "extra": sorted(set(current) - set(baseline)),
    }


def format_comparison(verdict):
    """Render a :func:`compare_run_tables` verdict as a short text report."""
    if verdict["matches"]:
        return "run table matches baseline (all cells identical)"
    lines = ["run table DIFFERS from baseline:"]
    for diff in verdict["diffs"]:
        lines.append(f"  {diff['cell_id']}: {diff['field']} "
                     f"{diff['baseline']!r} -> {diff['current']!r}")
    for cell_id in verdict["missing"]:
        lines.append(f"  {cell_id}: missing from current run")
    for cell_id in verdict["extra"]:
        lines.append(f"  {cell_id}: not in baseline")
    return "\n".join(lines)
