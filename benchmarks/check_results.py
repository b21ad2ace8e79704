"""Benchmark-regression gate: validate ``benchmarks/results/*.json``.

Every benchmark in this directory writes a machine-readable payload under
``benchmarks/results/``; the floors those payloads must clear (speedups,
bit-identity flags, numeric tolerances) are the *committed baselines* of the
reproduction — the perf wins of PRs 1–5 that must never silently regress.
This script is the blocking CI check behind them: it re-validates every
result file against the baseline contract below and exits non-zero on any
violation, so the smoke job **fails** on a regression instead of warning.

Rules
-----
* Schema: every baseline file must exist (the benchmark that writes it ran)
  and carry its required keys with finite numeric values.
* Bit-identity flags and numeric tolerances are enforced **unconditionally**
  — they hold on any hardware, smoke profile included.
* Wall-clock floors (``min:`` entries) are enforced only outside the smoke
  profile (``REPRO_PROFILE=smoke`` on shared CI runners makes timing ratios
  unreliable), mirroring the benchmarks' own assertions.  A floor whose
  payload declares an enforcement flag (``enforced_by``) is governed by
  that flag *instead* — when the payload says the floor was enforced
  (e.g. pool scaling on a ≥4-core host, a relative speedup that holds on
  any profile) the gate asserts it even under smoke, and when the payload
  says the hardware could not express it (single-core host) the gate
  skips it on any profile.
* Unknown result files fail the gate: a new benchmark must register its
  baseline here to merge, which is how the gate grows with the suite.

Usage::

    PYTHONPATH=src python benchmarks/check_results.py [--results-dir DIR]
"""

import argparse
import json
import math
import sys
from pathlib import Path

from repro.experiments import get_profile

RESULTS_DIR = Path(__file__).parent / "results"

#: The committed baseline contract, one entry per result file.
#:   required   — keys that must be present.
#:   flags      — boolean keys that must be truthy (bit-identity guarantees).
#:   max        — key -> ceiling, enforced unconditionally (tolerances).
#:   min        — key -> floor, wall-clock: skipped under the smoke profile.
#:   enforced_by — payload key governing the ``min`` floors instead of the
#:                 profile (hardware gates: on ⇒ asserted even under smoke).
BASELINES = {
    "batched_inference.json": {
        "required": ["serial_seconds", "batched_seconds", "speedup",
                     "max_abs_difference", "num_samples", "float32",
                     "compiled.ddim_steps",
                     "compiled.float64.ddpm.eager_seconds",
                     "compiled.float64.ddpm.compiled_seconds",
                     "compiled.float64.ddpm.eager_latency_ms.p50",
                     "compiled.float64.ddpm.eager_latency_ms.p95",
                     "compiled.float64.ddpm.eager_latency_ms.p99",
                     "compiled.float64.ddpm.compiled_latency_ms.p50",
                     "compiled.float64.ddpm.compiled_latency_ms.p95",
                     "compiled.float64.ddpm.compiled_latency_ms.p99",
                     "compiled.float64.ddim.compiled_latency_ms.p99",
                     "compiled.float32.ddpm.compiled_latency_ms.p99",
                     "compiled.float32.ddim.compiled_latency_ms.p99"],
        # Compiled replay must be a bit-exact re-expression of the eager
        # sampler, and compilation must succeed (no eager fallbacks) on
        # these compile-capable shapes — both hold on any hardware.
        "flags": ["compiled.float64.ddpm.bit_identical",
                  "compiled.float64.ddim.bit_identical",
                  "compiled.float32.ddpm.bit_identical",
                  "compiled.float32.ddim.bit_identical"],
        "max": {"max_abs_difference": 1e-10,
                "float32.max_abs_difference": 1e-3,
                "compiled.float64.ddpm.trace_cache.fallbacks": 0,
                "compiled.float64.ddim.trace_cache.fallbacks": 0,
                "compiled.float32.ddpm.trace_cache.fallbacks": 0,
                "compiled.float32.ddim.trace_cache.fallbacks": 0},
        # DDIM-8 floors are lower than DDPM: the per-chunk work (the prior
        # and its attention maps, which the network builds once per chunk)
        # amortises over 8 steps instead of 20.
        "min": {"speedup": 2.0, "float32.speedup": 2.0,
                "compiled.float64.ddpm.speedup_vs_eager": 1.5,
                "compiled.float32.ddpm.speedup_vs_eager": 1.5,
                "compiled.float64.ddim.speedup_vs_eager": 1.2,
                "compiled.float32.ddim.speedup_vs_eager": 1.2},
    },
    "training_throughput.json": {
        "required": ["seed_float64_seconds", "fused_float32_seconds",
                     "speedup_fused_float32_vs_seed",
                     "loss_rel_difference_f32_vs_f64"],
        "max": {"loss_rel_difference_f32_vs_f64": 1e-3},
        "min": {"speedup_fused_float32_vs_seed": 2.0},
    },
    "serving.json": {
        "required": ["serial_seconds", "batched_seconds", "throughput_speedup",
                     "num_requests", "batch_requests_observed",
                     "serial_latency_ms.p50", "serial_latency_ms.p95",
                     "serial_latency_ms.p99", "batched_latency_ms.p50",
                     "batched_latency_ms.p95", "batched_latency_ms.p99"],
        "flags": ["bit_identical_to_serve_alone"],
        "min": {"throughput_speedup": 2.0},
    },
    "pool_scaling.json": {
        "required": ["cpu_count", "num_requests", "modes", "speedup_at_4",
                     "min_scaling_floor",
                     "modes.process.workers.1.latency_ms.p50",
                     "modes.process.workers.4.latency_ms.p99",
                     "modes.process.workers.4.transport"
                     ".control_bytes_per_request",
                     "modes.process.workers.4.transport"
                     ".shm_payload_bytes_per_request",
                     "modes.process.workers.4.warm.models_warmed"],
        "flags": ["bit_identical_to_serve_alone"],
        # Control messages must stay small — the tensors ride the shm arena,
        # not the pickle channel.  The ceiling is per request over the timed
        # burst (descriptors + status replies only).
        "max": {"modes.process.workers.4.transport"
                ".control_bytes_per_request": 16384},
        "min": {"speedup_at_4": 2.0,
                "modes.process.speedup_at_4": 2.0},
        "enforced_by": "scaling_floor_enforced",
    },
    "chaos.json": {
        "required": ["seed", "tickets_issued", "tickets_resolved",
                     "hung_requests", "outcomes", "injector",
                     "injector.invocations", "injector.fired",
                     "service_counters.retries",
                     "pool.crashed_batches", "pool_mode",
                     "transport.segments_created",
                     "transport.segments_unlinked",
                     "transport.live_slots"],
        "flags": ["all_tickets_resolved", "zero_hung_requests",
                  "clean_run_bit_identical", "zero_leaked_shm_segments"],
        "max": {"hung_requests": 0, "transport.segments_active": 0,
                "transport.live_slots": 0},
    },
}


def _lookup(payload, dotted):
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def check_file(path, baseline, smoke):
    """Validate one result file; returns a list of violation strings."""
    problems = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable payload: {error}"]

    for key in baseline.get("required", []):
        if _lookup(payload, key) is None:
            problems.append(f"missing required key '{key}'")
    for key in baseline.get("flags", []):
        if _lookup(payload, key) is not True:
            problems.append(f"flag '{key}' is not true "
                            f"(got {_lookup(payload, key)!r})")
    for key, ceiling in baseline.get("max", {}).items():
        value = _lookup(payload, key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"'{key}' is not a finite number (got {value!r})")
        elif value > ceiling:
            problems.append(f"'{key}' = {value} exceeds the {ceiling} ceiling")

    floors_gate = baseline.get("enforced_by")
    if floors_gate is not None:
        # The payload knows whether its floors could physically be expressed
        # (e.g. enough cores for 4-way parallelism); when it says yes, the
        # floor holds on ANY profile — a relative speedup is profile-proof,
        # so smoke is not an escape hatch here.
        floors_on = _lookup(payload, floors_gate) is True
    else:
        floors_on = not smoke
    for key, floor in baseline.get("min", {}).items():
        value = _lookup(payload, key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"'{key}' is not a finite number (got {value!r})")
        elif floors_on and value < floor:
            problems.append(f"'{key}' = {value} below the {floor} floor")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", type=Path, default=RESULTS_DIR,
                        help="directory of benchmark result JSONs")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate baseline files that were not produced "
                             "(partial benchmark runs)")
    args = parser.parse_args(argv)

    smoke = get_profile().name == "smoke"
    mode = "smoke (wall-clock floors off)" if smoke else "full (all floors on)"
    print(f"benchmark-regression gate over {args.results_dir} [{mode}]")

    failures = 0
    for name, baseline in sorted(BASELINES.items()):
        path = args.results_dir / name
        if not path.is_file():
            if args.allow_missing:
                print(f"  SKIP {name}: not produced")
                continue
            print(f"  FAIL {name}: result file missing")
            failures += 1
            continue
        problems = check_file(path, baseline, smoke)
        if problems:
            failures += 1
            print(f"  FAIL {name}:")
            for problem in problems:
                print(f"       - {problem}")
        else:
            print(f"  OK   {name}")

    for path in sorted(args.results_dir.glob("*.json")):
        if path.name not in BASELINES:
            failures += 1
            print(f"  FAIL {path.name}: unknown result file — register a "
                  f"baseline entry in benchmarks/check_results.py")

    if failures:
        print(f"{failures} baseline violation(s)")
        return 1
    print("all benchmark baselines hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
