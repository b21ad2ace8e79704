"""Chaos gate: the serving stack under a pinned, seeded fault schedule.

``tests/test_resilience.py`` proves the resilience mechanisms one at a time;
this benchmark turns them all on at once and hammers a pool-backed
:class:`~repro.serving.ImputationService` (retries + circuit breaker +
degraded fallback) while a pinned :class:`~repro.serving.faults.FaultInjector`
plan crashes workers, fails artifact loads, and stalls queues.  The seed is
**committed** — every run replays the same per-point fault decisions — so
the gate is deterministic in what it injects, and what it enforces is the
serving stack's core resilience invariant rather than wall-clock numbers:

* **every issued ticket resolves** — a response, a ``degraded``-tagged
  fallback response, or a typed :class:`~repro.serving.errors.ServingError`;
* **zero hung requests** — no ticket is left pending once the flush loop
  drains (a hang shows up as ``hung_requests > 0`` and fails the gate);
* **clean-run bit-identity** — with the injector uninstalled, the same
  service (resilience stack still wired) serves bits identical to a bare
  service, so the machinery is free when healthy.
* **zero leaked shm segments** — every shared-memory segment the pool's
  transport arenas ever created must be unlinked by the time the pool
  stops, whatever the schedule crashed or faulted mid-batch.

The pool runs process workers over the zero-copy shm transport.  The
parent's plan hits the worker threads, the flush path and the transport
(``transport.stage``, ``transport.shm_detach``); a child-side plan
(``backend.load``, ``transport.shm_attach``, ``compile.trace``) reaches the
spawned workers via ``REPRO_FAULT_PLAN``, because inference runs there.

The payload carries the full error taxonomy (outcome counts by type), the
injector's per-point invocation/fire counts, and the flags above.  Results
land in ``benchmarks/results/chaos.json`` and are validated by
``benchmarks/check_results.py``.  Run directly
(``PYTHONPATH=src python benchmarks/bench_chaos.py``) or through pytest
(``pytest benchmarks/bench_chaos.py``).
"""

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    CircuitBreakerPolicy,
    FallbackRouter,
    ImputationRequest,
    ImputationService,
    ModelRegistry,
    PriSTI,
    PriSTIConfig,
    RetryPolicy,
    WorkerPool,
)
from repro.data import metr_la_like
from repro.experiments import get_profile
from repro.serving import TransportError, WorkerCrashed, faults
from repro.serving.errors import ServingError
from repro.serving.faults import InjectedFault

CHAOS_SEED = 20230411          # committed: every run replays this schedule
NUM_NODES = 6
WINDOW_LENGTH = 12
NUM_SAMPLES = 1
NUM_WORKERS = 2
DRAIN_TIMEOUT = 300.0

#: The pinned parent-side plan.  Rates are aggressive on purpose: roughly a
#: third of worker executions crash, stalls pepper both the workers and the
#: flush path, and staging and detach faults hit the shm transport itself,
#: so the gate proves slot reclamation under the exact failure modes the
#: arena was built to survive.
FAULT_PLAN = {
    "seed": CHAOS_SEED,
    "rules": [
        {"point": "pool.worker_crash", "probability": 0.3},
        {"point": "pool.worker_stall", "probability": 0.2,
         "action": "sleep", "seconds": 0.02},
        {"point": "service.queue_stall", "probability": 0.1,
         "action": "sleep", "seconds": 0.01},
        {"point": "transport.stage", "probability": 0.15},
        {"point": "transport.shm_detach", "probability": 0.1},
    ],
}

#: Child-side plan, delivered via ``REPRO_FAULT_PLAN`` to the spawned
#: workers (the parent's installed injector does not cross the process
#: boundary): artifact loads fail and arena attaches fault inside the
#: children themselves.
CHILD_FAULT_PLAN = {
    "seed": CHAOS_SEED,
    "rules": [
        {"point": "backend.load", "probability": 0.2},
        {"point": "transport.shm_attach", "probability": 0.15},
        # Trace-and-replay compilation failures: a fired fault negative-caches
        # the chunk signature and the eager mirror serves it — the gate's
        # every-ticket-resolves invariant proves fallback never strands work.
        # Explicit hits (the point is only consulted on trace-cache misses,
        # so a probability rule could sit out an entire run): the first two
        # compile attempts of each child fail deterministically.
        {"point": "compile.trace", "hits": [1, 2]},
    ],
}


def _smoke_mode():
    return get_profile().name == "smoke"


def _num_requests():
    return 12 if _smoke_mode() else 48


def _build_service(root):
    dataset = metr_la_like(num_nodes=NUM_NODES, num_days=4, steps_per_day=24,
                           missing_pattern="block", seed=3)
    steps = 8 if _smoke_mode() else 20
    config = PriSTIConfig.fast(
        window_length=WINDOW_LENGTH, epochs=1, iterations_per_epoch=1,
        num_diffusion_steps=steps, num_samples=NUM_SAMPLES,
    )
    model = PriSTI(config).fit(dataset)
    registry = ModelRegistry(root)
    registry.publish(model, "bench")
    pool = WorkerPool(num_workers=NUM_WORKERS)
    service = ImputationService(
        registry, executor=pool, max_batch_requests=4,
        retry_policy=RetryPolicy(max_attempts=2, base_delay_seconds=0.002,
                                 retry_on=(WorkerCrashed, TransportError,
                                           OSError, InjectedFault)),
        circuit_policy=CircuitBreakerPolicy(failure_threshold=4,
                                            reset_timeout_seconds=0.05),
        fallback=FallbackRouter(),
    )
    return service, pool, dataset, steps


def _requests(dataset, count):
    values, observed, evaluation = dataset.segment("test")
    input_mask = observed & ~evaluation
    last_start = values.shape[0] - WINDOW_LENGTH
    assert last_start >= 0, "test segment shorter than one window"
    return [
        ImputationRequest(
            model="bench",
            values=values[(index % (last_start + 1)):
                          (index % (last_start + 1)) + WINDOW_LENGTH],
            observed_mask=input_mask[(index % (last_start + 1)):
                                     (index % (last_start + 1)) + WINDOW_LENGTH],
            num_samples=NUM_SAMPLES,
            seed=3000 + index,
        )
        for index in range(count)
    ]


def _run_chaos(service, pool, requests, plan):
    """Issue everything under the pinned plan; account for every ticket."""
    outcomes = {"ok": 0, "degraded": 0}
    issued = 0
    hung = 0
    with faults.active(plan) as injector:
        tickets = []
        for request in requests:
            issued += 1
            try:
                tickets.append(service.submit(request))
            except ServingError as error:
                name = type(error).__name__
                outcomes[name] = outcomes.get(name, 0) + 1
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while service.pending() and time.monotonic() < deadline:
            try:
                service.flush()
            except ServingError:
                pass               # the batch's tickets carry the error
            time.sleep(0.005)
        for ticket in tickets:
            try:
                response = ticket.result(timeout=DRAIN_TIMEOUT)
                outcomes["degraded" if response.degraded else "ok"] += 1
            except ServingError as error:
                name = type(error).__name__
                outcomes[name] = outcomes.get(name, 0) + 1
            except TimeoutError:
                hung += 1
        injector_stats = injector.stats()
    resolved = sum(outcomes.values())
    snapshot = service.metrics_snapshot()
    return {
        "tickets_issued": issued,
        "tickets_resolved": resolved,
        "hung_requests": hung,
        "outcomes": outcomes,
        "injector": injector_stats,
        "pool": {
            "crashed_batches": snapshot["pool.batches.crashed"],
            "dead_workers": snapshot["pool.workers.dead"],
            "dispatched_batches": snapshot["pool.batches.dispatched"],
        },
        "service_counters": {
            "retries": snapshot["service.retries"],
            "degraded_served": snapshot["service.requests.degraded"],
            "deadline_rejections": snapshot["service.rejections.deadline"],
            "circuit_rejections": snapshot["service.rejections.circuit"],
        },
        "all_tickets_resolved": resolved == issued and hung == 0,
        "zero_hung_requests": hung == 0,
    }


def _clean_run_identity(service, registry_root, requests):
    """With no plan installed, the resilience-wired service must serve bits
    identical to a bare service over the same registry."""
    assert not faults.enabled()
    bare = ImputationService(ModelRegistry(registry_root))
    try:
        for request in requests:
            wired = service.serve(request)
            reference = bare.serve(request)
            if not (np.array_equal(wired.samples, reference.samples)
                    and np.array_equal(wired.median, reference.median)
                    and not wired.degraded):
                return False
    finally:
        bare.stop()
    return True


def run_benchmark():
    with tempfile.TemporaryDirectory() as root:
        service, pool, dataset, steps = _build_service(root)
        requests = _requests(dataset, _num_requests())
        try:
            # Spawned children install this at import; the parent's
            # injector (installed below) never crosses the boundary.
            os.environ[faults.ENV_PLAN] = json.dumps(CHILD_FAULT_PLAN)
            with pool:
                started = time.perf_counter()
                payload = _run_chaos(service, pool, requests, FAULT_PLAN)
                payload["chaos_seconds"] = round(
                    time.perf_counter() - started, 4)
                payload["clean_run_bit_identical"] = _clean_run_identity(
                    service, root, requests[:3])
            # Read AFTER stop: only then have all arenas been destroyed, so
            # the zero-leak flag certifies the pool's whole lifetime.
            transport = pool.metrics_snapshot()
        finally:
            os.environ.pop(faults.ENV_PLAN, None)
            service.stop()
    payload.update({
        "seed": CHAOS_SEED,
        "num_nodes": NUM_NODES,
        "window_length": WINDOW_LENGTH,
        "num_diffusion_steps": steps,
        "num_workers": NUM_WORKERS,
        "pool_mode": "process",
        "transport": {
            "segments_created": transport["transport.segments.created"],
            "segments_unlinked": transport["transport.segments.unlinked"],
            "segments_active": transport["transport.segments.active"],
            "live_slots": transport["transport.slots.live"],
            "batches_staged": transport["transport.batches.staged"],
            "rebuilds": transport["transport.rebuilds"],
        },
        "zero_leaked_shm_segments": (
            transport["transport.segments.active"] == 0
            and transport["transport.slots.live"] == 0
            and transport["transport.segments.created"]
            == transport["transport.segments.unlinked"]
        ),
    })
    return payload


def test_bench_chaos(save_json):
    payload = run_benchmark()
    save_json("chaos", payload)
    # The invariant is unconditional — no wall-clock floors here.
    assert payload["all_tickets_resolved"]
    assert payload["zero_hung_requests"]
    assert payload["clean_run_bit_identical"]
    assert payload["zero_leaked_shm_segments"]
    assert payload["injector"]["fired"], "the pinned plan injected nothing"


if __name__ == "__main__":
    payload = run_benchmark()
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "chaos.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not payload["all_tickets_resolved"]:
        raise SystemExit("a ticket was issued but never resolved")
    if not payload["zero_hung_requests"]:
        raise SystemExit(f"{payload['hung_requests']} request(s) hung")
    if not payload["clean_run_bit_identical"]:
        raise SystemExit("resilience stack changed bits with faults disabled")
    if not payload["zero_leaked_shm_segments"]:
        raise SystemExit("the pool leaked shared-memory transport segments")
