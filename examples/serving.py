"""Serving demo: publish a model, micro-batch concurrent requests, stream ticks.

Run with::

    python examples/serving.py

The script walks the full request-oriented path that production traffic would
take:

1. train a small PriSTI model and **publish** it into a ``name@version``
   :class:`~repro.serving.ModelRegistry` (a directory tree of
   :mod:`repro.io` artifacts),
2. stand up an :class:`~repro.serving.ImputationService` and submit a burst
   of concurrent single-window requests — the dynamic micro-batcher
   coalesces them into shared inference-engine chunks, and per-request RNG
   streams keep every response bit-identical to the request served alone,
3. scale the service horizontally with a :class:`~repro.serving.WorkerPool`:
   flushed micro-batches fan out across worker processes (spawned children
   that exchange tensors over shared memory) with shard-aware routing
   (one model's traffic sticks to one worker, keeping its model cache hot),
   admission control sheds load past ``max_queue_depth``, and the pooled
   responses stay bit-identical to serve-alone,
4. open a :class:`~repro.serving.StreamingImputer` session and feed it a
   live tick stream (NaN = sensor dropout), printing incremental
   imputations as they are emitted,
5. put the HTTP **gateway** in front of the service: boot a
   :class:`~repro.serving.GatewayServer` on an ephemeral localhost port,
   fire requests over real sockets (async submit + ticket fetch, NPZ
   round-trip), read ``/v1/stats``, then drain gracefully — queued tickets
   all resolve, new work gets ``503``,
6. turn on **deterministic chaos**: install a seeded
   :mod:`repro.serving.faults` plan that crashes pool workers mid-batch,
   and watch the resilience stack absorb it — retries replay the batch
   **bit-identically** (per-request RNG streams are snapshot-restored),
   tight deadlines degrade to an immediate statistical fallback tagged
   ``degraded=True``, and every issued ticket still resolves.
"""

import asyncio
import tempfile
import time

import numpy as np

from repro import (
    Deadline,
    FallbackRouter,
    Gateway,
    GatewayServer,
    ImputationRequest,
    ImputationService,
    ModelRegistry,
    PriSTI,
    PriSTIConfig,
    RetryPolicy,
    StreamingImputer,
    WorkerPool,
)
from repro.data import metr_la_like
from repro.serving import faults
from repro.serving.gateway import (
    NPZ_CONTENT_TYPE,
    GatewayClient,
    decode_response_body,
    encode_impute_request,
    submit_and_fetch,
)


def main():
    # 1. Train a small model and publish it to a registry.
    dataset = metr_la_like(num_nodes=10, num_days=8, steps_per_day=24,
                           missing_pattern="block", seed=0)
    config = PriSTIConfig.fast(
        window_length=16, epochs=6, iterations_per_epoch=8,
        num_diffusion_steps=16, num_samples=8, condition_dropout=0.5,
        learning_rate=2e-3,
    )
    model = PriSTI(config).fit(dataset, verbose=True)

    root = tempfile.mkdtemp(prefix="repro-registry-")
    registry = ModelRegistry(root, max_loaded=2)
    published = registry.publish(model, "traffic")
    print(f"\npublished {published.spec} -> {published.path}")

    # 2. Serve a burst of concurrent requests through the micro-batcher.
    values, observed, evaluation = dataset.segment("test")
    input_mask = observed & ~evaluation
    window = config.window_length
    requests = [
        ImputationRequest(
            model="traffic",                      # latest version
            values=values[start:start + window],
            observed_mask=input_mask[start:start + window],
            num_samples=4,
            seed=start,                           # the request's own RNG stream
        )
        for start in range(0, 16)
    ]

    service = ImputationService(registry, max_batch_requests=16,
                                max_delay_seconds=0.005)
    started = time.perf_counter()
    tickets = [service.submit(request) for request in requests]
    responses = [ticket.result() for ticket in tickets]
    batched_seconds = time.perf_counter() - started
    print(f"\nserved {len(responses)} concurrent requests in "
          f"{batched_seconds:.2f}s "
          f"(micro-batches of {responses[0].batch_requests})")

    # Micro-batching is invisible in the numbers: serve one request alone and
    # compare bit-for-bit.
    alone = service.serve(requests[0])
    assert np.array_equal(alone.samples, responses[0].samples)
    print("response[0] == same request served alone: bit-identical")
    print(f"service metrics: {_family(service.metrics_snapshot(), 'service.')}")

    # 3. Scale out: the same burst through a worker pool.  Shard-aware
    # routing pins each model's batches to a home worker (publish a second
    # name so there is traffic for two shards), work stealing rebalances
    # backed-up shards, and admission control rejects load past
    # max_queue_depth with ServiceOverloaded instead of queueing forever.
    registry.publish(model, "traffic-canary")
    pool = WorkerPool(num_workers=2, max_queue_depth=256)
    pooled_service = ImputationService(registry, max_batch_requests=8,
                                       executor=pool, max_queue_depth=256)
    mixed = [
        ImputationRequest(model=name, values=request.values,
                          observed_mask=request.observed_mask,
                          num_samples=request.num_samples, seed=request.seed)
        for request in requests
        for name in ("traffic", "traffic-canary")
    ]
    with pool:
        started = time.perf_counter()
        tickets = [pooled_service.submit(request) for request in mixed]
        pooled_service.flush()
        pooled = [ticket.result() for ticket in tickets]
        pooled_seconds = time.perf_counter() - started
    assert np.array_equal(pooled[0].samples, responses[0].samples)
    print(f"\nserved {len(pooled)} requests across 2 pool workers in "
          f"{pooled_seconds:.2f}s (bit-identical to the inline path)")
    print(f"pool metrics: {_family(pooled_service.metrics_snapshot(), 'pool.')}")

    # 4. Stream ticks through a live session (NaN marks sensor dropouts).
    stream = StreamingImputer(registry.backend("traffic"), num_nodes=dataset.num_nodes,
                              num_samples=4, seed=7)
    print("\nstreaming session (one tick per row):")
    for t in range(24):
        tick = np.where(input_mask[t], values[t], np.nan)
        update = stream.push(tick)
        missing = int((~update.observed_mask[-1]).sum())
        newest = np.array2string(update.new_median[-1][:4], precision=2)
        print(f"  tick {update.tick:2d}: imputed {missing} missing sensors, "
              f"median[:4] = {newest}")
    print(f"\nstream: {stream.emissions} emissions")

    # 5. The HTTP gateway: the same service behind real sockets.
    asyncio.run(gateway_demo(registry, requests))

    # 6. Deterministic chaos: inject worker crashes, watch retries absorb
    # them bit-identically; degrade tight-deadline requests to a fallback.
    chaos_demo(registry, requests, responses)

    # Tidy up the demo registry.
    import shutil
    shutil.rmtree(root, ignore_errors=True)


def _family(snapshot, prefix):
    """One name family (``service.``, ``pool.``, ...) of a metrics snapshot."""
    return {name: value for name, value in snapshot.items()
            if name.startswith(prefix)}


def chaos_demo(registry, requests, clean_responses):
    """Fault injection + the resilience stack, end to end."""
    pool = WorkerPool(num_workers=2)
    service = ImputationService(
        registry, executor=pool, max_batch_requests=8,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
        fallback=FallbackRouter(),
    )
    # A seeded, replayable plan: the first two worker executions crash.
    plan = {"seed": 7, "rules": [
        {"point": "pool.worker_crash", "hits": [1, 2]},
    ]}
    with pool:
        with faults.active(plan):
            tickets = [service.submit(request) for request in requests[:8]]
            service.flush()
            survived = [ticket.result(timeout=300) for ticket in tickets]
    assert all(
        np.array_equal(response.samples, clean.samples)
        for response, clean in zip(survived, clean_responses)
    )
    snapshot = service.metrics_snapshot()
    print(f"\nchaos: {snapshot['pool.batches.crashed']} injected worker "
          f"crashes, {snapshot['service.retries']} retries — all "
          f"{len(survived)} responses bit-identical to the clean run")

    # A deadline the micro-batcher cannot meet + a fallback: the request is
    # answered immediately by the statistical imputer, tagged degraded.
    rushed = ImputationRequest(
        model="traffic", values=requests[0].values,
        observed_mask=requests[0].observed_mask,
        num_samples=requests[0].num_samples, seed=requests[0].seed,
        deadline=Deadline.after(0.001, clock=service.clock),
    )
    degraded = service.submit(rushed).result(timeout=30)
    print(f"rushed request (1 ms deadline): degraded={degraded.degraded}, "
          f"served by the Kalman fallback in "
          f"{service.metrics_snapshot()['service.requests.degraded']} request(s)")


async def gateway_demo(registry, requests):
    """Boot the gateway, talk to it over localhost HTTP, drain gracefully."""
    service = ImputationService(registry, max_batch_requests=8,
                                max_delay_seconds=0.005)
    gateway = Gateway(service)
    async with GatewayServer(gateway) as server:   # ephemeral port
        print(f"\ngateway listening on http://{server.host}:{server.port}")
        client = GatewayClient(server.host, server.port)

        health = await client.request("GET", "/v1/healthz")
        print(f"GET /v1/healthz -> {health.status} {health.json()}")

        # Async submit: 202 + a ticket, fetched (blocking) at /v1/result.
        submitted = await client.request(
            "POST", "/v1/impute", body=encode_impute_request(requests[0]),
            headers={"Content-Type": "application/json"})
        ticket = submitted.json()["ticket"]
        print(f"POST /v1/impute -> {submitted.status} ticket={ticket}")
        fetched = await client.request("GET", f"/v1/result/{ticket}?timeout=60")
        payload = decode_response_body(fetched.content_type, fetched.body)
        print(f"GET /v1/result/{ticket} -> {fetched.status}, "
              f"median shape {payload['median'].shape}")

        # Same round trip over the binary NPZ codec.
        payload, status = await submit_and_fetch(client, requests[1],
                                                 codec=NPZ_CONTENT_TYPE)
        print(f"NPZ round-trip -> {status}, "
              f"{payload['samples'].shape[0]} samples "
              f"({payload['samples'].dtype})")

        stats = await client.request("GET", "/v1/stats")
        print(f"GET /v1/stats -> {_family(stats.json()['metrics'], 'gateway.')}")
        await client.close()

    # Graceful drain, shown on a slow service so tickets are genuinely
    # queued when it starts: drain resolves them all, results stay
    # fetchable, and new work is refused with 503.
    slow_service = ImputationService(registry, max_batch_requests=100,
                                     max_delay_seconds=30.0)
    slow_gateway = Gateway(slow_service)
    async with GatewayServer(slow_gateway) as server:
        client = GatewayClient(server.host, server.port)
        tickets = []
        for request in requests[2:6]:
            response = await client.request(
                "POST", "/v1/impute", body=encode_impute_request(request),
                headers={"Content-Type": "application/json"})
            tickets.append(response.json()["ticket"])
        print(f"\nqueued {len(tickets)} tickets, draining...")
        await slow_gateway.drain()
        statuses = [
            (await client.request("GET", f"/v1/result/{t}")).status
            for t in tickets
        ]
        refused = await client.request(
            "POST", "/v1/impute", body=encode_impute_request(requests[0]),
            headers={"Content-Type": "application/json"})
        print(f"drained: results -> {statuses}, new submit -> {refused.status}")
        await client.close()


if __name__ == "__main__":
    main()
