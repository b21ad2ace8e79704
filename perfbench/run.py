"""The repository benchmark: one serving workload, end to end, from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload small-poisson --seed 1 --seconds 10 --trace 0

Each run starts the shipped default stack in a server process
(``perfbench/server.py``: ``GatewayServer`` -> ``ImputationService`` -> an
optional process ``WorkerPool``; ``REPRO_COMPILE`` unset, so compilation is
on), drives it from this single process over at most two keep-alive
connections on one thread, checks every response bit-for-bit against a
reference computed after the timed phase, and prints one JSON object as the
last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``set-up`` runs several times
(server boots, each measured from process start to the end of the warm-up
prefix) and ``setup_s`` is their median; the last boot serves the timed
phase.  ``--trace 1`` reports the per-layer metrics instead: one untraced
boot, then one traced boot whose spans (see ``tracing.py``) and counter
deltas over the timed phase give the layer numbers, and the difference
between the two timed phases is the tracing overhead.

A full record of the run — every metric, sample counts, the chosen tail
percentile, load-generator counts and the provenance block — is written to
``.perfbench_work/results/``.
"""

import argparse
import asyncio
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import common
import tracing
from common import (
    MODEL_NAME,
    NUM_NODES,
    ROOT,
    TAIL_SAMPLES,
    WORK_ROOT,
    WORKLOADS,
    percentile,
    tail,
)
from procstat import ProcessTree

SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")
#: Server boots per untraced run; ``setup_s`` is their median.
SETUP_BOOTS = 3
BOOT_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0
#: How often the server's process tree is sampled during the timed phase.
SAMPLE_INTERVAL_S = 0.25
#: Fixed warm-up prefixes (besides ``Workload.warmup_requests``).
STREAM_WARMUP_TICKS = 5
BULK_WARMUP_MAX_ROUNDS = 10
HOST = "127.0.0.1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "slo_attainment": "share",
    "success_rate": "share",
    "cpu_ms_per_request": "ms",
    "peak_rss_mb": "MB",
    "mae": "value",
}


# ---------------------------------------------------------------------------
# Traffic: everything a run sends, generated before any server starts
# ---------------------------------------------------------------------------
class Traffic:
    """The seeded inputs of one workload run, pre-encoded for the wire."""

    def __init__(self, workload, seed):
        from repro.serving.gateway import (
            JSON_CONTENT_TYPE,
            NPZ_CONTENT_TYPE,
            encode_array_payload,
            encode_impute_request,
        )

        self.workload = workload
        self.seed = seed
        self.dataset = common.build_dataset()
        self.content_type = (NPZ_CONTENT_TYPE if workload.codec == "npz"
                             else JSON_CONTENT_TYPE)
        if workload.loop == "stream":
            self.segments = common.stream_segments(workload, self.dataset, seed)
            self.tick_bodies = [
                [encode_array_payload({"values": values, "mask": mask}, {},
                                      JSON_CONTENT_TYPE)
                 for values, mask in common.segment_ticks(workload, self.dataset,
                                                          start)]
                for start, _ in self.segments]
            # Which segment each (round, session) streams: seeded, fixed.
            self.segment_order = common.request_sequence(
                workload.distinct_segments, seed, 4096)
            return
        self.pool = common.request_pool(workload, self.dataset, seed)
        self.bodies = [
            encode_impute_request(self.request(index), self.content_type)
            for index in range(len(self.pool))]
        self.sequence = common.request_sequence(workload.distinct_requests, seed,
                                                65536)

    def request(self, index):
        start, request_seed = self.pool[index]
        return common.make_request(self.workload, self.dataset, start, request_seed)

    def open_body(self, segment):
        from repro.serving.gateway import JSON_CONTENT_TYPE, encode_array_payload

        return encode_array_payload(
            {}, {"model": MODEL_NAME, "num_nodes": NUM_NODES,
                 "num_samples": self.workload.num_samples,
                 "seed": self.segments[segment][1]}, JSON_CONTENT_TYPE)


# ---------------------------------------------------------------------------
# Wire helpers
# ---------------------------------------------------------------------------
@dataclass
class Record:
    """One request of the timed phase."""

    key: object          # request-pool index, or (segment, tick) for streams
    due: float           # when it should have been sent (latency origin)
    sent: float
    done: float = 0.0
    status: int = 0      # 0 = no response (connection error or timeout)
    body: bytes = b""
    correct: bool = False  # matched its reference (set by check_phase)


async def _request(client, method, path, body=b"", headers=None):
    """One request with a timeout; ``None`` when no response arrived."""
    try:
        return await asyncio.wait_for(
            client.request(method, path, body=body, headers=headers),
            REQUEST_TIMEOUT_S)
    except (OSError, EOFError, ValueError, asyncio.TimeoutError):
        await client.close()
        return None


def _finish(record, response):
    record.done = time.monotonic()
    if response is not None:
        record.status = response.status
        record.body = response.body
    return record


def _headers(traffic):
    return {"Content-Type": traffic.content_type, "Accept": traffic.content_type}


async def _stats(client):
    response = await _request(client, "GET", "/v1/stats")
    if response is None or response.status != 200:
        raise RuntimeError("GET /v1/stats failed")
    return response.json()["metrics"]


# ---------------------------------------------------------------------------
# Load generators (one per workload loop)
# ---------------------------------------------------------------------------
async def open_loop(clients, traffic, seconds, t0, extra):
    """Poisson arrivals on a fixed schedule: one connection submits, the
    other fetches results in FIFO order with blocking GETs."""
    submitter, fetcher = clients
    schedule = common.poisson_schedule(traffic.workload, traffic.seed, seconds)
    queue = asyncio.Queue()
    records = []

    async def submit():
        for index, offset in enumerate(schedule):
            due = t0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            key = traffic.sequence[index]
            record = Record(key=key, due=due, sent=time.monotonic())
            records.append(record)
            response = await _request(submitter, "POST", "/v1/impute",
                                      traffic.bodies[key], _headers(traffic))
            if response is not None and response.status == 202:
                queue.put_nowait((record, response.json()["ticket"]))
            else:
                _finish(record, response)
        queue.put_nowait(None)

    async def fetch():
        while True:
            item = await queue.get()
            if item is None:
                return
            record, ticket = item
            response = await _request(
                fetcher, "GET", f"/v1/result/{ticket}?timeout={REQUEST_TIMEOUT_S:g}",
                headers={"Accept": traffic.content_type})
            _finish(record, response)

    await asyncio.gather(submit(), fetch())
    extra["lateness_ms"] = [(record.sent - record.due) * 1000.0 for record in records]
    return records


async def closed_loop(clients, traffic, seconds, t0, extra):
    """Each client sends its next synchronous request when the last returns."""
    deadline = t0 + seconds
    records = []
    sequence = iter(traffic.sequence)

    async def client_loop(client):
        while time.monotonic() < deadline:
            key = next(sequence)
            now = time.monotonic()
            record = Record(key=key, due=now, sent=now)
            records.append(record)
            _finish(record, await _request(client, "POST", "/v1/impute?sync=1",
                                           traffic.bodies[key], _headers(traffic)))

    await asyncio.gather(*(client_loop(client) for client in clients))
    return records


async def _stream_session(client, traffic, segment, ticks, records):
    """Open a session on the latest version, tick back-to-back, close."""
    response = await _request(client, "POST", "/v1/stream",
                              traffic.open_body(segment),
                              {"Content-Type": "application/json"})
    session = (response.json()["session"]
               if response is not None and response.status == 201 else None)
    for tick, body in enumerate(traffic.tick_bodies[segment][:ticks]):
        now = time.monotonic()
        record = Record(key=(segment, tick), due=now, sent=now)
        records.append(record)
        if session is None:
            _finish(record, response)
            continue
        _finish(record, await _request(client, "POST",
                                       f"/v1/stream/{session}/tick", body,
                                       {"Content-Type": "application/json"}))
    if session is not None:
        await _request(client, "DELETE", f"/v1/stream/{session}")


async def stream_rollout(clients, traffic, seconds, t0, extra):
    """Rounds of: publish a new version of the same weights, reopen every
    session on it, tick ``ticks_per_version`` times per session."""
    deadline = t0 + seconds
    records = []
    publisher = extra.pop("publisher")
    extra["publish_ms"] = []
    round_index = 0
    while round_index == 0 or time.monotonic() < deadline:
        started = time.monotonic()
        publisher()
        extra["publish_ms"].append((time.monotonic() - started) * 1000.0)
        order = traffic.segment_order[round_index * len(clients):]
        await asyncio.gather(*(
            _stream_session(client, traffic, order[index],
                            traffic.workload.ticks_per_version, records)
            for index, client in enumerate(clients)))
        round_index += 1
    extra["versions_published"] = round_index
    return records


LOOPS = {"open": open_loop, "closed": closed_loop, "stream": stream_rollout}


# ---------------------------------------------------------------------------
# Server boots
# ---------------------------------------------------------------------------
class Boot:
    """One server process, from spawn to a checked exit."""

    def __init__(self, workload, directory, trace_dir=None):
        self.workload = workload
        self.directory = directory
        self.trace_dir = trace_dir
        self.process = None
        self.port = None

    def start(self):
        os.makedirs(self.directory, exist_ok=True)
        env = dict(os.environ)
        env.pop(tracing.TRACE_ENV, None)
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            env[tracing.TRACE_ENV] = self.trace_dir
        self.log_path = os.path.join(self.directory, "server.log")
        self.started = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, SERVER, self.workload.name, self.directory],
                stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT)
        line = b""
        remaining = BOOT_TIMEOUT_S
        while not line.endswith(b"\n") and remaining > 0:
            readable, _, _ = select.select([self.process.stdout], [], [], remaining)
            if not readable:
                break
            chunk = os.read(self.process.stdout.fileno(), 4096)
            if not chunk:
                break
            line += chunk
            remaining = BOOT_TIMEOUT_S - (time.monotonic() - self.started)
        if not line.endswith(b"\n"):
            self.stop()
            raise RuntimeError(f"server did not start; log:\n{self._log_tail()}")
        info = json.loads(line)
        self.port = info["port"]
        self.fit_s = info["fit_s"]
        return self

    def registry_root(self):
        return os.path.join(self.directory, "registry")

    def _log_tail(self):
        try:
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                return log.read()[-4000:]
        except OSError:
            return ""

    def stop(self):
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with {self.process.returncode}; "
                               f"log:\n{self._log_tail()}")


async def _wait_ready(client):
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        response = await _request(client, "GET", "/v1/healthz/ready")
        if response is not None and response.status == 200:
            return
        await asyncio.sleep(0.01)
    raise RuntimeError("server never became ready")


async def _warm_up(clients, traffic):
    """The fixed warm-up prefix of each workload."""
    workload = traffic.workload
    if workload.loop == "open":
        from repro.serving.gateway import submit_and_fetch

        for index in range(workload.warmup_requests):
            _, status = await submit_and_fetch(clients[0], traffic.request(index),
                                               codec=traffic.content_type)
            if status != 200:
                raise RuntimeError(f"warm-up request failed with {status}")
    elif workload.loop == "closed":
        # Until every pool worker has compiled the one bulk signature.
        for round_index in range(BULK_WARMUP_MAX_ROUNDS):
            responses = await asyncio.gather(*(
                _request(client, "POST", "/v1/impute?sync=1",
                         traffic.bodies[(round_index * len(clients) + index)
                                        % len(traffic.bodies)],
                         _headers(traffic))
                for index, client in enumerate(clients)))
            if any(response is None or response.status != 200
                   for response in responses):
                raise RuntimeError("warm-up request failed")
            if (round_index + 1 >= workload.warmup_requests
                    and (await _stats(clients[0]))["compiled.cache.misses"]
                    >= workload.pool_workers):
                return
        raise RuntimeError("pool workers did not all compile during warm-up")
    else:
        records = []
        await asyncio.gather(*(
            _stream_session(client, traffic, index, STREAM_WARMUP_TICKS, records)
            for index, client in enumerate(clients)))
        if any(record.status != 200 for record in records):
            raise RuntimeError("warm-up stream tick failed")


@dataclass
class Phase:
    """What one timed phase measured."""

    t0: float
    t1: float
    records: list
    cpu_s: float
    peak_rss_mb: float
    counters_before: dict
    counters_after: dict
    extra: dict = field(default_factory=dict)

    @property
    def ok(self):
        return [record for record in self.records if record.status == 200]


async def _timed_phase(clients, boot, traffic, seconds, extra):
    tree = ProcessTree(boot.process.pid)
    before = await _stats(clients[0])
    cpu_before = tree.sample().cpu_seconds
    stop = asyncio.Event()

    async def sampler():
        while not stop.is_set():
            tree.sample()
            try:
                await asyncio.wait_for(stop.wait(), SAMPLE_INTERVAL_S)
            except asyncio.TimeoutError:
                pass

    sampling = asyncio.ensure_future(sampler())
    t0 = time.monotonic() + 0.01
    records = await LOOPS[traffic.workload.loop](clients, traffic, seconds, t0,
                                                 extra)
    t1 = max([record.done for record in records] + [time.monotonic()])
    stop.set()
    await sampling
    tree.sample()
    after = await _stats(clients[0])
    return Phase(t0=t0, t1=t1, records=records,
                 cpu_s=tree.cpu_seconds - cpu_before,
                 peak_rss_mb=tree.peak_rss_mb, counters_before=before,
                 counters_after=after, extra=extra)


async def _drive(boot, traffic, seconds):
    """Readiness probe, warm-up prefix, then (optionally) the timed phase."""
    from repro.serving.gateway import GatewayClient

    clients = [GatewayClient(HOST, boot.port) for _ in range(2)]
    try:
        await _wait_ready(clients[0])
        ready = time.monotonic()
        await _warm_up(clients, traffic)
        warmed = time.monotonic()
        setup = {"setup_s": warmed - boot.started, "boot_s": ready - boot.started,
                 "fit_s": boot.fit_s, "warmup_s": warmed - ready}
        if seconds is None:
            return setup, None
        extra = {}
        if traffic.workload.loop == "stream":
            extra["publisher"] = _publisher(boot.registry_root())
        return setup, await _timed_phase(clients, boot, traffic, seconds, extra)
    finally:
        for client in clients:
            await client.close()


def _publisher(registry_root):
    """Re-publish version 1's weights as the next version (client side)."""
    from repro import ModelRegistry
    from repro.io import load_model

    registry = ModelRegistry(registry_root)
    model = load_model(registry.resolve(f"{MODEL_NAME}@1").path)
    return lambda: registry.publish(model, MODEL_NAME)


def run_boot(workload, traffic, directory, seconds=None, trace_dir=None):
    boot = Boot(workload, directory, trace_dir).start()
    try:
        setup, phase = asyncio.run(_drive(boot, traffic, seconds))
    finally:
        boot.stop()
    return boot, setup, phase


# ---------------------------------------------------------------------------
# Output checks (references computed after the timed phase)
# ---------------------------------------------------------------------------
def check_phase(traffic, phase, registry_root):
    """Compare every answered request with its reference; returns
    ``(mismatches, mae)`` and marks each record's ``correct`` flag."""
    import numpy as np

    from repro import ImputationService, ModelRegistry, StreamingImputer
    from repro.serving.gateway import decode_array_payload

    registry = ModelRegistry(registry_root)
    workload = traffic.workload
    values, _, eval_mask = common.test_segment(traffic.dataset)
    references = {}
    if workload.loop == "stream":
        backend = registry.backend(registry.resolve(f"{MODEL_NAME}@1"))
        for segment in sorted({record.key[0] for record in phase.ok}):
            imputer = StreamingImputer(backend, NUM_NODES,
                                       num_samples=workload.num_samples,
                                       seed=traffic.segments[segment][1])
            for tick, (tick_values, mask) in enumerate(common.segment_ticks(
                    workload, traffic.dataset, traffic.segments[segment][0])):
                references[(segment, tick)] = imputer.push(tick_values, mask)
    else:
        service = ImputationService(registry)
        for index in sorted({record.key for record in phase.ok}):
            references[index] = service.serve(traffic.request(index))

    mismatches = 0
    abs_error, entries = 0.0, 0
    for record in phase.records:
        if record.status != 200:
            continue
        decoded = decode_array_payload(traffic.content_type, record.body)
        reference = references[record.key]
        same = all(
            np.array_equal(decoded[name], getattr(reference, name))
            and decoded[name].dtype == getattr(reference, name).dtype
            for name in ("median", "samples"))
        if not same:
            mismatches += 1
            continue
        record.correct = True
        if workload.loop == "stream":
            first = traffic.segments[record.key[0]][0] + int(decoded["start"])
        else:
            first = traffic.pool[record.key][0]
        rows = slice(first, first + decoded["median"].shape[0])
        held_out = eval_mask[rows]
        abs_error += float(np.abs(decoded["median"] - values[rows])[held_out].sum())
        entries += int(held_out.sum())
    return mismatches, abs_error / entries if entries else 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def _latencies_ms(phase):
    return [(record.done - record.due) * 1000.0 for record in phase.ok]


def end_to_end(workload, phase, mae, setup_values):
    latencies = _latencies_ms(phase)
    attempted = len(phase.records)
    on_time = sum(1 for record in phase.records
                  if record.correct
                  and (record.done - record.due) * 1000.0 <= workload.slo_ms)
    return {
        "setup_s": statistics.median(setup_values),
        "throughput_rps": len(phase.ok) / (phase.t1 - phase.t0),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": tail(latencies)[0],
        "slo_attainment": on_time / attempted,
        "success_rate": len(phase.ok) / attempted,
        "cpu_ms_per_request": phase.cpu_s * 1000.0 / attempted,
        "peak_rss_mb": phase.peak_rss_mb,
        "mae": mae,
    }


def _delta(phase, name):
    return phase.counters_after.get(name, 0) - phase.counters_before.get(name, 0)


def per_layer(workload, phase, spans, setup, untraced_e2e, traced_e2e):
    """Layer metrics over the traced timed phase (see README.md)."""
    inside = [(pid, span) for pid, span in spans
              if phase.t0 <= span[1] <= phase.t1]
    selfs = tracing.self_times(spans)
    by_name = {}
    for pid, span in inside:
        by_name.setdefault(span[0], []).append((pid, span))
    requests = max(len(phase.records), 1)

    def durations(name, where=None):
        return [(span[2] - span[1]) * 1000.0 for _, span in by_name.get(name, ())
                if where is None or where(span[6] or {})]

    def attr(name, key):
        return [(span[6] or {}).get(key) for _, span in by_name.get(name, ())]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    queued = [value * 1000.0 for value in attr("gateway.encode", "queued")
              if value is not None]
    emitted = [span for _, span in by_name.get("streaming.push", ())
               if span[6] and span[6]["emitted"]]
    turnaround = [(span[2] - span[6]["dispatched"]) * 1000.0
                  for _, span in by_name.get("pool.run", ())
                  if span[6] and span[6]["dispatched"] is not None]
    replay_wait = []
    replays = {(pid, span[4]): span[2] - span[1]
               for pid, span in inside if span[0] == "compiled.replay"}
    for pid, span in by_name.get("compiled.sampler_run", ()):
        replay_wait.append((span[2] - span[1] - replays.get((pid, span[3]), 0.0))
                           * 1000.0)
    hits, misses = _delta(phase, "compiled.cache.hits"), _delta(phase,
                                                                "compiled.cache.misses")
    # Stream rollouts publish from the load generator during the phase; the
    # other workloads publish once, during the server's set-up.
    publish_ms = phase.extra.get("publish_ms") or [
        (span[2] - span[1]) * 1000.0 for _, span in spans
        if span[0] == "registry.publish"]
    metrics = {
        "gateway.decode_ms.p50": percentile(durations("gateway.decode"), 50),
        "gateway.encode_ms.p50": percentile(durations("gateway.encode"), 50),
        "gateway.response_bytes.mean": mean(attr("gateway.encode", "bytes")),
        "gateway.non2xx": sum(1 for status in attr("gateway.handle", "status")
                              if not 200 <= status < 300),
        "service.submit_ms.p50": percentile(durations("service.submit"), 50),
        "service.queue_wait_ms.p50": percentile(queued, 50),
        "service.queue_wait_ms.tail": tail(queued)[0],
        "service.batch_ms.p50": percentile(durations("service.batch"), 50),
        "service.batch_requests.mean": mean(attr("service.batch", "requests")),
        "service.batches": _delta(phase, "service.batches"),
        "registry.publish_ms": percentile(publish_ms, 50),
        "registry.loads": len(by_name.get("registry.load", ())),
        "registry.load_ms.total": sum(durations("registry.load")),
        "streaming.push_ms.p50": percentile(durations("streaming.push"), 50),
        "streaming.condition_cached_share": (
            sum(1 for span in emitted if span[6]["cached"]) / len(emitted)
            if emitted else 0.0),
        "pool.dispatch_ms.p50": percentile(durations("pool.dispatch"), 50),
        "pool.turnaround_ms.p50": percentile(turnaround, 50),
        "pool.turnaround_ms.tail": tail(turnaround)[0],
        "pool.execute_ms.p50": percentile(durations("pool.execute"), 50),
        "pool.worker_busy_share": (
            sum(durations("pool.run")) / 1000.0
            / (max(workload.pool_workers, 1) * (phase.t1 - phase.t0))),
        "pool.steals": _delta(phase, "pool.steals"),
        "pool.splits": _delta(phase, "pool.splits"),
        "pool.backlog.max": phase.counters_after.get("pool.backlog.max", 0),
        "transport.stage_ms.p50": percentile(durations("transport.stage"), 50),
        "transport.shm_bytes_per_request": (
            _delta(phase, "transport.bytes_staged") / requests),
        "transport.control_bytes_per_request": (
            (_delta(phase, "transport.control.bytes_sent")
             + _delta(phase, "transport.control.bytes_received")) / requests),
        "transport.segments_created": _delta(phase, "transport.segments.created"),
        "backend.plan_ms.p50": percentile(durations("backend.plan"), 50),
        "backend.assemble_ms.p50": percentile(durations("backend.assemble"), 50),
        "engine.sample_plans_ms.p50": percentile(durations("engine.sample_plans"), 50),
        "engine.items_per_call.mean": mean(attr("engine.sample_plans", "items")),
        "compiled.hits": hits,
        "compiled.misses": misses,
        "compiled.fallbacks": _delta(phase, "compiled.fallbacks"),
        "compiled.evictions": _delta(phase, "compiled.cache.evictions"),
        "compiled.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "compiled.miss_ms.p50": percentile(
            durations("compiled.chunk", lambda a: a.get("outcome") == "miss"), 50),
        "compiled.miss_ms.total": sum(
            durations("compiled.chunk", lambda a: a.get("outcome") == "miss")),
        "compiled.compile_graph_ms.p50": percentile(
            durations("compiled.compile_graph"), 50),
        "compiled.replay_ms.p50": percentile(durations("compiled.replay"), 50),
        "compiled.replay_wait_ms.p50": percentile(replay_wait, 50),
        "core.forward_calls": len(by_name.get("core.forward", ())),
        "core.forward_ms.p50": percentile(durations("core.forward"), 50),
        "setup.fit_s": setup["fit_s"],
        "setup.boot_s": setup["boot_s"],
        "setup.warmup_s": setup["warmup_s"],
        "loadgen.lateness_ms.tail": tail(phase.extra.get("lateness_ms", []))[0],
        "trace.overhead_p50_ms": (traced_e2e["latency_p50_ms"]
                                  - untraced_e2e["latency_p50_ms"]),
        "trace.overhead_cpu_ms_per_request": (traced_e2e["cpu_ms_per_request"]
                                              - untraced_e2e["cpu_ms_per_request"]),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms_per_request"] = sum(
            selfs[(pid, span[3])] for pid, span in inside
            if span[0].split(".")[0] == layer) * 1000.0 / requests
    return metrics


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if "bytes" in name:
        return "bytes"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "hit_rate")):
        return "share"
    return "count"


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------
def provenance(workload, seed, seconds, trace):
    import numpy as np

    git = {"sha": None, "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=10)
            git = {"sha": sha.stdout.strip() or None,
                   "dirty": bool(status.stdout.strip())}
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "git": git,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "repro_compile": os.environ.get("REPRO_COMPILE"),
        "workload": workload.name,
        "workload_seed": seed,
        "run_seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------
def run(workload, seed, seconds, trace, run_dir):
    traffic = Traffic(workload, seed)
    report = {"workload": dict(workload.__dict__),
              "provenance": provenance(workload, seed, seconds, trace)}
    if not trace:
        setups = []
        for index in range(SETUP_BOOTS - 1):
            _, setup, _ = run_boot(workload, traffic,
                                   os.path.join(run_dir, f"boot{index}"))
            setups.append(setup)
        boot, setup, phase = run_boot(workload, traffic,
                                      os.path.join(run_dir, "timed"), seconds)
        setups.append(setup)
        mismatches, mae = check_phase(traffic, phase, boot.registry_root())
        metrics = end_to_end(workload, phase, mae,
                             [entry["setup_s"] for entry in setups])
        report["setups"] = setups
        phases = [phase]
    else:
        boot, setup_u, untraced = run_boot(workload, traffic,
                                           os.path.join(run_dir, "untraced"), seconds)
        mismatches_u, mae_u = check_phase(traffic, untraced, boot.registry_root())
        trace_dir = os.path.join(run_dir, "spans")
        boot, setup, phase = run_boot(workload, traffic,
                                      os.path.join(run_dir, "traced"), seconds,
                                      trace_dir=trace_dir)
        mismatches, mae = check_phase(traffic, phase, boot.registry_root())
        mismatches += mismatches_u
        spans = tracing.load_spans(trace_dir)
        untraced_e2e = end_to_end(workload, untraced, mae_u, [setup_u["setup_s"]])
        traced_e2e = end_to_end(workload, phase, mae, [setup["setup_s"]])
        # The set-up figures come from the untraced boot: the traced one fits
        # and warms up under the wrappers.
        metrics = per_layer(workload, phase, spans, setup_u,
                            untraced_e2e, traced_e2e)
        report["untraced_end_to_end"] = untraced_e2e
        report["traced_end_to_end"] = traced_e2e
        report["span_counts"] = dict(Counter(span[0] for _, span in spans))
        phases = [untraced, phase]

    attempted = sum(len(item.records) for item in phases)
    failed = sum(len(item.records) - len(item.ok) for item in phases)
    latencies = _latencies_ms(phase)
    _, tail_q, tail_beyond = tail(latencies)
    if tail_beyond < TAIL_SAMPLES:
        print(f"perfbench: only {tail_beyond} samples beyond the latency tail "
              f"(p{tail_q:.2f}); the run is too short for a tail",
              file=sys.stderr)
    report["loadgen"] = {
        "sent": len(phase.records),
        "succeeded": len(phase.ok),
        "failed": len(phase.records) - len(phase.ok),
        "mismatched": mismatches,
        "phase_seconds": phase.t1 - phase.t0,
        "tail_percentile": tail_q,
        "tail_samples_beyond": tail_beyond,
        "latency_ms": {f"p{q:g}": percentile(latencies, q)
                       for q in (50, 90, 95, 98, 99, 100)},
        "lateness_ms_max": max(phase.extra.get("lateness_ms", [0.0])),
        "versions_published": phase.extra.get("versions_published"),
    }
    report["counters_delta"] = {
        name: phase.counters_after[name] - phase.counters_before.get(name, 0)
        for name in phase.counters_after
        if isinstance(phase.counters_after[name], (int, float))}
    units = END_TO_END_UNITS if not trace else {name: unit_of(name) for name in metrics}
    result = {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    report["result"] = result
    return result, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not common.use_source_tree():
        print("perfbench: no src/repro in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK_ROOT, "runs",
                           f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    try:
        result, report = run(workload, args.seed, args.seconds, args.trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    results_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir,
                        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
