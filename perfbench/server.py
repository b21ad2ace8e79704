"""Server process of the benchmark: the shipped default stack behind HTTP.

``python3 perfbench/server.py <workload> <work_dir>`` generates the fixed
dataset, runs the tiny fit, publishes the model into ``<work_dir>/registry``
and serves it through ``GatewayServer`` -> ``ImputationService`` (-> a
process ``WorkerPool`` for ``bulk-pool``) on an ephemeral localhost port.
It prints one JSON line (port, pid, fit seconds) once it accepts traffic,
and drains and exits on SIGTERM.  Compilation is whatever ``REPRO_COMPILE``
says; the benchmark leaves it unset (on).

With ``PERFBENCH_TRACE_DIR`` set, the stack is traced and every process —
this one and each spawned pool child, which re-imports this module — writes
its spans into that directory as it exits.
"""

import asyncio
import json
import os
import signal
import sys
import time

from common import MODEL_NAME, WORKLOADS, build_config, build_dataset, use_source_tree

if not use_source_tree():
    sys.exit("perfbench: no src/repro next to the benchmark")

import tracing  # noqa: E402  (needs the source tree on sys.path)

_TRACE_DIR = os.environ.get(tracing.TRACE_ENV)
if _TRACE_DIR and __name__ == "__mp_main__":
    # A spawned pool child re-importing this module: trace it too.
    tracing.install_in_pool_child(_TRACE_DIR)


async def _serve(gateway, ready):
    from repro import GatewayServer

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    server = await GatewayServer(gateway).start()
    ready["port"] = server.port
    print(json.dumps(ready), flush=True)
    await stop.wait()
    await server.shutdown()


def main(workload_name, work_dir):
    from repro import Gateway, ImputationService, ModelRegistry, PriSTI, WorkerPool

    workload = WORKLOADS[workload_name]
    tracer = tracing.install() if _TRACE_DIR else None
    dataset = build_dataset()
    started = time.monotonic()
    model = PriSTI(build_config()).fit(dataset)
    fit_s = time.monotonic() - started
    registry = ModelRegistry(os.path.join(work_dir, "registry"))
    pool = None
    if workload.pool_workers:
        pool = WorkerPool(workload.pool_workers, mode="process").watch(registry)
    try:
        registry.publish(model, MODEL_NAME)
        if pool is not None and not pool.wait_idle(timeout=120.0):
            raise RuntimeError("pool prewarm did not finish")
        gateway = Gateway(ImputationService(registry, executor=pool))
        asyncio.run(_serve(gateway, {"pid": os.getpid(), "fit_s": fit_s}))
    finally:
        if pool is not None:
            pool.stop()
        if tracer is not None:
            tracer.flush(os.path.join(_TRACE_DIR, f"spans-{os.getpid()}.json"))
            tracer.uninstall()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
