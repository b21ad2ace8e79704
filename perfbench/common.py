"""Shared definitions of the serving benchmark: the fixed system under test,
the three workloads, and request generation from a workload seed.

Everything here is a constant or a pure function of ``--seed``.  The dataset
and the model are fixed (their seeds are constants), so only the generated
traffic changes from seed to seed.  No offered rate, request shape or latency
limit is derived from a run's own measurements.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (registry roots, span files, result files).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def use_source_tree():
    """Put the checkout's ``src`` on ``sys.path``; ``False`` when it is absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


# ---------------------------------------------------------------------------
# The fixed system under test
# ---------------------------------------------------------------------------
MODEL_NAME = "bench"
DATASET_SEED = 3
NUM_NODES = 8
NUM_DAYS = 16
STEPS_PER_DAY = 48
WINDOW_LENGTH = 12
NUM_DIFFUSION_STEPS = 10
#: Caps one engine chunk at one bulk request's items, so coalesced bulk
#: requests replay the same compiled signature instead of a new one.
INFERENCE_BATCH_SIZE = 64


def build_dataset():
    from repro.data import metr_la_like

    return metr_la_like(num_nodes=NUM_NODES, num_days=NUM_DAYS,
                        steps_per_day=STEPS_PER_DAY, missing_pattern="block",
                        seed=DATASET_SEED)


def build_config():
    from repro import PriSTIConfig

    return PriSTIConfig.fast(window_length=WINDOW_LENGTH, epochs=1,
                             iterations_per_epoch=1,
                             num_diffusion_steps=NUM_DIFFUSION_STEPS,
                             num_samples=1,
                             inference_batch_size=INFERENCE_BATCH_SIZE, seed=0)


def test_segment(dataset):
    """``(values, input_mask, eval_mask)`` of the test split: the requests
    see ``input_mask``; ``eval_mask`` marks the held-out ground truth."""
    values, observed, evaluation = dataset.segment("test")
    return values, observed & ~evaluation, evaluation


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str                  # "open", "closed" or "stream"
    slo_ms: float              # fixed latency limit of slo_attainment
    pool_workers: int = 0      # 0 = the gateway's default inline service
    codec: str = "json"
    request_steps: int = WINDOW_LENGTH
    num_samples: int = 1
    distinct_requests: int = 0
    rate_rps: float = 0.0      # open loop only
    ticks_per_version: int = 0  # stream only
    distinct_segments: int = 0  # stream only
    warmup_requests: int = 0


WORKLOADS = {
    "small-poisson": Workload(
        name="small-poisson",
        why=("open-loop Poisson arrivals of single-window single-sample JSON "
             "requests to the inline micro-batcher; bursts vary batch sizes "
             "and so compiled signatures"),
        loop="open", slo_ms=50.0,
        distinct_requests=48, rate_rps=10.0, warmup_requests=6,
    ),
    "bulk-pool": Workload(
        name="bulk-pool",
        why=("closed loop of 8-window x 8-sample NPZ requests on a 2-process "
             "worker pool over shared memory; network compute, staging and "
             "codecs dominate, compile does nothing"),
        loop="closed", slo_ms=700.0, pool_workers=2,
        codec="npz", request_steps=8 * WINDOW_LENGTH, num_samples=8,
        distinct_requests=8, warmup_requests=2,
    ),
    "stream-rollout": Workload(
        name="stream-rollout",
        why=("two streaming sessions ticking back-to-back while new versions "
             "of the same weights are published; bypasses batcher and pool, "
             "adds registry loads and cold compiles"),
        loop="stream", slo_ms=100.0,
        ticks_per_version=30, distinct_segments=4,
    ),
}


# ---------------------------------------------------------------------------
# Traffic generation (a pure function of the seed)
# ---------------------------------------------------------------------------
def request_pool(workload, dataset, seed):
    """The workload's distinct requests: ``[(start, request_seed)]``.

    Requests cycle through a small pool so the reference outputs can be
    computed once per distinct request; the stack has no response cache, so
    a repeat costs the same as a first request.
    """
    return _spread(workload.distinct_requests,
                   len(test_segment(dataset)[0]) - workload.request_steps, seed)


def _spread(count, last_start, seed):
    """``count`` ``(start, seed)`` pairs: starts evenly spaced over
    ``[0, last_start]`` (the same for every seed, so the scored entries do
    not change with it), seeds drawn from the workload seed."""
    import numpy as np

    if last_start < 0:
        raise ValueError("test segment is shorter than one request")
    starts = np.linspace(0, last_start, count).round().astype(int)
    seeds = np.random.default_rng([seed, 1]).integers(0, 2**31 - 1, size=count)
    return [(int(start), int(request_seed))
            for start, request_seed in zip(starts, seeds)]


def make_request(workload, dataset, start, request_seed):
    from repro import ImputationRequest

    values, input_mask, _ = test_segment(dataset)
    stop = start + workload.request_steps
    return ImputationRequest(model=MODEL_NAME, values=values[start:stop],
                             observed_mask=input_mask[start:stop],
                             num_samples=workload.num_samples, seed=request_seed)


def request_sequence(distinct, seed, count):
    """``count`` indices into a pool of ``distinct`` entries, in send order:
    back-to-back seeded permutations, so every entry is used equally often."""
    import numpy as np

    rng = np.random.default_rng([seed, 2])
    blocks = -(-count // distinct)
    order = np.concatenate([rng.permutation(distinct) for _ in range(blocks)])
    return [int(index) for index in order[:count]]


def poisson_schedule(workload, seed, seconds):
    """Send offsets (seconds from the phase start) of a Poisson process at
    ``rate_rps``, conditioned on its expected count: ``rate * seconds``
    arrivals at uniform order statistics.  Fixed up front, never adapted."""
    import numpy as np

    count = max(1, int(round(workload.rate_rps * seconds)))
    rng = np.random.default_rng([seed, 3])
    return sorted(float(offset) for offset in rng.uniform(0.0, seconds, count))


def stream_segments(workload, dataset, seed):
    """Distinct streaming segments: ``[(start_row, session_seed)]``."""
    return _spread(workload.distinct_segments,
                   len(test_segment(dataset)[0]) - workload.ticks_per_version, seed)


def segment_ticks(workload, dataset, start):
    """``[(values, mask)]`` of one segment: NaN where the sensor is unseen."""
    import numpy as np

    values, input_mask, _ = test_segment(dataset)
    ticks = []
    for row in range(start, start + workload.ticks_per_version):
        mask = input_mask[row]
        ticks.append((np.where(mask, values[row], np.nan), mask))
    return ticks


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values, q):
    """Linear-interpolated percentile (``numpy.percentile``); 0.0 when empty."""
    import numpy as np

    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: A "tail" is the highest percentile with at least this many samples beyond it.
TAIL_SAMPLES = 10


def tail(values):
    """``(value, percentile, samples_beyond)`` of the highest percentile of
    ``values`` with at least ``TAIL_SAMPLES`` samples beyond it.

    With linear interpolation, the ``100 * (n - k) / n`` percentile of ``n``
    samples lies between the ``k + 1``-th and the ``k``-th largest, so
    exactly ``k`` samples exceed it (fewer when there are ties or when
    ``n <= k``, where the percentile is clamped to 0)."""
    count = len(values)
    q = max(0.0, 100.0 * (count - TAIL_SAMPLES) / count) if count else 0.0
    value = percentile(values, q)
    return value, q, sum(1 for sample in values if sample > value)
