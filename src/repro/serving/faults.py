"""Deterministic, schedule-driven fault injection for the serving stack.

The serving layers (registry, pool, service, gateway) each expose a handful of
**named injection points** — places where production failures happen: an
artifact read fails, a worker dies mid-batch, a flush raises, a connection
drops mid-response.  A :class:`FaultInjector` holds a seeded *fault plan* that
decides, per invocation of each point, whether the fault fires; the sites call
:func:`inject` (raise-style) or :func:`fired` (bool-style, for wire-layer
faults that are not exceptions).

Design constraints:

* **No-op by default.**  Nothing is installed unless a test, benchmark or the
  ``REPRO_FAULT_PLAN`` environment hook installs a plan; a disabled site is a
  single module-global ``None`` check, so the hot path pays nothing and the
  bit-identity gates are untouched.
* **Deterministic.**  A rule either names explicit 1-based invocation indices
  (``hits``), a tail window (``after`` + optional ``count``) or a probability;
  probabilistic rules draw from a per-point RNG spawned from the plan seed, so
  the k-th invocation of a point gets the k-th draw regardless of which thread
  makes it — the same plan over the same workload fires the same faults.
* **Typed.**  Firing raises :class:`InjectedFault` (a
  :class:`~repro.serving.errors.ServingError`) unless the site passes its own
  error type (the pool raises :class:`~repro.serving.errors.WorkerCrashed`, so
  injected crashes take the exact recovery path real ones do).  ``action:
  "sleep"`` rules stall instead of raising (slow worker / queue stall).

Activation::

    with faults.active([{"point": "pool.worker_crash", "hits": [1, 2]}]):
        ...                                    # tests: scoped install

    REPRO_FAULT_PLAN='{"seed": 7, "rules": [...]}' python benchmarks/bench_chaos.py
    REPRO_FAULT_PLAN=path/to/plan.json ...     # env hook: JSON string or file
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ServingError

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultInjector",
    "INJECTION_POINTS",
    "install",
    "uninstall",
    "current",
    "enabled",
    "inject",
    "fired",
    "active",
    "plan_from_env",
]

ENV_PLAN = "REPRO_FAULT_PLAN"


class InjectedFault(ServingError):
    """The error a fired injection point raises (unless the site overrides)."""

    def __init__(self, message, *, point=None, hit=None):
        super().__init__(message)
        self.point = point
        self.hit = hit


#: The canonical registry of injection points.  Site modules own their points
#: (they are *used* where listed); :func:`install` validates every rule
#: against this table so a typo in a fault plan fails loudly instead of
#: silently never firing.
INJECTION_POINTS = {
    "backend.load": "load_backend: model rehydration on a backend-cache "
                    "miss fails (pool child or inline flush)",
    "pool.worker_crash": "WorkerPool: worker dies mid-batch (WorkerCrashed)",
    "pool.worker_stall": "WorkerPool: slow worker — stall before executing",
    "transport.stage": "ShmArena.stage: staging a batch into the arena fails",
    "transport.shm_attach": "Worker side: attaching a shared-memory segment "
                            "by name fails (TransportError)",
    "transport.shm_detach": "ShmArena release: releasing a staged batch "
                            "fails — the arena must unlink every segment "
                            "and rebuild, not leak",
    "compile.trace": "CompiledStepCache: tracing a reverse-diffusion chunk "
                     "fails before recording (eager fallback must serve it)",
    "service.flush": "ImputationService: an inline batch fails after it "
                     "ran (its noise already drawn)",
    "service.queue_stall": "ImputationService: stall before flushing queues",
    "gateway.connection_drop": "Gateway wire: drop the connection pre-response",
    "gateway.truncated_body": "Gateway wire: truncate the response body",
}


@dataclass
class FaultRule:
    """When (and how) one injection point fires.

    Exactly one trigger shape is typically used:

    ``hits``
        Explicit 1-based invocation indices — ``[1, 2, 5]`` fires the first,
        second and fifth time the point is reached.
    ``after`` (+ optional ``count``)
        Fire on every invocation strictly after ``after`` (``0`` = always),
        at most ``count`` times.
    ``probability``
        Seeded Bernoulli per invocation, drawn from the rule's own stream.

    ``action`` is ``"error"`` (raise — the default) or ``"sleep"`` (stall for
    ``seconds``).  A rule with no trigger never fires.
    """

    point: str
    hits: tuple = ()
    after: int | None = None
    count: int | None = None
    probability: float | None = None
    action: str = "error"
    seconds: float = 0.05
    message: str = ""
    fired_count: int = field(default=0, init=False)

    def __post_init__(self):
        self.hits = tuple(int(hit) for hit in self.hits)
        if self.action not in ("error", "sleep"):
            raise ValueError(f"unknown fault action '{self.action}'")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if any(hit < 1 for hit in self.hits):
            raise ValueError("hits are 1-based invocation indices")

    def decide(self, invocation, rng):
        """Does this rule fire on the point's ``invocation``-th call?"""
        if self.count is not None and self.fired_count >= self.count:
            return False
        if self.hits:
            fire = invocation in self.hits
        elif self.after is not None:
            fire = invocation > self.after
        elif self.probability is not None:
            fire = bool(rng.random() < self.probability)
        else:
            return False
        if fire:
            self.fired_count += 1
        return fire


class FaultInjector:
    """A seeded fault plan plus per-point invocation bookkeeping.

    Thread-safe: decisions (invocation counters, RNG draws, fire counts) are
    taken under one lock; sleeps and raises happen outside it.
    """

    def __init__(self, rules, *, seed=0):
        self.seed = int(seed)
        self.rules = [rule if isinstance(rule, FaultRule) else FaultRule(**rule)
                      for rule in rules]
        self._lock = threading.Lock()
        self._invocations = {}          # point -> count
        self._rngs = {}                 # point -> Generator (probability rules)
        self.fired_by_point = {}        # point -> fires observed

    @classmethod
    def from_plan(cls, plan):
        """Build an injector from a plan dict ``{"seed": ..., "rules": [...]}``
        (or a bare list of rule dicts)."""
        if isinstance(plan, (list, tuple)):
            return cls(plan)
        if not isinstance(plan, dict):
            raise TypeError("fault plan must be a dict or a list of rules")
        return cls(plan.get("rules", []), seed=plan.get("seed", 0))

    def _rng_for(self, point):
        rng = self._rngs.get(point)
        if rng is None:
            # One stream per point, derived from (seed, point): the k-th
            # invocation of a point consumes the k-th draw whatever thread
            # reaches it, so probabilistic plans replay deterministically.
            entropy = [self.seed] + list(point.encode("utf-8"))
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            self._rngs[point] = rng
        return rng

    def decide(self, point):
        """The rule that fires for this invocation of ``point`` (or None)."""
        with self._lock:
            invocation = self._invocations.get(point, 0) + 1
            self._invocations[point] = invocation
            for rule in self.rules:
                if rule.point != point:
                    continue
                if rule.decide(invocation, self._rng_for(point)):
                    self.fired_by_point[point] = (
                        self.fired_by_point.get(point, 0) + 1)
                    return rule, invocation
        return None, invocation

    def stats(self):
        """Invocation and fire counts per point (chaos-benchmark telemetry)."""
        with self._lock:
            return {
                "seed": self.seed,
                "invocations": dict(self._invocations),
                "fired": dict(self.fired_by_point),
            }


#: The process-wide injector.  ``None`` (the default) keeps every site a
#: single-comparison no-op.
_INJECTOR = None


def install(injector, *, strict=True):
    """Install ``injector`` (a :class:`FaultInjector`, plan dict or rule list)
    as the process-wide injector; returns it.

    ``strict`` validates every rule's point against :data:`INJECTION_POINTS`
    so a misspelled plan fails at install time, not by silently never firing.
    """
    global _INJECTOR
    if injector is not None and not isinstance(injector, FaultInjector):
        injector = FaultInjector.from_plan(injector)
    if strict and injector is not None:
        unknown = sorted({rule.point for rule in injector.rules}
                         - set(INJECTION_POINTS))
        if unknown:
            raise ValueError(
                f"unknown injection point(s) {unknown}; "
                f"known: {sorted(INJECTION_POINTS)}")
    _INJECTOR = injector
    return injector


def uninstall():
    """Remove the process-wide injector (back to zero-cost no-op)."""
    global _INJECTOR
    _INJECTOR = None


def current():
    """The installed :class:`FaultInjector`, or ``None``."""
    return _INJECTOR


def enabled():
    """Is a fault plan installed?"""
    return _INJECTOR is not None


def _fire(point, rule, invocation, error):
    if rule.action == "sleep":
        time.sleep(rule.seconds)
        return False
    message = rule.message or (
        f"injected fault at '{point}' (invocation {invocation})")
    if error is not None:
        raise error(message)
    raise InjectedFault(message, point=point, hit=invocation)


def inject(point, error=None):
    """Raise-style injection site: no-op unless an installed rule fires.

    ``error`` lets the site keep control of the exception *type* (the pool
    passes :class:`~repro.serving.errors.WorkerCrashed`) while the plan keeps
    control of *when*; sleep-action rules stall here instead of raising.
    """
    injector = _INJECTOR
    if injector is None:
        return
    rule, invocation = injector.decide(point)
    if rule is not None:
        _fire(point, rule, invocation, error)


def fired(point):
    """Bool-style injection site for faults that are not exceptions (the
    gateway's wire-layer drops).  Sleep rules stall and return ``False``;
    error rules return ``True`` and let the site act the fault out."""
    injector = _INJECTOR
    if injector is None:
        return False
    rule, invocation = injector.decide(point)
    if rule is None:
        return False
    if rule.action == "sleep":
        time.sleep(rule.seconds)
        return False
    return True


@contextmanager
def active(plan, *, seed=None):
    """Scoped install for tests: ``with faults.active(rules): ...``."""
    if seed is not None and not isinstance(plan, FaultInjector):
        plan = {"rules": list(plan), "seed": seed}
    previous = _INJECTOR
    injector = install(plan)
    try:
        yield injector
    finally:
        install(previous, strict=False)


def plan_from_env(environ=None):
    """Parse the ``REPRO_FAULT_PLAN`` hook: a JSON plan string, or a path to
    a JSON file.  Returns ``None`` when the hook is unset/empty."""
    raw = (environ or os.environ).get(ENV_PLAN, "").strip()
    if not raw:
        return None
    if not raw.lstrip().startswith(("{", "[")):
        with open(raw, "r", encoding="utf-8") as handle:
            raw = handle.read()
    return json.loads(raw)


def install_from_env(environ=None):
    """Install the env-hook plan if one is set (used at import so process
    workers spawned under a chaos run inherit the plan); returns it."""
    plan = plan_from_env(environ)
    if plan is None:
        return None
    return install(plan)


install_from_env()
