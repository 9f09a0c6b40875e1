"""Deterministic, seedable fault injection for the resilience suite.

Production failure paths are only trustworthy when they are *exercised*
on purpose.  This module is the one switchboard: code threads named
**fault sites** through its :func:`inject` hook (a module-global read
plus a ``None`` check when disabled — free on the hot path), and tests,
the chaos property suite, ``repro serve --faults`` or the
``REPRO_FAULTS`` environment variable arm those sites with a
:class:`FaultPlan`.

Fault sites wired through the engine (see the README's fault-site
table):

========================  ==================================================
site                      where it fires
========================  ==================================================
``pool.spawn``            process-pool creation in ``WorkerPool``
``pool.task``             inside a worker, before the task body runs
``pool.task_hang``        inside a worker (``hang`` kind: sleeps ``delay``)
``shard.spawn``           persistent shard fork in ``ShardRuntime._spawn``
``shard.task``            shard task dispatch (parent) and execution (child)
``shard.delta``           before a commit delta ships to a live shard

``table.append_row``      per-row while staging a ``Table.append_rows`` batch
``dml.after_append``      between storage append and TBI/ITBI amendment
``dml.index_delta``       per-entity inside ``TableIndex.add_records``
``dml.before_commit``     after index amendment, before the epoch advances
``packed.derive``         entry of candidate derivation (fails the query)
``serving.handler``       inside the serving gate, before engine execution
``serving.slow``          inside the serving gate (``hang`` kind)
``persist.write``         before a snapshot file's temp write starts
``persist.rename``        after the temp write, before the atomic rename
========================  ==================================================

Plans are deterministic: firing decisions come from a plan-owned
``random.Random(seed)`` plus per-site counters, never from wall-clock
or global randomness, so a failing chaos seed replays exactly.

Plan syntax (``REPRO_FAULTS`` / ``--faults``)::

    spec[,spec...]
    spec      := site[:key=value...][:kind]
    kind      := raise | hang
    keys      := kind= raise|hang   what firing does (default: raise)
                 times=N|inf        fire at most N times (default: 1)
                 after=N            skip the first N eligible calls
                 p=FLOAT            firing probability per call (default 1.0)
                 delay=SECONDS      sleep length of a ``hang`` (default 0.05)
    seed=N    (as a whole spec)     seeds the plan's RNG

Example: ``REPRO_FAULTS="seed=7,pool.task:times=2,serving.slow:hang:delay=0.3"``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Tuple

#: Environment variable that arms a fault plan process-wide.
FAULTS_ENV = "REPRO_FAULTS"
#: Environment variable seeding the env-armed plan's RNG.
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

_KINDS = ("raise", "hang")


class FaultError(RuntimeError):
    """The exception an armed ``raise``-kind fault site throws.

    Subclasses :class:`RuntimeError` so generic runtime-failure handling
    (pool-spawn fallback, serving's 500 path) treats an injected fault
    exactly like the organic failure it stands in for.
    """

    def __init__(self, site: str, occurrence: int):
        super().__init__(f"injected fault at site {site!r} (occurrence {occurrence})")
        self.site = site
        self.occurrence = occurrence

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__`` — which takes two fields.  Faults
        # cross the process-pool boundary, so make them round-trip.
        return (FaultError, (self.site, self.occurrence))


class FaultSpec:
    """One armed site: what firing does and how often it happens."""

    __slots__ = ("site", "kind", "times", "after", "probability", "delay", "calls", "fired")

    def __init__(
        self,
        site: str,
        kind: str = "raise",
        times: Optional[int] = 1,
        after: int = 0,
        probability: float = 1.0,
        delay: float = 0.05,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (expected raise|hang)")
        if times is not None and times < 0:
            raise ValueError("times must be >= 0 (or None for unlimited)")
        if after < 0:
            raise ValueError("after must be >= 0")
        if not 0.0 <= probability <= 1.0:
            raise ValueError("p must be within [0, 1]")
        if delay < 0:
            raise ValueError("delay must be >= 0 seconds")
        self.site = site
        self.kind = kind
        self.times = times
        self.after = after
        self.probability = probability
        self.delay = delay
        #: Eligible calls observed / faults actually fired.
        self.calls = 0
        self.fired = 0

    def __repr__(self) -> str:
        bound = "inf" if self.times is None else self.times
        return (
            f"FaultSpec({self.site}:{self.kind}, times={bound}, after={self.after}, "
            f"p={self.probability}, fired={self.fired}/{self.calls})"
        )


class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules plus the firing record.

    One plan serves one experiment: install it (:func:`install_plan` or
    the :meth:`active` context manager), run the workload, read
    :attr:`events` to see what actually fired.  Thread-safe — serving
    handlers and threaded pool workers hit the same plan concurrently.
    """

    def __init__(self, seed: int = 0):
        import random

        self.seed = seed
        self._rng = random.Random(seed)
        self._specs: Dict[str, FaultSpec] = {}
        self._lock = threading.Lock()
        #: ``(site, kind, occurrence)`` tuples, in firing order.
        self.events: List[Tuple[str, str, int]] = []

    # -- construction ----------------------------------------------------
    def add(
        self,
        site: str,
        kind: str = "raise",
        times: Optional[int] = 1,
        after: int = 0,
        probability: float = 1.0,
        delay: float = 0.05,
    ) -> "FaultPlan":
        """Arm *site*; returns the plan for chaining."""
        self._specs[site] = FaultSpec(site, kind, times, after, probability, delay)
        return self

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULTS`` syntax (module docstring)."""
        plan = cls(seed)
        for raw_spec in text.split(","):
            raw_spec = raw_spec.strip()
            if not raw_spec:
                continue
            if raw_spec.startswith("seed="):
                plan = cls(int(raw_spec[5:]))._adopt(plan)
                continue
            parts = raw_spec.split(":")
            site, options = parts[0], parts[1:]
            kwargs: Dict[str, object] = {}
            for option in options:
                if option in _KINDS:
                    kwargs["kind"] = option
                    continue
                key, eq, value = option.partition("=")
                if not eq:
                    raise ValueError(f"bad fault option {option!r} in {raw_spec!r}")
                if key == "kind":
                    kwargs["kind"] = value
                elif key == "times":
                    kwargs["times"] = None if value == "inf" else int(value)
                elif key == "after":
                    kwargs["after"] = int(value)
                elif key == "p":
                    kwargs["probability"] = float(value)
                elif key == "delay":
                    kwargs["delay"] = float(value)
                else:
                    raise ValueError(f"unknown fault option key {key!r} in {raw_spec!r}")
            plan.add(site, **kwargs)  # type: ignore[arg-type]
        return plan

    def _adopt(self, previous: "FaultPlan") -> "FaultPlan":
        """Carry specs already parsed before a ``seed=`` directive."""
        self._specs.update(previous._specs)
        return self

    # -- introspection ---------------------------------------------------
    @property
    def sites(self) -> List[str]:
        return sorted(self._specs)

    def spec(self, site: str) -> Optional[FaultSpec]:
        return self._specs.get(site)

    def fired_count(self, site: Optional[str] = None) -> int:
        with self._lock:
            if site is None:
                return len(self.events)
            return sum(1 for event in self.events if event[0] == site)

    # -- firing ----------------------------------------------------------
    def fire(self, site: str) -> None:
        """Decide (deterministically) whether *site* faults on this call.

        Raises :class:`FaultError` for ``raise`` kinds; sleeps the
        spec's ``delay`` for ``hang`` kinds; returns silently otherwise.
        """
        spec = self._specs.get(site)
        if spec is None:
            return
        with self._lock:
            spec.calls += 1
            if spec.calls <= spec.after:
                return
            if spec.times is not None and spec.fired >= spec.times:
                return
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                return
            spec.fired += 1
            occurrence = spec.fired
            self.events.append((site, spec.kind, occurrence))
            delay = spec.delay
            kind = spec.kind
        if kind == "hang":
            time.sleep(delay)
            return
        raise FaultError(site, occurrence)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, sites={self.sites}, fired={len(self.events)})"


# -- the process-wide switchboard -------------------------------------------
_PLAN: Optional[FaultPlan] = None
_PLAN_LOCK = threading.Lock()


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Arm *plan* process-wide (fork children inherit it copy-on-write)."""
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = plan
    return plan


def clear_plan() -> None:
    """Disarm fault injection entirely."""
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = None


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, if any."""
    return _PLAN


class active:
    """Context manager arming *plan* for a ``with`` block (test helper)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = _PLAN
        install_plan(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        global _PLAN
        with _PLAN_LOCK:
            _PLAN = self._previous


def inject(site: str) -> None:
    """The hook fault sites call; free when no plan is armed."""
    plan = _PLAN
    if plan is None:
        return
    plan.fire(site)


def plan_from_env(environ=os.environ) -> Optional[FaultPlan]:
    """The plan ``REPRO_FAULTS`` describes, or ``None`` when unset."""
    text = environ.get(FAULTS_ENV)
    if not text:
        return None
    seed = int(environ.get(FAULTS_SEED_ENV, "0") or 0)
    return FaultPlan.parse(text, seed=seed)


# Arm from the environment once at import: subprocess servers started
# with REPRO_FAULTS=... in their environment need no code changes.
_env_plan = plan_from_env()
if _env_plan is not None:  # pragma: no cover - exercised via subprocess tests
    install_plan(_env_plan)
