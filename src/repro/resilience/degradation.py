"""The degradation log: every graceful fallback, on the record.

Graceful degradation that nobody can observe is indistinguishable from
silent data loss.  Whenever a layer survives a failure by doing *less*
— a worker partition retried or re-run serially, an ``INSERT INTO``
rolled back, a serving handler answering 500 instead of results — it
records the event here, and the serving layer surfaces the log under
``GET /metrics`` (full snapshot) and ``GET /healthz``
(``degraded: true`` plus per-layer counts).

One process-wide :data:`DEGRADATION` instance exists because
degradations happen far below any object the caller holds (deep inside
a worker-pool recovery there is no service to report to).  Events from
forked pool *children* are invisible by design — recovery itself always
runs in the parent, which is where the recording happens.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List


class DegradationEvent:
    """One recorded fallback: which layer degraded, where, and why."""

    __slots__ = ("layer", "site", "detail", "timestamp")

    def __init__(self, layer: str, site: str, detail: str):
        self.layer = layer
        self.site = site
        self.detail = detail
        self.timestamp = time.time()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "site": self.site,
            "detail": self.detail,
            "ts": round(self.timestamp, 3),
        }

    def __repr__(self) -> str:
        return f"DegradationEvent({self.layer}/{self.site}: {self.detail})"


class DegradationLog:
    """Thread-safe bounded record of degradation events.

    Keeps the most recent ``capacity`` events verbatim plus unbounded
    per-``layer/site`` counters, so ``/metrics`` can always answer both
    "is anything degrading right now" and "how often has it, ever".
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("degradation log capacity must be at least 1")
        self._lock = threading.Lock()
        self._events: Deque[DegradationEvent] = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}

    def record(self, layer: str, site: str, detail: str) -> DegradationEvent:
        """Append one event; *detail* should name the recovered failure."""
        event = DegradationEvent(layer, site, detail)
        key = f"{layer}/{site}"
        with self._lock:
            self._events.append(event)
            self._counts[key] = self._counts.get(key, 0) + 1
        return event

    def __len__(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def __bool__(self) -> bool:
        return len(self) > 0

    def count(self, layer: str) -> int:
        """Total events recorded by *layer* (across all its sites)."""
        prefix = layer + "/"
        with self._lock:
            return sum(v for k, v in self._counts.items() if k.startswith(prefix))

    def layer_counts(self) -> Dict[str, int]:
        """Per-layer event totals (the /healthz summary)."""
        totals: Dict[str, int] = {}
        with self._lock:
            for key, value in self._counts.items():
                layer = key.split("/", 1)[0]
                totals[layer] = totals.get(layer, 0) + value
        return totals

    def events(self) -> List[DegradationEvent]:
        """The retained recent events, oldest first."""
        with self._lock:
            return list(self._events)

    def snapshot(self) -> Dict[str, Any]:
        """The /metrics view: totals, per-site counters, recent events."""
        with self._lock:
            return {
                "total": sum(self._counts.values()),
                "by_site": dict(sorted(self._counts.items())),
                "recent": [event.as_dict() for event in self._events],
            }

    def clear(self) -> None:
        """Forget everything (test isolation hook)."""
        with self._lock:
            self._events.clear()
            self._counts.clear()


#: The process-wide log every layer records into (see module docstring).
DEGRADATION = DegradationLog()
