"""Per-query latency events: a thread-safe JSONL log with an in-memory tail.

Every query the resident server answers (or rejects) appends one event —
``{"ts", "kind", "query", "backend", "k", "latency_seconds", "status", ...}``
— to an :class:`EventLog`.  Two consumers read them back:

* the **maintenance loop**, which pre-warms the result cache from the most
  recent distinct queries in the in-memory tail, and
* **offline analysis** (the concurrency benchmark, ``/v1/metrics``), which
  summarises latency percentiles with :func:`latency_summary` /
  :func:`read_events`.

Events are plain dicts so the log stays schema-agnostic; the server layers
its own field conventions on top.  With a ``path`` the log is durable JSONL
(one JSON object per line, appended under a lock, flushed per event so a
crashed server loses at most the event in flight); without one it is
memory-only, which is what the unit tests and in-process benchmarks use.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.utils.errors import ServingError


#: Events kept in the in-memory tail (the JSONL file keeps everything).
TAIL_SIZE = 512


class EventLog:
    """Append-only event sink: optional JSONL file plus a bounded tail.

    The in-memory window holds the last :data:`TAIL_SIZE` events.  Appends
    are cheap and thread-safe; readers get snapshots, never live references.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._tail: deque[dict[str, Any]] = deque(maxlen=TAIL_SIZE)
        self._lock = threading.Lock()
        self._count = 0
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------ write
    def append(self, **fields: Any) -> dict[str, Any]:
        """Record one event; stamps ``ts`` (epoch seconds) unless provided."""
        event = {"ts": time.time(), **fields}
        line = json.dumps(event, sort_keys=True, default=str)
        with self._lock:
            self._tail.append(event)
            self._count += 1
            if self._handle is not None:
                self._handle.write(line + "\n")
                self._handle.flush()
        return event

    # ------------------------------------------------------------------- read
    def tail(self, n: int | None = None) -> list[dict[str, Any]]:
        """The most recent events (all retained ones when ``n`` is None)."""
        with self._lock:
            events = list(self._tail)
        return events if n is None else events[-n:]

    def __len__(self) -> int:
        """Total events appended over the log's lifetime (not the tail size)."""
        with self._lock:
            return self._count

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Flush and close the JSONL file handle; double-close is a no-op."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL event file back into event dicts.

    A truncated final line (the event in flight when a server died) is
    skipped rather than failing the whole read.
    """
    events: list[dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        raise ServingError("percentile of an empty sequence is undefined")
    if not 0.0 <= fraction <= 1.0:
        raise ServingError(f"percentile fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


def latency_summary(
    events: Iterable[Mapping[str, Any]], *, field: str = "latency_seconds"
) -> dict[str, float | int]:
    """p50/p95/mean/max summary over the events carrying ``field``.

    Events without the field (rejections carry no latency) are skipped;
    an all-skipped input yields a zeroed summary rather than an error so
    metrics endpoints stay total.
    """
    values = [float(event[field]) for event in events if field in event]
    if not values:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "mean": sum(values) / len(values),
        "max": max(values),
    }
