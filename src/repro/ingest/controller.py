"""The :class:`IngestController` — the streaming write path of one deployment.

``Discovery.ingest()`` builds one controller per attached lake.  It keeps
**the last event per table**: every later event for a table replaces the
pending one, and the dict's insertion order gives FIFO by first touch.
That is exact netting because batches apply each event membership-resolved
— an ``add`` of a present table replaces it, a ``replace`` of an absent
table adds it, a ``remove`` of an absent table is skipped — so a table ends
up as its *last* event says, whatever came before.  Submitting never reads
the lake.

A batch is due when any bound trips (:data:`MAX_BATCH_EVENTS`,
:data:`MAX_BATCH_BYTES`, :data:`MAX_LATENCY_SECONDS`).  Applying one takes
the deployment's :class:`~repro.serving.maintenance.ActivityGate`
exclusively *before* draining (a drain timeout consumes nothing), applies
each event, and — when the lake version moved — runs
:meth:`Discovery.resync` (per-shard ``update_index``) and checkpoints the
journal so re-anchoring consumers never hit the full-rebuild floor, all
before the gate releases.  The server's maintenance loop drives
:meth:`~IngestController.flush_if_due` between request bursts; embedded
callers flush explicitly.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.ingest.events import TableEvent, event_from_payload
from repro.utils.errors import IngestError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> ingest)
    from repro.api.facade import Discovery
    from repro.serving.maintenance import ActivityGate

#: A batch is due once this many tables have a pending event.
MAX_BATCH_EVENTS = 256
#: ... or once the pending events' estimated cost reaches this many bytes.
MAX_BATCH_BYTES = 1_048_576
#: ... or once the oldest pending event has waited this long.
MAX_LATENCY_SECONDS = 0.5
#: Seconds to wait for in-flight queries to drain before a flush yields.
EXCLUSIVE_TIMEOUT_SECONDS = 5.0


class IngestController:
    """Streaming write path for one :class:`~repro.api.facade.Discovery`.

    Thread-safe for producers: :meth:`submit`/:meth:`submit_many` may be
    called from any thread, including while a batch applies; flushing
    serialises internally and (with a ``gate``) excludes live queries per
    batch.
    """

    def __init__(
        self, discovery: "Discovery", *, gate: "ActivityGate | None" = None
    ) -> None:
        self.discovery = discovery
        self.lake = discovery.lake  # raises when not attached
        #: The gate batches must hold exclusively; ``None`` assumes
        #: single-threaded use (tests, embedded callers).
        self.gate = gate
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._pending: dict[str, TableEvent] = {}
        #: ``time.monotonic()`` the latency deadline counts from, or ``None``
        #: when nothing is pending.
        self._first_pending_at: float | None = None
        self._stats = dict.fromkeys(
            (
                "received", "noops_dropped", "cancelled", "superseded",
                "deduped", "drained", "batches_applied", "events_applied",
                "flush_timeouts", "pending_events", "pending_bytes",
            ),
            0,
        )

    # ------------------------------------------------------------- submission
    def submit(self, event: "TableEvent | Mapping") -> bool:
        """Keep ``event`` (or its wire payload) as its table's pending event.

        Returns whether it opened a new pending entry.  Over an entry already
        pending it counts ``deduped`` (same op, same content), ``cancelled``
        (a ``remove`` over an ``add``/``replace``) or ``superseded``.
        """
        if isinstance(event, Mapping):
            event = event_from_payload(event)
        elif not isinstance(event, TableEvent):
            raise IngestError(
                f"submit() accepts TableEvent or payload mappings, got "
                f"{type(event).__name__}"
            )
        with self._lock:
            self._stats["received"] += 1
            previous = self._pending.get(event.name)
            self._pending[event.name] = event  # keeps the first-touch slot
            if previous is None:
                if self._first_pending_at is None:
                    self._first_pending_at = time.monotonic()
                return True
            if previous.op == event.op and previous.fingerprint() == event.fingerprint():
                self._stats["deduped"] += 1
            elif event.op == "remove":
                self._stats["cancelled"] += 1
            else:
                self._stats["superseded"] += 1
            return False

    def submit_many(self, events: Iterable["TableEvent | Mapping"]) -> int:
        """Submit every event; returns how many opened a new pending entry."""
        return sum(1 for event in events if self.submit(event))

    # --------------------------------------------------------------- flushing
    @property
    def pending_events(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        with self._lock:
            return self._pending_cost()

    def _pending_cost(self) -> int:  # caller holds ``self._lock``
        return sum(event.cost_bytes for event in self._pending.values())

    def due(self) -> bool:
        """Whether a flush bound (count, bytes, latency) has tripped."""
        with self._lock:
            if not self._pending:
                return False
            return (
                len(self._pending) >= MAX_BATCH_EVENTS
                or self._pending_cost() >= MAX_BATCH_BYTES
                or time.monotonic() - self._first_pending_at >= MAX_LATENCY_SECONDS
            )

    def flush(self) -> list[dict]:
        """Apply batches until nothing is pending; one report dict per batch.

        Raises :class:`IngestError` when the gate cannot be acquired within
        :data:`EXCLUSIVE_TIMEOUT_SECONDS` — nothing is drained in that case,
        so the caller can simply retry later.
        """
        reports: list[dict] = []
        with self._flush_lock:
            while self.pending_events:
                report = self._apply_batch()
                if report is None:
                    with self._lock:
                        self._stats["flush_timeouts"] += 1
                    raise IngestError(
                        "ingest flush timed out waiting for in-flight queries "
                        f"to drain ({EXCLUSIVE_TIMEOUT_SECONDS}s); events "
                        "remain pending"
                    )
                reports.append(report)
        return reports

    def flush_if_due(self) -> list[dict]:
        """Flush only when a bound has tripped (maintenance-loop entry point)."""
        return self.flush() if self.due() else []

    def _drain(self) -> list[TableEvent]:
        """Pop one bounded batch, oldest first; never empty when any is pending.

        A table larger than the byte budget still flows through, as a batch
        of one, instead of wedging the write path.
        """
        batch: list[TableEvent] = []
        cost = 0
        with self._lock:
            for name, event in list(self._pending.items()):
                if len(batch) >= MAX_BATCH_EVENTS or (
                    batch and cost + event.cost_bytes > MAX_BATCH_BYTES
                ):
                    break
                del self._pending[name]
                batch.append(event)
                cost += event.cost_bytes
            # What is left was younger than the batch: it waits from now.
            self._first_pending_at = time.monotonic() if self._pending else None
            self._stats["drained"] += len(batch)
        return batch

    def _apply_batch(self) -> dict | None:
        """Gate, drain, apply, resync, checkpoint; ``None`` on a gate timeout."""
        started = time.monotonic()
        gate = self.gate
        if gate is not None and not gate.acquire_exclusive(
            timeout=EXCLUSIVE_TIMEOUT_SECONDS
        ):
            return None
        try:
            batch = self._drain()
            version_before = self.lake.version
            outcomes = Counter(self._apply_event(event) for event in batch)
            checkpoint_version = None
            if self.lake.version != version_before:
                self.discovery.resync()
                checkpoint_version = self.lake.checkpoint()
            version_after = self.lake.version
        finally:
            if gate is not None:
                gate.release_exclusive()
        with self._lock:
            self._stats["batches_applied"] += 1
            self._stats["events_applied"] += len(batch)
            self._stats["noops_dropped"] += outcomes["skipped"]
        return {
            "events": len(batch),
            "added": outcomes["added"],
            "replaced": outcomes["replaced"],
            "removed": outcomes["removed"],
            "skipped": outcomes["skipped"],
            "version_before": version_before,
            "version_after": version_after,
            "checkpoint_version": checkpoint_version,
            "seconds": time.monotonic() - started,
        }

    def _apply_event(self, event: TableEvent) -> str:
        """Apply one event membership-resolved; returns what it did."""
        lake = self.lake
        present = event.name in lake
        if event.op == "remove":
            if not present:
                return "skipped"
            lake.remove_table(event.name)
            return "removed"
        if not present:
            lake.add_table(event.table)
            return "added"
        version = lake.version
        lake.replace_table(event.table)  # identical content is a no-op
        return "skipped" if lake.version == version else "replaced"

    # ------------------------------------------------------------------ stats
    @property
    def stats(self) -> dict:
        """Netting and batching counters plus pending state."""
        with self._lock:
            return {
                **self._stats,
                "pending_events": len(self._pending),
                "pending_bytes": self._pending_cost(),
            }
