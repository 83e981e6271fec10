"""The :class:`MicroBatcher` — atomic micro-batch application to the lake.

The batcher sits between the :class:`~repro.ingest.queue.IngestQueue` and
the :class:`~repro.datalake.lake.DataLake`.  A batch becomes **due** when
any bound trips: pending event count, pending byte estimate, or the oldest
pending operation exceeding the max-latency deadline.  Applying a batch:

1. acquires the :class:`~repro.serving.maintenance.ActivityGate` in
   exclusive mode *before* draining the queue — on drain timeout nothing is
   consumed and every event stays queued, so admission pressure never loses
   writes;
2. drains one bounded batch and applies each operation to the lake with
   membership-resolved semantics (an ``add`` for a name already present is
   applied as a replace, a ``remove`` for an absent name is skipped) so a
   replayed or racy stream cannot wedge the pipeline;
3. runs the ``refresh`` callback (typically ``Discovery.resync`` — the
   per-shard ``update_index`` path) while still exclusive, so live queries
   never observe the lake ahead of its indexes;
4. checkpoints the lake (:meth:`~repro.datalake.lake.DataLake.checkpoint`),
   re-anchoring ``changes_since`` consumers at the batch-boundary version
   even after the bounded journal trims past them.

The batcher owns no thread: the server's maintenance loop and ``/v1/ingest``
drive :meth:`MicroBatcher.flush_if_due`, embedded callers call
:meth:`MicroBatcher.flush`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.datalake.lake import DataLake
from repro.ingest.events import TableEvent
from repro.ingest.queue import IngestQueue
from repro.utils.errors import IngestError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> ingest)
    from repro.serving.maintenance import ActivityGate


@dataclass(frozen=True)
class MicroBatchReport:
    """What one applied micro-batch did to the lake."""

    events: int
    added: int
    replaced: int
    removed: int
    skipped: int
    version_before: int
    version_after: int
    checkpoint_version: int | None
    seconds: float

    def to_dict(self) -> dict:
        return {
            "events": self.events,
            "added": self.added,
            "replaced": self.replaced,
            "removed": self.removed,
            "skipped": self.skipped,
            "version_before": self.version_before,
            "version_after": self.version_after,
            "checkpoint_version": self.checkpoint_version,
            "seconds": self.seconds,
        }


class MicroBatcher:
    """Coalesces queued events into atomically-applied micro-batches.

    Parameters
    ----------
    queue:
        The netting queue to drain.
    lake:
        The lake to mutate.
    refresh:
        Callback invoked after each batch's lake mutations, while still
        holding the gate — typically ``Discovery.resync``, which walks the
        per-backend ``update_index`` delta path.
    gate:
        Optional :class:`~repro.serving.maintenance.ActivityGate`.  When
        present, each batch is applied under exclusive mode; when absent the
        batcher assumes single-threaded use (tests, benchmarks).
    max_events / max_bytes / max_latency_seconds:
        The three flush bounds.  ``max_bytes`` uses the events' estimated
        cost, not serialized size.
    checkpoint:
        Record a lake compaction checkpoint after each applied batch
        (default ``True``).
    exclusive_timeout:
        Seconds to wait for in-flight queries to drain before giving up on
        this flush attempt (events stay queued).
    """

    def __init__(
        self,
        queue: IngestQueue,
        lake: DataLake,
        *,
        refresh: Callable[[], object] | None = None,
        gate: "ActivityGate | None" = None,
        max_events: int = 256,
        max_bytes: int = 1_048_576,
        max_latency_seconds: float = 0.5,
        checkpoint: bool = True,
        exclusive_timeout: float = 5.0,
    ) -> None:
        if max_events < 1:
            raise IngestError(f"max_events must be >= 1, got {max_events}")
        if max_bytes < 1:
            raise IngestError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_latency_seconds <= 0:
            raise IngestError(
                f"max_latency_seconds must be > 0, got {max_latency_seconds}"
            )
        self.queue = queue
        self.lake = lake
        self.refresh = refresh
        self.gate = gate
        self.max_events = max_events
        self.max_bytes = max_bytes
        self.max_latency_seconds = max_latency_seconds
        self.checkpoint = checkpoint
        self.exclusive_timeout = exclusive_timeout
        self._flush_lock = threading.Lock()
        self.stats: dict[str, int] = {
            "batches_applied": 0,
            "events_applied": 0,
            "flush_timeouts": 0,
        }

    # --------------------------------------------------------------- flushing
    def due(self) -> bool:
        """True when any flush bound (count, bytes, latency) has tripped."""
        pending = self.queue.pending_events
        if pending == 0:
            return False
        if pending >= self.max_events:
            return True
        if self.queue.pending_bytes >= self.max_bytes:
            return True
        return self.queue.oldest_pending_seconds() >= self.max_latency_seconds

    def flush(self) -> list[MicroBatchReport]:
        """Apply batches until the queue is empty; returns one report per batch.

        Raises :class:`IngestError` when the gate cannot be acquired within
        ``exclusive_timeout`` — nothing is drained in that case, so the
        caller can simply retry later.
        """
        reports: list[MicroBatchReport] = []
        with self._flush_lock:
            while self.queue.pending_events > 0:
                report = self._apply_one_batch()
                if report is None:
                    self.stats["flush_timeouts"] += 1
                    raise IngestError(
                        "ingest flush timed out waiting for in-flight queries "
                        f"to drain (exclusive_timeout={self.exclusive_timeout}s); "
                        "events remain queued"
                    )
                reports.append(report)
        return reports

    def flush_if_due(self) -> list[MicroBatchReport]:
        """Flush only when a bound has tripped; cheap to call in a loop."""
        if not self.due():
            return []
        return self.flush()

    def _apply_one_batch(self) -> MicroBatchReport | None:
        started = time.monotonic()
        exclusive = False
        if self.gate is not None:
            if not self.gate.acquire_exclusive(timeout=self.exclusive_timeout):
                return None
            exclusive = True
        try:
            batch = self.queue.drain(
                max_events=self.max_events, max_bytes=self.max_bytes
            )
            if not batch:
                return MicroBatchReport(
                    events=0, added=0, replaced=0, removed=0, skipped=0,
                    version_before=self.lake.version,
                    version_after=self.lake.version,
                    checkpoint_version=None,
                    seconds=time.monotonic() - started,
                )
            version_before = self.lake.version
            added = replaced = removed = skipped = 0
            for event in batch:
                outcome = self._apply_event(event)
                if outcome == "added":
                    added += 1
                elif outcome == "replaced":
                    replaced += 1
                elif outcome == "removed":
                    removed += 1
                else:
                    skipped += 1
            if self.refresh is not None:
                self.refresh()
            checkpoint_version = self.lake.checkpoint() if self.checkpoint else None
            self.stats["batches_applied"] += 1
            self.stats["events_applied"] += len(batch)
            return MicroBatchReport(
                events=len(batch),
                added=added,
                replaced=replaced,
                removed=removed,
                skipped=skipped,
                version_before=version_before,
                version_after=self.lake.version,
                checkpoint_version=checkpoint_version,
                seconds=time.monotonic() - started,
            )
        finally:
            if exclusive:
                self.gate.release_exclusive()

    def _apply_event(self, event: TableEvent) -> str:
        """Apply one netted operation with membership-resolved semantics."""
        present = event.name in self.lake
        if event.op == "remove":
            if not present:
                return "skipped"
            self.lake.remove_table(event.name)
            return "removed"
        assert event.table is not None  # enforced by TableEvent validation
        if present:
            previous = self.lake.replace_table(event.table)
            if previous.content_fingerprint() == event.table.content_fingerprint():
                return "skipped"  # fingerprint no-op inside replace_table
            return "replaced"
        self.lake.add_table(event.table)
        return "added"
