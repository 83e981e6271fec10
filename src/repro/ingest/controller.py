"""The :class:`IngestController` — streaming ingestion for a deployment.

``Discovery.ingest()`` builds one controller per deployment (configured by
the :class:`~repro.api.config.DiscoveryConfig` ``ingest`` section).  It owns
the queue → registry → micro-batcher chain targeting the facade's attached
lake, runs every applied batch through :meth:`Discovery.resync` (per-shard
``update_index``) while holding the deployment's
:class:`~repro.serving.maintenance.ActivityGate`, checkpoints the journal
after each batch so re-anchoring consumers never hit the full-rebuild floor,
and triggers online shard rebalancing when size skew drifts past the
configured threshold.  The server's maintenance loop drives
:meth:`flush_if_due`/:meth:`maybe_rebalance` between request bursts; embedded
callers flush explicitly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.ingest.batcher import MicroBatcher
from repro.ingest.events import TableEvent, event_from_payload
from repro.ingest.queue import IngestQueue
from repro.ingest.rebalance import find_sharded
from repro.search.sharded import skew_of
from repro.utils.errors import IngestError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> ingest)
    from repro.api.facade import Discovery
    from repro.serving.maintenance import ActivityGate


class IngestController:
    """Streaming write path for one :class:`~repro.api.facade.Discovery`.

    Thread-safe for producers: :meth:`submit`/:meth:`submit_many` may be
    called from any thread; flushing serialises internally and (with a gate)
    excludes live queries per batch.
    """

    def __init__(
        self,
        discovery: "Discovery",
        *,
        gate: "ActivityGate | None" = None,
        max_batch_events: int = 256,
        max_batch_bytes: int = 1_048_576,
        max_latency_seconds: float = 0.5,
        checkpoint: bool = True,
        rebalance_skew_threshold: float = 2.0,
        exclusive_timeout_seconds: float = 5.0,
    ) -> None:
        self.discovery = discovery
        lake = discovery.lake  # raises when not attached
        self.rebalance_skew_threshold = float(rebalance_skew_threshold)
        self.queue = IngestQueue(fingerprint_of=self._fingerprint_of)
        self.batcher = MicroBatcher(
            self.queue,
            lake,
            refresh=discovery.resync,
            gate=gate,
            max_events=max_batch_events,
            max_bytes=max_batch_bytes,
            max_latency_seconds=max_latency_seconds,
            checkpoint=checkpoint,
            exclusive_timeout=exclusive_timeout_seconds,
        )
        self._rebalances = 0
        self._rebalance_moved = 0

    # ------------------------------------------------------------------- gate
    @property
    def gate(self) -> "ActivityGate | None":
        return self.batcher.gate

    def bind_gate(self, gate: "ActivityGate | None") -> "IngestController":
        """(Re)bind the activity gate batches must hold exclusively."""
        self.batcher.gate = gate
        return self

    def _fingerprint_of(self, name: str) -> str | None:
        lake = self.batcher.lake
        if name not in lake:
            return None
        return lake.get(name).content_fingerprint()

    # ------------------------------------------------------------- submission
    def submit(self, event: "TableEvent | Mapping") -> bool:
        """Net one event (or its wire payload) into the queue."""
        if isinstance(event, Mapping):
            event = event_from_payload(event)
        elif not isinstance(event, TableEvent):
            raise IngestError(
                f"submit() accepts TableEvent or payload mappings, got "
                f"{type(event).__name__}"
            )
        return self.queue.submit(event)

    def submit_many(self, events: Iterable["TableEvent | Mapping"]) -> int:
        """Submit every event; returns how many left work pending."""
        return sum(1 for event in events if self.submit(event))

    # --------------------------------------------------------------- flushing
    @property
    def pending_events(self) -> int:
        return self.queue.pending_events

    @property
    def pending_bytes(self) -> int:
        return self.queue.pending_bytes

    def due(self) -> bool:
        """Whether a flush bound (count, bytes, latency) has tripped."""
        return self.batcher.due()

    def flush(self) -> list[dict]:
        """Apply all pending events now; one report dict per micro-batch."""
        return [report.to_dict() for report in self.batcher.flush()]

    def flush_if_due(self) -> list[dict]:
        """Flush only when a bound has tripped (maintenance-loop entry point)."""
        return [report.to_dict() for report in self.batcher.flush_if_due()]

    # ------------------------------------------------------------- rebalancing
    def maybe_rebalance(self, *, force: bool = False) -> list[dict]:
        """Rebalance every sharded backend whose size skew drifted too far.

        Walks the deployment's built backends, unwraps each to its sharded
        composite (if any), and — when the skew exceeds the configured
        threshold, or ``force`` is set — runs
        :meth:`~repro.search.sharded.ShardedSearcher.rebalance` under the
        gate's exclusive mode, so queries never observe a half-moved
        partition.  Returns one report per backend considered; a gate drain
        timeout skips that backend until the next cycle (never blocks
        traffic, never loses state).
        """
        reports: list[dict] = []
        for key in self.discovery.built_backends:
            sharded = find_sharded(self.discovery.searcher(key))
            if sharded is None:
                continue
            skew = skew_of(sharded.shard_loads())
            if not force and skew <= self.rebalance_skew_threshold:
                continue
            gate = self.gate
            if gate is not None and not gate.acquire_exclusive(
                timeout=self.batcher.exclusive_timeout
            ):
                reports.append(
                    {"backend": key, "rebalanced": False, "yielded": True}
                )
                continue
            try:
                report = sharded.rebalance(
                    skew_threshold=self.rebalance_skew_threshold
                )
            finally:
                if gate is not None:
                    gate.release_exclusive()
            if report.get("rebalanced"):
                self._rebalances += 1
                self._rebalance_moved += int(report.get("moved", 0))
            reports.append({"backend": key, **report})
        return reports

    # ------------------------------------------------------------------ stats
    @property
    def stats(self) -> dict:
        """Netting, batching and rebalancing counters plus pending state."""
        merged: dict = dict(self.queue.stats)
        merged.update(self.batcher.stats)
        merged.update(
            pending_events=self.pending_events,
            pending_bytes=self.pending_bytes,
            rebalances=self._rebalances,
            rebalance_moved_tables=self._rebalance_moved,
        )
        return merged

    def close(self) -> None:
        """Release the controller; pending events stay queued, unapplied."""
