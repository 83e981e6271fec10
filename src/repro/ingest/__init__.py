"""Streaming ingestion: coalesced micro-batch writes for live lakes.

The write-path counterpart of the serving layer.  A stream of table
add/remove/replace events (:mod:`repro.ingest.events`) flows through a
netting :class:`~repro.ingest.queue.IngestQueue` (one pending operation per
table — dedup, supersede, cancel; :mod:`repro.ingest.registry`), is
coalesced into bounded micro-batches and applied atomically to the lake and
its indexes under the deployment's activity gate
(:mod:`repro.ingest.batcher`), with journal compaction checkpoints so
``changes_since`` consumers re-anchor instead of hitting the full-rebuild
floor, and online shard rebalancing when size skew drifts
(:mod:`repro.ingest.rebalance`).  :class:`~repro.ingest.controller.IngestController`
ties the chain to one :class:`~repro.api.facade.Discovery` deployment —
``Discovery.ingest()`` is the front door, ``POST /v1/ingest`` and
``python -m repro ingest`` the wire/CLI surfaces.
"""

from repro.ingest.batcher import MicroBatcher, MicroBatchReport
from repro.ingest.controller import IngestController
from repro.ingest.events import (
    EVENT_OPS,
    TableEvent,
    event_from_payload,
    events_from_jsonl,
)
from repro.ingest.queue import IngestQueue
from repro.ingest.rebalance import find_sharded
from repro.ingest.registry import DeltaRegistry

__all__ = [
    "EVENT_OPS",
    "DeltaRegistry",
    "IngestController",
    "IngestQueue",
    "MicroBatchReport",
    "MicroBatcher",
    "TableEvent",
    "event_from_payload",
    "events_from_jsonl",
    "find_sharded",
]
