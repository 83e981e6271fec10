"""Streaming ingestion: coalesced micro-batch writes for live lakes.

The write-path counterpart of the serving layer.  A stream of table
add/remove/replace events (:mod:`repro.ingest.events`) flows into one
:class:`~repro.ingest.controller.IngestController` per deployment, which
keeps the last event per table and applies bounded micro-batches atomically
to the lake and its indexes under the deployment's activity gate, with
journal compaction checkpoints so ``changes_since`` consumers re-anchor
instead of hitting the full-rebuild floor.  ``Discovery.ingest()`` is the
front door, ``POST /v1/ingest`` and ``python -m repro ingest`` the wire/CLI
surfaces.
"""

from repro.ingest.controller import IngestController
from repro.ingest.events import (
    EVENT_OPS,
    TableEvent,
    event_from_payload,
    events_from_jsonl,
)

__all__ = [
    "EVENT_OPS",
    "IngestController",
    "TableEvent",
    "event_from_payload",
    "events_from_jsonl",
]
