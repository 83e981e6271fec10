"""Table mutation events — the unit of streaming ingestion.

A :class:`TableEvent` describes one intended lake mutation: add, remove, or
replace a named table.  Events are what producers hand to the
:class:`~repro.ingest.controller.IngestController`, which keeps the last
one per table name and applies them in bounded micro-batches.

Events also have a wire form (:meth:`TableEvent.to_payload` /
:func:`event_from_payload`) shared by the ``POST /v1/ingest`` server
endpoint and the ``python -m repro ingest`` CLI, and a JSONL reader
(:func:`events_from_jsonl`) for file/stdin streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterator, Mapping

from repro.datalake.io import table_from_payload, table_to_payload
from repro.datalake.table import Table
from repro.utils.errors import IngestError

#: Operations an event may carry.
EVENT_OPS = ("add", "remove", "replace")


@dataclass(frozen=True)
class TableEvent:
    """One intended lake mutation.

    ``op`` is one of :data:`EVENT_OPS`.  ``add`` and ``replace`` carry the
    table payload; ``remove`` carries only the name.  ``cost_bytes`` is a
    cheap size estimate (cells, not serialized bytes) used by the
    controller's batch byte budget.
    """

    op: str
    name: str
    table: Table | None = None
    cost_bytes: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.op not in EVENT_OPS:
            raise IngestError(
                f"unknown ingest op {self.op!r}; expected one of {EVENT_OPS}"
            )
        if not self.name:
            raise IngestError("ingest event requires a non-empty table name")
        if self.op == "remove":
            if self.table is not None:
                raise IngestError("remove events must not carry a table payload")
        else:
            if self.table is None:
                raise IngestError(f"{self.op!r} events require a table payload")
            if self.table.name != self.name:
                raise IngestError(
                    f"event name {self.name!r} does not match its table's name "
                    f"{self.table.name!r}"
                )
        object.__setattr__(self, "cost_bytes", _estimate_cost(self.table))

    def fingerprint(self) -> str | None:
        """Content fingerprint of the carried table (``None`` for removes)."""
        return None if self.table is None else self.table.content_fingerprint()

    def to_payload(self) -> dict:
        """Wire form: ``{"op", "name"}`` plus ``"table"`` for add/replace."""
        payload: dict = {"op": self.op, "name": self.name}
        if self.table is not None:
            payload["table"] = table_to_payload(self.table)
        return payload


def _estimate_cost(table: Table | None) -> int:
    if table is None:
        return 64  # a remove is just a name — charge a small constant
    total = 64
    for column in table.columns:
        total += 16 + len(column)
    for row in table.rows:
        for value in row:
            total += 8 if value is None else 8 + len(str(value))
    return total


def event_from_payload(payload: Mapping) -> TableEvent:
    """Parse the wire form produced by :meth:`TableEvent.to_payload`."""
    if not isinstance(payload, Mapping):
        raise IngestError(
            f"ingest event payload must be an object, got {type(payload).__name__}"
        )
    op = payload.get("op")
    name = payload.get("name")
    if not isinstance(op, str) or not isinstance(name, str):
        raise IngestError("ingest event payload requires string 'op' and 'name'")
    table = None
    raw_table = payload.get("table")
    if raw_table is not None:
        try:
            table = table_from_payload(raw_table)
        except Exception as exc:
            raise IngestError(
                f"ingest event for {name!r} carries an invalid table payload: {exc}"
            ) from exc
    return TableEvent(op=op, name=name, table=table)


def events_from_jsonl(stream: IO[str]) -> Iterator[TableEvent]:
    """Yield events from a JSONL stream, one event object per line.

    Blank lines are skipped.  Malformed lines raise :class:`IngestError`
    with the 1-based line number, so a bad feed fails loudly instead of
    silently dropping mutations.
    """
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"line {line_number}: invalid JSON: {exc}") from exc
        try:
            yield event_from_payload(payload)
        except IngestError as exc:
            raise IngestError(f"line {line_number}: {exc}") from exc
