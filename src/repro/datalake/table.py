"""In-memory relational tables.

The paper manipulates tables as bags of tuples over named columns (Sec. 3).
:class:`Table` is the value model used everywhere in this library: benchmark
generators produce them, union-search indexes them, column alignment rewrites
them and the DUST pipeline unions and diversifies their rows.

Cells are stored as Python objects (usually ``str`` or ``float``); missing
values are represented by ``None`` and recognised through
:func:`repro.utils.text.is_null`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.utils.errors import DataLakeError
from repro.utils.text import is_null, is_numeric

#: A single tuple (row) of a table: one value per column, in column order.
Row = tuple[Any, ...]


@dataclass(frozen=True)
class Column:
    """A column reference: the owning table name, header and position."""

    table_name: str
    name: str
    index: int

    @property
    def qualified_name(self) -> str:
        """``table.column`` identifier, unique within a data lake."""
        return f"{self.table_name}.{self.name}"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.qualified_name


@dataclass
class Table:
    """A named table with a header and a list of rows.

    Parameters
    ----------
    name:
        Identifier of the table inside its data lake (file name in the paper's
        benchmarks).
    columns:
        Column headers, in order.  Headers must be unique within the table.
    rows:
        Tuples of cell values.  Every row must have exactly ``len(columns)``
        values; shorter/longer rows raise :class:`DataLakeError`.
    metadata:
        Free-form annotations (topic, base-table provenance, ...).  Benchmark
        generators use this to record ground truth; the search and
        diversification code never reads it.
    """

    name: str
    columns: list[str]
    rows: list[Row] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise DataLakeError(
                f"table {self.name!r} has duplicate column headers: {self.columns}"
            )
        normalized: list[Row] = []
        for position, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise DataLakeError(
                    f"table {self.name!r} row {position} has {len(row)} values, "
                    f"expected {len(self.columns)}"
                )
            normalized.append(tuple(row))
        self.rows = normalized
        self._fingerprint_cache: str | None = None

    # ------------------------------------------------------------------ shape
    @property
    def num_rows(self) -> int:
        """Number of tuples in the table."""
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        """Number of columns in the table."""
        return len(self.columns)

    def __len__(self) -> int:
        return self.num_rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    # -------------------------------------------------------------- accessors
    def column_index(self, name: str) -> int:
        """Return the position of column ``name`` or raise :class:`DataLakeError`."""
        try:
            return self.columns.index(name)
        except ValueError as exc:
            raise DataLakeError(
                f"table {self.name!r} has no column {name!r}; columns are {self.columns}"
            ) from exc

    def column_ref(self, name: str) -> Column:
        """Return a :class:`Column` reference for column ``name``."""
        return Column(self.name, name, self.column_index(name))

    def column_refs(self) -> list[Column]:
        """Return :class:`Column` references for all columns, in order."""
        return [Column(self.name, name, i) for i, name in enumerate(self.columns)]

    def column_values(self, name: str, *, drop_nulls: bool = False) -> list[Any]:
        """Return the values of column ``name`` in row order."""
        index = self.column_index(name)
        values = [row[index] for row in self.rows]
        if drop_nulls:
            values = [value for value in values if not is_null(value)]
        return values

    def row_dict(self, position: int) -> dict[str, Any]:
        """Return row ``position`` as a ``{column: value}`` mapping."""
        if not 0 <= position < self.num_rows:
            raise DataLakeError(
                f"row index {position} out of range for table {self.name!r} "
                f"with {self.num_rows} rows"
            )
        return dict(zip(self.columns, self.rows[position]))

    # ------------------------------------------------------------- operations
    def project(self, columns: Sequence[str], *, name: str | None = None) -> "Table":
        """Return a new table containing only ``columns`` (in the given order)."""
        indices = [self.column_index(column) for column in columns]
        projected_rows = [tuple(row[i] for i in indices) for row in self.rows]
        return Table(
            name=name or self.name,
            columns=list(columns),
            rows=projected_rows,
            metadata=dict(self.metadata),
        )

    def select_rows(self, positions: Sequence[int], *, name: str | None = None) -> "Table":
        """Return a new table containing the rows at ``positions`` (in order)."""
        for position in positions:
            if not 0 <= position < self.num_rows:
                raise DataLakeError(
                    f"row index {position} out of range for table {self.name!r}"
                )
        return Table(
            name=name or self.name,
            columns=list(self.columns),
            rows=[self.rows[i] for i in positions],
            metadata=dict(self.metadata),
        )

    def rename_columns(self, mapping: Mapping[str, str], *, name: str | None = None) -> "Table":
        """Return a copy with columns renamed according to ``mapping``."""
        renamed = [mapping.get(column, column) for column in self.columns]
        return Table(
            name=name or self.name,
            columns=renamed,
            rows=list(self.rows),
            metadata=dict(self.metadata),
        )

    def drop_all_null_columns(self) -> "Table":
        """Drop columns whose values are all null (paper Sec. 6.1 preprocessing)."""
        keep = [
            column
            for column in self.columns
            if any(not is_null(value) for value in self.column_values(column))
        ]
        if len(keep) == self.num_columns:
            return self
        return self.project(keep)

    def distinct_rows(self, *, name: str | None = None) -> "Table":
        """Return a copy with exact duplicate rows removed (set semantics)."""
        seen: set[Row] = set()
        unique: list[Row] = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return Table(
            name=name or self.name,
            columns=list(self.columns),
            rows=unique,
            metadata=dict(self.metadata),
        )

    def append_rows(self, rows: Iterable[Row]) -> None:
        """Append ``rows`` in place, validating arity.

        This is the one in-place mutation the value model supports, and it
        invalidates the cached :meth:`content_fingerprint`, so every
        content-keyed consumer — searcher query memos, the
        :class:`~repro.api.facade.Discovery` result cache, persisted
        :class:`~repro.serving.store.IndexStore` entries — sees the table as
        new content on its next fingerprint read.  If the table is a member
        of a :class:`~repro.datalake.lake.DataLake`, the lake's *version*
        counter does not observe the mutation: call ``lake.touch(name)``
        afterwards (or let fingerprint-diff consumers such as
        ``searcher.refresh()`` detect it) so delta-maintained indexes
        re-index this table.
        """
        for row in rows:
            row = tuple(row)
            if len(row) != self.num_columns:
                raise DataLakeError(
                    f"cannot append row with {len(row)} values to table "
                    f"{self.name!r} with {self.num_columns} columns"
                )
            self.rows.append(row)
        self._fingerprint_cache = None

    def is_numeric_column(self, name: str, *, threshold: float = 0.8) -> bool:
        """Heuristically classify column ``name`` as numeric.

        A column is numeric when at least ``threshold`` of its non-null values
        parse as numbers (the same rule the D3L and SANTOS substrates use to
        route columns to numeric vs textual signals).
        """
        values = self.column_values(name, drop_nulls=True)
        if not values:
            return False
        numeric = sum(1 for value in values if is_numeric(value))
        return numeric / len(values) >= threshold

    def content_fingerprint(self) -> str:
        """Stable hex digest of the table's name, header and rows.

        Two tables with the same name, columns and cell values (``metadata``
        is excluded — no index reads it) produce the same fingerprint across
        processes, which is what lets the serving layer key persisted indexes
        and cached search results by content rather than by object identity.

        The digest is cached; :meth:`append_rows` invalidates it.  Mutating
        ``rows`` or ``columns`` directly bypasses the invalidation — go
        through the provided operations (which return new tables) instead.
        Incremental index maintenance diffs these fingerprints
        (:meth:`DataLake.table_fingerprints`) to decide which tables to
        re-index, so a stale cached digest would mean a silently stale index
        entry: the invalidation rule above is a correctness contract, not an
        optimisation detail.
        """
        if self._fingerprint_cache is not None:
            return self._fingerprint_cache
        hasher = hashlib.sha256()
        hasher.update(self.name.encode())
        for column in self.columns:
            hasher.update(b"\x1f")
            hasher.update(column.encode())
        for row in self.rows:
            hasher.update(b"\x1e")
            for value in row:
                hasher.update(b"\x1f")
                hasher.update(f"{type(value).__name__}:{value!r}".encode())
        self._fingerprint_cache = hasher.hexdigest()
        return self._fingerprint_cache

    def copy(self, *, name: str | None = None) -> "Table":
        """Return a deep-enough copy (rows are immutable tuples)."""
        return Table(
            name=name or self.name,
            columns=list(self.columns),
            rows=list(self.rows),
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"Table(name={self.name!r}, columns={self.num_columns}, "
            f"rows={self.num_rows})"
        )
