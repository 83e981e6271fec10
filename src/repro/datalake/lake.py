"""The :class:`DataLake` catalog.

A data lake is simply a named collection of :class:`~repro.datalake.table.Table`
objects (paper Sec. 3: the set ``D`` of data lake tables).  The catalog keeps
insertion order, enforces unique table names, supports the preprocessing rules
used in the paper's experiments (drop all-null columns, drop query tables with
fewer than three rows) and exposes simple statistics used by the Fig. 5
benchmark-statistics experiment.

Lakes are **versioned**: every mutation made through :meth:`~DataLake.add_table`,
:meth:`~DataLake.remove_table`, :meth:`~DataLake.replace_table` or
:meth:`~DataLake.touch` bumps :attr:`~DataLake.version` and is journaled, so
:meth:`~DataLake.changes_since` can report the net
:class:`~repro.datalake.delta.LakeDelta` between any two versions — the input
to incremental index maintenance
(:meth:`~repro.search.base.TableUnionSearcher.update_index`).  Tables passed
to the constructor are the version-0 seed state, not mutations: they are
catalogued without journal entries.

The journal is bounded (:data:`MAX_JOURNAL_ENTRIES`); a long-lived,
high-write lake eventually trims entries and consumers anchored below the
trim floor would fall off the full-rebuild cliff.  **Compaction checkpoints**
(:meth:`~DataLake.checkpoint`) close that gap: a checkpoint records the
lake's per-table fingerprint snapshot at its version, and
:meth:`~DataLake.changes_since` falls back to diffing the snapshot against
the current content when the journal no longer reaches that far — so a
consumer that re-anchors at checkpointed versions (the streaming-ingest
micro-batcher checkpoints after every applied batch) never sees ``None``
regardless of how many events have streamed past it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.datalake.delta import LakeDelta, diff_table_fingerprints, fingerprint_digest
from repro.datalake.table import Table
from repro.utils.errors import DataLakeError

#: Journal entries kept before the oldest are dropped.  Versions older than
#: the retained window make ``changes_since`` return ``None`` (callers then
#: fall back to a fingerprint diff or a full rebuild) unless they are
#: checkpointed, so the bound trades a rebuild on very stale consumers for
#: bounded memory on long-lived lakes.
MAX_JOURNAL_ENTRIES = 4096

#: Compaction checkpoints retained before the oldest are dropped.  Each
#: checkpoint is one ``name -> fingerprint`` map (O(tables) strings), so the
#: bound keeps checkpointing O(1) in the number of applied batches.
MAX_CHECKPOINTS = 16


class DataLake:
    """An ordered, name-indexed, versioned collection of tables."""

    def __init__(self, tables: Iterable[Table] = (), *, name: str = "datalake") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._version = 0
        #: ``(version_after_the_op, "add" | "remove", table_name)`` entries.
        self._journal: list[tuple[int, str, str]] = []
        #: Versions at or below this floor predate the retained journal.
        self._journal_floor = 0
        #: Total journal entries discarded by the trim (write-path health).
        self._journal_dropped = 0
        #: Compaction checkpoints: ``version -> table fingerprint snapshot``.
        self._checkpoints: dict[int, dict[str, str]] = {}
        # Seed tables are the lake's version-0 state, not mutations: they
        # enter the catalog without version bumps or journal entries, so
        # constructing a large lake (or a shard view of one) never burns the
        # bounded journal window and consumers pinned at version 0 see an
        # empty delta instead of a spurious full rebuild.
        for table in tables:
            self._admit(table)

    # ------------------------------------------------------------- versioning
    @property
    def version(self) -> int:
        """Monotonic mutation counter (0 for an empty, untouched lake).

        Only catalog-level operations bump the version; mutating a member
        table in place (:meth:`Table.append_rows`) does not — call
        :meth:`touch` afterwards to register the change, or rely on
        fingerprint diffs (:meth:`table_fingerprints`), which always see
        through in-place mutation.
        """
        return self._version

    def _journal_op(self, op: str, name: str) -> None:
        self._journal.append((self._version, op, name))
        if len(self._journal) > MAX_JOURNAL_ENTRIES:
            dropped = len(self._journal) - MAX_JOURNAL_ENTRIES
            # Never split a same-version entry group (the remove+add pair a
            # replace/touch journals at one version): trimming half of a pair
            # would leave an orphaned entry whose version equals the floor.
            # Extend the trim to the group boundary so the floor is always a
            # clean edge — every retained entry's version is > the floor.
            while (
                dropped < len(self._journal)
                and self._journal[dropped][0] == self._journal[dropped - 1][0]
            ):
                dropped += 1
            self._journal_floor = self._journal[dropped - 1][0]
            self._journal_dropped += dropped
            del self._journal[:dropped]

    @property
    def journal_depth(self) -> int:
        """Number of journal entries currently retained."""
        return len(self._journal)

    @property
    def journal_floor(self) -> int:
        """Oldest version ``changes_since`` can serve from the journal.

        A consumer at exactly the floor is still served (the floor version's
        own entries were dropped, but every *later* entry is retained, which
        is all a floor-anchored consumer needs); versions strictly below the
        floor fall back to compaction checkpoints, then to ``None``.
        """
        return self._journal_floor

    @property
    def journal_dropped(self) -> int:
        """Total journal entries discarded by the bounded-journal trim."""
        return self._journal_dropped

    # ------------------------------------------------------------- compaction
    def checkpoint(self) -> int:
        """Record a compaction checkpoint at the current version.

        Snapshots the per-table fingerprint map so ``changes_since`` can
        later serve a consumer anchored at this version even after the
        journal trims past it.  At most :data:`MAX_CHECKPOINTS` snapshots are
        retained (oldest evicted first).  Returns the checkpointed version.
        """
        self._checkpoints[self._version] = self.table_fingerprints()
        while len(self._checkpoints) > MAX_CHECKPOINTS:
            del self._checkpoints[min(self._checkpoints)]
        return self._version

    @property
    def checkpoint_versions(self) -> list[int]:
        """Versions with a retained compaction checkpoint, ascending."""
        return sorted(self._checkpoints)

    def _changes_from_checkpoint(self, version: int) -> LakeDelta | None:
        snapshot = self._checkpoints.get(version)
        if snapshot is None:
            return None
        added, removed = diff_table_fingerprints(snapshot, self.table_fingerprints())
        return LakeDelta(
            base_version=version,
            version=self._version,
            added=tuple(added),
            removed=tuple(removed),
        )

    def changes_since(self, version: int) -> LakeDelta | None:
        """Net delta between ``version`` and the current version.

        Served from the journal when ``version`` is within the retained
        window; when it predates the window, a compaction checkpoint at
        exactly that version (see :meth:`checkpoint`) is diffed against the
        current content instead.  Returns ``None`` only when neither source
        can derive the delta: ``version`` is in the future, or it is below
        the journal floor and not checkpointed.  Callers treat ``None`` as
        "assume everything changed" (full rebuild or fingerprint diff).
        Replaced/touched tables appear in both ``added`` and ``removed``;
        add-then-remove sequences cancel out.
        """
        if version > self._version:
            return None
        if version < self._journal_floor:
            return self._changes_from_checkpoint(version)
        first_op: dict[str, str] = {}
        for entry_version, op, table_name in self._journal:
            if entry_version <= version:
                continue
            first_op.setdefault(table_name, op)
        added: list[str] = []
        removed: list[str] = []
        for table_name, op in first_op.items():
            present_at_base = op == "remove"
            present_now = table_name in self._tables
            if present_at_base:
                removed.append(table_name)
            if present_now:
                added.append(table_name)
        return LakeDelta(
            base_version=version,
            version=self._version,
            added=tuple(added),
            removed=tuple(removed),
        )

    # ------------------------------------------------------------- mutation
    def _admit(self, table: Table) -> None:
        """Insert ``table`` into the catalog (no version bump, no journal)."""
        if table.name in self._tables:
            raise DataLakeError(
                f"data lake {self.name!r} already contains a table named {table.name!r}"
            )
        self._tables[table.name] = table

    def add_table(self, table: Table) -> "DataLake":
        """Add ``table``; raises :class:`DataLakeError` on duplicate names."""
        self._admit(table)
        self._version += 1
        self._journal_op("add", table.name)
        return self

    def remove_table(self, name: str) -> Table:
        """Remove and return the table called ``name``."""
        try:
            removed = self._tables.pop(name)
        except KeyError as exc:
            raise DataLakeError(
                f"data lake {self.name!r} has no table named {name!r}"
            ) from exc
        self._version += 1
        self._journal_op("remove", name)
        return removed

    def replace_table(self, table: Table) -> Table:
        """Swap in a new version of an existing table; returns the old one.

        Fingerprint-delta-aware: when the replacement's content fingerprint
        equals the incumbent's, the call is a no-op (no version bump, no
        journal entry), so re-loading an unchanged table never invalidates
        indexes or caches keyed by lake content.
        """
        try:
            previous = self._tables[table.name]
        except KeyError as exc:
            raise DataLakeError(
                f"data lake {self.name!r} has no table named {table.name!r} to replace"
            ) from exc
        if previous.content_fingerprint() == table.content_fingerprint():
            return previous
        self._tables[table.name] = table
        self._version += 1
        self._journal_op("remove", table.name)
        self._journal_op("add", table.name)
        return previous

    def touch(self, name: str) -> "DataLake":
        """Register an in-place mutation of the table called ``name``.

        :meth:`Table.append_rows` mutates a table without going through the
        catalog, so no journal entry records it.  ``touch`` journals the
        change as a replace (the table appears in both ``added`` and
        ``removed`` of subsequent deltas), keeping version-based consumers
        correct.  Fingerprint-diff consumers (:meth:`table_fingerprints`)
        see in-place mutation even without ``touch``.
        """
        if name not in self._tables:
            raise DataLakeError(
                f"data lake {self.name!r} has no table named {name!r}"
            )
        self._version += 1
        self._journal_op("remove", name)
        self._journal_op("add", name)
        return self

    # ------------------------------------------------------------- accessors
    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def get(self, name: str) -> Table:
        """Return the table called ``name``."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise DataLakeError(
                f"data lake {self.name!r} has no table named {name!r}"
            ) from exc

    def table_names(self) -> list[str]:
        """Return table names in insertion order."""
        return list(self._tables)

    def tables(self) -> list[Table]:
        """Return tables in insertion order."""
        return list(self._tables.values())

    # ------------------------------------------------------------ statistics
    @property
    def num_tables(self) -> int:
        """Number of tables in the lake."""
        return len(self._tables)

    @property
    def num_columns(self) -> int:
        """Total number of columns across all tables."""
        return sum(table.num_columns for table in self)

    @property
    def num_rows(self) -> int:
        """Total number of tuples across all tables."""
        return sum(table.num_rows for table in self)

    def fingerprint(self) -> str:
        """Content fingerprint of the lake: digest over every table, in order.

        The lake ``name`` is deliberately excluded so two lakes holding the
        same tables share persisted indexes and cached search results.  The
        digest is recomputed on every call (each table's own fingerprint is
        cached), so it reflects in-place ``append_rows`` mutations that the
        version counter cannot see.
        """
        return fingerprint_digest(table.content_fingerprint() for table in self)

    def table_fingerprints(self) -> dict[str, str]:
        """``table name -> content fingerprint`` for every table, in order.

        This is the lake's content snapshot used for delta derivation:
        diffing two snapshots (:func:`~repro.datalake.delta.diff_table_fingerprints`)
        yields the same net delta as the journal, works across processes (the
        :class:`~repro.serving.store.IndexStore` persists the map in each
        entry's manifest) and additionally catches in-place table mutation.
        """
        return {table.name: table.content_fingerprint() for table in self}

    def filter(self, predicate: Callable[[Table], bool], *, name: str | None = None) -> "DataLake":
        """Return a new lake with only the tables satisfying ``predicate``."""
        return DataLake(
            (table for table in self if predicate(table)),
            name=name or self.name,
        )

    def preprocess(self, *, min_rows: int = 0) -> "DataLake":
        """Apply the paper's preprocessing (Sec. 6.1, final paragraph).

        Columns whose values are all null are dropped from every table, and
        tables with fewer than ``min_rows`` rows are removed (the paper uses
        ``min_rows=3`` for query tables).
        """
        cleaned = []
        for table in self:
            table = table.drop_all_null_columns()
            if table.num_rows >= min_rows and table.num_columns > 0:
                cleaned.append(table)
        return DataLake(cleaned, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"DataLake(name={self.name!r}, tables={self.num_tables}, "
            f"columns={self.num_columns}, rows={self.num_rows})"
        )
