"""Deterministic lake sharding: :class:`LakePartitioner` and :class:`LakeShard`.

A large lake is indexed and served in **shards** — disjoint subsets of its
tables.  A :class:`LakeShard` is a cheap *view*: it names its member tables
and materialises a :class:`~repro.datalake.lake.DataLake` that shares the
parent's :class:`~repro.datalake.table.Table` objects without copying a cell.
Because shard lakes are content-fingerprinted exactly like any other lake,
everything built on fingerprints composes per shard for free: the
:class:`~repro.serving.store.IndexStore` persists one entry per shard, and
mutating one shard changes only that shard's fingerprint, so only that
shard's index is rebuilt and re-persisted.

Tables are assigned by a stable hash of their *name*, deterministic across
processes and runs.  Assignment is mutation-stable: adding or removing a
table never moves any other table between shards, which keeps incremental
refreshes local to the mutated shard.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.utils.errors import DataLakeError


def _stable_shard_hash(name: str) -> int:
    """Process-stable integer hash of a table name (no PYTHONHASHSEED drift)."""
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class LakeShard:
    """One shard of a partitioned lake: a named, ordered subset of its tables.

    Table objects are shared with the parent lake — materialising the shard
    via :meth:`to_lake` copies references, never cell values — so a shard is
    always a live view of the parent's current content.
    """

    parent: DataLake
    shard_id: int
    num_shards: int
    #: Member table names, in the parent lake's insertion order.
    table_names: tuple[str, ...]

    @property
    def num_tables(self) -> int:
        return len(self.table_names)

    @property
    def is_empty(self) -> bool:
        return not self.table_names

    def tables(self) -> list[Table]:
        """The member tables (shared objects, parent insertion order)."""
        return [self.parent.get(name) for name in self.table_names]

    def to_lake(self) -> DataLake:
        """Materialise the shard as a lake sharing the parent's tables.

        The name encodes the shard topology for readability only — lake
        fingerprints deliberately exclude the name, so a shard lake's
        fingerprint is purely its members' content and persisted shard
        indexes are shared with any equal-content lake.
        """
        return DataLake(
            self.tables(),
            name=f"{self.parent.name}#shard{self.shard_id}of{self.num_shards}",
        )

    def table_fingerprints(self) -> dict[str, str]:
        """``name -> content fingerprint`` of the member tables, in order."""
        return {
            name: self.parent.get(name).content_fingerprint()
            for name in self.table_names
        }

    def fingerprint(self) -> str:
        """Content fingerprint of the shard (same digest as :meth:`to_lake`).

        Depends only on the member tables' content — not on shard topology —
        so mutating one table changes exactly one shard's fingerprint and
        re-sharding an unchanged lake re-addresses existing persisted
        entries instead of invalidating them.
        """
        hasher = hashlib.sha256()
        for name in self.table_names:
            hasher.update(self.parent.get(name).content_fingerprint().encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"LakeShard({self.shard_id}/{self.num_shards}, tables={self.num_tables})"
        )


class LakePartitioner:
    """Splits a lake into ``num_shards`` deterministic :class:`LakeShard` views."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise DataLakeError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)

    def shard_id_of(self, table_name: str) -> int:
        """The shard a table name maps to."""
        return _stable_shard_hash(table_name) % self.num_shards

    def partition(self, lake: DataLake) -> list[LakeShard]:
        """Partition ``lake`` into exactly ``num_shards`` disjoint shards.

        Every table lands in exactly one shard; shards may be empty (more
        shards than tables).  Member order within a shard follows the lake's
        insertion order, so re-partitioning an unchanged lake is stable.
        """
        members: list[list[str]] = [[] for _ in range(self.num_shards)]
        for name in lake.table_names():
            members[self.shard_id_of(name)].append(name)
        return [
            LakeShard(
                parent=lake,
                shard_id=shard_id,
                num_shards=self.num_shards,
                table_names=tuple(names),
            )
            for shard_id, names in enumerate(members)
        ]
