"""Locating a deployment's sharded executor: :func:`find_sharded`.

Tests and benchmarks use it to reach a built backend's
:class:`~repro.search.sharded.ShardedSearcher` (its shards, deferred
restores and per-shard store entries) through the ``Discovery`` facade.  The
module keeps its path because dustbench imports :func:`find_sharded` from it.
"""

from __future__ import annotations

from repro.search.base import TableUnionSearcher
from repro.search.sharded import ShardedSearcher


def find_sharded(searcher: TableUnionSearcher | None) -> ShardedSearcher | None:
    """``searcher`` when it is a :class:`ShardedSearcher`, else ``None``."""
    return searcher if isinstance(searcher, ShardedSearcher) else None
