"""Locating sharded backends for online rebalancing.

The rebalancing machinery itself lives on
:class:`~repro.search.sharded.ShardedSearcher` (it owns the shard state);
this module supplies the glue the
:class:`~repro.ingest.controller.IngestController` needs: the built
backend's executor, whose ``shard_loads()`` the controller reads so it only
pays for a rebalance when drift crossed its skew threshold.
"""

from __future__ import annotations

from repro.search.base import TableUnionSearcher
from repro.search.sharded import ShardedSearcher


def find_sharded(searcher: TableUnionSearcher | None) -> ShardedSearcher | None:
    """``searcher`` when it is a :class:`ShardedSearcher`, else ``None``."""
    return searcher if isinstance(searcher, ShardedSearcher) else None
