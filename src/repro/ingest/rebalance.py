"""Locating sharded backends for online rebalancing.

The rebalancing machinery itself lives on
:class:`~repro.search.sharded.ShardedSearcher` (it owns the shard state);
this module supplies the glue the
:class:`~repro.ingest.controller.IngestController` needs: unwrap a built
backend down to its sharded composite (the facade may wrap it in a
:class:`~repro.search.cascade.CascadeSearcher`), whose ``shard_loads()`` the
controller reads so it only pays for a rebalance when drift crossed its
skew threshold.
"""

from __future__ import annotations

from repro.search.base import TableUnionSearcher
from repro.search.sharded import ShardedSearcher


def find_sharded(searcher: TableUnionSearcher | None) -> ShardedSearcher | None:
    """Unwrap ``searcher`` to the :class:`ShardedSearcher` inside, if any.

    Follows the cascade's ``base`` chain (a ``CascadeSearcher`` wraps its
    exact backend as ``self.base``); returns ``None`` for unsharded
    backends.
    """
    seen = 0
    while searcher is not None and seen < 8:  # defensively bounded unwrap
        if isinstance(searcher, ShardedSearcher):
            return searcher
        searcher = getattr(searcher, "base", None)
        seen += 1
    return None

