"""Cached search serving: a bounded LRU plus the warm / refresh / persist lifecycle.

:class:`QueryService` wraps one indexed
:class:`~repro.search.base.TableUnionSearcher`.  It never fans queries out:
step-1 search is a few milliseconds of a request whose cost lives in
alignment, tuple embedding and Algorithm 2, so :meth:`search_many` is a plain
loop over :meth:`search` and served rankings are trivially bit-identical to
direct in-process search.

* **Caching** — results are memoised in a bounded LRU keyed by
  ``(backend config fingerprint, lake fingerprint, query fingerprint, k)``.
  The key is pure content, so repeated queries — within a run or across
  :meth:`warm` cycles on the same lake — are served from memory.
* **Persistence** — hand :meth:`warm` an
  :class:`~repro.serving.store.IndexStore` and the searcher restores the
  lake's index from disk instead of rebuilding it (building and persisting on
  first contact, delta-updating the closest prior snapshot when the lake's
  content moved).  *How* is the searcher's business
  (:meth:`~repro.search.base.TableUnionSearcher.warm` /
  :meth:`~repro.search.base.TableUnionSearcher.persist`): one entry for a
  flat backend, one per shard for a sharded one — the service never touches
  the store.
* **Mutation** — when the warmed lake mutates in place
  (``add_table``/``remove_table``/``replace_table``), :meth:`refresh` applies
  the delta to the index, re-persists it and drops the now-stale result
  cache; until then queries keep serving the previously indexed content.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.search.base import SearchResult, TableUnionSearcher
from repro.serving.store import IndexStore
from repro.utils.errors import ServingError

#: Cache key: (backend config fingerprint, lake fingerprint, query fingerprint, k).
CacheKey = tuple[str, str, str, int]


class QueryService:
    """Serves top-k searches for one backend through a bounded LRU cache."""

    def __init__(
        self, searcher: TableUnionSearcher, *, cache_size: int = 1024
    ) -> None:
        if cache_size < 0:
            raise ServingError(f"cache_size must be non-negative, got {cache_size}")
        self.searcher = searcher
        self.cache_size = cache_size
        self._cache: OrderedDict[CacheKey, list[SearchResult]] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._lake_fingerprint = (
            searcher.lake.fingerprint() if searcher.is_indexed else None
        )

    # ------------------------------------------------------------------ warm
    def warm(self, lake: DataLake, store: IndexStore | None = None) -> "QueryService":
        """Index ``lake`` — through ``store`` when one is given.

        The searcher owns its lifecycle
        (:meth:`~repro.search.base.TableUnionSearcher.warm`): with a store,
        the lake's persisted index is loaded when present and built +
        persisted otherwise; without one it indexes in-process.  Warming
        onto a different lake resets the result cache.
        """
        self.searcher.warm(lake, store)
        fingerprint = lake.fingerprint()
        with self._lock:
            if fingerprint != self._lake_fingerprint:
                self._cache.clear()
            self._lake_fingerprint = fingerprint
        return self

    @property
    def is_warm(self) -> bool:
        """Whether the underlying searcher holds a lake index."""
        return self.searcher.is_indexed

    @property
    def drifted(self) -> bool:
        """Whether the warmed lake's content moved since the last warm/refresh."""
        return (
            not self.searcher.is_indexed
            or self.searcher.lake.fingerprint() != self._lake_fingerprint
        )

    # --------------------------------------------------------------- refresh
    def refresh(self) -> "QueryService":
        """Re-synchronise with the warmed lake after it mutated in place.

        The searcher applies the net content delta incrementally
        (:meth:`~repro.search.base.TableUnionSearcher.refresh` — a rebuild
        only where a backend cannot apply it), the updated index is persisted
        to the store it was warmed through, and the result cache is
        dropped: every cached ranking was computed against the previous lake
        content, and serving it against the new fingerprint would be a silent
        staleness bug.  A no-op when the lake content is unchanged, so it is
        safe (and cheap) to call defensively before serving a batch.

        Until ``refresh()`` is called, queries keep being served — and
        cached — against the *previously indexed* content, which is the
        documented consistency model: mutations become visible at refresh
        points, never mid-workload.
        """
        if not self.searcher.is_indexed:
            raise ServingError("QueryService.refresh() called before warm()")
        fingerprint = self.searcher.lake.fingerprint()
        if fingerprint == self._lake_fingerprint:
            return self
        self.searcher.refresh()
        # Swap the cache/fingerprint *before* persistence: if the save
        # fails (full disk, permissions), the in-memory service must already
        # be consistent with the updated index — otherwise later searches
        # would key into the stale cache with the old fingerprint and serve
        # mixed-era rankings.
        with self._lock:
            self._cache.clear()
            self._lake_fingerprint = fingerprint
        self.searcher.persist()
        return self

    # ----------------------------------------------------------------- search
    def _key(self, query_table: Table, k: int) -> CacheKey | None:
        """The query's cache key — ``None`` for a cache-less service, which
        then pays no fingerprint derivation at all."""
        if self._lake_fingerprint is None:
            raise ServingError("QueryService used before warm()/an indexed searcher")
        if self.cache_size == 0:
            return None
        # The backend fingerprint is read live, not captured at construction:
        # wrappers like CascadeSearcher fold their own configuration (mode,
        # budget, margin) into config_fingerprint(), and two cascade configs
        # over the same backend+lake must never share cached rankings.
        return (
            self.searcher.config_fingerprint(),
            self._lake_fingerprint,
            query_table.content_fingerprint(),
            int(k),
        )

    def search(self, query_table: Table, k: int) -> list[SearchResult]:
        """Top-k search for one query, served from the LRU cache when possible."""
        key = self._key(query_table, k)
        with self._lock:
            cached = self._cache.get(key) if key is not None else None
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                return list(cached)
        results = self.searcher.search(query_table, k)
        with self._lock:
            self._misses += 1
            if key is not None:
                self._cache[key] = list(results)
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return list(results)

    def search_many(
        self, query_tables: Sequence[Table], k: int
    ) -> list[list[SearchResult]]:
        """Top-k search for every query, in input order.

        A loop over :meth:`search`, so ``search_many(queries, k)[i]`` equals
        ``search(queries[i], k)``: hits are served from the cache, misses are
        scored in-process and written back.
        """
        return [self.search(query, k) for query in query_tables]

    def search_tables(self, query_table: Table, k: int) -> list[Table]:
        """Like :meth:`search` but returning the lake tables themselves."""
        return [
            self.searcher.lake.get(result.table_name)
            for result in self.search(query_table, k)
        ]

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the result cache.

        The LRU is dropped (its cached rankings can pin large result lists)
        and the service refuses further queries by behaving as if it was
        never warmed.  Double-close is a no-op.
        """
        with self._lock:
            self._cache.clear()
            self._lake_fingerprint = None

    # ------------------------------------------------------------------ stats
    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss counters and current cache size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
            }
