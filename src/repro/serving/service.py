"""Parallel multi-query search serving with a bounded LRU result cache.

:class:`QueryService` wraps one indexed
:class:`~repro.search.base.TableUnionSearcher` and serves multi-query
workloads:

* **Parallelism** — :meth:`search_many` partitions the queries into chunks
  and scores the chunks concurrently.  The default (``parallelism="auto"``)
  uses forked worker *processes* where the platform supports it: table
  scoring is Python-loop-heavy, so threads would serialize on the GIL, while
  forked children inherit the built index for free (no pickling, no rebuild)
  and return only the small ranked-result lists.  Results always come back in
  input order, and each query runs the exact same single-query code path as
  :meth:`TableUnionSearcher.search`, so served rankings are bit-identical to
  direct in-process search.  The executor selection, probe gating and forked
  mapping live in :mod:`repro.utils.parallel`, shared with the sharded index
  builder.
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
from repro.utils.parallel import (
    default_worker_count,
    parallel_map,
    probe_gate,
    resolve_parallelism,
)

#: Cache key: (backend config fingerprint, lake fingerprint, query fingerprint, k).
CacheKey = tuple[str, str, str, int]


class QueryService:
    """Serves top-k searches for one backend with caching and parallelism."""

    def __init__(
        self,
        searcher: TableUnionSearcher,
        *,
        max_workers: int | None = None,
        chunk_size: int = 8,
        cache_size: int = 1024,
        parallelism: str = "auto",
        parallel_min_seconds: float = 1.0,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ServingError(f"max_workers must be positive, got {max_workers}")
        if chunk_size <= 0:
            raise ServingError(f"chunk_size must be positive, got {chunk_size}")
        if cache_size < 0:
            raise ServingError(f"cache_size must be non-negative, got {cache_size}")
        if parallel_min_seconds < 0:
            raise ServingError(
                f"parallel_min_seconds must be non-negative, got {parallel_min_seconds}"
            )
        if parallelism not in ("auto", "process", "thread", "serial"):
            raise ServingError(
                f"parallelism must be auto/process/thread/serial, got {parallelism!r}"
            )
        self.searcher = searcher
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.cache_size = cache_size
        self.parallel_min_seconds = parallel_min_seconds
        self.parallelism = resolve_parallelism(parallelism)
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

    def _cache_get(self, key: CacheKey | None) -> list[SearchResult] | None:
        """Serve a hit from the LRU (``None`` on a miss).  Caller holds the lock."""
        cached = self._cache.get(key) if key is not None else None
        if cached is None:
            return None
        self._cache.move_to_end(key)
        self._hits += 1
        return list(cached)

    def _cache_put(self, key: CacheKey | None, results: list[SearchResult]) -> None:
        """Record a miss and insert into the bounded LRU.  Caller holds the lock."""
        self._misses += 1
        if key is not None:
            self._cache[key] = list(results)
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def search(self, query_table: Table, k: int) -> list[SearchResult]:
        """Top-k search for one query, served from the LRU cache when possible."""
        key = self._key(query_table, k)
        with self._lock:
            cached = self._cache_get(key)
        if cached is not None:
            return cached
        results = self.searcher.search(query_table, k)
        with self._lock:
            self._cache_put(key, results)
        return list(results)

    def search_many(
        self, query_tables: Sequence[Table], k: int
    ) -> list[list[SearchResult]]:
        """Top-k search for every query, in parallel, in input order.

        Queries are chunked (``chunk_size`` per task) so small workloads do
        not pay one dispatch per query; results are reassembled in submission
        order, so ``search_many(queries, k)[i]`` always equals
        ``search(queries[i], k)``.  Cached queries are answered up front and
        only the misses are dispatched to workers; every worker result is
        written back to the cache.  One probe query is always served
        in-process first — when the estimated remaining work is below
        ``parallel_min_seconds`` the whole workload stays in-process, so tiny
        workloads never pay worker startup.
        """
        queries = list(query_tables)
        if not queries:
            return []
        workers = default_worker_count(len(queries), max_workers=self.max_workers)

        def finalize(
            answers: list[list[SearchResult] | None],
        ) -> list[list[SearchResult]]:
            assert all(answer is not None for answer in answers)
            return answers  # type: ignore[return-value]

        # Serve cache hits immediately; collect the misses for the workers.
        answers: list[list[SearchResult] | None] = [None] * len(queries)
        pending: list[int] = []
        with self._lock:
            for position, query in enumerate(queries):
                answers[position] = self._cache_get(self._key(query, k))
                if answers[position] is None:
                    pending.append(position)

        if (
            workers <= 1
            or len(pending) <= 1
            or self.parallelism == "serial"
        ):
            for position in pending:
                answers[position] = self.search(queries[position], k)
            return finalize(answers)

        # Probe (shared heuristic: repro.utils.parallel.probe_gate): serve the
        # first misses in-process to estimate the per-query cost, and skip
        # the fan-out entirely when the remaining work would not amortise
        # worker startup (fork + copy-on-write for processes, GIL contention
        # for threads).
        pending, fan_out = probe_gate(
            pending,
            lambda position: answers.__setitem__(
                position, self.search(queries[position], k)
            ),
            min_seconds=self.parallel_min_seconds,
        )
        if not fan_out:
            for position in pending:
                answers[position] = self.search(queries[position], k)
            return finalize(answers)

        # Cap the chunk size so the pending work spreads over all workers
        # even when the configured chunk size is coarse.
        per_worker = -(-len(pending) // workers)  # ceil division
        effective_chunk = max(1, min(self.chunk_size, per_worker))
        chunks = [
            pending[start : start + effective_chunk]
            for start in range(0, len(pending), effective_chunk)
        ]

        def serve_chunk(chunk: list[int]) -> list[list[SearchResult]]:
            # Forked workers inherit the built index through parallel_map's
            # fork payload (no pickling, no rebuild); the thread fallback
            # shares it directly.  Either way each query runs the exact
            # single-query code path, so rankings stay bit-identical.
            return [self.searcher.search(queries[position], k) for position in chunk]

        chunk_results = parallel_map(
            serve_chunk, chunks, mode=self.parallelism, workers=workers
        )

        with self._lock:
            for chunk, results in zip(chunks, chunk_results):
                for position, result in zip(chunk, results):
                    answers[position] = list(result)
                    self._cache_put(self._key(queries[position], k), result)
        return finalize(answers)

    def search_tables(self, query_table: Table, k: int) -> list[Table]:
        """Like :meth:`search` but returning the lake tables themselves."""
        return [
            self.searcher.lake.get(result.table_name)
            for result in self.search(query_table, k)
        ]

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the result cache.

        Worker pools are created per :meth:`search_many` call and already
        torn down when it returns, so closing is cheap: the LRU is dropped
        (its cached rankings can pin large result lists) and the service
        refuses further queries by behaving as if it was never warmed.
        Double-close is a no-op.
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
