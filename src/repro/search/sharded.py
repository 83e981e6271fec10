"""The search executor: prefilter -> route -> score -> merge over N shards.

:class:`ShardedSearcher` is the one composite
:class:`~repro.search.base.TableUnionSearcher`.  It partitions a lake, keeps
one independently-indexed searcher per shard — built **concurrently in
forked worker processes** (probe-gated, so tiny lakes never pay fork
startup) — and answers queries by **fanning out** ``score_candidates`` over
the shard indexes and ranking the merged scores by ``(-score, table name)``
— the kernel's own ``search()`` loop, so served rankings are bit-identical to
an unsharded backend.  Because it *is* a ``TableUnionSearcher``, everything
downstream (``DustPipeline``, the ``Discovery`` facade and its result
cache) composes with it unchanged.  Whether a build forks is measured, never
configured: there are no worker-count, executor-mode or threshold arguments.

With a ``candidate_budget`` the executor adds the prefilter stage of
:mod:`repro.search.cascade`: a fitted
:class:`~repro.search.cascade.CandidatePrefilter` keeps the top
``candidate_budget`` names and only their owner shards exact-score them.
Without one, ``search`` is the full fan-out.  Flat is one shard; exact is no
budget.

Per-shard persistence: warm :class:`ShardedSearcher` through an
:class:`~repro.serving.store.IndexStore` and each shard is loaded from /
persisted to its own store entry, keyed by the shard's content fingerprint
(a one-shard lake has the whole lake's fingerprint, so a flat deployment's
entry is the shard's), and the fitted prefilter to one
:class:`~repro.search.cascade.CascadePrefilterEntry`.  Mutating the lake
therefore re-indexes and re-persists **only the shards whose fingerprints
moved**, and each shard's store entry composes with the store's
snapshot-delta path: a shard that drifted slightly is healed by
delta-updating its closest prior snapshot, not rebuilt.

Why fan-out equals monolithic, per backend: every backend's per-table score
depends only on the query and that table's index entry — except Starmie,
whose TF-IDF corpus is lake-global.  ``finalize_shard_group`` closes that
gap after every (re)build by loading the exact global fit (summed integer
corpus contributions) into each shard searcher and re-encoding the rare
oversized tables, so per-table scores — and hence merged rankings — are
bit-identical to one flat index.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, Iterable

from repro.datalake.lake import DataLake
from repro.datalake.partition import LakePartitioner, LakeShard
from repro.search.base import SearchResult, TableUnionSearcher, rank_scores
from repro.search.cascade import CandidatePrefilter, CascadePrefilterEntry, fit_prefilter
from repro.utils.errors import SearchError, ServingError
from repro.utils import parallel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> search)
    from repro.serving.store import IndexStore


def _ensure_store_capacity(store: "IndexStore | None", num_shards: int) -> None:
    """Raise the store's per-backend entry bound to fit live shard entries.

    Live shard entries all share one backend namespace, and the store's
    eviction treats everything but the latest save as a superseded snapshot
    — with a bound sized for single-lake deployments it would delete *live*
    shard entries mid-build and every later warm would rebuild a rotating
    victim.  Raising the bound only retains more disk, so the composite does
    it once, centrally, instead of every call site having to know the
    arithmetic.
    """
    if store is None:
        return
    required = 2 * num_shards + 2  # live shards + delta-snapshot headroom
    if store.max_entries_per_backend < required:
        store.max_entries_per_backend = required


class ShardedSearcher(TableUnionSearcher):
    """The search executor: optional prefilter, fan-out/merge over shards.

    Parameters
    ----------
    factory:
        Zero-argument callable building one configured backend instance; one
        searcher is built per shard (plus a prototype used for configuration
        fingerprints and shard-group finalization).
    num_shards:
        The :class:`~repro.datalake.partition.LakePartitioner` shard count.
        Its name-hash assignment is mutation-stable, so a lake mutation
        touches exactly the shards whose tables changed.
    store:
        Optional :class:`~repro.serving.store.IndexStore` (equivalently,
        pass it to :meth:`warm`).  Each shard then persists as its own entry
        keyed by shard content fingerprint; refreshes re-persist only the
        mutated shards.  The store's per-backend entry bound counts shard
        entries and is raised to fit them automatically.
    candidate_budget:
        ``None`` (default): every query is the full fan-out.  Otherwise the
        prefilter stage keeps ``max(candidate_budget, k)`` candidates and
        only those are exact-scored.

    Without a budget, ``config_fingerprint()`` is the *prototype's*: sharding
    is an execution strategy, not a semantic configuration — rankings are
    bit-identical to the flat backend, so result caches and store entries
    are deliberately shared with unsharded deployments of the same config.
    With one, it folds the budget into the prototype's, still independent of
    the shard count.
    """

    def __init__(
        self,
        factory: Callable[[], TableUnionSearcher],
        *,
        num_shards: int,
        store: "IndexStore | None" = None,
        candidate_budget: int | None = None,
    ) -> None:
        super().__init__()
        if candidate_budget is not None and candidate_budget < 1:
            raise SearchError(
                f"candidate_budget must be positive, got {candidate_budget}"
            )
        self.factory = factory
        self.partitioner = LakePartitioner(num_shards)
        self.candidate_budget = candidate_budget
        self.store = store
        _ensure_store_capacity(store, self.partitioner.num_shards)
        self._prototype = factory()
        if not isinstance(self._prototype, TableUnionSearcher):
            raise SearchError(
                "ShardedSearcher factory must build TableUnionSearcher instances, "
                f"got {type(self._prototype).__name__}"
            )
        self._shards: list[LakeShard] = []
        self._shard_lakes: list[DataLake] = []
        self._shard_searchers: list[TableUnionSearcher | None] = []
        self._shard_of_table: dict[str, int] = {}
        #: Shards whose restoration is deferred until first touch: shard id
        #: -> the shard content fingerprints the warm store entry covers.
        #: Populated by :meth:`_build_index` when every non-empty shard has a
        #: warm store entry (see :meth:`_can_defer_restore`); drained by
        #: :meth:`_materialize_shard` as queries/refreshes touch shards.
        self._deferred: dict[int, dict[str, str]] = {}
        self._restore_lock = threading.Lock()
        self._prefilter: CandidatePrefilter | None = None

    # ------------------------------------------------------------- properties
    @property
    def num_shards(self) -> int:
        return self.partitioner.num_shards

    @property
    def shards(self) -> list[LakeShard]:
        """The current partition (empty before :meth:`index`)."""
        return list(self._shards)

    @property
    def shard_searchers(self) -> list[TableUnionSearcher | None]:
        """Per-shard backend instances (``None`` for empty or deferred shards)."""
        return list(self._shard_searchers)

    @property
    def deferred_shards(self) -> list[int]:
        """Shard ids whose restoration is still pending first touch."""
        return sorted(self._deferred)

    @property
    def prefilter(self) -> CandidatePrefilter:
        """The fitted prefilter stage (raises without a budget or before
        :meth:`index`)."""
        if self._prefilter is None:
            raise SearchError("ShardedSearcher has no fitted prefilter stage")
        return self._prefilter

    def config_state(self) -> dict:
        return {
            "base_fingerprint": self._prototype.config_fingerprint(),
            "candidate_budget": self.candidate_budget,
        }

    def config_fingerprint(self) -> str:
        """The prototype's fingerprint, folded with the budget when the
        prefilter stage is on — see the class docstring."""
        if self.candidate_budget is None:
            return self._prototype.config_fingerprint()
        return super().config_fingerprint()

    # ------------------------------------------------------------------ build
    def _adopt_partition(
        self,
        lake: DataLake,
        shards: list[LakeShard],
        shard_lakes: list[DataLake],
        searchers: list[TableUnionSearcher | None],
    ) -> None:
        self._shards = shards
        self._shard_lakes = shard_lakes
        self._shard_searchers = searchers
        self._shard_of_table = {
            name: shard.shard_id for shard in shards for name in shard.table_names
        }
        self._prototype.finalize_shard_group(
            lake, [searcher for searcher in searchers if searcher is not None]
        )

    def _can_defer_restore(
        self, jobs: list[int], shard_lakes: list[DataLake]
    ) -> bool:
        """Whether restoration can defer per-shard loads until first touch.

        All-or-nothing, and only when deferral is provably equivalent to the
        eager path: a store, a shard-local backend whose
        ``finalize_shard_group`` is the no-op default (Starmie aligns a
        lake-global TF-IDF fit across live shard searchers at adopt time, the
        oracle re-validates — both need every searcher live), more than one
        job, and a warm store entry for **every** non-empty shard, so no
        deferred touch can silently turn into a full shard build.
        """
        if (
            self.store is None
            or not self._prototype.SHARD_LOCAL_INDEX
            or type(self._prototype).finalize_shard_group
            is not TableUnionSearcher.finalize_shard_group
            or len(jobs) <= 1
        ):
            return False
        return all(
            self.store.contains(self._prototype, shard_lakes[shard_id])
            for shard_id in jobs
        )

    def _materialize_shard(self, shard_id: int) -> TableUnionSearcher | None:
        """The shard's live searcher, restoring a deferred one on first touch."""
        searcher = self._shard_searchers[shard_id]
        if searcher is not None or shard_id not in self._deferred:
            return searcher
        with self._restore_lock:
            searcher = self._shard_searchers[shard_id]
            if searcher is not None:  # lost the race: another thread restored it
                return searcher
            searcher = self._sync_shard(self.factory(), self._shard_lakes[shard_id])
            self._shard_searchers[shard_id] = searcher
            self._deferred.pop(shard_id, None)
            return searcher

    def _materialize_all(self) -> None:
        for shard_id in sorted(self._deferred):
            self._materialize_shard(shard_id)

    def warm(self, lake: DataLake, store: "IndexStore | None" = None) -> "ShardedSearcher":
        """Index ``lake`` per shard — each shard through its own ``store`` entry.

        A ``store`` given here replaces the constructor's; without one the
        constructor's (if any) keeps serving.
        """
        if store is not None:
            self.store = store
            _ensure_store_capacity(store, self.num_shards)
        return self.index(lake)

    def persist(self) -> None:
        """Nothing left to write: :meth:`_sync_shard` re-persists each shard
        as it is rebuilt, so a refresh has already saved exactly the shards
        that moved."""

    def _sync_shard(
        self, searcher: TableUnionSearcher, shard_lake: DataLake
    ) -> TableUnionSearcher:
        """Bring one shard's searcher onto ``shard_lake`` and persist it.

        The single per-shard lifecycle step behind builds, deferred restores
        and refreshes: a fresh searcher warms through the store
        (load, delta-heal or build + persist), a live one is delta-updated in
        memory and re-persisted.  Backends whose index is not shard-local
        (the oracle) bypass the store — their state round-trips through a
        partial instead, and :meth:`finalize_shard_group` re-validates it.
        """
        if not searcher.SHARD_LOCAL_INDEX:
            searcher.load_partial(shard_lake, *searcher.build_partial(shard_lake))
        elif not searcher.is_indexed:
            searcher.warm(shard_lake, self.store)
        else:
            searcher.rebase(shard_lake)
            if self.store is not None:
                self.store.try_save(searcher, shard_lake)
        return searcher

    def _build_shards(
        self,
        searchers: list[TableUnionSearcher | None],
        shard_lakes: list[DataLake],
        jobs: list[int],
    ) -> None:
        """Index every shard in ``jobs`` on its own searcher, forking when it pays.

        The repo's one fan-out (:mod:`repro.utils.parallel`), decided by
        measurement: where fork exists and there is a core to spare, one
        build serves as the probe and the rest fork only when the estimated
        remaining work amortises worker startup; otherwise everything builds
        in-process.  Threads are never used: builds mutate searcher
        internals, and index building is GIL-bound anyway.  Shards built
        in-process are simply left live on their searcher; fork-built ones
        come back as serialized states (the only way index structures cross
        the process boundary) and are loaded onto the parent's searcher.
        """

        def build(shard_id: int) -> None:
            self._sync_shard(searchers[shard_id], shard_lakes[shard_id])

        def build_forked(shard_id: int):
            build(shard_id)  # on the worker's fork-inherited copy
            return searchers[shard_id].index_state()

        # Builds are CPU-bound: more workers than cores never helps.
        workers = min(os.cpu_count() or 1, len(jobs))
        remaining, fan_out = list(jobs), False
        if workers > 1 and parallel.fork_available():
            remaining, fan_out = parallel.probe_gate(
                jobs, build, min_seconds=parallel.FORK_MIN_SECONDS, max_probes=1
            )
        if not fan_out:
            for shard_id in remaining:
                build(shard_id)
            return
        states = parallel.forked_map(build_forked, remaining, workers=workers)
        for shard_id, state in zip(remaining, states):
            searchers[shard_id].load_partial(shard_lakes[shard_id], *state)

    def _build_index(self, lake: DataLake) -> None:
        shards = self.partitioner.partition(lake)
        shard_lakes = [shard.to_lake() for shard in shards]
        searchers: list[TableUnionSearcher | None] = [None] * len(shards)
        jobs = [i for i, shard_lake in enumerate(shard_lakes) if shard_lake.num_tables]
        if self._can_defer_restore(jobs, shard_lakes):
            # Fully warm store: adopt the partition with every shard slot
            # empty and restore each shard from its entry on first touch —
            # cold start becomes O(touched shards) instead of O(lake).
            self._deferred = {
                shard_id: shard_lakes[shard_id].table_fingerprints()
                for shard_id in jobs
            }
        else:
            self._deferred = {}
            for shard_id in jobs:
                searchers[shard_id] = self.factory()
            self._build_shards(searchers, shard_lakes, jobs)
        self._adopt_partition(lake, shards, shard_lakes, searchers)
        self._sync_prefilter(lake)

    def _sync_prefilter(self, lake: DataLake) -> None:
        """Restore the prefilter stage over ``lake`` from the store, or fit
        and persist it.

        Runs after every build and delta.  A persisted entry short-circuits
        the fit — fitting touches every shard, which would forfeit a lazily
        restored partition's O(touched-shards) cold start.  A miss, drift or
        corruption all end in a fit whose save heals the entry.
        """
        if self.candidate_budget is None:
            return
        entry = CascadePrefilterEntry(self)
        if self.store is not None:
            try:
                self._prefilter = self.store.load(entry, lake).prefilter
                return
            except ServingError:
                pass
        self._prefilter = entry.prefilter = fit_prefilter(self, lake)
        if self.store is not None:
            self.store.try_save(entry, lake)

    # ------------------------------------------------------------ maintenance
    def _apply_index_delta(self, added, removed) -> None:
        """Re-derive the partition and touch only the shards that changed.

        The added/removed lists are ignored in favour of per-shard content
        fingerprint diffs — they see exactly the same net change, and the
        diff is what decides *which shard* pays.  Unchanged shards keep
        their searchers untouched; changed shards are delta-updated in
        memory (:meth:`~TableUnionSearcher.rebase`) and, with a store,
        re-persisted — only them.
        """
        lake = self.lake
        shards = self.partitioner.partition(lake)
        shard_lakes = [shard.to_lake() for shard in shards]
        searchers: list[TableUnionSearcher | None] = [None] * len(shards)
        new_deferred: dict[int, dict[str, str]] = {}
        moved: list[tuple[int, TableUnionSearcher | None]] = []
        for shard_id, shard_lake in enumerate(shard_lakes):
            previous = (
                self._shard_searchers[shard_id]
                if shard_id < len(self._shard_searchers)
                else None
            )
            if shard_lake.num_tables == 0:
                continue
            fingerprints = shard_lake.table_fingerprints()
            if previous is None and self._deferred.get(shard_id) == fingerprints:
                # Deferred shard the mutation never touched: stay
                # deferred — a refresh costs O(touched shards) too.
                new_deferred[shard_id] = fingerprints
            elif (
                previous is not None
                and previous.is_indexed
                and previous._indexed_table_fps == fingerprints
            ):
                searchers[shard_id] = previous  # shard content untouched
            else:
                moved.append((shard_id, previous))
        if moved:
            self._stamp_unchanged(shard_lakes, searchers, deferred=new_deferred)
        for shard_id, previous in moved:
            # A drifted deferred shard restores through the store's
            # exact/delta path; a live one delta-updates in memory.  Both
            # re-persist the shard's new entry.
            searchers[shard_id] = self._sync_shard(
                previous if previous is not None else self.factory(),
                shard_lakes[shard_id],
            )
        self._deferred = new_deferred
        self._adopt_partition(lake, shards, shard_lakes, searchers)
        self._sync_prefilter(lake)

    def _stamp_unchanged(
        self,
        shard_lakes: list[DataLake],
        searchers: list[TableUnionSearcher | None],
        deferred: Iterable[int] = (),
    ) -> None:
        """Touch the store entries of the live and ``deferred`` shards.

        Callers pass only the shards a re-persist leaves unchanged.  Eviction
        ranks one namespace by ``last_access``; an untouched shard keeps its
        build-time stamp, so it would rank older than a moved shard's
        superseded snapshots, be evicted first, and be rebuilt on the next
        restart.  Call this before the moved shards save: ``save`` runs the
        eviction.
        """
        if self.store is None or not self._prototype.SHARD_LOCAL_INDEX:
            return
        live = (i for i, searcher in enumerate(searchers) if searcher is not None)
        for shard_id in [*deferred, *live]:
            self.store.touch(self._prototype, shard_lakes[shard_id])

    # ----------------------------------------------------------------- search
    def _score_table(self, query_table, lake_table) -> float:
        """Delegate to the shard index holding ``lake_table``."""
        shard_id = self._shard_of_table.get(lake_table.name)
        searcher = self._materialize_shard(shard_id) if shard_id is not None else None
        if searcher is None:
            raise SearchError(
                f"table {lake_table.name!r} is not covered by any shard index"
            )
        return searcher._score_table(query_table, lake_table)

    def search(self, query_table, k: int) -> list[SearchResult]:
        """Full fan-out without a budget; otherwise exact-score only the
        prefilter's ``max(candidate_budget, k)`` candidates."""
        if self.candidate_budget is None:
            return super().search(query_table, k)
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        names = self.prefilter.candidates(query_table, max(self.candidate_budget, k))
        return rank_scores(self.score_candidates(query_table, names), k)

    def score_candidates(self, query_table, names) -> dict[str, float]:
        """Fan out by ownership: each shard exact-scores only its own members
        of ``names`` through the backend's ranking loop, so a candidate
        budget never costs a shard a full local search — and the kernel's
        :meth:`search`, which scores every indexed name, is the full
        fan-out.  Per-table scores are shard-independent
        (``finalize_shard_group`` closes Starmie's corpus gap), so the union
        is bit-identical to the flat backend's ``score_candidates``,
        membership rule included: shard lakes are snapshots, so a table that
        left the live lake since the last refresh is dropped here."""
        lake = self.lake  # raises before index()
        unique = [name for name in dict.fromkeys(names) if name != query_table.name]
        by_shard: dict[int, list[str]] = {}
        for name in unique:
            shard_id = self._shard_of_table.get(name)
            if shard_id is None or (
                self._shard_searchers[shard_id] is None
                and shard_id not in self._deferred
            ):
                raise SearchError(
                    f"candidate table {name!r} is not in the indexed lake"
                )
            if name in lake:
                by_shard.setdefault(shard_id, []).append(name)
        scores: dict[str, float] = {}
        # Only owner shards materialize — on a warm deferred deployment this
        # is the O(touched shards) cold-start path budgeted queries ride.
        for shard_id, shard_names in by_shard.items():
            scores.update(
                self._materialize_shard(shard_id).score_candidates(
                    query_table, shard_names
                )
            )
        return {name: scores[name] for name in unique if name in scores}

    def prefilter_table_vectors(self):
        """Union of the shard searchers' vectors (``None`` if any shard lacks
        them — the stage then falls back to the LSH prefilter uniformly)."""
        self._materialize_all()  # a prefilter fit covers every shard
        merged: dict = {}
        for searcher in self._shard_searchers:
            if searcher is None:
                continue
            vectors = searcher.prefilter_table_vectors()
            if vectors is None:
                return None
            merged.update(vectors)
        return merged or None

    def prefilter_query_vector(self, query_table):
        for shard_id in range(len(self._shard_searchers)):
            searcher = self._materialize_shard(shard_id)
            if searcher is not None:
                # Query embeddings match across shards: stateless encoders
                # everywhere, and finalize_shard_group aligns Starmie's fit.
                return searcher.prefilter_query_vector(query_table)
        raise SearchError("ShardedSearcher has no shard searchers to embed with")

    def prefilter_minhash_signatures(self, num_hashes: int, seed: int):
        """Union of the shard searchers' table signatures (signatures are pure
        functions of one table's token sets, so shard-local ones are exact)."""
        self._materialize_all()  # a prefilter fit covers every shard
        merged: dict = {}
        for searcher in self._shard_searchers:
            if searcher is None:
                continue
            signatures = searcher.prefilter_minhash_signatures(num_hashes, seed)
            if signatures is None:
                return None
            merged.update(signatures)
        return merged or None
