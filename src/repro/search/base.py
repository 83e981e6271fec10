"""Common interface for table union search techniques."""

from __future__ import annotations

import abc
import hashlib
import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.datalake.delta import diff_table_fingerprints, fingerprint_digest
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.utils.errors import SearchError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> search)
    from repro.serving.store import IndexStore

#: JSON-serializable index metadata + named numpy payloads, as produced by
#: :meth:`TableUnionSearcher.index_state` and consumed by ``load_index_state``.
#: Per-shard partials (:meth:`TableUnionSearcher.build_partial`) use the same
#: shape, so they are picklable across process boundaries and persistable
#: through the :class:`~repro.serving.store.IndexStore` unchanged.
IndexState = tuple[dict, dict[str, np.ndarray]]


@dataclass(frozen=True)
class SearchResult:
    """One ranked search hit: a data lake table and its unionability score."""

    table_name: str
    score: float
    rank: int


def rank_scores(scores: Mapping[str, float], k: int) -> list[SearchResult]:
    """Top-``k`` hits of a ``name -> score`` map by ``(-score, name)``.

    The one ranking order of the library: decreasing score, ties broken by
    table name so rankings are deterministic.
    """
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [
        SearchResult(table_name=name, score=float(score), rank=rank)
        for rank, (name, score) in enumerate(ranked[:k], start=1)
    ]


class TableUnionSearcher(abc.ABC):
    """Base class — the *kernel* — of top-k unionable table search.

    Lifecycle: construct, :meth:`warm` onto a data lake once (:meth:`index`
    is the store-less spelling), then call :meth:`search` for each query
    table.  When the lake mutates afterwards
    (``add_table``/``remove_table``/``replace_table``), :meth:`update_index`
    applies the delta incrementally — or, for backends without an incremental
    path, rebuilds — :meth:`refresh` derives the delta automatically from
    content fingerprints, and :meth:`persist` writes the moved index back to
    the store it was warmed through.  Implementations must not mutate the
    indexed lake themselves.

    A backend is a plug-in: its constructor and :meth:`config_state`,
    :meth:`_build_index` (optionally :meth:`_apply_index_delta`),
    :meth:`_score_table`, :meth:`_compute_query_state` and the
    :meth:`_index_state`/:meth:`_load_index_state` pair.  The query-state
    memo, the ranking loop, narrow candidate scoring, delta-by-rebuild and —
    for backends holding ``table -> column -> vector`` embeddings — the
    cascade prefilter vectors all live here, once.
    """

    def __init__(self) -> None:
        self._lake: DataLake | None = None
        #: ``table name -> content fingerprint`` snapshot of the lake as last
        #: indexed; :meth:`refresh` diffs the live lake against it.
        self._indexed_table_fps: dict[str, str] = {}
        #: Memo of :attr:`indexed_fingerprint` (dropped whenever the index moves).
        self._indexed_digest: str | None = None
        #: The index store this searcher was last :meth:`warm`-ed through
        #: (``None``: in-process only); :meth:`persist` writes there.
        self.store: "IndexStore | None" = None
        #: One-entry, per-thread memo of :meth:`_query_state`.
        self._query_memo = threading.local()

    # ------------------------------------------------------------------ index
    @abc.abstractmethod
    def _build_index(self, lake: DataLake) -> None:
        """Build implementation-specific index structures for ``lake``."""

    def _record_indexed_lake(self, lake: DataLake) -> None:
        """Bind ``lake`` and snapshot its content for later delta derivation.

        Every path that moves the index (build, delta, state load, rebase)
        ends here, so this is also where the query-state memo is dropped.
        """
        self._lake = lake
        self._indexed_table_fps = lake.table_fingerprints()
        self._indexed_digest = None
        self._forget_query_state()

    def index(self, lake: DataLake) -> "TableUnionSearcher":
        """Index ``lake`` for subsequent searches.

        ``self._lake`` is assigned only after :meth:`_build_index` succeeds,
        so a failed build leaves the searcher cleanly un-indexed
        (``is_indexed`` stays ``False``) instead of claiming an index it does
        not have.
        """
        if lake.num_tables == 0:
            raise SearchError("cannot index an empty data lake")
        self._build_index(lake)
        self._record_indexed_lake(lake)
        return self

    # -------------------------------------------------------------- lifecycle
    def warm(
        self, lake: DataLake, store: "IndexStore | None" = None
    ) -> "TableUnionSearcher":
        """Serve ``lake`` — through ``store`` when one is given.

        The one index-lifecycle entry point every consumer (the
        ``Discovery`` facade, the ``warm`` CLI) calls; none of them touch the store
        themselves.  Without a store this is :meth:`index`.  With one, a
        flat backend round-trips through a single whole-lake entry
        (:meth:`~repro.serving.store.IndexStore.load_or_build`: exact load,
        else delta-update of the closest prior snapshot, else build +
        persist); the :class:`~repro.search.sharded.ShardedSearcher` executor
        overrides this to persist one entry per shard plus, with a candidate
        budget, one prefilter entry.
        """
        self.store = store
        if store is None:
            return self.index(lake)
        return store.load_or_build(self, lake)

    def persist(self) -> None:
        """Write the index back to the store it was warmed through.

        Call after :meth:`refresh`/:meth:`update_index` moved the index; a
        no-op for a searcher warmed without a store.
        """
        if self.store is not None:
            self.store.try_save(self)

    # ----------------------------------------------------- incremental updates
    def _apply_index_delta(self, added: list[Table], removed: list[str]) -> None:
        """Implementation hook: apply a lake delta to the built index.

        ``added`` holds the tables to (re-)index — they are already members
        of :attr:`lake` — and ``removed`` the names whose index entries must
        be dropped; a replaced table appears in both.  The default rebuilds
        over the whole lake, so new backends are correct before they are
        fast; an override must leave the index bit-identical to that rebuild
        and may call it itself for a delta it cannot honour incrementally
        (Starmie does, when corpus statistics baked into retained tables'
        entries move).
        """
        self._build_index(self.lake)

    def update_index(
        self,
        *,
        added: Iterable[Table] = (),
        removed: Iterable[str] = (),
    ) -> "TableUnionSearcher":
        """Apply a lake mutation delta to the built index.

        Call after mutating the indexed lake in place: ``added`` are the
        tables that joined (or replaced an incumbent — list the name in
        ``removed`` too), ``removed`` the names that left.  The update is
        exactly as correct as a rebuild: backends either apply the delta
        with bit-identical results or rebuild over the whole lake (the
        default :meth:`_apply_index_delta`).  Prefer :meth:`refresh`, which
        derives the delta for you.
        """
        if self._lake is None:
            raise SearchError(
                f"{type(self).__name__}.update_index() called before index()"
            )
        lake = self._lake
        if lake.num_tables == 0:
            raise SearchError("cannot maintain an index over an empty data lake")
        added = list(added)
        removed = [str(name) for name in removed]
        added_names = {table.name for table in added}
        for table in added:
            if table.name not in lake:
                raise SearchError(
                    f"added table {table.name!r} is not a member of the indexed lake"
                )
        for name in removed:
            if name in lake and name not in added_names:
                raise SearchError(
                    f"removed table {name!r} is still a member of the indexed lake"
                )
        if added or removed:
            self._apply_index_delta(added, removed)
        self._record_indexed_lake(lake)
        return self

    def refresh(self) -> "TableUnionSearcher":
        """Re-synchronise the index with the (mutated) indexed lake.

        Diffs the lake's current content fingerprints against the snapshot
        taken when the index was last built/updated, so it sees every kind
        of change — catalog mutations *and* in-place ``append_rows`` — and
        applies the net delta through :meth:`update_index`.  A no-op when
        nothing changed.
        """
        return self.rebase(self.lake)  # self.lake raises before index()

    def rebase(self, lake: DataLake) -> "TableUnionSearcher":
        """Point the built index at ``lake``, applying the net content delta.

        Like :meth:`refresh`, but for consumers that hold a *new* lake object
        whose content drifted from the indexed one — a re-derived shard view,
        a re-loaded copy of the same lake.  Equivalent to a fresh
        :meth:`index` call (and literally one when nothing was indexed yet),
        at the cost of only the changed tables.
        """
        if self._lake is None:
            return self.index(lake)
        if lake.num_tables == 0:
            raise SearchError("cannot rebase an index onto an empty data lake")
        added_names, removed = diff_table_fingerprints(
            self._indexed_table_fps, lake.table_fingerprints()
        )
        self._lake = lake  # update_index validates membership against it
        if added_names or removed:
            self.update_index(
                added=[lake.get(name) for name in added_names], removed=removed
            )
        else:
            self._record_indexed_lake(lake)
        return self

    @property
    def lake(self) -> DataLake:
        """The indexed data lake."""
        if self._lake is None:
            raise SearchError(f"{type(self).__name__} used before index() was called")
        return self._lake

    @property
    def is_indexed(self) -> bool:
        """Whether :meth:`index` has been called."""
        return self._lake is not None

    @property
    def drifted(self) -> bool:
        """Whether the lake's content moved since the index last did — what
        :meth:`refresh` would apply (``True`` before :meth:`index`)."""
        return self._lake is None or self._lake.table_fingerprints() != self._indexed_table_fps

    @property
    def indexed_fingerprint(self) -> str:
        """:meth:`~repro.datalake.lake.DataLake.fingerprint` of the lake as
        last indexed: it moves only when the index does (result-cache key)."""
        self.lake  # raises before index()
        if self._indexed_digest is None:
            self._indexed_digest = fingerprint_digest(self._indexed_table_fps.values())
        return self._indexed_digest

    # -------------------------------------------------------- sharded builds
    #: Whether a persisted index over a *shard* of a lake depends only on
    #: that shard's tables.  True for every backend whose per-table entries
    #: are shard-local (so per-shard store entries round-trip through the
    #: ordinary load path); the oracle sets it to False because restoring its
    #: "index" re-validates the ground truth against the whole lake.
    SHARD_LOCAL_INDEX = True

    def build_partial(self, shard: DataLake) -> IndexState:
        """Index ``shard`` alone and return the serialized partial index.

        The partial is scratch output for :meth:`load_partial` onto a
        per-shard serving searcher: this searcher's own index is clobbered
        and it is left *un-indexed*, so partial builds can run on forked
        worker copies without anyone mistaking the intermediate state for a
        queryable index.
        """
        if shard.num_tables == 0:
            raise SearchError("cannot build a partial index over an empty shard")
        self._lake = None
        self._indexed_table_fps = {}
        self._build_index(shard)
        return self._index_state()

    def _load_partial_state(
        self, shard: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Implementation hook: restore a partial dumped by :meth:`build_partial`.

        Defaults to the ordinary :meth:`_load_index_state` — a partial *is* a
        full index over the shard-as-lake for every backend whose entries are
        shard-local.  Backends with lake-global state (the oracle's
        validation) override this to defer that state to
        :meth:`finalize_shard_group`.
        """
        self._load_index_state(shard, state, arrays)

    def load_partial(
        self, shard: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> "TableUnionSearcher":
        """Restore a :meth:`build_partial` dump, binding this searcher to ``shard``."""
        if shard.num_tables == 0:
            raise SearchError("cannot load a partial index for an empty shard")
        self._load_partial_state(shard, state, arrays)
        self._record_indexed_lake(shard)
        return self

    def finalize_shard_group(
        self, lake: DataLake, shard_searchers: "Iterable[TableUnionSearcher]"
    ) -> None:
        """Hook: reconcile lake-global state across per-shard searchers.

        Called by :class:`~repro.search.sharded.ShardedSearcher` after the
        per-shard indexes are (re)built, with the full lake and the live
        shard searchers.  Most backends' per-table entries are shard-local
        already, so the default is a no-op; Starmie aligns every shard to
        the global TF-IDF corpus here, and the oracle re-validates its
        ground truth against the whole lake.  Implementations must be
        idempotent — the hook runs again after every refresh.
        """

    # --------------------------------------------------- index serialization
    #: Bump in a subclass whenever its serialized index layout changes; the
    #: version participates in :meth:`config_fingerprint`, so stale persisted
    #: entries become store misses instead of deserialization errors.
    INDEX_FORMAT_VERSION = 1

    def config_state(self) -> dict[str, Any]:
        """JSON-serializable constructor configuration of this searcher.

        Everything that changes what :meth:`_build_index` or search would
        compute must appear here — it is part of the persisted-index key.
        """
        return {}

    def config_fingerprint(self) -> str:
        """Stable hex digest of (class, index format version, configuration)."""
        payload = json.dumps(
            {
                "class": type(self).__name__,
                "format": self.INDEX_FORMAT_VERSION,
                "config": self.config_state(),
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _index_state(self) -> IndexState:
        """Implementation hook: dump the built index as (metadata, arrays)."""
        raise SearchError(
            f"{type(self).__name__} does not support index serialization"
        )

    def _load_index_state(
        self, lake: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Implementation hook: restore index structures dumped by ``_index_state``."""
        raise SearchError(
            f"{type(self).__name__} does not support index serialization"
        )

    def index_state(self) -> IndexState:
        """Dump the built index as a JSON-serializable dict plus numpy payloads.

        The returned pair round-trips through :meth:`load_index_state` to a
        searcher whose results are bit-identical to one freshly indexed on the
        same lake.  Requires :meth:`index` to have been called.
        """
        if not self.is_indexed:
            raise SearchError(
                f"{type(self).__name__}.index_state() called before index()"
            )
        return self._index_state()

    def load_index_state(
        self, lake: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> "TableUnionSearcher":
        """Restore a previously dumped index for ``lake`` without rebuilding it."""
        if lake.num_tables == 0:
            raise SearchError("cannot load an index for an empty data lake")
        self._load_index_state(lake, state, arrays)
        self._record_indexed_lake(lake)
        return self

    # ---------------------------------------------------- query-state memo
    def _compute_query_state(self, query_table: Table) -> Any:
        """Implementation hook: everything scoring needs from the query alone.

        Overlap's per-column match counts, D3L's signal inputs, SANTOS's
        column + relationship vectors, Starmie's column embeddings: state
        that depends only on the query table and the built index, never on
        the candidate.  Read it back through :meth:`_query_state`.
        """
        return None

    def _query_state(self, query_table: Table) -> Any:
        """:meth:`_compute_query_state`, computed once per query table.

        One-entry thread-local memo keyed by object identity plus the table's
        (cached) content fingerprint: the identity check keeps the
        per-candidate cost O(1) while in-place ``append_rows`` still
        invalidates the entry, and :meth:`_record_indexed_lake` drops every
        thread's entry whenever the index moves.
        """
        cached = getattr(self._query_memo, "entry", None)
        fingerprint = query_table.content_fingerprint()
        if cached is not None and cached[0] is query_table and cached[1] == fingerprint:
            return cached[2]
        state = self._compute_query_state(query_table)
        self._query_memo.entry = (query_table, fingerprint, state)
        return state

    def _forget_query_state(self) -> None:
        """Forget every thread's memoised query state (the index moved)."""
        self._query_memo = threading.local()

    # --------------------------------------------------- column-vector store
    #: Dimension of the backend's column vectors (``None``: it holds none).
    _vector_dimension: "int | None" = None

    def _indexed_column_vectors(self) -> "Mapping[str, Mapping[str, np.ndarray]] | None":
        """Implementation hook: the index's ``table -> column -> vector`` map.

        Embedding-scored backends (Starmie/D3L/SANTOS) return the store they
        score from; ``None`` (the default) means the backend has no natural
        embedding.
        """
        return None

    def _query_column_vectors(self, query_table: Table) -> Mapping[str, np.ndarray]:
        """Implementation hook: the query's ``column -> vector`` map, read
        from the memoised :meth:`_query_state`."""
        raise SearchError(f"{type(self).__name__} exposes no prefilter embeddings")

    def _stack_vectors(self, maps: Iterable[Mapping[Any, np.ndarray]]) -> np.ndarray:
        """Row-stack every vector of ``maps`` in iteration order — the
        persisted payload shape of a column-vector store (an empty
        ``(0, dimension)`` float64 matrix when there is nothing to stack)."""
        vectors = [vector for mapping in maps for vector in mapping.values()]
        if not vectors:
            return np.zeros((0, self._vector_dimension), dtype=np.float64)
        return np.vstack(vectors)

    def _unstack_vectors(
        self, matrix: np.ndarray, keys_by_table: Mapping[str, Sequence[Any]]
    ) -> dict[str, dict[Any, np.ndarray]]:
        """Inverse of :meth:`_stack_vectors`: ``table -> key -> matrix row``."""
        matrix = np.asarray(matrix, dtype=np.float64)
        expected = sum(len(keys) for keys in keys_by_table.values())
        if expected != matrix.shape[0]:
            raise SearchError(
                f"{type(self).__name__} index state lists {expected} vectors "
                f"but the payload matrix has {matrix.shape[0]} rows"
            )
        store: dict[str, dict[Any, np.ndarray]] = {}
        row = 0
        for name, keys in keys_by_table.items():
            store[name] = {key: matrix[row + offset] for offset, key in enumerate(keys)}
            row += len(keys)
        return store

    def _mean_vector(self, vectors: Mapping[Any, np.ndarray]) -> np.ndarray:
        """Mean of one table's column vectors (zeros for a column-less table)."""
        if not vectors:
            return np.zeros(self._vector_dimension, dtype=np.float64)
        return np.mean(np.vstack(list(vectors.values())), axis=0)

    # ------------------------------------------------------- cascade prefilter
    def prefilter_table_vectors(self) -> "dict[str, np.ndarray] | None":
        """Per-table embedding vectors a cascade prefilter can project.

        For backends with a column-vector store this is the per-table mean of
        the indexed column vectors — a cheap aggregate of entries they already
        hold whose cosine neighbourhoods track the exact score — so the
        random-projection prefilter of :mod:`repro.search.cascade` can rank
        candidates without touching the exact scorer.  Backends without a
        natural embedding (the overlap searcher, the oracle) return ``None``
        and the stage falls back to the LSH bucket-probe prefilter.
        """
        indexed = self._indexed_column_vectors()
        if not indexed:
            return None
        return {name: self._mean_vector(columns) for name, columns in indexed.items()}

    def prefilter_query_vector(self, query_table: Table) -> np.ndarray:
        """Query-side counterpart of :meth:`prefilter_table_vectors`."""
        return self._mean_vector(self._query_column_vectors(query_table))

    def prefilter_minhash_signatures(
        self, num_hashes: int, seed: int
    ) -> "dict[str, np.ndarray] | None":
        """Per-table MinHash signatures reusable by an LSH prefilter.

        A table-level signature is the elementwise minimum of its columns'
        signatures (MinHash of a union is the min of the MinHashes), so
        backends that already hold per-column signatures under the same hash
        family — the overlap searcher — can hand them over instead of making
        the prefilter re-hash every cell value.  ``None`` means the prefilter
        hashes the lake itself.
        """
        return None

    # ----------------------------------------------------------------- search
    @abc.abstractmethod
    def _score_table(self, query_table: Table, lake_table: Table) -> float:
        """Unionability score of ``lake_table`` with respect to ``query_table``.

        Only called for tables the index holds; read the candidate's *index
        entry* (by ``lake_table.name``), not the live table, so a lake that
        mutated since the last refresh keeps scoring as indexed.
        """

    def score_candidates(
        self, query_table: Table, names: Iterable[str]
    ) -> dict[str, float]:
        """Exact scores for just the candidate tables in ``names``.

        The one ranking loop: :meth:`search` is this over every indexed
        table, and the executor's prefilter stage
        (:class:`~repro.search.sharded.ShardedSearcher`) calls it with the
        candidate set its prefilter kept — per-table scores depend only on
        the query and that table's index entry, so both are **bit-identical**
        (the memoised :meth:`_query_state` makes the per-candidate cost
        marginal).  Duplicate names are scored once and the query's own name
        is skipped.  Membership is decided here: a table is scored iff it is
        in the index **and** still in the lake, so between a lake mutation
        and the next :meth:`refresh` an added table is not served yet and a
        removed one is silently dropped.  Names the index never held fail
        loudly — a prefilter proposing one is a bug, not something to skip.
        """
        lake = self.lake
        scores: dict[str, float] = {}
        for name in dict.fromkeys(names):
            if name == query_table.name:
                continue
            if name not in self._indexed_table_fps:
                raise SearchError(
                    f"candidate table {name!r} is not in the indexed lake"
                )
            if name in lake:
                scores[name] = float(self._score_table(query_table, lake.get(name)))
        return scores

    def search(self, query_table: Table, k: int) -> list[SearchResult]:
        """Return the top-``k`` unionable tables for ``query_table``.

        Ranks :meth:`score_candidates` over every indexed table
        (:func:`rank_scores`: decreasing score, ties broken by table name).
        A table with the same name as the query table is never returned (the
        paper's benchmarks keep the query outside the lake, but user lakes
        may not).
        """
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        return rank_scores(self.score_candidates(query_table, self._indexed_table_fps), k)

    def search_tables(self, query_table: Table, k: int) -> list[Table]:
        """Like :meth:`search` but returning the table objects directly."""
        return [self.lake.get(result.table_name) for result in self.search(query_table, k)]
