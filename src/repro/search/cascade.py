"""Tiered query cascade: approximate candidate pre-filter, exact fallback.

Every backend's :meth:`~repro.search.base.TableUnionSearcher.search` is linear
in lake size — each query exact-scores every table.  The cascade makes query
latency proportional to a fixed *candidate budget* instead:

1. A cheap :class:`CandidatePrefilter` ranks the whole lake by an approximate
   unionability proxy (vectorized, micro-seconds per thousand tables) and
   keeps the top ``candidate_budget`` names.
2. Only the surviving candidates are exact-scored through the backend's
   :meth:`~repro.search.base.TableUnionSearcher.score_candidates` narrow
   hook — the same per-table arithmetic as a full ``search``, restricted.
3. When the approximate score *margin* at the cut — the gap between the last
   kept candidate and the best dropped one — falls inside a configurable
   ambiguity band, the cascade **escalates** to the full exact path, so the
   quality floor is enforced, not hoped for.

Two prefilters cover the five backends:

* :class:`LSHPrefilter` — table-level MinHash signatures (the elementwise
  minimum of the per-column signatures the overlap searcher already holds,
  re-hashed from the lake otherwise) banded into the existing
  :class:`~repro.search.minhash.MinHashLSHIndex`; candidates come from an LSH
  bucket probe ranked by estimated table-level Jaccard.
* :class:`ProjectionPrefilter` — per-table embedding aggregates served by the
  backend (:meth:`~repro.search.base.TableUnionSearcher.prefilter_table_vectors`)
  projected into a low-dimensional space with a seeded random matrix and held
  as a :class:`~repro.vectorops.EmbeddingMatrix`; candidates are ranked by
  projected cosine similarity.

:class:`CascadeSearcher` wraps any :class:`TableUnionSearcher` (flat or
:class:`~repro.search.sharded.ShardedSearcher` — the sharded composite routes
``score_candidates`` to exactly the shards holding each candidate).  In
``exact`` mode every query delegates to the base searcher, so rankings are
bit-identical by construction; ``approx`` mode is the opt-in fast path with
the measured recall trade-off (dustbench ``search-large``, ``recall_at_10``).
"""

from __future__ import annotations

import abc
import hashlib
import json
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.search.base import IndexState, SearchResult, TableUnionSearcher, rank_scores
from repro.search.minhash import DEFAULT_MINHASH_SEED, MinHashLSHIndex, MinHashSignature
from repro.search.overlap import column_token_set
from repro.utils.errors import SearchError, ServingError
from repro.vectorops import EmbeddingMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> search)
    from repro.serving.store import IndexStore


def _rank_by_score(
    names: Sequence[str], scores: np.ndarray, budget: int, *, exclude: str
) -> tuple[list[str], float]:
    """Top-``budget`` names by ``(-score, name)`` plus the margin at the cut.

    The margin is the approximate-score gap between the last kept candidate
    and the best dropped one — ``inf`` when nothing is dropped, so a budget
    that covers the whole lake can never look ambiguous.
    """
    order = sorted(
        (i for i, name in enumerate(names) if name != exclude),
        key=lambda i: (-scores[i], names[i]),
    )
    kept = order[:budget]
    if len(order) <= budget:
        margin = float("inf")
    else:
        margin = float(scores[kept[-1]] - scores[order[budget]])
    return [names[i] for i in kept], margin


class CandidatePrefilter(abc.ABC):
    """Approximate candidate ranking over an indexed lake.

    Lifecycle: :meth:`fit` against a backend's built index (or
    :meth:`load_state` + :meth:`bind` when restored from a persisted
    :class:`CascadeSearcher` entry), then :meth:`candidates` per query.
    Implementations must be deterministic — same lake, same configuration,
    same candidates — so cascade results are reproducible and the
    sharded/flat composition parity tests can demand bit-identity.
    """

    #: Registry-style name recorded in persisted state.
    name = "abstract"

    @abc.abstractmethod
    def fit(self, searcher: TableUnionSearcher, lake: DataLake) -> None:
        """Derive prefilter structures from the backend's built index."""

    @abc.abstractmethod
    def candidates(self, query_table: Table, budget: int) -> tuple[list[str], float]:
        """Top-``budget`` candidate names plus the approximate margin at the cut."""

    @abc.abstractmethod
    def state(self) -> IndexState:
        """Serialized fitted state (same shape as a searcher index state)."""

    @abc.abstractmethod
    def load_state(self, state: dict, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore a :meth:`state` dump."""

    @abc.abstractmethod
    def config_state(self) -> dict:
        """JSON-serializable configuration (participates in fingerprints)."""

    @property
    @abc.abstractmethod
    def is_fitted(self) -> bool:
        """Whether the prefilter can answer :meth:`candidates`."""

    def bind(self, searcher: TableUnionSearcher) -> None:
        """Attach the serving backend (needed by query-side embedding hooks)."""


class LSHPrefilter(CandidatePrefilter):
    """LSH bucket-probe prefilter over table-level MinHash signatures.

    One signature per lake table — the MinHash of the union of its columns'
    token sets.  When the backend already holds per-column signatures under
    the same hash family (the overlap searcher), the table signatures are the
    elementwise minima of those rows and no cell value is re-hashed; any
    other backend's lake is hashed once at fit time.  Queries probe the LSH
    bands for bucket mates and rank by estimated table-level Jaccard computed
    against the stacked signature matrix (vectorized integer compares).
    """

    name = "lsh"

    def __init__(
        self, *, num_hashes: int = 64, num_bands: int = 16, seed: int = DEFAULT_MINHASH_SEED
    ) -> None:
        # MinHashLSHIndex validates num_hashes/num_bands divisibility.
        self.num_hashes = num_hashes
        self.num_bands = num_bands
        self.seed = seed
        self._index: MinHashLSHIndex | None = None
        self._names: list[str] = []
        self._matrix: np.ndarray | None = None

    # -------------------------------------------------------------------- fit
    def _table_signature(self, table: Table) -> np.ndarray:
        assert self._index is not None
        tokens: set[str] = set()
        for column in table.columns:
            tokens |= column_token_set(table, column)
        return np.array(self._index.hasher.signature(tokens).values, dtype=np.int64)

    def _install(self, names: list[str], matrix: np.ndarray) -> None:
        index = MinHashLSHIndex(self.num_hashes, self.num_bands, seed=self.seed)
        for name, row in zip(names, matrix):
            index.add_signature(
                name, MinHashSignature(values=tuple(int(v) for v in row))
            )
        self._index = index
        self._names = names
        self._matrix = matrix

    def fit(self, searcher: TableUnionSearcher, lake: DataLake) -> None:
        self._index = MinHashLSHIndex(self.num_hashes, self.num_bands, seed=self.seed)
        reused = searcher.prefilter_minhash_signatures(self.num_hashes, self.seed)
        names = lake.table_names()
        if reused is not None and set(reused) >= set(names):
            matrix = np.vstack([np.asarray(reused[name], dtype=np.int64) for name in names])
        else:
            matrix = np.vstack([self._table_signature(lake.get(name)) for name in names])
        self._install(names, matrix.reshape(len(names), self.num_hashes))

    # ------------------------------------------------------------- candidates
    def candidates(self, query_table: Table, budget: int) -> tuple[list[str], float]:
        if not self.is_fitted:
            raise SearchError("LSHPrefilter.candidates() called before fit()")
        assert self._index is not None and self._matrix is not None
        signature = self._table_signature(query_table)
        # Estimated table-level Jaccard to every lake table, one vectorized
        # pass — the same arithmetic as MinHashSignature.jaccard.
        scores = (self._matrix == signature).sum(axis=1) / self.num_hashes
        hits = self._index.query_signature(
            MinHashSignature(values=tuple(int(v) for v in signature))
        )
        names: Sequence[str] = self._names
        if len(hits) >= budget:
            # The bucket probe alone yields enough candidates: rank within it.
            keep = [i for i, name in enumerate(self._names) if name in hits]
            names = [self._names[i] for i in keep]
            scores = scores[keep]
        return _rank_by_score(names, scores, budget, exclude=query_table.name)

    # ------------------------------------------------------------ persistence
    def state(self) -> IndexState:
        if not self.is_fitted:
            raise SearchError("LSHPrefilter.state() called before fit()")
        meta = {
            "num_hashes": self.num_hashes,
            "num_bands": self.num_bands,
            "seed": self.seed,
            "names": list(self._names),
        }
        return meta, {"signatures": np.asarray(self._matrix, dtype=np.int64)}

    def load_state(self, state: dict, arrays: Mapping[str, np.ndarray]) -> None:
        if (
            int(state["num_hashes"]) != self.num_hashes
            or int(state["num_bands"]) != self.num_bands
            or int(state["seed"]) != self.seed
        ):
            raise SearchError(
                "persisted LSH prefilter configuration does not match this prefilter"
            )
        matrix = np.asarray(arrays["signatures"], dtype=np.int64)
        self._install(list(state["names"]), matrix)

    def config_state(self) -> dict:
        return {
            "prefilter": self.name,
            "num_hashes": self.num_hashes,
            "num_bands": self.num_bands,
            "seed": self.seed,
        }

    @property
    def is_fitted(self) -> bool:
        return self._matrix is not None


class ProjectionPrefilter(CandidatePrefilter):
    """Random-projection prefilter over backend-served table embeddings.

    Fit stacks the backend's per-table vectors
    (:meth:`~repro.search.base.TableUnionSearcher.prefilter_table_vectors`),
    projects them through a seeded Gaussian matrix into ``dim`` dimensions
    and keeps the unit rows in an :class:`~repro.vectorops.EmbeddingMatrix`.
    A query is embedded by the same backend hook, projected by the same
    matrix, and candidates are ranked by projected cosine similarity — a
    (lake, dim) matvec instead of per-table exact scoring.
    """

    name = "projection"

    def __init__(self, *, dim: int = 16, seed: int = 7) -> None:
        if dim <= 0:
            raise SearchError(f"projection dim must be positive, got {dim}")
        self.dim = dim
        self.seed = seed
        self._names: list[str] = []
        self._projection: np.ndarray | None = None
        self._matrix: EmbeddingMatrix | None = None
        self._searcher: TableUnionSearcher | None = None

    def bind(self, searcher: TableUnionSearcher) -> None:
        self._searcher = searcher

    # -------------------------------------------------------------------- fit
    def fit(self, searcher: TableUnionSearcher, lake: DataLake) -> None:
        vectors = searcher.prefilter_table_vectors()
        if vectors is None:
            raise SearchError(
                f"{type(searcher).__name__} exposes no prefilter embeddings; "
                "use the LSH prefilter instead"
            )
        names = lake.table_names()
        missing = set(names) - set(vectors)
        if missing:
            raise SearchError(
                f"prefilter embeddings missing for table {sorted(missing)[0]!r}"
            )
        source = np.vstack([np.asarray(vectors[name], dtype=np.float64) for name in names])
        rng = np.random.default_rng(self.seed)
        self._projection = rng.standard_normal((source.shape[1], self.dim)) / np.sqrt(
            self.dim
        )
        self._names = names
        self._matrix = EmbeddingMatrix(source @ self._projection)
        self._searcher = searcher

    # ------------------------------------------------------------- candidates
    def candidates(self, query_table: Table, budget: int) -> tuple[list[str], float]:
        if not self.is_fitted:
            raise SearchError("ProjectionPrefilter.candidates() called before fit()")
        if self._searcher is None:
            raise SearchError(
                "ProjectionPrefilter is not bound to a searcher; call bind()"
            )
        assert self._matrix is not None and self._projection is not None
        vector = np.asarray(
            self._searcher.prefilter_query_vector(query_table), dtype=np.float64
        )
        projected = vector @ self._projection
        norm = float(np.linalg.norm(projected))
        if norm > 0.0:
            projected = projected / norm
        scores = self._matrix.unit @ projected
        return _rank_by_score(self._names, scores, budget, exclude=query_table.name)

    # ------------------------------------------------------------ persistence
    def state(self) -> IndexState:
        if not self.is_fitted:
            raise SearchError("ProjectionPrefilter.state() called before fit()")
        assert self._matrix is not None and self._projection is not None
        meta = {"dim": self.dim, "seed": self.seed, "names": list(self._names)}
        return meta, {
            "projected": self._matrix.data,
            "projection": self._projection,
        }

    def load_state(self, state: dict, arrays: Mapping[str, np.ndarray]) -> None:
        if int(state["dim"]) != self.dim or int(state["seed"]) != self.seed:
            raise SearchError(
                "persisted projection prefilter configuration does not match "
                "this prefilter"
            )
        self._names = list(state["names"])
        self._projection = np.asarray(arrays["projection"], dtype=np.float64)
        self._matrix = EmbeddingMatrix(np.asarray(arrays["projected"], dtype=np.float64))

    def config_state(self) -> dict:
        return {"prefilter": self.name, "dim": self.dim, "seed": self.seed}

    @property
    def is_fitted(self) -> bool:
        return self._matrix is not None


#: Prefilter names accepted by :class:`CascadeSearcher` and the ``cascade``
#: config section; ``auto`` resolves at fit time (projection when the backend
#: serves embeddings, LSH otherwise).
PREFILTER_NAMES = ("auto", "lsh", "projection")


class CascadePrefilterEntry:
    """Store adapter persisting a cascade's fitted prefilter as its own entry.

    The cascade's one on-disk format: the base persists itself (one
    whole-lake entry when flat, one entry per shard when sharded) and the
    fitted prefilter lives beside it — without it every warm start would
    refit, which walks *every* shard and defeats the O(touched-shards) lazy
    restore.  This adapter exposes just enough of the
    :class:`TableUnionSearcher` persistence surface
    (``config_state``/``config_fingerprint``/``index_state``/
    ``load_index_state``/``INDEX_FORMAT_VERSION``) for
    :class:`~repro.serving.store.IndexStore` to treat the fitted prefilter as
    a first-class entry in its own ``CascadePrefilterEntry-*`` namespace.

    The config fingerprint is keyed on the *configured* prefilter name (so an
    ``auto`` cascade and an explicit one do not share entries) plus every
    prefilter parameter and the base searcher's config fingerprint; the
    persisted state records the *resolved* prefilter name, so restoring an
    ``auto`` cascade never has to probe the base's embedding hooks — probing
    would materialize every deferred shard and forfeit the lazy cold start.
    """

    INDEX_FORMAT_VERSION = 1

    def __init__(self, cascade: "CascadeSearcher") -> None:
        self._cascade = cascade

    def config_state(self) -> dict:
        cascade = self._cascade
        return {
            "base_fingerprint": cascade.base.config_fingerprint(),
            "prefilter": cascade.prefilter_name,
            "projection_dim": cascade.projection_dim,
            "num_hashes": cascade.num_hashes,
            "num_bands": cascade.num_bands,
            "seed": cascade.seed,
        }

    def config_fingerprint(self) -> str:
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

    def index_state(self) -> IndexState:
        prefilter = self._cascade.prefilter
        pre_state, pre_arrays = prefilter.state()
        return {"prefilter_name": prefilter.name, "prefilter": pre_state}, dict(
            pre_arrays
        )

    def load_index_state(
        self, lake: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> "CascadePrefilterEntry":
        cascade = self._cascade
        prefilter = cascade._make_prefilter(state["prefilter_name"])
        prefilter.load_state(state["prefilter"], dict(arrays))
        prefilter.bind(cascade.base)
        cascade._prefilter = prefilter
        return self


class CascadeSearcher(TableUnionSearcher):
    """Wraps a backend with the approximate-prefilter / exact-fallback cascade.

    Parameters
    ----------
    base:
        Any :class:`TableUnionSearcher` (including a
        :class:`~repro.search.sharded.ShardedSearcher`).  The cascade warms
        and persists through it (adding only its own prefilter entry), and
        exact-scores through its :meth:`~TableUnionSearcher.score_candidates`
        hook.
    mode:
        ``"exact"`` — every query delegates to ``base.search``; rankings are
        bit-identical by construction and the prefilter is only maintained
        (for profiling and later mode flips).  ``"approx"`` — the opt-in
        fast path described in the module docstring.
    candidate_budget:
        How many prefilter candidates survive to exact scoring (always at
        least the requested ``k``).
    escalation_margin:
        When the approximate margin at the budget cut is *below* this value
        the cut is ambiguous and the query escalates to the full exact path.
        ``0.0`` (the default) never escalates; ``inf`` always does.
    prefilter, projection_dim, num_hashes, num_bands, seed:
        Prefilter selection (:data:`PREFILTER_NAMES`) and parameters.
    """

    def __init__(
        self,
        base: TableUnionSearcher,
        *,
        mode: str = "approx",
        candidate_budget: int = 32,
        escalation_margin: float = 0.0,
        prefilter: str = "auto",
        projection_dim: int = 16,
        num_hashes: int = 64,
        num_bands: int = 16,
        seed: int = DEFAULT_MINHASH_SEED,
    ) -> None:
        super().__init__()
        if not isinstance(base, TableUnionSearcher):
            raise SearchError(
                f"CascadeSearcher wraps TableUnionSearcher instances, "
                f"got {type(base).__name__}"
            )
        if mode not in ("exact", "approx"):
            raise SearchError(f"cascade mode must be exact/approx, got {mode!r}")
        if candidate_budget < 1:
            raise SearchError(
                f"candidate_budget must be positive, got {candidate_budget}"
            )
        if escalation_margin < 0:
            raise SearchError(
                f"escalation_margin must be non-negative, got {escalation_margin}"
            )
        if prefilter not in PREFILTER_NAMES:
            raise SearchError(
                f"prefilter must be one of {PREFILTER_NAMES}, got {prefilter!r}"
            )
        # Prefilter parameters are validated eagerly, not at fit() time, so a
        # bad configuration fails at construction — the same contract the
        # DiscoveryConfig cascade section enforces.
        if projection_dim < 1:
            raise SearchError(
                f"projection_dim must be positive, got {projection_dim}"
            )
        if num_bands < 1 or num_hashes < 1 or num_hashes % num_bands != 0:
            raise SearchError(
                f"num_hashes must be a positive multiple of num_bands, "
                f"got {num_hashes}/{num_bands}"
            )
        self.base = base
        self.mode = mode
        self.candidate_budget = candidate_budget
        self.escalation_margin = escalation_margin
        self.prefilter_name = prefilter
        self.projection_dim = projection_dim
        self.num_hashes = num_hashes
        self.num_bands = num_bands
        self.seed = seed
        self._prefilter: CandidatePrefilter | None = None

    # -------------------------------------------------------------- prefilter
    def _make_prefilter(self, name: str) -> CandidatePrefilter:
        if name == "projection":
            return ProjectionPrefilter(dim=self.projection_dim, seed=self.seed)
        return LSHPrefilter(
            num_hashes=self.num_hashes, num_bands=self.num_bands, seed=self.seed
        )

    def _resolve_prefilter_name(self) -> str:
        if self.prefilter_name != "auto":
            return self.prefilter_name
        return (
            "projection" if self.base.prefilter_table_vectors() is not None else "lsh"
        )

    def _fit_prefilter(self, lake: DataLake) -> None:
        prefilter = self._make_prefilter(self._resolve_prefilter_name())
        prefilter.fit(self.base, lake)
        self._prefilter = prefilter

    @property
    def prefilter(self) -> CandidatePrefilter:
        """The fitted prefilter (raises before :meth:`index`)."""
        if self._prefilter is None:
            raise SearchError("CascadeSearcher used before index() was called")
        return self._prefilter

    # -------------------------------------------------------------- lifecycle
    def warm(
        self, lake: DataLake, store: "IndexStore | None" = None
    ) -> "CascadeSearcher":
        """Index ``lake`` with base and prefilter persisted through ``store``."""
        self.store = store
        return self.index(lake)

    def _build_index(self, lake: DataLake) -> None:
        """Warm the base through the bound store, then restore or fit the
        prefilter.

        A persisted prefilter entry short-circuits the fit — fitting touches
        every shard, which would forfeit a lazily restored base's
        O(touched-shards) cold start.
        """
        self.base.warm(lake, self.store)
        self.store = self.base.store  # a sharded base may bring its own
        if not self._restore_prefilter(lake):
            self._fit_prefilter(lake)
            self._persist_prefilter(lake)

    def persist(self) -> None:
        """The base writes its own entries; the prefilter entry was already
        re-persisted when the delta refit it."""
        self.base.persist()

    def _restore_prefilter(self, lake: DataLake) -> bool:
        """Adopt a persisted prefilter entry; ``False`` means fit instead."""
        if self.store is None:
            return False
        try:
            self.store.load(CascadePrefilterEntry(self), lake)
        except ServingError:
            # Miss, config/lake drift, or corruption: a fresh fit (and the
            # re-persist that follows) heals all of them.
            return False
        return True

    def _persist_prefilter(self, lake: DataLake) -> None:
        if self.store is None:
            return
        try:
            self.store.save(CascadePrefilterEntry(self), lake)
        except (SearchError, ServingError):
            pass  # persistence is an optimization; serving continues fitted

    def _apply_index_delta(self, added: list[Table], removed: list[str]) -> None:
        self.base.update_index(added=added, removed=removed)
        # Prefilter structures are cheap aggregates; refitting from the
        # updated base index keeps them exact without a delta protocol.
        self._fit_prefilter(self.base.lake)
        self._persist_prefilter(self.base.lake)

    # ------------------------------------------------------------ fingerprint
    def config_state(self) -> dict:
        # The base is keyed by its *fingerprint* (not raw config): a
        # ShardedSearcher reports its prototype's, so the persisted prefilter
        # entry is shared with the equivalent flat deployment.  base_class
        # still tells the two apart in this composite's own fingerprint
        # (result-cache keys, provenance).
        return {
            "base_class": type(self.base).__name__,
            "base_fingerprint": self.base.config_fingerprint(),
            "mode": self.mode,
            "candidate_budget": self.candidate_budget,
            "escalation_margin": self.escalation_margin,
            "prefilter": self.prefilter_name,
            "projection_dim": self.projection_dim,
            "num_hashes": self.num_hashes,
            "num_bands": self.num_bands,
            "seed": self.seed,
        }

    # ----------------------------------------------------------------- search
    def _score_table(self, query_table: Table, lake_table: Table) -> float:
        return self.base._score_table(query_table, lake_table)

    def score_candidates(
        self, query_table: Table, names: Iterable[str]
    ) -> dict[str, float]:
        return self.base.score_candidates(query_table, names)

    def search(self, query_table: Table, k: int) -> list[SearchResult]:
        """Cascade search: prefilter, narrow exact scoring, escalate when
        ambiguous.  ``exact`` mode delegates wholesale — bit-identical."""
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        self.lake  # raises before index()
        if self.mode == "exact":
            return self.base.search(query_table, k)
        names, margin = self.prefilter.candidates(
            query_table, max(self.candidate_budget, k)
        )
        if margin < self.escalation_margin:
            return self.base.search(query_table, k)
        return rank_scores(self.base.score_candidates(query_table, names), k)
