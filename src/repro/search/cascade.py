"""The prefilter stage of step 1: approximate candidates, then exact scoring.

Every backend's :meth:`~repro.search.base.TableUnionSearcher.search` is linear
in lake size — each query exact-scores every table.  With a
``candidate_budget``, :class:`~repro.search.sharded.ShardedSearcher` (the one
search executor; flat is one shard) makes query latency proportional to that
budget instead:

1. A cheap :class:`CandidatePrefilter` ranks the whole lake by an approximate
   unionability proxy (vectorized, micro-seconds per thousand tables) and
   keeps the top ``candidate_budget`` names.
2. Only the surviving candidates are exact-scored through
   :meth:`~repro.search.base.TableUnionSearcher.score_candidates` — the same
   per-table arithmetic as a full ``search``, restricted to the shards that
   own them.

Two prefilters cover the five backends, chosen by :func:`fit_prefilter`:

* :class:`ProjectionPrefilter` — when the backend serves per-table embedding
  aggregates (:meth:`~repro.search.base.TableUnionSearcher.prefilter_table_vectors`):
  they are projected into a low-dimensional space with a seeded random matrix
  and held as a :class:`~repro.vectorops.EmbeddingMatrix`; candidates are
  ranked by projected cosine similarity.
* :class:`LSHPrefilter` — otherwise: table-level MinHash signatures (the
  elementwise minimum of the per-column signatures the overlap searcher
  already holds, re-hashed from the lake otherwise) banded into the existing
  :class:`~repro.search.minhash.MinHashLSHIndex`; candidates come from an LSH
  bucket probe ranked by estimated table-level Jaccard.

The prefilter parameters are the module constants below; the fitted
prefilter persists as its own :class:`CascadePrefilterEntry`.
"""

from __future__ import annotations

import abc
import hashlib
import json
from typing import Mapping, Sequence

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.search.base import IndexState, TableUnionSearcher
from repro.search.minhash import DEFAULT_MINHASH_SEED, MinHashLSHIndex, MinHashSignature
from repro.search.overlap import column_token_set
from repro.utils.errors import SearchError
from repro.vectorops import EmbeddingMatrix


#: Prefilter parameters of every executor.  They key the persisted prefilter
#: entry (:class:`CascadePrefilterEntry`), so changing one orphans every
#: stored prefilter.
PROJECTION_DIM = 16
NUM_HASHES = 64
NUM_BANDS = 16
SEED = DEFAULT_MINHASH_SEED


def _top_names(
    names: Sequence[str], scores: np.ndarray, budget: int, *, exclude: str
) -> list[str]:
    """Top-``budget`` names by ``(-score, name)``, never ``exclude``."""
    order = sorted(
        (i for i, name in enumerate(names) if name != exclude),
        key=lambda i: (-scores[i], names[i]),
    )
    return [names[i] for i in order[:budget]]


class CandidatePrefilter(abc.ABC):
    """Approximate candidate ranking over an indexed lake.

    Lifecycle: :meth:`fit` against a backend's built index (or
    :meth:`load_state` + :meth:`bind` when restored from a persisted
    :class:`CascadePrefilterEntry`), then :meth:`candidates` per query.
    Implementations must be deterministic — same lake, same configuration,
    same candidates — so approximate rankings are reproducible and the
    sharded/flat parity tests can demand bit-identity.
    """

    #: Registry-style name recorded in persisted state.
    name = "abstract"

    @abc.abstractmethod
    def fit(self, searcher: TableUnionSearcher, lake: DataLake) -> None:
        """Derive prefilter structures from the backend's built index."""

    @abc.abstractmethod
    def candidates(self, query_table: Table, budget: int) -> list[str]:
        """Top-``budget`` candidate names, never the query's own name."""

    @abc.abstractmethod
    def state(self) -> IndexState:
        """Serialized fitted state (same shape as a searcher index state)."""

    @abc.abstractmethod
    def load_state(self, state: dict, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore a :meth:`state` dump."""

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

    def __init__(self) -> None:
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
        index = MinHashLSHIndex(NUM_HASHES, NUM_BANDS, seed=SEED)
        for name, row in zip(names, matrix):
            index.add_signature(
                name, MinHashSignature(values=tuple(int(v) for v in row))
            )
        self._index = index
        self._names = names
        self._matrix = matrix

    def fit(self, searcher: TableUnionSearcher, lake: DataLake) -> None:
        self._index = MinHashLSHIndex(NUM_HASHES, NUM_BANDS, seed=SEED)
        reused = searcher.prefilter_minhash_signatures(NUM_HASHES, SEED)
        names = lake.table_names()
        if reused is not None and set(reused) >= set(names):
            matrix = np.vstack([np.asarray(reused[name], dtype=np.int64) for name in names])
        else:
            matrix = np.vstack([self._table_signature(lake.get(name)) for name in names])
        self._install(names, matrix.reshape(len(names), NUM_HASHES))

    # ------------------------------------------------------------- candidates
    def candidates(self, query_table: Table, budget: int) -> list[str]:
        if not self.is_fitted:
            raise SearchError("LSHPrefilter.candidates() called before fit()")
        assert self._index is not None and self._matrix is not None
        signature = self._table_signature(query_table)
        # Estimated table-level Jaccard to every lake table, one vectorized
        # pass — the same arithmetic as MinHashSignature.jaccard.
        scores = (self._matrix == signature).sum(axis=1) / NUM_HASHES
        hits = self._index.query_signature(
            MinHashSignature(values=tuple(int(v) for v in signature))
        )
        # A query that is itself a lake member is never its own candidate, so
        # it must not count toward filling the budget either.
        hits.discard(query_table.name)
        names: Sequence[str] = self._names
        if len(hits) >= budget:
            # The bucket probe alone yields enough candidates: rank within it.
            keep = [i for i, name in enumerate(self._names) if name in hits]
            names = [self._names[i] for i in keep]
            scores = scores[keep]
        return _top_names(names, scores, budget, exclude=query_table.name)

    # ------------------------------------------------------------ persistence
    def state(self) -> IndexState:
        if not self.is_fitted:
            raise SearchError("LSHPrefilter.state() called before fit()")
        meta = {
            "num_hashes": NUM_HASHES,
            "num_bands": NUM_BANDS,
            "seed": SEED,
            "names": list(self._names),
        }
        return meta, {"signatures": np.asarray(self._matrix, dtype=np.int64)}

    def load_state(self, state: dict, arrays: Mapping[str, np.ndarray]) -> None:
        if (int(state["num_hashes"]), int(state["num_bands"]), int(state["seed"])) != (
            NUM_HASHES,
            NUM_BANDS,
            SEED,
        ):
            raise SearchError(
                "persisted LSH prefilter configuration does not match this prefilter"
            )
        matrix = np.asarray(arrays["signatures"], dtype=np.int64)
        self._install(list(state["names"]), matrix)

    @property
    def is_fitted(self) -> bool:
        return self._matrix is not None


class ProjectionPrefilter(CandidatePrefilter):
    """Random-projection prefilter over backend-served table embeddings.

    Fit stacks the backend's per-table vectors
    (:meth:`~repro.search.base.TableUnionSearcher.prefilter_table_vectors`),
    projects them through a seeded Gaussian matrix into :data:`PROJECTION_DIM`
    dimensions
    and keeps the unit rows in an :class:`~repro.vectorops.EmbeddingMatrix`.
    A query is embedded by the same backend hook, projected by the same
    matrix, and candidates are ranked by projected cosine similarity — a
    (lake, dimension) matvec instead of per-table exact scoring.
    """

    name = "projection"

    def __init__(self) -> None:
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
        rng = np.random.default_rng(SEED)
        self._projection = rng.standard_normal(
            (source.shape[1], PROJECTION_DIM)
        ) / np.sqrt(PROJECTION_DIM)
        self._names = names
        self._matrix = EmbeddingMatrix(source @ self._projection)
        self._searcher = searcher

    # ------------------------------------------------------------- candidates
    def candidates(self, query_table: Table, budget: int) -> list[str]:
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
        return _top_names(self._names, scores, budget, exclude=query_table.name)

    # ------------------------------------------------------------ persistence
    def state(self) -> IndexState:
        if not self.is_fitted:
            raise SearchError("ProjectionPrefilter.state() called before fit()")
        assert self._matrix is not None and self._projection is not None
        meta = {"dim": PROJECTION_DIM, "seed": SEED, "names": list(self._names)}
        return meta, {
            "projected": self._matrix.data,
            "projection": self._projection,
        }

    def load_state(self, state: dict, arrays: Mapping[str, np.ndarray]) -> None:
        if (int(state["dim"]), int(state["seed"])) != (PROJECTION_DIM, SEED):
            raise SearchError(
                "persisted projection prefilter configuration does not match "
                "this prefilter"
            )
        self._names = list(state["names"])
        self._projection = np.asarray(arrays["projection"], dtype=np.float64)
        self._matrix = EmbeddingMatrix(np.asarray(arrays["projected"], dtype=np.float64))

    @property
    def is_fitted(self) -> bool:
        return self._matrix is not None


def fit_prefilter(searcher: TableUnionSearcher, lake: DataLake) -> CandidatePrefilter:
    """Fit the ``auto`` choice over ``searcher``'s index of ``lake``:
    projection when the searcher serves table vectors, LSH otherwise."""
    if searcher.prefilter_table_vectors() is not None:
        prefilter: CandidatePrefilter = ProjectionPrefilter()
    else:
        prefilter = LSHPrefilter()
    prefilter.fit(searcher, lake)
    return prefilter


class CascadePrefilterEntry:
    """Store adapter persisting an executor's fitted prefilter as its own entry.

    The executor's shards persist themselves (one entry per shard) and the
    fitted prefilter lives beside them — without it every warm start would
    refit, which walks *every* shard and defeats the O(touched-shards) lazy
    restore.  This adapter exposes just enough of the
    :class:`TableUnionSearcher` persistence surface
    (``config_state``/``config_fingerprint``/``index_state``/
    ``load_index_state``/``INDEX_FORMAT_VERSION``) for
    :class:`~repro.serving.store.IndexStore` to treat the fitted prefilter as
    a first-class entry in its own ``CascadePrefilterEntry-*`` namespace.

    The config fingerprint folds the backend's config fingerprint and the
    prefilter constants — the same bytes for every shard count, so flat and
    sharded deployments share the entry.  The persisted state records the *resolved* prefilter name, so
    a restore never has to probe the backend's embedding hooks — probing
    would materialize every deferred shard and forfeit the lazy cold start.
    """

    INDEX_FORMAT_VERSION = 1

    def __init__(
        self, searcher: TableUnionSearcher, prefilter: CandidatePrefilter | None = None
    ) -> None:
        self._searcher = searcher
        self.prefilter = prefilter

    def config_state(self) -> dict:
        return {
            "base_fingerprint": self._searcher.config_state()["base_fingerprint"],
            "prefilter": "auto",  # the selection rule of fit_prefilter
            "projection_dim": PROJECTION_DIM,
            "num_hashes": NUM_HASHES,
            "num_bands": NUM_BANDS,
            "seed": SEED,
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
        if self.prefilter is None:
            raise SearchError("CascadePrefilterEntry has no fitted prefilter to save")
        pre_state, pre_arrays = self.prefilter.state()
        return {"prefilter_name": self.prefilter.name, "prefilter": pre_state}, dict(
            pre_arrays
        )

    def load_index_state(
        self, lake: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> "CascadePrefilterEntry":
        if state["prefilter_name"] == ProjectionPrefilter.name:
            prefilter: CandidatePrefilter = ProjectionPrefilter()
        else:
            prefilter = LSHPrefilter()
        prefilter.load_state(state["prefilter"], dict(arrays))
        prefilter.bind(self._searcher)
        self.prefilter = prefilter
        return self
