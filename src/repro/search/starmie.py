"""Starmie-style table union search (Fan et al. [11] stand-in).

Starmie embeds each column with the context of its whole table and scores a
candidate table by the maximum-weight bipartite matching between its column
embeddings and the query table's column embeddings.  The same encoder also
supports the paper's tuple-search adaptation of Starmie (Sec. 6.5.1): index
every data lake *tuple* as a single-row table and return the top-k tuples.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.api.registry import register_searcher
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.embeddings.column import CorpusContribution, StarmieColumnEncoder
from repro.embeddings.contextual import RobertaLikeModel
from repro.embeddings.serialization import AlignedTuple
from repro.search.base import IndexState, TableUnionSearcher
from repro.utils.errors import SearchError


@register_searcher("starmie")
class StarmieSearcher(TableUnionSearcher):
    """Contextualized-column-embedding union search with bipartite scoring."""

    #: v2 adds the per-table TF-IDF corpus contributions that incremental
    #: updates need; v1 entries become index-store misses and are rebuilt.
    INDEX_FORMAT_VERSION = 2

    def __init__(
        self,
        column_encoder: StarmieColumnEncoder | None = None,
        *,
        min_similarity: float = 0.0,
    ) -> None:
        super().__init__()
        self.column_encoder = column_encoder or StarmieColumnEncoder(RobertaLikeModel())
        self.min_similarity = min_similarity
        self._vector_dimension = self.column_encoder.info.dimension
        self._column_embeddings: dict[str, dict[str, np.ndarray]] = {}
        #: Per-table TF-IDF corpus contributions; their sum *is* the fitted
        #: selector state, which is what makes corpus deltas exact.
        self._corpus: dict[str, CorpusContribution] = {}

    # ------------------------------------------------------------------ index
    def _corpus_fit_state(self) -> dict:
        """The selector fit state implied by ``self._corpus``.

        Summing per-table contributions in any order is bit-identical to
        ``fit_tables`` over the same tables: both count each token once per
        column document, in plain integer arithmetic.
        """
        num_documents = 0
        frequency: Counter = Counter()
        for contribution in self._corpus.values():
            num_documents += contribution.num_documents
            frequency.update(contribution.document_frequency)
        return {"num_documents": num_documents, "document_frequency": dict(frequency)}

    def _fit_from_corpus(self) -> None:
        """Load the selector fit state implied by ``self._corpus``."""
        self.column_encoder.load_fit_state(self._corpus_fit_state())

    def _build_index(self, lake: DataLake) -> None:
        self._corpus = {
            table.name: self.column_encoder.corpus_contribution(table) for table in lake
        }
        self._fit_from_corpus()
        self._column_embeddings = {
            table.name: self.column_encoder.encode_table_columns(table) for table in lake
        }

    def _apply_index_delta(self, added: list[Table], removed: list[str]) -> None:
        """Maintain the corpus statistics exactly; re-encode only what moved.

        The fitted TF-IDF state after the delta is derived by integer
        arithmetic on the per-table contributions, so it equals a refit over
        the mutated lake bit for bit.  Embeddings of retained tables only
        consult that state when one of their column documents exceeds the
        token limit (``CorpusContribution.oversized``); if the corpus changed
        *and* a retained table is oversized, its persisted embedding would
        diverge from a rebuild, so the whole lake is rebuilt instead — the
        correctness fallback.
        """
        before = self.column_encoder.fit_state()
        for name in removed:
            self._corpus.pop(name, None)
        retained_oversized = any(
            contribution.oversized for contribution in self._corpus.values()
        )
        self._corpus.update(
            {table.name: self.column_encoder.corpus_contribution(table) for table in added}
        )
        after = self._corpus_fit_state()
        corpus_changed = after != before
        if corpus_changed and retained_oversized:
            return self._build_index(self.lake)
        if corpus_changed:
            self.column_encoder.load_fit_state(after)
        for name in removed:
            self._column_embeddings.pop(name, None)
        for table in added:
            self._column_embeddings[table.name] = self.column_encoder.encode_table_columns(
                table
            )

    def finalize_shard_group(
        self, lake: DataLake, shard_searchers: "Iterable[TableUnionSearcher]"
    ) -> None:
        """Align every shard searcher to the global TF-IDF corpus.

        Per-shard indexes are built (or delta-updated) under shard-local
        corpus statistics; summing every shard's contributions yields the
        global fit exactly, which each shard then loads so query embeddings —
        and the embeddings of oversized tables, which are re-encoded here —
        match a monolithic index bit for bit.  Idempotent: re-running with
        unchanged shards recomputes the same fit and the same embeddings.
        """
        searchers = [
            searcher for searcher in shard_searchers if isinstance(searcher, StarmieSearcher)
        ]
        num_documents = 0
        frequency: Counter = Counter()
        for searcher in searchers:
            for contribution in searcher._corpus.values():
                num_documents += contribution.num_documents
                frequency.update(contribution.document_frequency)
        fit = {"num_documents": num_documents, "document_frequency": dict(frequency)}
        for searcher in searchers:
            searcher.column_encoder.load_fit_state(fit)
            searcher._forget_query_state()  # query embeddings depend on the fit
            for name, contribution in searcher._corpus.items():
                if contribution.oversized:
                    searcher._column_embeddings[name] = (
                        searcher.column_encoder.encode_table_columns(lake.get(name))
                    )

    def _compute_query_state(self, query_table: Table) -> dict[str, np.ndarray]:
        """The query's column embeddings (under the fitted TF-IDF state)."""
        return self.column_encoder.encode_table_columns(query_table)

    # ----------------------------------------------------- index serialization
    def config_state(self) -> dict:
        return {
            "min_similarity": self.min_similarity,
            "encoder": self.column_encoder.info.name,
            "table_context_weight": self.column_encoder.table_context_weight,
        }

    def _index_state(self) -> IndexState:
        state = {
            "tables": [
                {"name": name, "columns": list(columns)}
                for name, columns in self._column_embeddings.items()
            ],
            "tfidf": self.column_encoder.fit_state(),
            "corpus": {
                name: contribution.to_state()
                for name, contribution in self._corpus.items()
            },
        }
        matrix = self._stack_vectors(self._column_embeddings.values())
        return state, {"column_embeddings": matrix}

    def _load_index_state(
        self, lake: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> None:
        self.column_encoder.load_fit_state(state["tfidf"])
        self._corpus = {
            name: CorpusContribution.from_state(contribution)
            for name, contribution in state["corpus"].items()
        }
        self._column_embeddings = self._unstack_vectors(
            arrays["column_embeddings"],
            {entry["name"]: entry["columns"] for entry in state["tables"]},
        )

    # ------------------------------------------------------- cascade prefilter
    def _indexed_column_vectors(self) -> dict[str, dict[str, np.ndarray]]:
        """The contextual column embeddings: the cosine neighbourhoods of
        their per-table mean track the bipartite-matching score."""
        return self._column_embeddings

    def _query_column_vectors(self, query_table: Table) -> dict[str, np.ndarray]:
        return self._query_state(query_table)

    # ----------------------------------------------------------------- scoring
    def _bipartite_score(
        self,
        query_embeddings: dict[str, np.ndarray],
        lake_embeddings: dict[str, np.ndarray],
    ) -> float:
        if not query_embeddings or not lake_embeddings:
            return 0.0
        query_matrix = np.vstack(list(query_embeddings.values()))
        lake_matrix = np.vstack(list(lake_embeddings.values()))
        similarity = query_matrix @ lake_matrix.T
        row_indices, col_indices = linear_sum_assignment(-similarity)
        matched = [
            float(similarity[row, col])
            for row, col in zip(row_indices, col_indices)
            if similarity[row, col] >= self.min_similarity
        ]
        if not matched:
            return 0.0
        # Normalise by the number of query columns so wide tables do not win
        # simply by having more columns to match.
        return float(sum(matched)) / len(query_embeddings)

    def _score_table(self, query_table: Table, lake_table: Table) -> float:
        return self._bipartite_score(
            self._query_state(query_table), self._column_embeddings[lake_table.name]
        )

    # ---------------------------------------------------- tuple-search variant
    def search_tuples(self, query_table: Table, k: int) -> list[AlignedTuple]:
        """Return the top-``k`` most unionable *tuples* from the lake.

        This is the adaptation described in Sec. 6.5.1: every data lake tuple
        is treated as its own single-row table, scored against the query table
        and the tuples of the top-scoring rows are returned.  Tuples keep the
        lake column headers that matched query columns.
        """
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        scored: list[tuple[float, str, int, AlignedTuple]] = []
        table_scores = self.score_candidates(query_table, self._indexed_table_fps)
        for name, table_score in table_scores.items():
            lake_table = self.lake.get(name)
            mapping = self._column_mapping(query_table, lake_table)
            if not mapping:
                continue
            for position, row in enumerate(lake_table.rows):
                values = {
                    query_column: row[lake_table.column_index(lake_column)]
                    for lake_column, query_column in mapping.items()
                }
                aligned = AlignedTuple(
                    source_table=lake_table.name, source_row=position, values=values
                )
                # Rank rows primarily by their table's unionability; rows of the
                # most unionable tables surface first, reproducing Starmie's
                # similarity-driven redundancy that DUST addresses.
                scored.append((table_score, lake_table.name, position, aligned))
        scored.sort(key=lambda item: (-item[0], item[1], item[2]))
        return [aligned for _, _, _, aligned in scored[:k]]

    def _column_mapping(self, query_table: Table, lake_table: Table) -> dict[str, str]:
        """Best-match mapping ``lake column -> query column`` via bipartite matching."""
        query_embeddings = self._query_state(query_table)
        lake_embeddings = self._column_embeddings[lake_table.name]
        query_columns = list(query_embeddings)
        lake_columns = list(lake_embeddings)
        if not query_columns or not lake_columns:
            return {}
        similarity = np.zeros((len(lake_columns), len(query_columns)))
        for i, lake_column in enumerate(lake_columns):
            for j, query_column in enumerate(query_columns):
                similarity[i, j] = float(
                    lake_embeddings[lake_column] @ query_embeddings[query_column]
                )
        rows, cols = linear_sum_assignment(-similarity)
        return {
            lake_columns[row]: query_columns[col]
            for row, col in zip(rows, cols)
            if similarity[row, col] >= self.min_similarity
        }

    # ----------------------------------------------------------- table vectors
    def table_embedding(self, table: Table) -> np.ndarray:
        """Whole-table embedding (used by the Fig. 2 spread experiment)."""
        return self.column_encoder.encode_table(table)
