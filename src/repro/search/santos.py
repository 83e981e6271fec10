"""SANTOS-style relationship-aware table search (Khatiwada et al. [24] stand-in).

SANTOS scores a candidate table not only by how well its columns match the
query columns semantically but also by whether the *binary relationships*
between column pairs of the query table are preserved.  Without a knowledge
base, column semantics are approximated by column-content embeddings and a
relationship between two columns is represented by the embedding of their
paired values.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.api.registry import register_searcher
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.embeddings.word import FastTextLikeModel
from repro.search.base import IndexState, TableUnionSearcher
from repro.utils.text import is_null


@register_searcher("santos")
class SantosSearcher(TableUnionSearcher):
    """Column-semantics plus binary-relationship union search.

    The table score is ``column_weight * column_score + (1 - column_weight) *
    relationship_score`` where the column score is the mean best column-content
    similarity per query column and the relationship score is the mean best
    similarity between query column-pair relationship embeddings and candidate
    column-pair relationship embeddings.
    """

    def __init__(
        self,
        *,
        column_weight: float = 0.5,
        max_value_pairs: int = 50,
        max_relationship_columns: int = 6,
    ) -> None:
        super().__init__()
        if not 0.0 <= column_weight <= 1.0:
            raise ValueError(f"column_weight must be in [0, 1], got {column_weight}")
        self.column_weight = column_weight
        self.max_value_pairs = max_value_pairs
        self.max_relationship_columns = max_relationship_columns
        self._word_model = FastTextLikeModel()
        self._vector_dimension = self._word_model.info.dimension
        self._column_vectors: dict[str, dict[str, np.ndarray]] = {}
        self._relationship_vectors: dict[str, dict[tuple[str, str], np.ndarray]] = {}

    def _compute_query_state(
        self, query_table: Table
    ) -> tuple[dict[str, np.ndarray], dict[tuple[str, str], np.ndarray]]:
        """Query column + relationship embeddings — without the memo the
        (quadratic-in-columns) relationship embeddings of the query would be
        re-derived for every candidate."""
        return (
            {
                column: self._column_vector(query_table, column)
                for column in query_table.columns
            },
            self._table_relationships(query_table),
        )

    # -------------------------------------------------------------- embeddings
    def _column_vector(self, table: Table, column: str) -> np.ndarray:
        values = [
            str(value) for value in table.column_values(column) if not is_null(value)
        ][:64]
        return self._word_model.encode_text(" ".join([column, *values]))

    def _relationship_vector(self, table: Table, first: str, second: str) -> np.ndarray:
        """Embedding of the binary relationship between two columns.

        The relationship is represented by the concatenated value pairs
        ("subject object" strings), which captures which entities co-occur —
        the same intuition as SANTOS's relationship semantics.
        """
        first_index = table.column_index(first)
        second_index = table.column_index(second)
        pairs = []
        for row in table.rows[: self.max_value_pairs]:
            left, right = row[first_index], row[second_index]
            if is_null(left) or is_null(right):
                continue
            pairs.append(f"{left} {right}")
        return self._word_model.encode_text(" ".join(pairs) if pairs else f"{first} {second}")

    def _table_relationships(self, table: Table) -> dict[tuple[str, str], np.ndarray]:
        columns = table.columns[: self.max_relationship_columns]
        vectors: dict[tuple[str, str], np.ndarray] = {}
        for i, first in enumerate(columns):
            for second in columns[i + 1 :]:
                vectors[(first, second)] = self._relationship_vector(table, first, second)
        return vectors

    # ------------------------------------------------------------------- index
    def _index_table(self, table: Table) -> None:
        self._column_vectors[table.name] = {
            column: self._column_vector(table, column) for column in table.columns
        }
        self._relationship_vectors[table.name] = self._table_relationships(table)

    def _build_index(self, lake: DataLake) -> None:
        self._column_vectors, self._relationship_vectors = {}, {}
        for table in lake:
            self._index_table(table)

    def _apply_index_delta(self, added: list[Table], removed: list[str]) -> None:
        """Column and relationship vectors are per table over a stateless word
        model, so deltas only touch the mutated tables' entries and are
        bit-identical to a rebuild by construction."""
        for name in removed:
            self._column_vectors.pop(name, None)
            self._relationship_vectors.pop(name, None)
        for table in added:
            self._index_table(table)

    # ----------------------------------------------------- index serialization
    def config_state(self) -> dict:
        return {
            "column_weight": self.column_weight,
            "max_value_pairs": self.max_value_pairs,
            "max_relationship_columns": self.max_relationship_columns,
        }

    def _index_state(self) -> IndexState:
        tables = [
            {
                "name": name,
                "columns": list(columns),
                "relationships": [list(pair) for pair in self._relationship_vectors[name]],
            }
            for name, columns in self._column_vectors.items()
        ]
        arrays = {
            "column_vectors": self._stack_vectors(self._column_vectors.values()),
            "relationship_vectors": self._stack_vectors(
                self._relationship_vectors[name] for name in self._column_vectors
            ),
        }
        return {"tables": tables}, arrays

    def _load_index_state(
        self, lake: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> None:
        columns = self._unstack_vectors(
            arrays["column_vectors"],
            {entry["name"]: entry["columns"] for entry in state["tables"]},
        )
        self._relationship_vectors = self._unstack_vectors(
            arrays["relationship_vectors"],
            {
                entry["name"]: [tuple(pair) for pair in entry["relationships"]]
                for entry in state["tables"]
            },
        )
        self._column_vectors = columns

    # ------------------------------------------------------- cascade prefilter
    def _indexed_column_vectors(self) -> dict[str, dict[str, np.ndarray]]:
        """The column-content vectors: their per-table mean tracks the
        column-semantics component of the score."""
        return self._column_vectors

    def _query_column_vectors(self, query_table: Table) -> dict[str, np.ndarray]:
        return self._query_state(query_table)[0]

    # ----------------------------------------------------------------- scoring
    @staticmethod
    def _best_similarity(query_vector: np.ndarray, candidates: list[np.ndarray]) -> float:
        if not candidates:
            return 0.0
        matrix = np.vstack(candidates)
        return float(np.max(matrix @ query_vector))

    def _score_table(self, query_table: Table, lake_table: Table) -> float:
        lake_columns = self._column_vectors[lake_table.name]
        lake_relationships = self._relationship_vectors[lake_table.name]
        query_column_vectors, query_relationships = self._query_state(query_table)

        # Column-semantics component.
        column_scores = []
        lake_column_list = list(lake_columns.values())
        for query_column in query_table.columns:
            query_vector = query_column_vectors[query_column]
            column_scores.append(self._best_similarity(query_vector, lake_column_list))
        column_score = float(np.mean(column_scores)) if column_scores else 0.0

        # Relationship component.
        relationship_scores = []
        lake_relationship_list = list(lake_relationships.values())
        for query_vector in query_relationships.values():
            relationship_scores.append(
                self._best_similarity(query_vector, lake_relationship_list)
            )
        relationship_score = (
            float(np.mean(relationship_scores)) if relationship_scores else 0.0
        )

        return (
            self.column_weight * column_score
            + (1.0 - self.column_weight) * relationship_score
        )
