"""Pairwise (bipartite-matching) column alignment — the Starmie (B) baseline.

Starmie [11] aligns each data lake table to the query table independently by
maximum-weight bipartite matching between the two tables' column embeddings.
The paper uses this per-table-pair strategy as the baseline against which the
holistic aligner is compared in Table 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.alignment.types import AlignedCluster, ColumnAlignment
from repro.datalake.table import Column, Table
from repro.embeddings.base import ColumnEncoder
from repro.utils.errors import AlignmentError


class BipartiteColumnAligner:
    """Aligns each data lake table to the query table independently.

    Parameters
    ----------
    column_encoder:
        Encoder used to embed columns; a
        :class:`~repro.embeddings.column.StarmieColumnEncoder` reproduces the
        paper's "Starmie (B)" configuration.
    min_similarity:
        Matches with cosine similarity below this threshold are dropped, so a
        data lake column with no good counterpart stays unaligned rather than
        being forced onto an arbitrary query column.
    """

    def __init__(self, column_encoder: ColumnEncoder, *, min_similarity: float = 0.1) -> None:
        if not -1.0 <= min_similarity <= 1.0:
            raise AlignmentError(
                f"min_similarity must be in [-1, 1], got {min_similarity}"
            )
        self.column_encoder = column_encoder
        self.min_similarity = min_similarity

    # -------------------------------------------------------------- embedding
    def _embed_tables(self, tables: Sequence[Table]) -> list[dict[str, np.ndarray]]:
        """``{column: embedding}`` of every table, from one ``encode_tables`` call."""
        rows = iter(self.column_encoder.encode_tables(tables))
        # zip stops at each table's last column, so the next table resumes there.
        return [dict(zip(table.columns, rows)) for table in tables]

    @staticmethod
    def _similarity(first: np.ndarray, second: np.ndarray) -> float:
        norm_first = float(np.linalg.norm(first))
        norm_second = float(np.linalg.norm(second))
        if norm_first == 0.0 or norm_second == 0.0:
            return 0.0
        return float(first @ second) / (norm_first * norm_second)

    # -------------------------------------------------------------------- API
    def match_pair(self, query_table: Table, lake_table: Table) -> dict[str, str]:
        """Match one data lake table to the query table.

        Returns ``{lake column name: query column name}`` for the retained
        matches of the maximum-weight bipartite matching.
        """
        query_embeddings, lake_embeddings = self._embed_tables([query_table, lake_table])
        return self._match(query_table, query_embeddings, lake_table, lake_embeddings)

    def _match(
        self,
        query_table: Table,
        query_embeddings: dict[str, np.ndarray],
        lake_table: Table,
        lake_embeddings: dict[str, np.ndarray],
    ) -> dict[str, str]:
        query_columns = list(query_table.columns)
        lake_columns = list(lake_table.columns)
        if not query_columns or not lake_columns:
            return {}

        similarity = np.zeros((len(lake_columns), len(query_columns)), dtype=np.float64)
        for i, lake_column in enumerate(lake_columns):
            for j, query_column in enumerate(query_columns):
                similarity[i, j] = self._similarity(
                    lake_embeddings[lake_column], query_embeddings[query_column]
                )

        row_indices, col_indices = linear_sum_assignment(-similarity)
        mapping: dict[str, str] = {}
        for row, col in zip(row_indices, col_indices):
            if similarity[row, col] >= self.min_similarity:
                mapping[lake_columns[row]] = query_columns[col]
        return mapping

    def align(self, query_table: Table, lake_tables: Sequence[Table]) -> ColumnAlignment:
        """Align every data lake table pairwise and merge into one alignment."""
        if query_table.num_columns == 0:
            raise AlignmentError(
                f"query table {query_table.name!r} has no columns to align"
            )
        assigned: dict[str, list[Column]] = {column: [] for column in query_table.columns}
        discarded: list[Column] = []
        query_embeddings, *embedded = self._embed_tables([query_table, *lake_tables])
        for lake_table, lake_embeddings in zip(lake_tables, embedded):
            mapping = self._match(query_table, query_embeddings, lake_table, lake_embeddings)
            for column in lake_table.columns:
                ref = lake_table.column_ref(column)
                target = mapping.get(column)
                if target is None:
                    discarded.append(ref)
                else:
                    assigned[target].append(ref)

        clusters = [
            AlignedCluster(
                query_column=query_table.column_ref(column),
                members=tuple(assigned[column]),
            )
            for column in query_table.columns
        ]
        return ColumnAlignment(
            query_table_name=query_table.name, clusters=clusters, discarded=discarded
        )
