"""Holistic (clustering-based) column alignment — the DUST aligner.

Sec. 3.3 / Appendix A.1.1 of the paper: embed every column of the query table
and of the discovered unionable tables, run constrained hierarchical
clustering over the column embeddings (columns from the same table may never
share a cluster), pick the number of clusters that maximises the silhouette
coefficient, then keep only the clusters containing a query column.  Each kept
cluster aligns its data lake columns to that query column.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.alignment.types import AlignedCluster, ColumnAlignment
from repro.cluster.agglomerative import AgglomerativeClustering
from repro.cluster.distance import pairwise_distance_matrix
from repro.cluster.silhouette import best_num_clusters
from repro.datalake.table import Column, Table
from repro.embeddings.base import ColumnEncoder
from repro.utils.errors import AlignmentError


class HolisticColumnAligner:
    """Aligns data lake columns to query columns via constrained clustering.

    Parameters
    ----------
    column_encoder:
        Any :class:`~repro.embeddings.base.ColumnEncoder`.  When a
        :class:`~repro.embeddings.column.StarmieColumnEncoder` is supplied the
        aligner uses its table-contextualised embeddings (the "Starmie (H)"
        baseline of Table 1).
    linkage, metric:
        Clustering configuration; the paper reports average linkage and
        Euclidean distance as most effective (Sec. 6.2.1).
    candidate_fraction:
        Cluster counts evaluated for silhouette selection span from the number
        of query columns up to ``candidate_fraction * total_columns`` (clipped
        to the valid range), which keeps the search cheap without missing the
        region where the optimum lives.
    """

    def __init__(
        self,
        column_encoder: ColumnEncoder,
        *,
        linkage: str = "average",
        metric: str = "euclidean",
        candidate_fraction: float = 0.35,
    ) -> None:
        if not 0.0 < candidate_fraction <= 1.0:
            raise AlignmentError(
                f"candidate_fraction must be in (0, 1], got {candidate_fraction}"
            )
        self.column_encoder = column_encoder
        self.linkage = linkage
        self.metric = metric
        self.candidate_fraction = candidate_fraction

    # ------------------------------------------------------------- embeddings
    def _embed_columns(
        self, tables: Sequence[Table]
    ) -> tuple[list[Column], np.ndarray]:
        """Embed every column of ``tables`` and return refs plus the matrix.

        Every column goes through one ``encode_tables`` call (Starmie blends
        each table's own context into its rows).
        """
        refs = [table.column_ref(column) for table in tables for column in table.columns]
        if not refs:
            raise AlignmentError("no columns to align: all input tables are empty")
        return refs, self.column_encoder.encode_tables(tables)

    # -------------------------------------------------------------------- API
    def align(self, query_table: Table, lake_tables: Sequence[Table]) -> ColumnAlignment:
        """Align the columns of ``lake_tables`` to the columns of ``query_table``.

        Returns a :class:`ColumnAlignment` with one cluster per query column.
        Clusters that contain no query column are discarded (their member
        columns are reported in ``ColumnAlignment.discarded``); if a cluster
        ends up containing more than one query column — possible because the
        constraint only forbids same-table co-clustering — the data lake
        members are assigned to the closest of those query columns.  One
        distance matrix serves both the constrained ``fit`` and the
        silhouette selection of the cluster count.
        """
        if query_table.num_columns == 0:
            raise AlignmentError(
                f"query table {query_table.name!r} has no columns to align"
            )
        all_tables = [query_table, *lake_tables]
        refs, embeddings = self._embed_columns(all_tables)
        constraint_groups = [ref.table_name for ref in refs]

        distances = pairwise_distance_matrix(embeddings, metric=self.metric)
        clustering = AgglomerativeClustering(linkage=self.linkage, metric=self.metric)
        clustering.fit(
            embeddings, constraint_groups=constraint_groups, precomputed_distances=distances
        )

        total_columns = len(refs)
        lower = max(2, min(query_table.num_columns, total_columns))
        upper = max(lower, int(round(self.candidate_fraction * total_columns)))
        candidates = range(lower, min(upper, total_columns) + 1)
        best_count, _ = best_num_clusters(
            embeddings,
            lambda k: clustering.labels_for(k).labels,
            candidates,
            metric=self.metric,
            distances=distances,
        )
        if best_count <= 1:
            best_count = min(query_table.num_columns, total_columns)
        result = clustering.labels_for(best_count)

        return self._build_alignment(query_table, refs, embeddings, result.labels)

    # ----------------------------------------------------------- construction
    def _build_alignment(
        self,
        query_table: Table,
        refs: Sequence[Column],
        embeddings: np.ndarray,
        labels: np.ndarray,
    ) -> ColumnAlignment:
        query_name = query_table.name
        clusters_members: dict[int, list[int]] = {}
        for index, label in enumerate(labels):
            clusters_members.setdefault(int(label), []).append(index)

        assigned: dict[str, list[Column]] = {column: [] for column in query_table.columns}
        discarded: list[Column] = []

        for members in clusters_members.values():
            query_indices = [i for i in members if refs[i].table_name == query_name]
            lake_indices = [i for i in members if refs[i].table_name != query_name]
            if not query_indices:
                discarded.extend(refs[i] for i in lake_indices)
                continue
            if len(query_indices) == 1:
                target = refs[query_indices[0]].name
                assigned[target].extend(refs[i] for i in lake_indices)
                continue
            # Multiple query columns in one cluster: assign each lake column to
            # the closest query column by embedding distance.
            for lake_index in lake_indices:
                distances = [
                    float(np.linalg.norm(embeddings[lake_index] - embeddings[qi]))
                    for qi in query_indices
                ]
                closest = query_indices[int(np.argmin(distances))]
                assigned[refs[closest].name].append(refs[lake_index])

        clusters = [
            AlignedCluster(
                query_column=query_table.column_ref(column),
                members=tuple(assigned[column]),
            )
            for column in query_table.columns
        ]
        return ColumnAlignment(
            query_table_name=query_name, clusters=clusters, discarded=discarded
        )
