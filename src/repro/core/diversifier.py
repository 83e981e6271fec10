"""DUST's tuple diversification algorithm (paper Algorithm 2).

Given embeddings of the query tuples and of the unionable data lake tuples:

1. **Prune** the data lake tuples to at most ``s`` candidates, keeping each
   table's tuples farthest from the table's mean embedding (Sec. 5.1).
2. **Cluster** the surviving tuples into ``k * p`` clusters with hierarchical
   clustering and take each cluster's medoid as a candidate diverse tuple
   (Sec. 5.2).
3. **Re-rank** the candidate medoids by their minimum distance to the query
   tuples, breaking ties with the average distance, and return the top ``k``
   (Sec. 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.api.registry import register_diversifier
from repro.cluster.agglomerative import AgglomerativeClustering
from repro.cluster.medoids import context_medoids
from repro.core.config import DustConfig
from repro.core.pruning import prune_by_table
from repro.core.reranking import rank_candidates_against_query, top_k_candidates
from repro.diversify.base import DiversificationRequest, Diversifier
from repro.vectorops import DistanceContext


@dataclass
class DustSelectionTrace:
    """Intermediate artefacts of one DUST diversification run (for analysis)."""

    pruned_indices: list[int] = field(default_factory=list)
    medoid_indices: list[int] = field(default_factory=list)
    selected_indices: list[int] = field(default_factory=list)


@register_diversifier("dust")
class DustDiversifier(Diversifier):
    """Clustering-based diversification with query-aware re-ranking."""

    name = "dust"

    def __init__(self, config: DustConfig | None = None) -> None:
        self.config = config or DustConfig()
        self.last_trace: DustSelectionTrace | None = None

    # ------------------------------------------------------------------ steps
    def _prune(
        self,
        embeddings: np.ndarray,
        table_ids: Sequence[object] | None,
    ) -> list[int]:
        limit = self.config.prune_limit
        if limit is None or embeddings.shape[0] <= limit:
            return list(range(embeddings.shape[0]))
        ids = list(table_ids) if table_ids is not None else [0] * embeddings.shape[0]
        return prune_by_table(embeddings, ids, limit, metric=self.config.metric)

    def _cluster_candidates(
        self, context: DistanceContext, k: int
    ) -> list[int]:
        embeddings = context.candidates.data
        num_clusters = min(k * self.config.candidate_multiplier, embeddings.shape[0])
        clustering = AgglomerativeClustering(
            linkage=self.config.linkage, metric=self.config.cluster_metric
        )
        result = clustering.cluster(
            embeddings,
            num_clusters,
            precomputed_distances=context.condensed(self.config.cluster_metric),
        )
        return context_medoids(context, result.labels, self.config.metric)

    # ------------------------------------------------------------------ select
    def select(
        self,
        request: DiversificationRequest,
        *,
        table_ids: Sequence[object] | None = None,
    ) -> list[int]:
        """Select ``k`` diverse candidate indices.

        ``table_ids`` optionally identifies the source table of each candidate
        so the pruning step can compute per-table mean embeddings; without it
        all candidates are treated as one table.

        Every distance used after pruning — clustering, medoid extraction,
        re-ranking and the k-shortfall fallback — is served by one
        :class:`~repro.vectorops.DistanceContext` narrowed to the pruned
        candidate set, so each block is computed exactly once per metric.
        """
        candidates = request.candidate_embeddings
        trace = DustSelectionTrace()

        # Step 1: prune (Algorithm 2, line 2).
        pruned_indices = self._prune(candidates, table_ids)
        trace.pruned_indices = pruned_indices
        context = request.distance_context()
        if pruned_indices == list(range(candidates.shape[0])):
            # Pruning kept everything in order: work on the request's own
            # context so the matrices it materialises stay shared (e.g. with
            # DustResult.diversity() and other methods on the same request).
            pruned_context = context
        else:
            pruned_context = context.subset(pruned_indices)
        pruned = pruned_context.candidates.data

        # Step 2: cluster into k*p clusters and keep each cluster's medoid
        # (Algorithm 2, line 4).
        medoid_local = self._cluster_candidates(pruned_context, request.k)
        medoid_indices = [pruned_indices[index] for index in medoid_local]
        trace.medoid_indices = medoid_indices

        # Step 3: re-rank medoids against the query tuples and keep the top k
        # (Algorithm 2, lines 6-13).
        medoid_embeddings = candidates[np.asarray(medoid_indices, dtype=int)]
        ranked = rank_candidates_against_query(
            medoid_embeddings,
            request.query_embeddings,
            metric=request.metric,
            distances=pruned_context.to_query(medoid_local, metric=request.metric),
        )
        selected_local = top_k_candidates(ranked, min(request.k, len(medoid_indices)))
        selected = [medoid_indices[index] for index in selected_local]

        # When constraints or tiny candidate sets leave fewer medoids than k,
        # fill the remainder with the pruned candidates farthest from the query
        # so the contract of returning exactly k tuples holds.
        if len(selected) < request.k:
            chosen = set(selected)
            fallback_ranked = rank_candidates_against_query(
                pruned,
                request.query_embeddings,
                metric=request.metric,
                distances=pruned_context.to_query(metric=request.metric),
            )
            for candidate in fallback_ranked:
                original = pruned_indices[candidate.candidate_index]
                if original not in chosen:
                    selected.append(original)
                    chosen.add(original)
                if len(selected) == request.k:
                    break

        trace.selected_indices = selected
        self.last_trace = trace
        return self._validate_selection(request, selected)
