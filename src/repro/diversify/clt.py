"""CLT — clustering-based diversification (van Leuken et al. [49]).

CLT clusters the candidate set into ``k`` clusters and returns one
representative per cluster.  To keep the comparison with DUST consistent
(Sec. 6.4.2), the representative is each cluster's medoid and the clustering
algorithm/parameters are the same hierarchical clustering DUST uses.
"""

from __future__ import annotations

from repro.api.registry import register_diversifier
from repro.cluster.agglomerative import AgglomerativeClustering
from repro.cluster.medoids import context_medoids
from repro.diversify.base import DiversificationRequest, Diversifier


@register_diversifier("clt")
class CLTDiversifier(Diversifier):
    """Cluster candidates into ``k`` groups and return each group's medoid."""

    name = "clt"

    def __init__(self, *, linkage: str = "average", cluster_metric: str = "euclidean") -> None:
        self.linkage = linkage
        self.cluster_metric = cluster_metric

    def select(self, request: DiversificationRequest) -> list[int]:
        context = request.distance_context()
        clustering = AgglomerativeClustering(
            linkage=self.linkage, metric=self.cluster_metric
        )
        result = clustering.cluster(
            request.candidate_embeddings,
            request.k,
            precomputed_distances=context.condensed(self.cluster_metric),
        )
        medoids = context_medoids(context, result.labels, request.metric)
        # Constraint-free clustering returns fewer than k clusters whenever the
        # candidates hold fewer than k distinct rows: exact duplicates merge at
        # height 0, and ``fcluster`` cannot cut between tied merges.  Pad with
        # the remaining candidates farthest from those already chosen.
        if len(medoids) < request.k:
            chosen = set(medoids)
            distances = request.candidate_distances()
            while len(medoids) < request.k:
                remaining = [i for i in range(distances.shape[0]) if i not in chosen]
                best = max(
                    remaining,
                    key=lambda index: float(distances[index, list(chosen)].min())
                    if chosen
                    else 0.0,
                )
                medoids.append(best)
                chosen.add(best)
        return self._validate_selection(request, medoids[: request.k])
