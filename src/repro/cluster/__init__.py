"""Clustering substrate: distances, constrained agglomerative clustering,
silhouette quality, medoid extraction and PCA."""

from repro.cluster.distance import (
    cosine_distance,
    condensed_distance_matrix,
    cosine_distance_matrix,
    euclidean_distance,
    euclidean_distance_matrix,
    manhattan_distance,
    manhattan_distance_matrix,
    pairwise_distance_matrix,
    DISTANCE_FUNCTIONS,
)
from repro.cluster.agglomerative import AgglomerativeClustering, ClusteringResult
from repro.cluster.silhouette import silhouette_score, best_num_clusters
from repro.cluster.medoids import (
    cluster_medoids,
    cluster_members,
    context_medoids,
    medoid_index,
)
from repro.cluster.pca import PCA

__all__ = [
    "cosine_distance",
    "condensed_distance_matrix",
    "cosine_distance_matrix",
    "euclidean_distance",
    "euclidean_distance_matrix",
    "manhattan_distance",
    "manhattan_distance_matrix",
    "pairwise_distance_matrix",
    "DISTANCE_FUNCTIONS",
    "AgglomerativeClustering",
    "ClusteringResult",
    "silhouette_score",
    "best_num_clusters",
    "cluster_medoids",
    "cluster_members",
    "context_medoids",
    "medoid_index",
    "PCA",
]
