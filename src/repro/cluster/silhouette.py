"""Silhouette coefficient and cluster-count selection.

The paper selects the number of column clusters by maximising Silhouette's
coefficient over candidate cuts of the dendrogram (Sec. 3.3, following
Khatiwada et al. [26] and Rousseeuw [44]).  A cut is scored from one segment
sum: with the distance columns stably sorted by label, ``np.add.reduceat``
over each cluster's run gives every item's distance sum to every cluster, and
the coefficient follows as array operations, with no per-item or per-cluster
Python loop.  The contract is the chosen count, not the score's bits: these
sums round differently from per-item means, by about one ulp.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cluster.distance import pairwise_distance_matrix
from repro.utils.errors import ConfigurationError


def silhouette_score(
    embeddings: np.ndarray,
    labels: Sequence[int] | np.ndarray,
    *,
    metric: str = "euclidean",
    distances: np.ndarray | None = None,
) -> float:
    """Mean silhouette coefficient of a clustering.

    Singleton clusters contribute a silhouette of 0 (the standard convention).
    A clustering with a single cluster or with every item in its own cluster
    is scored 0, since the coefficient is undefined there.  ``distances``
    optionally supplies the precomputed pairwise matrix under ``metric`` so
    repeated scoring of candidate cuts reuses one computation.  Each item's
    ``a`` and ``b`` come from one ``(n, K)`` table of per-cluster sums; the
    contract is the chosen count, as a score may move in its last bit.
    """
    matrix = np.asarray(embeddings, dtype=np.float64)
    label_array = np.asarray(labels, dtype=np.int64)
    if matrix.ndim != 2:
        raise ConfigurationError(f"embeddings must be 2-D, got shape {matrix.shape}")
    if label_array.shape[0] != matrix.shape[0]:
        raise ConfigurationError(
            f"{label_array.shape[0]} labels for {matrix.shape[0]} embeddings"
        )
    n = matrix.shape[0]
    _, own, counts = np.unique(label_array, return_inverse=True, return_counts=True)
    if len(counts) < 2 or len(counts) >= n:
        return 0.0

    if distances is None:
        distances = pairwise_distance_matrix(matrix, metric=metric)
    elif distances.shape != (n, n):
        raise ConfigurationError(
            f"distances has shape {distances.shape} for {n} embeddings"
        )
    starts = np.cumsum(counts) - counts
    sums = np.add.reduceat(distances[:, np.argsort(own, kind="stable")], starts, axis=1)
    items = np.arange(n)
    own_counts = counts[own]
    a_values = sums[items, own] / np.maximum(own_counts - 1, 1)
    means = sums / counts
    means[items, own] = np.inf
    b_values = means.min(axis=1)
    denominators = np.maximum(a_values, b_values)
    scored = (own_counts > 1) & (denominators != 0)  # singletons score 0
    scores = np.divide(b_values - a_values, denominators, out=np.zeros(n), where=scored)
    return float(scores.mean())


def best_num_clusters(
    embeddings: np.ndarray,
    labels_for: Callable[[int], Sequence[int] | np.ndarray],
    candidates: Iterable[int],
    *,
    metric: str = "euclidean",
    distances: np.ndarray | None = None,
) -> tuple[int, float]:
    """Choose the cluster count maximising the silhouette coefficient.

    Parameters
    ----------
    embeddings:
        ``(n, dim)`` item embeddings.
    labels_for:
        Callback mapping a candidate cluster count to labels (typically
        ``lambda k: clustering.labels_for(k).labels``).
    candidates:
        Candidate cluster counts to evaluate; counts outside ``[2, n]`` are
        skipped.  Ties are broken in favour of the smaller count.
    distances:
        Optional precomputed ``(n, n)`` pairwise matrix under ``metric``,
        e.g. the one the clustering was fitted on; built here otherwise.

    Returns
    -------
    ``(best_count, best_score)``.  If no candidate is valid, ``(1, 0.0)``.
    """
    matrix = np.asarray(embeddings, dtype=np.float64)
    n = matrix.shape[0]
    best_count, best_score = 1, -np.inf
    for candidate in sorted(set(int(c) for c in candidates)):
        if candidate < 2 or candidate > n:
            continue
        if distances is None:  # one matrix shared by every candidate cut
            distances = pairwise_distance_matrix(matrix, metric=metric)
        labels = labels_for(candidate)
        score = silhouette_score(matrix, labels, metric=metric, distances=distances)
        if score > best_score:
            best_count, best_score = candidate, score
    return (best_count, float(best_score)) if best_count > 1 else (1, 0.0)
