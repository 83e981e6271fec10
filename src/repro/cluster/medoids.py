"""Medoid extraction from clusters.

DUST and the CLT baseline select each cluster's medoid — the member closest to
every other member — as the cluster's representative diverse tuple (Sec. 5.2),
which is more robust to outliers than taking the centroid's nearest neighbour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.cluster.distance import condensed_entries, pairwise_distance_matrix
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.vectorops import DistanceContext


def cluster_members(labels: Sequence[int] | np.ndarray) -> dict[int, list[int]]:
    """Group item indices by cluster label (labels returned sorted)."""
    groups: dict[int, list[int]] = {}
    for index, label in enumerate(labels):
        groups.setdefault(int(label), []).append(index)
    return {label: groups[label] for label in sorted(groups)}


def medoid_index(
    embeddings: np.ndarray,
    member_indices: Sequence[int],
    *,
    metric: str = "cosine",
    distances: np.ndarray | None = None,
) -> int:
    """Return the index (into ``embeddings``) of the medoid of ``member_indices``.

    The medoid is the member minimising the sum of distances to all other
    members; ties are broken by the smaller index so the result is
    deterministic.  When ``distances`` (the pairwise distances over all items,
    as the ``(n, n)`` square or scipy's condensed vector) is supplied, the
    member sub-matrix is gathered from it and no distance is recomputed; both
    forms give the same sub-matrix bit for bit.
    """
    if not member_indices:
        raise ConfigurationError("medoid_index called with an empty member list")
    if distances is None:
        matrix = np.asarray(embeddings, dtype=np.float64)
        return _block_medoid(
            lambda rows: pairwise_distance_matrix(matrix[rows], metric=metric), member_indices
        )
    if distances.ndim == 1:
        return _block_medoid(
            lambda rows: condensed_entries(distances, rows[:, None], rows[None, :]),
            member_indices,
        )
    return _block_medoid(lambda rows: distances[np.ix_(rows, rows)], member_indices)


def _block_medoid(
    within: Callable[[np.ndarray], np.ndarray], member_indices: Sequence[int]
) -> int:
    """The medoid of ``member_indices``, given ``within(members)``, their
    ``(m, m)`` distance block.  A single member needs no block.
    """
    members = np.asarray(member_indices, dtype=int)
    if len(members) == 1:
        return int(members[0])
    totals = within(members).sum(axis=1)
    return int(members[int(np.argmin(totals))])


def cluster_medoids(
    embeddings: np.ndarray,
    labels: Sequence[int] | np.ndarray,
    *,
    metric: str = "cosine",
    distances: np.ndarray | None = None,
) -> list[int]:
    """Return one medoid index per cluster, ordered by cluster label.

    ``distances`` optionally supplies the precomputed pairwise distances over
    all items -- the ``(n, n)`` square (e.g. a
    :meth:`~repro.vectorops.DistanceContext.within` view) or the condensed
    vector (e.g. :meth:`~repro.vectorops.DistanceContext.condensed`) -- so the
    per-cluster sub-matrices are served from cache.
    """
    matrix = np.asarray(embeddings, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigurationError(f"embeddings must be 2-D, got shape {matrix.shape}")
    if len(labels) != matrix.shape[0]:
        raise ConfigurationError(
            f"{len(labels)} labels for {matrix.shape[0]} embeddings"
        )
    count = matrix.shape[0]
    if distances is not None and distances.shape not in (
        (count, count),
        (count * (count - 1) // 2,),
    ):
        raise ConfigurationError(
            f"distances has shape {distances.shape} for {count} embeddings"
        )
    return [
        medoid_index(matrix, members, metric=metric, distances=distances)
        for members in cluster_members(labels).values()
    ]


def context_medoids(
    context: "DistanceContext", labels: Sequence[int] | np.ndarray, metric: str
) -> list[int]:
    """One medoid per cluster over ``context``'s candidates, ordered by label.

    Each cluster's block is ``context.within(members, metric=metric)``: gathered
    from the context's cached distances under ``metric`` when it holds them,
    otherwise computed for that cluster alone, which is far cheaper than a
    second full matrix (clusters hold ~s/(k*p) rows).
    """
    return [
        _block_medoid(lambda rows: context.within(rows, metric=metric), members)
        for members in cluster_members(labels).values()
    ]
