"""Pre-clustering pruning of candidate data lake tuples (paper Sec. 5.1).

Clustering tens of thousands of tuples is the expensive part of Algorithm 2,
so DUST first ranks each table's tuples by their distance from the table's
mean embedding and keeps only the top-``s`` across tables — the tuples that
are already the most "unusual" within their own table and therefore the most
promising diverse candidates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.distance import pairwise_distance_matrix
from repro.utils.errors import DiversificationError


def prune_by_table(
    embeddings: np.ndarray,
    table_ids: Sequence[object],
    limit: int,
    *,
    metric: str = "cosine",
) -> list[int]:
    """Keep the ``limit`` tuples farthest from their own table's mean embedding.

    Parameters
    ----------
    embeddings:
        ``(s, dim)`` candidate tuple embeddings.
    table_ids:
        Per-tuple identifier of the source table; the mean embedding is
        computed per table as described in the paper.
    limit:
        The ``s`` parameter: number of tuples to keep.  When the candidate set
        is already within the limit every index is returned (in order).

    Returns
    -------
    Indices of the retained tuples, sorted by decreasing distance from their
    table mean (ties broken by index for determinism).
    """
    matrix = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if matrix.shape[0] == 0:
        raise DiversificationError("prune_by_table received no candidate tuples")
    if len(table_ids) != matrix.shape[0]:
        raise DiversificationError(
            f"{len(table_ids)} table ids for {matrix.shape[0]} tuples"
        )
    if limit <= 0:
        raise DiversificationError(f"prune limit must be positive, got {limit}")
    if matrix.shape[0] <= limit:
        return list(range(matrix.shape[0]))

    # Group rows by table via np.unique instead of per-table Python member
    # scans; each group's mean and member-to-mean distances are computed with
    # one vectorised kernel call.
    scores = np.zeros(matrix.shape[0], dtype=np.float64)
    # Heterogeneous id types must not be coerced to one numpy dtype (that
    # would merge e.g. 1 and "1"); only a homogeneous typed array takes the
    # np.unique fast path, everything else groups via one dict pass.
    homogeneous = len({type(owner) for owner in table_ids}) == 1
    ids_array = np.asarray(list(table_ids)) if homogeneous else None
    if ids_array is not None and ids_array.ndim == 1 and ids_array.dtype != object:
        _, inverse = np.unique(ids_array, return_inverse=True)
        inverse = inverse.ravel()
    else:
        mapping: dict[object, int] = {}
        inverse = np.fromiter(
            (mapping.setdefault(owner, len(mapping)) for owner in table_ids),
            dtype=np.int64,
            count=matrix.shape[0],
        )
    for group in range(int(inverse.max()) + 1):
        member_indices = np.flatnonzero(inverse == group)
        members = matrix[member_indices]
        mean_embedding = members.mean(axis=0, keepdims=True)
        scores[member_indices] = pairwise_distance_matrix(
            members, mean_embedding, metric=metric
        )[:, 0]

    order = np.lexsort((np.arange(matrix.shape[0]), -scores))
    kept = sorted(int(index) for index in order[:limit])
    # Return in decreasing-score order (paper: "top-s tuples based on this ranking").
    kept.sort(key=lambda index: (-scores[index], index))
    return kept
