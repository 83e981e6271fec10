"""Hierarchical (agglomerative) clustering with optional cannot-link constraints.

Two code paths are provided behind one interface:

* **Unconstrained clustering** delegates to ``scipy.cluster.hierarchy`` which
  is fast enough for the thousands of tuple embeddings DUST clusters in
  Algorithm 2 (and for the CLT diversification baseline).
* **Constrained clustering** is a from-scratch Lance–Williams implementation
  that supports the paper's column-alignment constraint: *no two columns from
  the same table may be clustered together* (Sec. 3.3).  Column alignment only
  ever clusters tens of columns, so the pure-Python path is more than fast
  enough.

Both paths build a full merge history so the caller can cut the dendrogram at
any number of clusters — which is exactly what the silhouette-based selection
of the number of clusters needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform

from repro.cluster.distance import pairwise_distance_matrix
from repro.utils.errors import ConfigurationError

SUPPORTED_LINKAGE = ("average", "complete", "single")


@dataclass(frozen=True)
class ClusteringResult:
    """Cluster labels for one cut of the dendrogram.

    Labels are contiguous integers starting at 0, in order of first
    appearance, so results are deterministic and easy to assert on.
    """

    labels: np.ndarray
    num_clusters: int

    def members(self) -> list[list[int]]:
        """Return the item indices of each cluster, ordered by label."""
        groups: dict[int, list[int]] = {}
        for index, label in enumerate(self.labels):
            groups.setdefault(int(label), []).append(index)
        return [groups[label] for label in sorted(groups)]


def _canonical_labels(raw_labels: Sequence[int]) -> np.ndarray:
    """Relabel clusters as 0..k-1 in order of first appearance."""
    _, first, inverse = np.unique(raw_labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first)).astype(np.int64)[inverse]


class AgglomerativeClustering:
    """Agglomerative clustering over a set of embedding vectors.

    Parameters
    ----------
    linkage:
        ``"average"`` (paper default), ``"complete"`` or ``"single"``.
    metric:
        ``"euclidean"`` (paper default for column alignment), ``"cosine"`` or
        ``"manhattan"``.
    """

    def __init__(self, *, linkage: str = "average", metric: str = "euclidean") -> None:
        if linkage not in SUPPORTED_LINKAGE:
            raise ConfigurationError(
                f"linkage must be one of {SUPPORTED_LINKAGE}, got {linkage!r}"
            )
        self.linkage = linkage
        self.metric = metric
        self._num_items = 0
        self._merges: list[tuple[int, int]] = []
        self._scipy_linkage: np.ndarray | None = None
        self._min_clusters = 1

    # -------------------------------------------------------------------- fit
    def fit(
        self,
        embeddings: np.ndarray,
        *,
        constraint_groups: Sequence[object] | None = None,
        precomputed_distances: np.ndarray | None = None,
    ) -> "AgglomerativeClustering":
        """Build the merge history for ``embeddings``.

        Parameters
        ----------
        embeddings:
            ``(n, dim)`` matrix of item embeddings.
        constraint_groups:
            Optional per-item group labels; two items sharing a label can
            never end up in the same cluster (cannot-link constraint).  Column
            alignment passes the owning table name of each column.
        precomputed_distances:
            Optional pairwise distances under ``self.metric``, either the
            ``(n, n)`` square (e.g. a
            :meth:`~repro.vectorops.DistanceContext.within` view) or scipy's
            condensed vector of ``n * (n - 1) / 2`` values (e.g.
            :meth:`~repro.vectorops.DistanceContext.condensed`).  When given,
            neither path recomputes distances: the scipy path hands the
            condensed vector to ``linkage`` as is (a square is condensed
            first) instead of running ``pdist``, and the constrained path
            consumes the square (a condensed vector is expanded first).  Both
            forms of the same distances give the same dendrogram bit for bit.
            Note the library kernels
            differ from scipy's ``pdist`` in two deliberate ways: cosine
            distances of zero vectors are 1.0 instead of NaN (``pdist`` makes
            ``linkage`` raise on such inputs), and the BLAS-backed euclidean
            kernel computes ``sqrt(|x|² + |y|² - 2x·y)``, whose cancellation
            error makes distances below ~``1e-7 * row_norm`` unreliable.  In
            practice this only reorders merges among near-duplicate rows
            (whose merge order is arbitrary anyway); pass a ``cdist``-exact
            matrix instead if ``pdist``-identical dendrograms matter more
            than the BLAS speedup.
        """
        matrix = np.asarray(embeddings, dtype=np.float64)
        if matrix.ndim != 2:
            raise ConfigurationError(
                f"embeddings must be a 2-D matrix, got shape {matrix.shape}"
            )
        self._num_items = matrix.shape[0]
        if self._num_items == 0:
            raise ConfigurationError("cannot cluster an empty embedding matrix")
        if constraint_groups is not None and len(constraint_groups) != self._num_items:
            raise ConfigurationError(
                f"constraint_groups has {len(constraint_groups)} entries for "
                f"{self._num_items} items"
            )
        if precomputed_distances is not None and precomputed_distances.shape not in (
            (self._num_items, self._num_items),
            (self._num_items * (self._num_items - 1) // 2,),
        ):
            raise ConfigurationError(
                f"precomputed_distances has shape {precomputed_distances.shape} "
                f"for {self._num_items} items"
            )

        self._merges = []
        self._scipy_linkage = None
        self._min_clusters = 1

        if self._num_items == 1:
            return self

        if constraint_groups is None:
            if precomputed_distances is not None:
                condensed = precomputed_distances
                if condensed.ndim == 2:
                    condensed = squareform(condensed, checks=False)
                self._scipy_linkage = scipy_linkage(condensed, method=self.linkage)
            else:
                scipy_metric = "cityblock" if self.metric == "manhattan" else self.metric
                self._scipy_linkage = scipy_linkage(
                    matrix, method=self.linkage, metric=scipy_metric
                )
            return self

        self._fit_constrained(
            matrix, list(constraint_groups), precomputed=precomputed_distances
        )
        return self

    # -------------------------------------------------------- constrained path
    def _fit_constrained(
        self,
        matrix: np.ndarray,
        groups: list[object],
        *,
        precomputed: np.ndarray | None = None,
    ) -> None:
        n = matrix.shape[0]
        if precomputed is not None:
            distances = precomputed if precomputed.ndim == 2 else squareform(precomputed)
        else:
            distances = pairwise_distance_matrix(matrix, metric=self.metric)

        # active[i] is True while cluster id i still exists; clusters 0..n-1 are
        # singletons, new clusters get ids n, n+1, ... (scipy convention).
        max_clusters = 2 * n - 1
        active = np.zeros(max_clusters, dtype=bool)
        active[:n] = True
        sizes = np.zeros(max_clusters, dtype=np.int64)
        sizes[:n] = 1
        cluster_groups: list[set[object]] = [set() for _ in range(max_clusters)]
        for index, group in enumerate(groups):
            cluster_groups[index] = {group}

        # Working distance matrix indexed by cluster id (grown as merges happen).
        working = np.full((max_clusters, max_clusters), np.inf, dtype=np.float64)
        working[:n, :n] = distances
        np.fill_diagonal(working, np.inf)
        # Forbid same-group singleton pairs up-front.
        group_ids: dict[object, int] = {}
        ids = np.array([group_ids.setdefault(group, len(group_ids)) for group in groups])
        working[:n, :n][ids[:, None] == ids[None, :]] = np.inf

        current = n
        while True:
            active_ids = np.flatnonzero(active)
            if len(active_ids) <= 1:
                break
            sub = working[np.ix_(active_ids, active_ids)]
            best_flat = int(np.argmin(sub))
            best_value = sub.flat[best_flat]
            if not np.isfinite(best_value):
                break  # every remaining pair violates a constraint
            row, col = divmod(best_flat, len(active_ids))
            first, second = int(active_ids[row]), int(active_ids[col])

            new_id = current
            current += 1
            self._merges.append((first, second))
            active[first] = active[second] = False
            active[new_id] = True
            sizes[new_id] = sizes[first] + sizes[second]
            cluster_groups[new_id] = cluster_groups[first] | cluster_groups[second]

            # Lance–Williams update of distances from the new cluster to the rest.
            for other in np.flatnonzero(active):
                other = int(other)
                if other == new_id:
                    continue
                if cluster_groups[new_id] & cluster_groups[other]:
                    updated = np.inf
                else:
                    d_first = working[first, other]
                    d_second = working[second, other]
                    if self.linkage == "single":
                        updated = min(d_first, d_second)
                    elif self.linkage == "complete":
                        updated = max(d_first, d_second)
                    else:  # average
                        updated = (
                            sizes[first] * d_first + sizes[second] * d_second
                        ) / (sizes[first] + sizes[second])
                working[new_id, other] = working[other, new_id] = updated

        self._min_clusters = self._num_items - len(self._merges)

    # ------------------------------------------------------------------- cuts
    @property
    def num_items(self) -> int:
        """Number of items seen by :meth:`fit`."""
        return self._num_items

    @property
    def min_clusters(self) -> int:
        """Smallest achievable number of clusters (``>1`` only with constraints)."""
        return self._min_clusters

    def labels_for(self, num_clusters: int) -> ClusteringResult:
        """Cut the dendrogram into ``num_clusters`` clusters.

        When constraints make ``num_clusters`` unreachable, the closest
        achievable count (``min_clusters``) is returned instead.
        """
        if self._num_items == 0:
            raise ConfigurationError("labels_for called before fit()")
        if num_clusters <= 0:
            raise ConfigurationError(
                f"num_clusters must be positive, got {num_clusters}"
            )
        num_clusters = min(num_clusters, self._num_items)

        if self._num_items == 1:
            return ClusteringResult(labels=np.zeros(1, dtype=np.int64), num_clusters=1)

        if self._scipy_linkage is not None:
            raw = fcluster(self._scipy_linkage, t=num_clusters, criterion="maxclust")
            labels = _canonical_labels(raw)
            return ClusteringResult(labels=labels, num_clusters=int(labels.max()) + 1)

        num_clusters = max(num_clusters, self._min_clusters)
        parent = list(range(self._num_items))

        def find(item: int) -> int:
            while parent[item] != item:
                parent[item] = parent[parent[item]]
                item = parent[item]
            return item

        # Replay merges until the requested number of clusters remains.  Merge
        # ids >= num_items refer to earlier merge results (scipy convention),
        # so map every cluster id back to a representative item index.
        representative: dict[int, int] = {i: i for i in range(self._num_items)}
        clusters_remaining = self._num_items
        for merge_index, (first, second) in enumerate(self._merges):
            if clusters_remaining <= num_clusters:
                break
            root_first = find(representative[first])
            root_second = find(representative[second])
            parent[root_second] = root_first
            representative[self._num_items + merge_index] = root_first
            clusters_remaining -= 1

        raw = [find(i) for i in range(self._num_items)]
        labels = _canonical_labels(raw)
        return ClusteringResult(labels=labels, num_clusters=int(labels.max()) + 1)

    def cluster(
        self,
        embeddings: np.ndarray,
        num_clusters: int,
        *,
        constraint_groups: Sequence[object] | None = None,
        precomputed_distances: np.ndarray | None = None,
    ) -> ClusteringResult:
        """Convenience: fit and cut in a single call."""
        self.fit(
            embeddings,
            constraint_groups=constraint_groups,
            precomputed_distances=precomputed_distances,
        )
        return self.labels_for(num_clusters)
