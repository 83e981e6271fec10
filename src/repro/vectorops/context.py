"""Shared per-query distance computation (the DUST hot path, Sec. 5.1/6.2.5).

Algorithm 2 and every IR diversification baseline need overlapping slices of
one conceptual object: the pairwise distance matrix over the query tuples and
the candidate unionable tuples.  The seed implementation recomputed those
slices independently in pruning, clustering, medoid extraction, re-ranking,
the k-shortfall fallback and the Eq. 1/Eq. 2 metrics.  A
:class:`DistanceContext` computes each block of the full (query ∪ candidate)
matrix lazily — once per metric — and serves cheap sub-matrix views to every
consumer.

Per metric, the candidate↔candidate distances are cached in either of two
forms: the ``(s, s)`` square (what the IR baselines index) or scipy's
condensed upper triangle of ``s * (s - 1) / 2`` values (what Algorithm 2's
``linkage`` consumes, built inside one ``(s, s)`` buffer and shrunk to half of
it).  Each form is derived from the other when that one is cached, so a
distance is computed at most once per metric, and both forms hold the same
bits.  The ``(s, n)`` candidate-to-query block is cached alongside.  The
``(n, n)`` query square is only materialised by :meth:`full`, because no
stage of Algorithm 2 needs it (Eq. 1 explicitly excludes query↔query
distances as constant across methods).

All public accessors take *candidate-relative* indices, because that is the
index space every Algorithm 2 stage works in.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.spatial.distance import squareform

from repro.cluster.distance import (
    condensed_distance_matrix,
    condensed_entries,
    cosine_condensed_from_unit,
    cosine_distance_matrix_from_unit,
    pairwise_distance_matrix,
)
from repro.vectorops.matrix import EmbeddingMatrix

#: Signature of the matrix kernel: ``kernel(first, second=None, metric=...)``.
DistanceKernel = Callable[..., np.ndarray]


class DistanceContext:
    """Lazily-computed, metric-keyed distance cache over query ∪ candidates.

    Parameters
    ----------
    query_embeddings:
        ``(n, dim)`` query tuple embeddings (may be empty / ``None``).
    candidate_embeddings:
        ``(s, dim)`` candidate tuple embeddings.
    metric:
        Default metric used when an accessor is called without one.
    kernel:
        The pairwise matrix kernel; injectable so tests can count invocations.
        Defaults to :func:`repro.cluster.distance.pairwise_distance_matrix`.
    """

    def __init__(
        self,
        query_embeddings,
        candidate_embeddings,
        *,
        metric: str = "cosine",
        kernel: DistanceKernel | None = None,
    ) -> None:
        self.candidates = EmbeddingMatrix.wrap(candidate_embeddings)
        query = EmbeddingMatrix.wrap(query_embeddings)
        if query.num_rows == 0:
            query = EmbeddingMatrix(
                np.zeros((0, self.candidates.dimension), dtype=self.candidates.data.dtype)
            )
        self.query = query
        if (
            self.query.num_rows > 0
            and self.query.dimension != self.candidates.dimension
        ):
            raise ValueError(
                "query and candidate embeddings have different dimensionality: "
                f"{self.query.dimension} vs {self.candidates.dimension}"
            )
        self.metric = metric
        self.kernel: DistanceKernel = kernel or pairwise_distance_matrix
        self._square: dict[str, np.ndarray] = {}
        self._condensed: dict[str, np.ndarray] = {}
        self._to_query: dict[str, np.ndarray] = {}
        self._full: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ shapes
    @property
    def num_queries(self) -> int:
        return self.query.num_rows

    @property
    def num_candidates(self) -> int:
        return self.candidates.num_rows

    # ---------------------------------------------------------------- matrices
    def _compute(
        self,
        left: EmbeddingMatrix,
        right: EmbeddingMatrix | None,
        metric: str,
    ) -> np.ndarray:
        """One distance block.  The default cosine path reuses the unit rows
        each :class:`EmbeddingMatrix` normalises once (bit-identical to the
        kernel, which would re-derive the norms per call); injected kernels
        always receive the raw rows so counting spies see every computation.
        """
        if metric == "cosine" and self.kernel is pairwise_distance_matrix:
            if right is None:
                return cosine_distance_matrix_from_unit(
                    left.unit, left_zero=left.zero_rows
                )
            return cosine_distance_matrix_from_unit(
                left.unit,
                right.unit,
                left_zero=left.zero_rows,
                right_zero=right.zero_rows,
            )
        if right is None:
            return self.kernel(left.data, metric=metric)
        return self.kernel(left.data, right.data, metric=metric)

    def candidate_distances(self, metric: str | None = None) -> np.ndarray:
        """``(s, s)`` pairwise candidate square, computed once per metric.

        Expanded from the cached condensed vector when only that exists.
        """
        metric = metric or self.metric
        cached = self._square.get(metric)
        if cached is None:
            if metric in self._condensed:
                cached = squareform(self._condensed[metric], checks=False)
            else:
                cached = self._compute(self.candidates, None, metric)
            self._square[metric] = cached
        return cached

    def condensed(self, metric: str | None = None) -> np.ndarray:
        """Condensed candidate distances (scipy ``pdist`` order), once per metric.

        Equal bit for bit to ``squareform(candidate_distances(metric))``.  It is
        sliced from the cached square when one exists; otherwise the default
        kernels build it inside a single ``(s, s)`` buffer.  An injected kernel
        is asked for its square, which is then condensed, so counting spies
        see every computation.
        """
        metric = metric or self.metric
        cached = self._condensed.get(metric)
        if cached is None:
            if metric in self._square:
                cached = squareform(self._square[metric], checks=False)
            elif self.kernel is not pairwise_distance_matrix:
                square = self.kernel(self.candidates.data, metric=metric)
                cached = squareform(square, checks=False)
            elif metric == "cosine":
                cached = cosine_condensed_from_unit(
                    self.candidates.unit, zero=self.candidates.zero_rows
                )
            else:
                cached = condensed_distance_matrix(self.candidates.data, metric)
            self._condensed[metric] = cached
        return cached

    def query_candidate_distances(self, metric: str | None = None) -> np.ndarray:
        """``(s, n)`` candidate-to-query block, computed once per metric."""
        metric = metric or self.metric
        if self.num_queries == 0:
            return np.zeros((self.num_candidates, 0), dtype=np.float64)
        cached = self._to_query.get(metric)
        if cached is None:
            cached = self._compute(self.candidates, self.query, metric)
            self._to_query[metric] = cached
        return cached

    def full(self, metric: str | None = None) -> np.ndarray:
        """The assembled ``(n + s, n + s)`` matrix (query rows first).

        Built from the cached blocks plus the (otherwise unneeded) query
        square; cached per metric.  Hot-path consumers use the block accessors
        instead — this exists for analyses that want the whole matrix.
        """
        metric = metric or self.metric
        cached = self._full.get(metric)
        if cached is None:
            square = self.candidate_distances(metric)
            if self.num_queries == 0:
                cached = square
            else:
                to_query = self.query_candidate_distances(metric)
                query_square = self._compute(self.query, None, metric)
                cached = np.block([[query_square, to_query.T], [to_query, square]])
            self._full[metric] = cached
        return cached

    def is_cached(self, metric: str | None = None) -> bool:
        """Whether the candidate square for ``metric`` is already materialised."""
        return (metric or self.metric) in self._square

    def computed_metrics(self) -> tuple[str, ...]:
        """Metrics whose candidate distances are materialised, in either form."""
        return tuple(dict.fromkeys([*self._square, *self._condensed]))

    # ------------------------------------------------------------------- views
    def block(
        self,
        rows: Sequence[int] | np.ndarray | None,
        cols: Sequence[int] | np.ndarray | None,
        *,
        metric: str | None = None,
    ) -> np.ndarray:
        """Distances between two candidate subsets (candidate-relative indices).

        Served from the cached square, or gathered from the cached condensed
        vector, when either exists (the whole square is materialised only when
        requested); a narrow one-off block on a cold cache is computed directly
        without materialising the ``(s, s)`` square.
        """
        metric = metric or self.metric
        if rows is None and cols is None:
            return self.candidate_distances(metric)
        row_index = np.arange(self.num_candidates) if rows is None else np.asarray(rows, dtype=int)
        col_index = np.arange(self.num_candidates) if cols is None else np.asarray(cols, dtype=int)
        if self.is_cached(metric):
            return self._square[metric][np.ix_(row_index, col_index)]
        if metric in self._condensed:
            return condensed_entries(
                self._condensed[metric], row_index[:, None], col_index[None, :]
            )
        left = self.candidates.take(row_index)
        # Equal index sets mean a within-subset matrix: use the self-mode
        # kernel (zeroed diagonal) so warm and cold caches agree.
        if np.array_equal(row_index, col_index):
            return self._compute(left, None, metric)
        return self._compute(left, self.candidates.take(col_index), metric)

    def within(
        self,
        rows: Sequence[int] | np.ndarray | None = None,
        *,
        metric: str | None = None,
    ) -> np.ndarray:
        """Square pairwise matrix among a candidate subset (all when ``None``)."""
        return self.block(rows, rows, metric=metric)

    def to_query(
        self,
        rows: Sequence[int] | np.ndarray | None = None,
        *,
        metric: str | None = None,
    ) -> np.ndarray:
        """``(len(rows), n)`` distances from candidate rows to the query tuples.

        Served as a slice of the cached ``(s, n)`` block when it exists; a
        narrow request on a cold cache is computed directly without
        materialising the full block.
        """
        if rows is None:
            return self.query_candidate_distances(metric)
        index = np.asarray(rows, dtype=int)
        metric = metric or self.metric
        cached = self._to_query.get(metric)
        if cached is not None:
            return cached[index]
        if self.num_queries == 0:
            return np.zeros((len(index), 0), dtype=np.float64)
        return self._compute(self.candidates.take(index), self.query, metric)

    # ---------------------------------------------------------------- narrowing
    def subset(self, rows: Sequence[int] | np.ndarray) -> "DistanceContext":
        """Context over (query ∪ ``candidates[rows]``), reusing computed blocks.

        Any block already materialised on the parent is sliced into the
        child's cache, so narrowing after pruning never recomputes a distance.
        The child shares the parent's kernel (and therefore any counting spy).
        """
        index = np.asarray(rows, dtype=int)
        child = DistanceContext(
            self.query,
            self.candidates.take(index),
            metric=self.metric,
            kernel=self.kernel,
        )
        for metric, square in self._square.items():
            child._square[metric] = square[np.ix_(index, index)]
        for metric, condensed in self._condensed.items():
            if metric not in child._square:
                child._condensed[metric] = _condensed_subset(condensed, index)
        for metric, to_query in self._to_query.items():
            child._to_query[metric] = to_query[index]
        return child


def _condensed_subset(condensed: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The condensed vector over ``index`` (any order), gathered row by row."""
    segments = [
        condensed_entries(condensed, index[row], index[row + 1 :])
        for row in range(len(index) - 1)
    ]
    return np.concatenate(segments) if segments else np.zeros(0, dtype=np.float64)
