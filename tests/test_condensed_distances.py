"""Condensed distances and the in-place kernels behind Algorithm 2's clustering.

The condensed vector (scipy's ``pdist`` layout) must hold exactly the bits of
the square it stands for, through every layer that accepts it: the kernels,
``DistanceContext``, ``AgglomerativeClustering.fit`` and ``cluster_medoids``.
The memory tests guard the point of the change: a kernel holds one ``n * n``
float64 buffer, and ``DustDiversifier.select`` never holds two.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from repro.cluster import AgglomerativeClustering, cluster_medoids, context_medoids
from repro.cluster.distance import (
    FINISH_BLOCK_ROWS,
    condensed_distance_matrix,
    condensed_entries,
    cosine_distance_matrix_from_unit,
    euclidean_distance_matrix,
    pairwise_distance_matrix,
)
from repro.core import DustConfig, DustDiversifier
from repro.diversify import CLTDiversifier, DiversificationRequest
from repro.vectorops import DistanceContext

METRICS = ("cosine", "euclidean", "manhattan")
BLOCK_SIZES = (1, 2, 3, FINISH_BLOCK_ROWS - 1, FINISH_BLOCK_ROWS, FINISH_BLOCK_ROWS + 1)


def _reference_euclidean(left, right=None):
    """The two-buffer expression the in-place euclidean kernel replaced."""
    self_mode = right is None
    right = left if self_mode else right
    left_sq = np.sum(left**2, axis=1)[:, None]
    right_sq = np.sum(right**2, axis=1)[None, :]
    gram = left @ right.T
    gram *= 2.0
    squared = left_sq + right_sq
    squared -= gram
    np.maximum(squared, 0.0, out=squared)
    distances = np.sqrt(squared, out=squared)
    if self_mode:
        np.fill_diagonal(distances, 0.0)
    return distances


def _reference_cosine_from_unit(unit, zero):
    """The three-array expression the in-place cosine kernel replaced."""
    similarity = np.clip(unit @ unit.T, -1.0, 1.0)
    distances = 1.0 - similarity
    distances[zero, :] = 1.0
    distances[:, zero] = 1.0
    np.fill_diagonal(distances, 0.0)
    return distances


def _rows_with_zeros_and_duplicates(count, dimension=12, seed=0):
    rows = np.random.default_rng(seed).standard_normal((count, dimension))
    if count >= 3:
        rows[1] = 0.0  # a zero row
        rows[-1] = rows[0]  # an exact duplicate
    return rows


def _traced_peak(function):
    tracemalloc.start()
    try:
        result = function()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInPlaceSquareKernels:
    def test_euclidean_one_buffer_and_old_bits(self):
        rows = np.random.default_rng(1).standard_normal((1500, 768))
        rows[7] = rows[3]
        square, peak = _traced_peak(lambda: euclidean_distance_matrix(rows))
        assert peak <= 1.2 * rows.shape[0] ** 2 * 8
        assert np.array_equal(square, _reference_euclidean(rows))

    def test_cosine_from_unit_one_buffer_and_old_bits(self):
        rows = np.random.default_rng(2).standard_normal((1500, 768))
        rows[5] = 0.0
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        zero = (norms == 0.0).ravel()
        unit = rows / np.where(zero[:, None], 1.0, norms)
        square, peak = _traced_peak(
            lambda: cosine_distance_matrix_from_unit(unit, left_zero=zero)
        )
        assert peak <= 1.2 * rows.shape[0] ** 2 * 8
        assert np.array_equal(square, _reference_cosine_from_unit(unit, zero))

    @pytest.mark.parametrize("count", BLOCK_SIZES)
    def test_euclidean_cross_mode_old_bits(self, count):
        rng = np.random.default_rng(count)
        left, right = rng.standard_normal((count, 9)), rng.standard_normal((5, 9))
        assert np.array_equal(
            euclidean_distance_matrix(left, right), _reference_euclidean(left, right)
        )


class TestCondensedKernel:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("count", BLOCK_SIZES)
    def test_equals_squareform_of_the_square(self, metric, count):
        rows = _rows_with_zeros_and_duplicates(count)
        square = pairwise_distance_matrix(rows, metric=metric)
        condensed = condensed_distance_matrix(rows, metric)
        assert condensed.shape == (count * (count - 1) // 2,)
        assert np.array_equal(condensed, squareform(square, checks=False))

    @pytest.mark.parametrize("metric", METRICS)
    def test_multi_block_with_zero_and_duplicate_rows(self, metric):
        rows = _rows_with_zeros_and_duplicates(3 * FINISH_BLOCK_ROWS + 5, seed=3)
        rows[FINISH_BLOCK_ROWS] = 0.0  # a zero row on a block boundary
        expected = squareform(pairwise_distance_matrix(rows, metric=metric), checks=False)
        assert np.array_equal(condensed_distance_matrix(rows, metric), expected)

    def test_condensed_buffer_is_half_the_square(self):
        rows = np.random.default_rng(4).standard_normal((1500, 64))
        for metric in ("cosine", "euclidean"):
            condensed, peak = _traced_peak(lambda: condensed_distance_matrix(rows, metric))
            assert condensed.nbytes == 1500 * 1499 // 2 * 8
            assert peak <= 1.2 * 1500**2 * 8

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            condensed_distance_matrix(np.ones((3, 2)), "hamming")

    def test_entries_gather_the_square(self):
        rows = _rows_with_zeros_and_duplicates(9)
        square = pairwise_distance_matrix(rows, metric="euclidean")
        condensed = squareform(square, checks=False)
        picks = np.array([4, 0, 8, 4, 2])
        block = condensed_entries(condensed, picks[:, None], picks[None, :])
        assert np.array_equal(block, square[np.ix_(picks, picks)])
        assert np.array_equal(condensed_entries(condensed, picks, picks[::-1]),
                              square[picks, picks[::-1]])


class TestCondensedConsumers:
    @pytest.mark.parametrize("linkage", ("average", "complete", "single"))
    def test_fit_condensed_equals_fit_square(self, linkage):
        rows = _rows_with_zeros_and_duplicates(150, seed=5)
        square = pairwise_distance_matrix(rows, metric="euclidean")
        from_square = AgglomerativeClustering(linkage=linkage).fit(
            rows, precomputed_distances=square
        )
        from_condensed = AgglomerativeClustering(linkage=linkage).fit(
            rows, precomputed_distances=condensed_distance_matrix(rows, "euclidean")
        )
        assert np.array_equal(from_condensed._scipy_linkage, from_square._scipy_linkage)
        assert np.array_equal(from_condensed.labels_for(12).labels,
                              from_square.labels_for(12).labels)

    def test_constrained_fit_accepts_condensed(self):
        rows = _rows_with_zeros_and_duplicates(8, seed=6)
        groups = ["a", "a", "b", "b", "c", "c", "d", "d"]
        square = pairwise_distance_matrix(rows, metric="euclidean")
        labels = [
            AgglomerativeClustering()
            .cluster(rows, 3, constraint_groups=groups, precomputed_distances=distances)
            .labels
            for distances in (square, squareform(square, checks=False))
        ]
        assert np.array_equal(labels[0], labels[1])

    def test_fit_rejects_a_wrong_length_condensed_vector(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            AgglomerativeClustering().fit(np.ones((4, 2)), precomputed_distances=np.ones(5))

    @pytest.mark.parametrize("metric", METRICS)
    def test_cluster_medoids_condensed_equals_square(self, metric):
        rows = _rows_with_zeros_and_duplicates(120, seed=7)
        labels = AgglomerativeClustering().cluster(rows, 10).labels
        square = pairwise_distance_matrix(rows, metric=metric)
        from_square = cluster_medoids(rows, labels, metric=metric, distances=square)
        from_condensed = cluster_medoids(
            rows, labels, metric=metric, distances=squareform(square, checks=False)
        )
        assert from_condensed == from_square
        assert from_square == cluster_medoids(rows, labels, metric=metric)

    def test_context_medoids_equal_cluster_medoids(self):
        rows = _rows_with_zeros_and_duplicates(90, seed=8)
        labels = AgglomerativeClustering().cluster(rows, 9).labels
        cold = context_medoids(DistanceContext(None, rows), labels, "cosine")
        warm_context = DistanceContext(None, rows)
        warm_context.condensed("cosine")
        warm = context_medoids(warm_context, labels, "cosine")
        assert cold == warm == cluster_medoids(rows, labels, metric="cosine")


class _SquareSpy:
    def __init__(self):
        self.calls = []

    def __call__(self, first, second=None, *, metric="cosine"):
        self.calls.append((metric, "square" if second is None else "cross"))
        return pairwise_distance_matrix(first, second, metric=metric)


class TestContextCondensed:
    @pytest.mark.parametrize("metric", METRICS)
    def test_default_kernel_bits(self, metric):
        rows = _rows_with_zeros_and_duplicates(2 * FINISH_BLOCK_ROWS + 3, seed=9)
        context = DistanceContext(None, rows)
        expected = squareform(pairwise_distance_matrix(rows, metric=metric), checks=False)
        assert np.array_equal(context.condensed(metric), expected)
        assert context.condensed(metric) is context.condensed(metric)

    def test_both_forms_derive_from_each_other_without_a_kernel_call(self):
        rows = _rows_with_zeros_and_duplicates(20, seed=10)
        spy = _SquareSpy()
        context = DistanceContext(None, rows, kernel=spy)
        condensed = context.condensed("euclidean")
        square = context.candidate_distances("euclidean")
        assert spy.calls == [("euclidean", "square")]
        assert np.array_equal(square, pairwise_distance_matrix(rows, metric="euclidean"))
        assert np.array_equal(condensed, squareform(square, checks=False))

        other = DistanceContext(None, rows, kernel=spy)
        square = other.candidate_distances("cosine")
        assert np.array_equal(other.condensed("cosine"), squareform(square, checks=False))
        assert spy.calls.count(("cosine", "square")) == 1

    def test_views_gather_from_the_condensed_vector(self):
        rows = _rows_with_zeros_and_duplicates(15, seed=11)
        spy = _SquareSpy()
        context = DistanceContext(None, rows, kernel=spy)
        context.condensed("cosine")
        square = pairwise_distance_matrix(rows, metric="cosine")
        assert np.array_equal(context.within([3, 1, 14]), square[np.ix_([3, 1, 14], [3, 1, 14])])
        assert np.array_equal(context.block([0, 5], [5, 9, 2]), square[np.ix_([0, 5], [5, 9, 2])])
        assert len(spy.calls) == 1  # gathered, never recomputed
        assert not context.is_cached("cosine")  # the square itself stays cold
        assert context.computed_metrics() == ("cosine",)

    def test_subset_slices_the_condensed_vector(self):
        rows = _rows_with_zeros_and_duplicates(30, seed=12)
        spy = _SquareSpy()
        context = DistanceContext(None, rows, kernel=spy)
        context.condensed("euclidean")
        keep = [29, 3, 7, 0, 18]
        child = context.subset(keep)
        expected = squareform(
            pairwise_distance_matrix(rows, metric="euclidean")[np.ix_(keep, keep)], checks=False
        )
        assert np.array_equal(child.condensed("euclidean"), expected)
        assert len(spy.calls) == 1


def _blobs(count, dimension, centres, seed):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((centres, dimension)) * 4.0
    return means[rng.integers(0, centres, count)] + rng.standard_normal((count, dimension))


class TestSelectMemory:
    def test_select_never_holds_two_squares(self):
        """Algorithm 2 at s = 2 000, 768-d, no prune: the clustering input is
        built inside one (s, s) buffer (measured 1.07x), well under the two
        squares (Gram + finish buffer, 2.0x) it took before; the bound also
        catches clustering a square plus its condensed copy (1.56x)."""
        count = 2000
        candidates = _blobs(count, 768, 80, seed=13)
        query = _blobs(5, 768, 80, seed=14)
        request = DiversificationRequest(query, candidates, k=30)
        diversifier = DustDiversifier(DustConfig(prune_limit=None))
        selected, peak = _traced_peak(lambda: diversifier.select(request))
        assert peak <= 1.25 * count**2 * 8
        assert len(set(selected)) == 30

        # Same selection as the square path the condensed vector replaced.
        square = pairwise_distance_matrix(candidates, metric="euclidean")
        labels = AgglomerativeClustering().cluster(
            candidates, 60, precomputed_distances=square
        ).labels
        medoids = cluster_medoids(candidates, labels, metric="cosine")
        assert diversifier.last_trace.medoid_indices == medoids


class TestCLTDuplicates:
    def test_pads_when_duplicates_leave_fewer_clusters_than_k(self):
        distinct = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        candidates = np.repeat(distinct, 4, axis=0)  # 3 distinct rows x 4 copies
        request = DiversificationRequest(np.array([[1.0, 1.0, 1.0]]), candidates, k=5)
        selected = CLTDiversifier().select(request)
        assert len(selected) == len(set(selected)) == 5
        assert {int(index) // 4 for index in selected} == {0, 1, 2}
