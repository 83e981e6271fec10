"""Tests for the shared vector engine (repro.vectorops) and the paths that
consume it: DistanceContext caching, EmbeddingMatrix normalisation, the DUST
k-shortfall fallback and the batch embedding overrides."""

import numpy as np
import pytest

from repro.cluster.distance import pairwise_distance_matrix
from repro.core import DustConfig, DustDiversifier
from repro.diversify import DiversificationRequest, MaxMinDiversifier, MaxSumDiversifier
from repro.embeddings import FastTextLikeModel, GloveLikeModel
from repro.vectorops import DistanceContext, EmbeddingMatrix


class _CountingKernel:
    """Kernel spy: delegates to the real kernel while counting invocations."""

    def __init__(self):
        self.calls = []

    def __call__(self, first, second=None, *, metric="cosine"):
        kind = "square" if second is None else "cross"
        self.calls.append((metric, kind, np.shape(first)[0]))
        return pairwise_distance_matrix(first, second, metric=metric)

    def count(self, metric, kind=None):
        return sum(
            1
            for called_metric, called_kind, _ in self.calls
            if called_metric == metric and (kind is None or called_kind == kind)
        )


@pytest.fixture()
def small_context():
    rng = np.random.default_rng(5)
    query = rng.standard_normal((3, 6))
    candidates = rng.standard_normal((10, 6))
    kernel = _CountingKernel()
    return DistanceContext(query, candidates, kernel=kernel), query, candidates, kernel


class TestEmbeddingMatrix:
    def test_unit_rows_and_norms_cached(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, 3))
        matrix = EmbeddingMatrix(data)
        unit = matrix.unit
        assert np.allclose(np.linalg.norm(unit, axis=1), 1.0)
        assert matrix.unit is unit  # computed once, served from cache

    def test_zero_rows_stay_zero(self):
        matrix = EmbeddingMatrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert matrix.zero_rows.tolist() == [True, False]
        assert np.all(matrix.unit[0] == 0.0)
        assert np.allclose(matrix.unit[1], [0.6, 0.8])

    def test_take_propagates_caches(self):
        matrix = EmbeddingMatrix(np.random.default_rng(1).standard_normal((5, 4)))
        _ = matrix.unit
        subset = matrix.take([1, 3])
        assert subset._unit is not None
        assert np.array_equal(subset.unit, matrix.unit[[1, 3]])

    def test_dtype_control_and_1d_promotion(self):
        matrix = EmbeddingMatrix([1.0, 2.0], dtype=np.float32)
        assert matrix.shape == (1, 2)
        assert matrix.data.dtype == np.float32

    def test_take_preserves_dtype(self):
        matrix = EmbeddingMatrix(np.ones((3, 2)), dtype=np.float32)
        assert matrix.take([0, 2]).data.dtype == np.float32

    def test_wrap_is_idempotent(self):
        matrix = EmbeddingMatrix(np.ones((2, 2)))
        assert EmbeddingMatrix.wrap(matrix) is matrix


class TestDistanceContextCaching:
    def test_each_block_computed_exactly_once(self, small_context):
        context, _, _, kernel = small_context
        # Candidate square: one kernel call no matter how many views follow.
        context.candidate_distances()
        context.candidate_distances()
        context.condensed()
        context.within([1, 2, 3])
        context.within()
        context.block([0, 1], [4, 5])
        assert kernel.count("cosine", "square") == 1

        # Query block: its own single computation, reused across slices.
        context.to_query()
        context.to_query([2, 3])
        context.query_candidate_distances()
        assert kernel.count("cosine", "cross") == 1
        assert kernel.count("cosine") == 2

        # A second metric gets its own (single) square, in either form.
        context.condensed("euclidean")
        context.candidate_distances("euclidean")
        context.within([1, 2], metric="euclidean")
        assert kernel.count("euclidean") == 1
        assert set(context.computed_metrics()) == {"cosine", "euclidean"}

    def test_narrow_block_on_cold_cache_does_not_materialise_square(self, small_context):
        context, _, candidates, kernel = small_context
        view = context.within([1, 4])
        assert np.allclose(
            view, pairwise_distance_matrix(candidates[[1, 4]], metric="cosine"), atol=1e-12
        )
        # Only the 2-row block was computed; the 10x10 square stays cold.
        assert kernel.calls == [("cosine", "square", 2)]
        assert not context.is_cached("cosine")

    def test_narrow_to_query_on_cold_cache_does_not_materialise_block(self, small_context):
        context, query, candidates, kernel = small_context
        view = context.to_query([3, 7])
        assert np.allclose(
            view,
            pairwise_distance_matrix(candidates[[3, 7]], query, metric="cosine"),
            atol=1e-12,
        )
        # Only the 2-row cross block was computed, not the full (10, 3) one.
        assert kernel.calls == [("cosine", "cross", 2)]

    def test_full_matrix_assembled_from_blocks(self, small_context):
        context, query, candidates, _ = small_context
        full = context.full()
        stacked = np.vstack([query, candidates])
        direct = pairwise_distance_matrix(stacked, metric="cosine")
        # Off-diagonal blocks match the directly-computed full matrix; the
        # diagonal blocks only differ in their (zero) diagonals.
        assert full.shape == direct.shape
        assert np.allclose(full, direct, atol=1e-12)

    def test_views_match_direct_computation(self, small_context):
        context, query, candidates, _ = small_context
        rows = [1, 4, 7]
        assert np.allclose(
            context.within(rows),
            pairwise_distance_matrix(candidates[rows], metric="cosine"),
            atol=1e-12,
        )
        assert np.allclose(
            context.to_query(rows),
            pairwise_distance_matrix(candidates[rows], query, metric="cosine"),
            atol=1e-12,
        )
        assert np.allclose(
            context.block([0, 2], [5, 6]),
            pairwise_distance_matrix(candidates[[0, 2]], candidates[[5, 6]], metric="cosine"),
            atol=1e-12,
        )

    def test_subset_reuses_parent_matrices(self, small_context):
        context, query, candidates, kernel = small_context
        context.candidate_distances()  # one cosine square on the parent
        context.query_candidate_distances()  # one cosine query block
        child = context.subset([0, 2, 5, 8])
        assert np.allclose(
            child.candidate_distances(),
            pairwise_distance_matrix(candidates[[0, 2, 5, 8]], metric="cosine"),
            atol=1e-12,
        )
        assert np.allclose(
            child.to_query(),
            pairwise_distance_matrix(candidates[[0, 2, 5, 8]], query, metric="cosine"),
            atol=1e-12,
        )
        assert len(kernel.calls) == 2  # sliced, not recomputed

    def test_subset_before_any_computation_is_lazy(self, small_context):
        context, _, _, kernel = small_context
        child = context.subset([1, 2, 3])
        assert kernel.calls == []
        child.candidate_distances()
        # The child computed its own (narrower) matrix; the parent stays empty.
        assert kernel.calls == [("cosine", "square", 3)]
        assert context.computed_metrics() == ()

    def test_default_cosine_path_bit_identical_to_kernel(self):
        rng = np.random.default_rng(9)
        candidates = rng.standard_normal((8, 5))
        candidates[3] = 0.0  # zero row exercises the mask handling
        query = rng.standard_normal((2, 5))
        context = DistanceContext(query, candidates)  # default kernel -> unit rows
        assert np.array_equal(
            context.candidate_distances(),
            pairwise_distance_matrix(candidates, metric="cosine"),
        )
        assert np.array_equal(
            context.query_candidate_distances(),
            pairwise_distance_matrix(candidates, query, metric="cosine"),
        )
        assert np.array_equal(
            context.within([1, 3, 6]),
            pairwise_distance_matrix(candidates[[1, 3, 6]], metric="cosine"),
        )

    def test_block_self_mode_by_value_equality(self):
        rng = np.random.default_rng(10)
        context = DistanceContext(None, rng.standard_normal((6, 4)))
        cold = context.block([1, 4], [1, 4])  # distinct-but-equal index lists
        context.candidate_distances()
        warm = context.block([1, 4], [1, 4])
        assert np.array_equal(cold, warm)
        assert np.all(np.diag(cold) == 0.0)

    def test_empty_query_to_query_shape(self):
        context = DistanceContext(None, np.ones((4, 3)))
        assert context.to_query().shape == (4, 0)
        assert context.query_candidate_distances().shape == (4, 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DistanceContext(np.ones((2, 3)), np.ones((4, 2)))


class TestRequestOverContext:
    def test_request_shares_supplied_context(self, small_context):
        context, query, candidates, kernel = small_context
        request = DiversificationRequest(query, candidates, k=3, context=context)
        first = MaxMinDiversifier().select(request)
        second = MaxSumDiversifier().select(request)
        assert len(first) == len(second) == 3
        # Both baselines shared one square and one query block.
        assert kernel.count("cosine", "square") == 1
        assert kernel.count("cosine", "cross") == 1

    def test_from_context(self, small_context):
        context, _, _, _ = small_context
        request = DiversificationRequest.from_context(context, k=2)
        assert request.context is context
        assert request.candidate_embeddings.shape == (10, 6)

    def test_mismatched_context_rejected(self, small_context):
        context, query, candidates, _ = small_context
        from repro.utils.errors import DiversificationError

        with pytest.raises(DiversificationError):
            DiversificationRequest(query, candidates[:5], k=2, context=context)


class TestDustShortfallFallback:
    def test_duplicate_candidates_trigger_fallback(self):
        """Two groups of identical points collapse to 2 clusters, leaving
        fewer medoids than k; the fallback must fill the selection to k."""
        group_a = np.tile(np.array([[1.0, 0.0, 0.0]]), (6, 1))
        group_b = np.tile(np.array([[0.0, 1.0, 0.0]]), (6, 1))
        candidates = np.vstack([group_a, group_b])
        query = np.array([[0.0, 0.0, 1.0]])
        request = DiversificationRequest(query, candidates, k=4)
        dust = DustDiversifier(DustConfig(prune_limit=None))
        selection = dust.select(request)

        assert len(selection) == 4
        assert len(set(selection)) == 4
        trace = dust.last_trace
        assert trace is not None
        assert len(trace.medoid_indices) < 4  # clustering really fell short
        assert set(trace.medoid_indices) <= set(selection)
        # The fallback picks from the pruned pool only.
        assert set(selection) <= set(trace.pruned_indices)

    def test_fallback_preserves_medoid_priority(self):
        group_a = np.tile(np.array([[1.0, 0.0]]), (4, 1))
        group_b = np.tile(np.array([[0.0, 1.0]]), (4, 1))
        candidates = np.vstack([group_a, group_b])
        query = np.array([[1.0, 1.0]])
        dust = DustDiversifier(DustConfig(prune_limit=None))
        selection = dust.select(
            DiversificationRequest(query, candidates, k=3)
        )
        trace = dust.last_trace
        # Medoids come first in the selection, fallback fills the remainder.
        assert selection[: len(trace.medoid_indices)] == trace.selected_indices[
            : len(trace.medoid_indices)
        ]
        assert len(selection) == 3


class TestBatchEmbeddingParity:
    @pytest.mark.parametrize("model_cls", [GloveLikeModel, FastTextLikeModel])
    def test_encode_many_matches_encode_text(self, model_cls):
        model = model_cls(dimension=48)
        texts = ["national park montana", "river gorge", "", "park park park"]
        batched = model.encode_many(texts)
        looped = np.vstack([model.encode_text(text) for text in texts])
        assert batched.shape == (4, 48)
        assert np.array_equal(batched, looped)  # bit-identical, not just close

    def test_encode_many_empty(self):
        model = GloveLikeModel(dimension=16)
        assert model.encode_many([]).shape == (0, 16)
