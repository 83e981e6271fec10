"""Tests for agglomerative clustering, silhouette selection, medoids and PCA."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    AgglomerativeClustering,
    PCA,
    best_num_clusters,
    cluster_medoids,
    cluster_members,
    medoid_index,
    pairwise_distance_matrix,
    silhouette_score,
)
from repro.cluster import silhouette as silhouette_module
from repro.cluster.agglomerative import _canonical_labels
from repro.utils.errors import ConfigurationError


@pytest.fixture
def three_blobs() -> np.ndarray:
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    return np.vstack([center + 0.3 * rng.standard_normal((8, 2)) for center in centers])


class TestAgglomerativeClustering:
    def test_recovers_well_separated_blobs(self, three_blobs):
        result = AgglomerativeClustering().cluster(three_blobs, 3)
        assert result.num_clusters == 3
        labels = result.labels
        # Each blob of 8 points must be a single cluster.
        for start in range(0, 24, 8):
            assert len(set(labels[start : start + 8])) == 1

    def test_labels_for_multiple_cuts(self, three_blobs):
        clustering = AgglomerativeClustering().fit(three_blobs)
        assert clustering.labels_for(1).num_clusters == 1
        assert clustering.labels_for(3).num_clusters == 3
        assert clustering.labels_for(100).num_clusters == len(three_blobs)

    def test_single_item(self):
        clustering = AgglomerativeClustering().fit(np.array([[1.0, 2.0]]))
        assert clustering.labels_for(5).labels.tolist() == [0]

    def test_constraints_prevent_same_group_merges(self):
        # Two near-identical points share a group: they must never co-cluster.
        embeddings = np.array([[0.0, 0.0], [0.01, 0.0], [5.0, 5.0], [5.01, 5.0]])
        groups = ["t1", "t1", "t2", "t2"]
        clustering = AgglomerativeClustering().fit(embeddings, constraint_groups=groups)
        for k in range(clustering.min_clusters, 5):
            labels = clustering.labels_for(k).labels
            assert labels[0] != labels[1]
            assert labels[2] != labels[3]

    def test_constrained_clustering_still_groups_across_tables(self):
        # Columns from different tables with near-identical embeddings cluster.
        embeddings = np.array(
            [[0.0, 0.0], [0.05, 0.0], [9.0, 9.0], [9.05, 9.0]]
        )
        groups = ["query", "lake", "query", "lake"]
        result = AgglomerativeClustering().fit(
            embeddings, constraint_groups=groups
        ).labels_for(2)
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] == result.labels[3]
        assert result.labels[0] != result.labels[2]

    def test_members_listing(self, three_blobs):
        result = AgglomerativeClustering().cluster(three_blobs, 3)
        members = result.members()
        assert sum(len(group) for group in members) == len(three_blobs)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            AgglomerativeClustering(linkage="ward")
        with pytest.raises(ConfigurationError):
            AgglomerativeClustering().fit(np.zeros((0, 3)))
        with pytest.raises(ConfigurationError):
            AgglomerativeClustering().fit(np.zeros(5))
        with pytest.raises(ConfigurationError):
            AgglomerativeClustering().fit(np.zeros((3, 2)), constraint_groups=["a"])
        clustering = AgglomerativeClustering()
        with pytest.raises(ConfigurationError):
            clustering.labels_for(2)

    @given(st.lists(st.integers(min_value=-3, max_value=40), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_canonical_labels_match_first_appearance_loop(self, raw):
        mapping: dict[int, int] = {}
        expected = [mapping.setdefault(label, len(mapping)) for label in raw]
        labels = _canonical_labels(raw)
        assert labels.dtype == np.int64 and labels.tolist() == expected

    @pytest.mark.parametrize("linkage", ["average", "complete", "single"])
    def test_all_linkages_run(self, linkage, three_blobs):
        result = AgglomerativeClustering(linkage=linkage).cluster(three_blobs, 3)
        assert result.num_clusters == 3


class TestSilhouette:
    def test_good_clustering_scores_higher(self, three_blobs):
        good = AgglomerativeClustering().cluster(three_blobs, 3).labels
        bad = np.arange(len(three_blobs)) % 2
        assert silhouette_score(three_blobs, good) > silhouette_score(three_blobs, bad)

    def test_degenerate_clusterings_score_zero(self, three_blobs):
        assert silhouette_score(three_blobs, np.zeros(len(three_blobs))) == 0.0
        assert silhouette_score(three_blobs, np.arange(len(three_blobs))) == 0.0

    def test_best_num_clusters_finds_three(self, three_blobs):
        clustering = AgglomerativeClustering().fit(three_blobs)
        best, score = best_num_clusters(
            three_blobs,
            lambda k: clustering.labels_for(k).labels,
            range(2, 10),
        )
        assert best == 3
        assert score > 0.5

    def test_best_num_clusters_no_valid_candidates(self, three_blobs):
        best, score = best_num_clusters(three_blobs, lambda k: [0], [1])
        assert best == 1 and score == 0.0

    def test_mismatched_labels_rejected(self, three_blobs):
        with pytest.raises(ConfigurationError):
            silhouette_score(three_blobs, [0, 1])


def _loop_silhouette(embeddings, labels, *, metric="euclidean", distances=None):
    """The per-item, per-cluster loop that the segment-sum form replaced.

    Kept here as the parity reference: ``silhouette_score`` must score every
    cut within 1e-12 of it and ``best_num_clusters`` must choose its count.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    unique = np.unique(labels)
    if len(unique) < 2 or len(unique) >= n:
        return 0.0
    if distances is None:
        distances = pairwise_distance_matrix(embeddings, metric=metric)
    members_by_label = {int(label): np.flatnonzero(labels == label) for label in unique}
    scores = np.zeros(n)
    for index in range(n):
        own_label = int(labels[index])
        own_members = members_by_label[own_label]
        if len(own_members) <= 1:
            continue
        a_value = distances[index, own_members].sum() / (len(own_members) - 1)
        b_value = min(
            float(distances[index, members].mean())
            for label, members in members_by_label.items()
            if label != own_label
        )
        denominator = max(a_value, b_value)
        scores[index] = 0.0 if denominator == 0 else (b_value - a_value) / denominator
    return float(scores.mean())


def _assert_selection_parity(embeddings, groups, candidates, monkeypatch, relabel=None):
    """Fit the constrained clustering the aligner fits, then check that every
    cut scores as the loop does and that the loop chooses the same count."""
    distances = pairwise_distance_matrix(embeddings, metric="euclidean")
    clustering = AgglomerativeClustering().fit(
        embeddings, constraint_groups=groups, precomputed_distances=distances
    )
    relabel = relabel or (lambda labels: labels)

    def labels_for(k):
        return relabel(clustering.labels_for(k).labels)

    for k in candidates:
        labels = labels_for(k)
        assert silhouette_score(embeddings, labels, distances=distances) == pytest.approx(
            _loop_silhouette(embeddings, labels, distances=distances), rel=0, abs=1e-12
        )
    chosen, _ = best_num_clusters(embeddings, labels_for, candidates, distances=distances)
    with monkeypatch.context() as patch:
        patch.setattr(silhouette_module, "silhouette_score", _loop_silhouette)
        reference, _ = best_num_clusters(embeddings, labels_for, candidates)
    assert chosen == reference
    return chosen, clustering


def _column_set(rng, *, num_tables, max_columns, dim, concepts):
    """Columns of several tables drawn around shared concepts, one group per table."""
    centers = 3.0 * rng.standard_normal((concepts, dim))
    rows, groups = [], []
    for table in range(num_tables):
        for _ in range(int(rng.integers(1, max_columns + 1))):
            rows.append(centers[rng.integers(concepts)] + rng.standard_normal(dim))
            groups.append(f"t{table}")
    return np.array(rows), groups


def _aligner_candidates(groups, fraction=0.35):
    """The aligner's candidate counts: query columns up to a fraction of all."""
    total = len(groups)
    lower = max(2, min(groups.count(groups[0]), total))
    return range(lower, min(max(lower, round(fraction * total)), total) + 1)


class TestSilhouetteParity:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_column_sets(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        embeddings, groups = _column_set(
            rng,
            num_tables=int(rng.integers(2, 9)),
            max_columns=int(rng.integers(1, 9)),
            dim=int(rng.integers(2, 17)),
            concepts=int(rng.integers(2, 9)),
        )
        _assert_selection_parity(
            embeddings, groups, _aligner_candidates(groups, fraction=0.6), monkeypatch
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_near_ties_from_duplicated_and_rounded_columns(self, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        embeddings, groups = _column_set(rng, num_tables=6, max_columns=5, dim=2, concepts=3)
        embeddings = np.round(embeddings, 0)
        # Every table's first column duplicated into one more table.
        first = [groups.index(group) for group in dict.fromkeys(groups)]
        embeddings = np.vstack([embeddings, embeddings[first]])
        groups = groups + ["copy"] * len(first)
        _assert_selection_parity(
            embeddings, groups, range(2, len(groups) + 1), monkeypatch
        )

    def test_singleton_clusters(self, monkeypatch):
        rng = np.random.default_rng(5)
        embeddings, groups = _column_set(rng, num_tables=4, max_columns=4, dim=3, concepts=2)
        outliers = 40.0 + 20.0 * rng.standard_normal((3, 3))
        embeddings = np.vstack([embeddings, outliers])
        groups = groups + ["o1", "o2", "o3"]
        _assert_selection_parity(embeddings, groups, range(2, len(groups)), monkeypatch)
        labels = [0, 0, 1, 2, 2, 3, 4, 4]
        points = rng.standard_normal((len(labels), 3))
        assert silhouette_score(points, labels) == pytest.approx(
            _loop_silhouette(points, labels), rel=0, abs=1e-12
        )

    def test_non_contiguous_labels(self, monkeypatch):
        rng = np.random.default_rng(11)
        embeddings, groups = _column_set(rng, num_tables=5, max_columns=6, dim=4, concepts=4)
        candidates = range(2, len(groups))
        scramble = rng.permutation(len(groups)) * 7 + 3
        chosen, _ = _assert_selection_parity(
            embeddings, groups, candidates, monkeypatch, relabel=lambda labels: scramble[labels]
        )
        contiguous, _ = _assert_selection_parity(embeddings, groups, candidates, monkeypatch)
        assert chosen == contiguous

    @pytest.mark.parametrize("n", [2, 3])
    def test_smallest_column_sets(self, n, monkeypatch):
        embeddings = np.random.default_rng(n).standard_normal((n, 4))
        groups = ["query"] + [f"t{i}" for i in range(1, n)]
        chosen, _ = _assert_selection_parity(embeddings, groups, range(2, n + 1), monkeypatch)
        assert chosen == 2

    def test_one_table_ties_go_to_the_smaller_count(self, monkeypatch):
        rng = np.random.default_rng(3)
        embeddings = rng.standard_normal((7, 4))
        chosen, clustering = _assert_selection_parity(
            embeddings, ["only"] * 7, range(2, 8), monkeypatch
        )
        assert clustering.min_clusters == 7 and chosen == 2
        # One dominant table: every cut below its width returns the same labels,
        # so those cuts tie exactly and only the smallest may be chosen.
        embeddings = rng.standard_normal((9, 4))
        groups = ["wide"] * 6 + ["narrow"] * 3
        chosen, clustering = _assert_selection_parity(
            embeddings, groups, range(2, 10), monkeypatch
        )
        assert clustering.min_clusters == 6
        assert chosen not in range(3, 7)


class TestSilhouetteWork:
    def test_python_calls_do_not_grow_with_items(self):
        """Held by work, not wall clock: a per-item or per-cluster Python
        loop makes the call count grow with n (the loop made ~7 900 calls at
        n = 60 and ~77 000 at n = 600; the segment sum makes the same few
        dozen at both)."""

        def calls(n):
            rng = np.random.default_rng(n)
            embeddings = rng.standard_normal((n, 8))
            labels = rng.permutation(np.arange(n) % 12)
            distances = pairwise_distance_matrix(embeddings, metric="euclidean")
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event in ("call", "c_call")

            sys.setprofile(profile)
            try:
                silhouette_score(embeddings, labels, distances=distances)
            finally:
                sys.setprofile(None)
            return count

        assert calls(60) == calls(600)


class TestMedoids:
    def test_medoid_is_central(self):
        embeddings = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        assert medoid_index(embeddings, [0, 1, 2], metric="euclidean") == 1

    def test_single_member(self):
        assert medoid_index(np.zeros((3, 2)), [2]) == 2

    def test_empty_members_rejected(self):
        with pytest.raises(ConfigurationError):
            medoid_index(np.zeros((3, 2)), [])

    def test_cluster_medoids_one_per_cluster(self, three_blobs):
        labels = AgglomerativeClustering().cluster(three_blobs, 3).labels
        medoids = cluster_medoids(three_blobs, labels, metric="euclidean")
        assert len(medoids) == 3
        assert len(set(labels[m] for m in medoids)) == 3

    def test_cluster_members_grouping(self):
        members = cluster_members([1, 0, 1, 2])
        assert members == {0: [1], 1: [0, 2], 2: [3]}


class TestPCA:
    def test_projects_to_requested_dimensions(self, three_blobs):
        projection = PCA(num_components=2).fit_transform(three_blobs)
        assert projection.shape == (len(three_blobs), 2)

    def test_first_component_captures_most_variance(self, three_blobs):
        pca = PCA(num_components=2).fit(three_blobs)
        ratios = pca.explained_variance_ratio
        assert ratios[0] >= ratios[1]
        assert 0.0 <= ratios.sum() <= 1.0 + 1e-9

    def test_transform_single_vector(self, three_blobs):
        pca = PCA(2).fit(three_blobs)
        assert pca.transform(three_blobs[0]).shape == (1, 2)

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            PCA(0)
        with pytest.raises(ConfigurationError):
            PCA(2).fit(np.zeros((1, 3)))
        with pytest.raises(ConfigurationError):
            PCA(5).fit(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError):
            PCA(2).transform(np.zeros((2, 2)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=2, max_value=6))
    def test_pca_reconstruction_variance_bounded(self, n_samples, n_features):
        rng = np.random.default_rng(n_samples * 100 + n_features)
        data = rng.standard_normal((n_samples, n_features))
        pca = PCA(num_components=min(2, n_features)).fit(data)
        assert pca.explained_variance_ratio.sum() <= 1.0 + 1e-9
