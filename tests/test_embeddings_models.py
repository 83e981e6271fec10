"""Tests for the hashed vector space, word models and contextual encoders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings import (
    BertLikeModel,
    FastTextLikeModel,
    GloveLikeModel,
    HashedVectorSpace,
    RobertaLikeModel,
    SentenceBertLikeModel,
)
from repro.embeddings.base import l2_normalize
from repro.cluster.distance import cosine_distance


class TestHashedVectorSpace:
    def test_token_vectors_are_deterministic(self):
        space = HashedVectorSpace(64)
        assert np.allclose(space.token_vector("park"), space.token_vector("park"))

    def test_different_namespaces_differ(self):
        first = HashedVectorSpace(64, seed_namespace="a").token_vector("park")
        second = HashedVectorSpace(64, seed_namespace="b").token_vector("park")
        assert not np.allclose(first, second)

    def test_subword_composition_relates_morphological_variants(self):
        space = HashedVectorSpace(128, use_subwords=True)
        related = cosine_distance(space.token_vector("park"), space.token_vector("parks"))
        unrelated = cosine_distance(space.token_vector("park"), space.token_vector("budget"))
        assert related < unrelated

    def test_encode_tokens_empty_is_zero(self):
        space = HashedVectorSpace(32)
        assert np.allclose(space.encode_tokens([]), np.zeros(32))

    def test_encode_tokens_weighted(self):
        space = HashedVectorSpace(32)
        heavy = space.encode_tokens(["a", "b"], weights=[10.0, 0.0])
        assert np.allclose(heavy, space.token_vector("a"))

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            HashedVectorSpace(8).encode_tokens(["a"], weights=[1.0, 2.0])

    def test_cache(self):
        space = HashedVectorSpace(16)
        space.token_vector("a")
        assert space.cache_size() == 1
        space.clear_cache()
        assert space.cache_size() == 0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            HashedVectorSpace(0)


class TestWordModels:
    def test_dimension_and_norm(self):
        model = GloveLikeModel(dimension=100)
        vector = model.encode_text("river park usa")
        assert vector.shape == (100,)
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_same_text_same_vector(self):
        model = FastTextLikeModel()
        assert np.allclose(model.encode_text("hello world"), model.encode_text("hello world"))

    def test_topically_different_text_is_distant(self):
        model = FastTextLikeModel()
        parks = model.encode_text("river park supervisor city country")
        paintings = model.encode_text("painting medium oil canvas dimensions")
        overlap = model.encode_text("river park city supervisor country usa")
        assert cosine_distance(parks, overlap) < cosine_distance(parks, paintings)

    def test_encode_many_shape(self):
        model = GloveLikeModel(dimension=50)
        matrix = model.encode_many(["a b", "c d", "e"])
        assert matrix.shape == (3, 50)
        assert model.encode_many([]).shape == (0, 50)


class TestContextualModels:
    @pytest.mark.parametrize(
        "model_class", [BertLikeModel, RobertaLikeModel, SentenceBertLikeModel]
    )
    def test_deterministic_unit_embeddings(self, model_class):
        model = model_class()
        text = "[CLS] Park Name River Park [SEP] Country USA [SEP]"
        first = model.encode_text(text)
        second = model.encode_text(text)
        assert first.shape == (768,)
        assert np.allclose(first, second)
        assert np.isclose(np.linalg.norm(first), 1.0)

    def test_model_families_are_uncorrelated(self):
        text = "[CLS] Title Midnight Horizon [SEP] Genre Drama [SEP]"
        bert = BertLikeModel().encode_text(text)
        roberta = RobertaLikeModel().encode_text(text)
        assert cosine_distance(bert, roberta) > 0.3

    def test_similar_tuples_closer_than_different_topics(self):
        model = RobertaLikeModel()
        park_a = model.encode_text("[CLS] Park Name River Park [SEP] Country USA [SEP]")
        park_b = model.encode_text("[CLS] Park Name Hyde Park [SEP] Country UK [SEP]")
        painting = model.encode_text(
            "[CLS] Painting Northern Lake [SEP] Medium Oil on canvas [SEP]"
        )
        assert cosine_distance(park_a, park_b) < cosine_distance(park_a, painting)

    def test_empty_text_is_zero_vector(self):
        model = BertLikeModel()
        assert np.allclose(model.encode_tokens([]), np.zeros(768))

    def test_invalid_configuration(self):
        from repro.embeddings.contextual import ContextualEncoder

        with pytest.raises(ValueError):
            ContextualEncoder("x", pooling="bad")
        with pytest.raises(ValueError):
            ContextualEncoder("x", num_layers=0)


class TestNormalisationHelpers:
    def test_l2_normalize(self):
        assert np.isclose(np.linalg.norm(l2_normalize(np.array([3.0, 4.0]))), 1.0)
        assert np.allclose(l2_normalize(np.zeros(3)), np.zeros(3))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.text(alphabet="abcdefg ", min_size=1, max_size=12), min_size=1, max_size=5))
    def test_word_model_embeddings_are_bounded(self, texts):
        model = GloveLikeModel(dimension=32)
        matrix = model.encode_many(texts)
        norms = np.linalg.norm(matrix, axis=1)
        assert (norms <= 1.0 + 1e-9).all()
