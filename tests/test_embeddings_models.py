"""Tests for the hashed vector space, word models and contextual encoders."""

import math
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datalake import Table
from repro.embeddings import (
    BertLikeModel,
    CellLevelColumnEncoder,
    ColumnLevelColumnEncoder,
    FastTextLikeModel,
    GloveLikeModel,
    HashedVectorSpace,
    RobertaLikeModel,
    SentenceBertLikeModel,
    StarmieColumnEncoder,
)
from repro.embeddings import contextual
from repro.embeddings.base import TupleEncoder, l2_normalize
from repro.embeddings.contextual import ContextualEncoder
from repro.cluster.distance import cosine_distance
from repro.utils.blas import find_openblas


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


class TestTextMemo:
    def test_memoised_rows_equal_the_forward_pass(self):
        texts = [
            "[CLS] Park Name River Park [SEP] Country USA [SEP]",
            "",
            "park river " * 300,  # over the 512-token cap
            "Country USA",
            "[CLS] Park Name River Park [SEP] Country USA [SEP]",
            "",
            "park river " * 300,
        ]
        model = RobertaLikeModel()
        first = model.encode_many(texts)
        again = model.encode_many(texts)
        reference = RobertaLikeModel()
        expected = {text: reference.encode_text(text) for text in dict.fromkeys(texts)}
        assert reference.memo_stats()["hits"] == 0
        for memoised in (first, again):
            for row, text in zip(memoised, texts):
                assert np.array_equal(row, expected[text])
        stats = model.memo_stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (4, 10, 4)

    def test_returned_vectors_are_copies(self):
        model = ContextualEncoder("memo-copy", dimension=32)
        first = model.encode_text("river park")
        expected = first.copy()
        first[:] = 0.0
        hit = model.encode_text("river park")
        assert np.array_equal(hit, expected)
        hit[:] = 1.0
        assert np.array_equal(model.encode_text("river park"), expected)

    def test_byte_budget_evicts_least_recently_used(self, monkeypatch):
        entry = 16 * 8 + sys.getsizeof("t0")
        monkeypatch.setattr(contextual, "MEMO_BUDGET_BYTES", 3 * entry)
        model = ContextualEncoder("memo-budget", dimension=16)
        calls = []
        forward = model.encode_tokens
        monkeypatch.setattr(
            model, "encode_tokens", lambda tokens: calls.append(tokens) or forward(tokens)
        )
        for text in ("t0", "t1", "t2", "t0", "t3"):  # t0 is touched, t1 is oldest
            model.encode_text(text)
            assert model.memo_stats()["bytes"] <= 3 * entry
        assert len(calls) == 4
        model.encode_text("t0")
        model.encode_text("t2")
        model.encode_text("t3")
        assert len(calls) == 4
        model.encode_text("t1")
        assert len(calls) == 5
        stats = model.memo_stats()
        assert (stats["entries"], stats["bytes"], stats["budget_bytes"]) == (3, 3 * entry, 3 * entry)

    def test_concurrent_encode_many_matches_serial(self, monkeypatch):
        # Room for three entries under 24 texts: nearly every call evicts, so
        # the threads race on the LRU order, the free slots and the byte count.
        monkeypatch.setattr(contextual, "MEMO_BUDGET_BYTES", 3 * (32 * 8 + 66))
        # Widen the race window: yield the interpreter inside every cost
        # lookup, which put() makes mid-eviction.
        cost = contextual._TextMemo._cost

        def yielding_cost(memo, text):
            time.sleep(0)
            return cost(memo, text)

        monkeypatch.setattr(contextual._TextMemo, "_cost", yielding_cost)
        texts = [f"river park row {i}" for i in range(24)]
        serial = ContextualEncoder("memo-threads", dimension=32)
        expected = {text: serial.encode_text(text) for text in texts}
        shared = ContextualEncoder("memo-threads", dimension=32)
        rng = np.random.default_rng(5)
        batches = [[texts[j] for j in rng.integers(0, len(texts), 40)] for _ in range(4)]
        matched = [0] * len(batches)

        def work(index):
            want = np.vstack([expected[text] for text in batches[index]])
            for _ in range(20):
                matched[index] += np.array_equal(shared.encode_many(batches[index]), want)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert matched == [20] * len(batches)
        stats = shared.memo_stats()
        assert stats["entries"] <= 3 and stats["bytes"] <= contextual.MEMO_BUDGET_BYTES

    def test_position_table_slices_equal_per_length_encodings(self):
        table = contextual._position_table(768)
        assert not table.flags.writeable
        for length in (1, 2, 7, 60, 511, 512):
            assert np.array_equal(table[:length], contextual._position_encoding(length, 768))


_WORDS = (
    "park river city lake museum bridge tower garden harbor valley forest "
    "castle market street station island canyon desert meadow summit"
).split()


def _texts_of_lengths(lengths, seed):
    """Distinct texts whose sequences have ``lengths`` rows ([CLS] included)."""
    rng = np.random.default_rng(seed)
    return [" ".join(rng.choice(_WORDS, length - 1)) for length in lengths]


@contextmanager
def _blas_threads(mode):
    """Run at the startup OpenBLAS thread count, or at one thread."""
    controls = find_openblas()
    startup = [getter() for _, getter in controls]
    try:
        if mode == "one":
            for setter, _ in controls:
                setter(1)
        yield
    finally:
        for (setter, _), threads in zip(controls, startup):
            setter(threads)


class TestBatchedForward:
    """``encode_many`` stacks memo misses into row blocks; the bits do not move."""

    @pytest.mark.parametrize("threads", ["startup", "one"])
    @pytest.mark.parametrize(
        "model_class", [BertLikeModel, RobertaLikeModel, SentenceBertLikeModel]
    )
    def test_rows_equal_encode_text(self, model_class, threads, monkeypatch):
        block = contextual.BATCH_ROWS
        # Lengths chosen so sequences straddle block boundaries, fill one
        # exactly, overflow one by a row, and exceed the 512-token cap.
        lengths = [2, 3, 60, 50, 40, block - 1, 2, block, block + 1, 30, 99, 2, 45]
        varied = _texts_of_lengths(lengths, seed=len(lengths))
        texts = [
            "",
            "[CLS]",
            "park",
            "[CLS] river",
            *varied[:5],
            "park river " * 300,
            *varied[5:],
            "river park " * 400,
            "park",  # duplicates inside the batch
            varied[2],
            "",
            "[CLS]",
            "memo hit one",
            "memo hit two",
        ]
        model = model_class()
        model.encode_text("memo hit one")
        model.encode_text("memo hit two")
        blocks = []
        forward = model._forward
        monkeypatch.setattr(
            model, "_forward", lambda sequences: blocks.append(len(sequences)) or forward(sequences)
        )
        with _blas_threads(threads):
            batched = model.encode_many(texts)
            reference = model_class()
            expected = np.vstack([reference.encode_text(text) for text in texts])
        assert batched.shape == (len(texts), 768)
        for row, text in enumerate(texts):
            assert np.array_equal(batched[row], expected[row]), text[:40]
        assert max(blocks) > 1 and len(blocks) > 2  # several multi-sequence blocks ran

    def test_forward_passes_scale_with_row_blocks(self, monkeypatch):
        model = RobertaLikeModel()
        texts = _texts_of_lengths([13, 14] * 30, seed=7)
        assert len(set(texts)) == 60
        rows = sum(len(model._sequence(text)) for text in texts)
        calls = []
        forward = model._forward
        monkeypatch.setattr(
            model, "_forward", lambda sequences: calls.append(len(sequences)) or forward(sequences)
        )
        model.encode_many(texts)
        assert sum(calls) == 60
        assert len(calls) <= math.ceil(rows / contextual.BATCH_ROWS) + 1

    def test_peak_memory_is_a_few_row_blocks(self):
        model = RobertaLikeModel()
        # Warm the token vectors and the memo's slab, so the traced peak is
        # the forward pass's own buffers.
        model.encode_text(" ".join(_WORDS))
        texts = list(dict.fromkeys(_texts_of_lengths([13] * 420, seed=11)))[:400]
        assert len(texts) == 400
        tracemalloc.start()
        try:
            encoded = model.encode_many(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = contextual.BATCH_ROWS * 768 * 8
        assert peak - encoded.nbytes <= 4 * block_bytes


class _TextByText(TupleEncoder):
    """Routes every batch to ``encode_text``, one text at a time."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def info(self):
        return self._inner.info

    def encode_text(self, text):
        return self._inner.encode_text(text)


class TestColumnPathParity:
    """Column sentences and cells go through the column memo; the bits do not move."""

    @pytest.mark.parametrize("threads", ["startup", "one"])
    @pytest.mark.parametrize(
        "model_class", [BertLikeModel, RobertaLikeModel, SentenceBertLikeModel]
    )
    def test_column_rows_equal_encode_text(self, model_class, threads):
        # Over 512 distinct tokens, so TF-IDF selection still leaves a
        # sentence at the cap.
        long_value = " ".join(f"park{i}" for i in range(700))
        tables = [
            Table("parks", ["Park Name", "Country", "Notes"], [
                ("River Park", "USA", long_value),
                ("Lake Park", None, "shaded"),
                (None, None, "open"),
            ]),
            Table("cities", ["City", "Empty"], [("Oslo", None), ("Lima", "")]),
            Table("single", ["Code"], [("x",)]),
        ]
        columns = [
            (column, table.column_values(column)) for table in tables for column in table.columns
        ]
        model = model_class()
        with _blas_threads(threads):
            reference = _TextByText(model_class())
            encoders = [
                (ColumnLevelColumnEncoder(model), ColumnLevelColumnEncoder(reference)),
                (CellLevelColumnEncoder(model), CellLevelColumnEncoder(reference)),
                (StarmieColumnEncoder(model), StarmieColumnEncoder(reference)),
            ]
            for batched, one_by_one in encoders:
                expected = np.vstack([
                    vector
                    for table in tables
                    for vector in one_by_one.encode_tables([table])
                ])
                for _ in range(2):  # forward passes, then memo hits
                    encoded = batched.encode_tables(tables)
                    for row, (header, _) in enumerate(columns):
                        assert np.array_equal(encoded[row], expected[row]), header
        assert model.memo_stats("column")["hits"] > 0
        assert model.memo_stats("tuple")["misses"] == 0


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
