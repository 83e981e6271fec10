"""Tests for the pair dataset, trainer, DUST model, Ditto and evaluation."""

import numpy as np
import pytest

from repro.datalake import Table
from repro.models import (
    DustTupleModel,
    FineTuneConfig,
    FineTuningTrainer,
    TuplePair,
    TuplePairDataset,
    build_dust_model,
    build_entity_matching_pairs,
    build_pair_dataset,
    pair_accuracy,
    select_threshold,
)
from repro.models.evaluate import evaluate_encoder_on_pairs
from repro.embeddings import BertLikeModel
from repro.embeddings.base import EncoderInfo, TupleEncoder
from repro.models.layers import EmbeddingHead
from repro.utils.errors import TrainingError


def _topic_table(name: str, topic: str, num_rows: int = 12) -> Table:
    """A small table whose values are all about one synthetic topic."""
    rows = [
        (f"{topic} entity {i}", f"{topic} attribute {i % 3}", i)
        for i in range(num_rows)
    ]
    return Table(name=name, columns=["name", "kind", "score"], rows=rows)


@pytest.fixture(scope="module")
def toy_tables() -> list[Table]:
    return [
        _topic_table("parks_a", "park"),
        _topic_table("parks_b", "park"),
        _topic_table("paint_a", "painting"),
        _topic_table("paint_b", "painting"),
        _topic_table("movie_a", "movie"),
        _topic_table("movie_b", "movie"),
    ]


@pytest.fixture(scope="module")
def toy_groups() -> dict[str, list[str]]:
    return {
        "parks": ["parks_a", "parks_b"],
        "paintings": ["paint_a", "paint_b"],
        "movies": ["movie_a", "movie_b"],
    }


@pytest.fixture(scope="module")
def toy_dataset(toy_tables, toy_groups) -> TuplePairDataset:
    return build_pair_dataset(toy_tables, toy_groups, num_pairs=400, seed=1)


class TestTuplePairDataset:
    def test_pairs_are_labelled_and_split(self, toy_dataset):
        assert toy_dataset.size > 200
        report = toy_dataset.balance_report()
        assert set(report) == {"train", "validation", "test"}
        # Train is by far the largest split under the 70:15:15 scheme.
        assert len(toy_dataset.train) > len(toy_dataset.validation)
        assert len(toy_dataset.train) > len(toy_dataset.test)

    def test_labels_match_group_structure(self, toy_dataset, toy_groups):
        group_of = {
            table: group for group, tables in toy_groups.items() for table in tables
        }
        for pair in toy_dataset.train[:100]:
            same_group = group_of[pair.first_source] == group_of[pair.second_source]
            assert pair.label == (1 if same_group else 0)

    def test_no_tuple_leaks_across_splits(self, toy_dataset):
        train_texts = {p.first for p in toy_dataset.train} | {p.second for p in toy_dataset.train}
        test_texts = {p.first for p in toy_dataset.test} | {p.second for p in toy_dataset.test}
        assert train_texts.isdisjoint(test_texts)

    def test_invalid_label_rejected(self):
        with pytest.raises(TrainingError):
            TuplePair(first="a", second="b", label=2)

    def test_requires_two_groups(self, toy_tables):
        with pytest.raises(TrainingError):
            build_pair_dataset(toy_tables, {"only": ["parks_a", "parks_b"]}, num_pairs=100)

    def test_unknown_table_rejected(self, toy_tables):
        with pytest.raises(TrainingError):
            build_pair_dataset(toy_tables, {"a": ["missing"], "b": ["parks_a"]}, num_pairs=100)


class TestFineTuning:
    def test_training_reduces_validation_loss(self, toy_dataset):
        trainer = FineTuningTrainer(
            BertLikeModel(),
            FineTuneConfig(max_epochs=6, patience=3, hidden_dim=64, output_dim=64, seed=2),
        )
        result = trainer.train(toy_dataset.train, toy_dataset.validation)
        assert result.epochs_run >= 1
        assert result.validation_losses[result.best_epoch] <= result.validation_losses[0]

    def test_early_stopping_restores_best_parameters(self, toy_dataset):
        trainer = FineTuningTrainer(
            BertLikeModel(),
            FineTuneConfig(max_epochs=30, patience=2, hidden_dim=32, output_dim=32, seed=3),
        )
        result = trainer.train(toy_dataset.train[:80], toy_dataset.validation[:20])
        assert result.epochs_run <= 30

    def test_empty_split_rejected(self, toy_dataset):
        trainer = FineTuningTrainer(BertLikeModel())
        with pytest.raises(TrainingError):
            trainer.train([], toy_dataset.validation)
        with pytest.raises(TrainingError):
            trainer.train(toy_dataset.train, [])

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            FineTuneConfig(max_epochs=0)
        with pytest.raises(TrainingError):
            FineTuneConfig(patience=0)
        with pytest.raises(TrainingError):
            FineTuneConfig(margin=1.5)


class TestDustModel:
    @pytest.fixture(scope="class")
    def trained(self, toy_dataset):
        config = FineTuneConfig(max_epochs=10, patience=4, hidden_dim=64, output_dim=96, seed=4)
        return build_dust_model(toy_dataset, base="bert", config=config)

    def test_model_outperforms_pretrained_baseline(self, trained, toy_dataset):
        model, _ = trained
        dust_accuracy = pair_accuracy(model, toy_dataset.test)
        baseline_accuracy = pair_accuracy(BertLikeModel(), toy_dataset.test)
        assert dust_accuracy > baseline_accuracy

    def test_encode_many_normalised(self, trained):
        model, _ = trained
        matrix = model.encode_many(["[CLS] name park a [SEP]", "[CLS] name movie b [SEP]"])
        assert matrix.shape == (2, 96)
        assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_dimension_mismatch_rejected(self):
        head = EmbeddingHead(input_dim=10, hidden_dim=4, output_dim=4)
        with pytest.raises(TrainingError):
            DustTupleModel(BertLikeModel(), head)

    def test_invalid_base_name(self, toy_dataset):
        with pytest.raises(TrainingError):
            build_dust_model(toy_dataset, base="gpt")


class TestDitto:
    def test_entity_matching_pairs_structure(self, toy_tables):
        dataset = build_entity_matching_pairs(toy_tables, num_pairs=200, seed=5)
        assert dataset.size > 100
        positives = [p for p in dataset.train if p.label == 1]
        # Positive pairs come from the same source table (same entity perturbed).
        assert all(p.first_source == p.second_source for p in positives)

    def test_too_few_rows_rejected(self):
        tiny = [Table(name="t", columns=["a"], rows=[(1,)])]
        with pytest.raises(TrainingError):
            build_entity_matching_pairs(tiny, num_pairs=50)


class TestEvaluation:
    def test_pair_accuracy_perfect_encoder(self):
        class PerfectEncoder(TupleEncoder):
            """Maps texts containing 'park' to one vector, others to an orthogonal one."""

            info = EncoderInfo(name="perfect", dimension=4, family="test")

            def encode_text(self, text):
                vector = np.zeros(4)
                vector[0 if "park" in text else 1] = 1.0
                return vector

        pairs = [
            TuplePair(first="park a", second="park b", label=1),
            TuplePair(first="park a", second="movie b", label=0),
        ]
        assert pair_accuracy(PerfectEncoder(), pairs, threshold=0.5) == 1.0

    def test_select_threshold_and_full_evaluation(self, toy_dataset):
        encoder = BertLikeModel()
        threshold = select_threshold(encoder, toy_dataset.validation[:40])
        assert 0.0 < threshold < 1.0
        report = evaluate_encoder_on_pairs(
            encoder, toy_dataset.validation[:40], toy_dataset.test[:40]
        )
        assert set(report) == {"threshold", "validation_accuracy", "test_accuracy"}
        assert 0.0 <= report["test_accuracy"] <= 1.0

    def test_empty_pairs_rejected(self):
        with pytest.raises(TrainingError):
            pair_accuracy(BertLikeModel(), [])
