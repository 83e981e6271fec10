"""D3L-style multi-signal table search (Bogatu et al. [2] stand-in).

D3L aggregates several column-level relatedness signals — header names, value
overlap, string formats (regular expressions), word embeddings and numeric
value distributions — into one table score.  This implementation reproduces
those five signal families over the library's own substrates.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Mapping

import numpy as np

from repro.api.registry import register_searcher
from repro.datalake.lake import DataLake
from repro.datalake.profile import ColumnProfile, profile_column
from repro.datalake.table import Table
from repro.embeddings.word import FastTextLikeModel
from repro.search.base import IndexState, TableUnionSearcher
from repro.search.overlap import column_token_set
from repro.utils.text import is_null, normalize_text

_FORMAT_PATTERNS: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("empty", re.compile(r"^\s*$")),
    ("integer", re.compile(r"^[+-]?\d+$")),
    ("decimal", re.compile(r"^[+-]?\d*\.\d+$")),
    ("date", re.compile(r"^\d{1,4}[-/]\d{1,2}[-/]\d{1,4}$")),
    ("phone", re.compile(r"^[\d\s()+-]{7,}$")),
    ("alpha", re.compile(r"^[A-Za-z\s]+$")),
    ("alnum", re.compile(r"^[A-Za-z0-9\s]+$")),
)


def format_histogram(values: list[object]) -> Counter[str]:
    """Histogram of coarse string formats of a column's values."""
    histogram: Counter[str] = Counter()
    for value in values:
        if is_null(value):
            continue
        text = str(value).strip()
        for name, pattern in _FORMAT_PATTERNS:
            if pattern.match(text):
                histogram[name] += 1
                break
        else:
            histogram["other"] += 1
    return histogram


def _histogram_similarity(first: Counter[str], second: Counter[str]) -> float:
    """Cosine similarity between two format histograms."""
    if not first or not second:
        return 0.0
    keys = set(first) | set(second)
    a = np.array([first.get(key, 0) for key in keys], dtype=float)
    b = np.array([second.get(key, 0) for key in keys], dtype=float)
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(a @ b / denom) if denom > 0 else 0.0


def _name_similarity(first: str, second: str) -> float:
    """Jaccard similarity between the token sets of two column headers."""
    tokens_first = set(normalize_text(first).split())
    tokens_second = set(normalize_text(second).split())
    if not tokens_first or not tokens_second:
        return 0.0
    return len(tokens_first & tokens_second) / len(tokens_first | tokens_second)


def _distribution_similarity(first: ColumnProfile, second: ColumnProfile) -> float:
    """Similarity of two numeric columns' value distributions (mean/std overlap)."""
    if not (first.is_numeric and second.is_numeric):
        return 0.0
    if first.mean is None or second.mean is None:
        return 0.0
    spread = max(first.std or 0.0, second.std or 0.0, 1e-9)
    distance = abs(first.mean - second.mean) / spread
    return float(np.exp(-distance))


@register_searcher("d3l")
class D3LSearcher(TableUnionSearcher):
    """Aggregates name/value/format/embedding/distribution column signals.

    The table score is the mean over query columns of the best aggregated
    column-pair score achieved by any candidate column, which matches how D3L
    composes per-column evidence into table-level relatedness.
    """

    def __init__(self, *, signal_weights: dict[str, float] | None = None) -> None:
        super().__init__()
        default_weights = {
            "name": 1.0,
            "values": 1.0,
            "format": 1.0,
            "embedding": 1.0,
            "distribution": 1.0,
        }
        self.signal_weights = dict(default_weights)
        if signal_weights:
            unknown = set(signal_weights) - set(default_weights)
            if unknown:
                raise ValueError(f"unknown D3L signal weights: {sorted(unknown)}")
            self.signal_weights.update(signal_weights)
        self._word_model = FastTextLikeModel()
        self._vector_dimension = self._word_model.info.dimension
        self._profiles: dict[str, dict[str, ColumnProfile]] = {}
        self._token_sets: dict[str, dict[str, set[str]]] = {}
        self._formats: dict[str, dict[str, Counter[str]]] = {}
        self._embeddings: dict[str, dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------ index
    def _column_embedding(self, table: Table, column: str) -> np.ndarray:
        values = [
            str(value) for value in table.column_values(column) if not is_null(value)
        ][:64]
        return self._word_model.encode_text(" ".join([column, *values]))

    def _index_table(self, table: Table) -> None:
        self._profiles[table.name] = {}
        self._token_sets[table.name] = {}
        self._formats[table.name] = {}
        self._embeddings[table.name] = {}
        for column in table.columns:
            self._profiles[table.name][column] = profile_column(table, column)
            self._token_sets[table.name][column] = column_token_set(table, column)
            self._formats[table.name][column] = format_histogram(
                table.column_values(column)
            )
            self._embeddings[table.name][column] = self._column_embedding(
                table, column
            )

    def _build_index(self, lake: DataLake) -> None:
        self._profiles, self._token_sets = {}, {}
        self._formats, self._embeddings = {}, {}
        for table in lake:
            self._index_table(table)

    def _apply_index_delta(self, added: list[Table], removed: list[str]) -> None:
        """Every D3L signal is derived per (table, column) from a stateless
        substrate, so a delta only touches the mutated tables' entries and is
        bit-identical to a rebuild by construction."""
        for name in removed:
            self._profiles.pop(name, None)
            self._token_sets.pop(name, None)
            self._formats.pop(name, None)
            self._embeddings.pop(name, None)
        for table in added:
            self._index_table(table)

    # ----------------------------------------------------- index serialization
    def config_state(self) -> dict:
        return {"signal_weights": self.signal_weights}

    def _index_state(self) -> IndexState:
        tables: list[dict] = []
        profiles: dict[str, dict[str, dict]] = {}
        token_sets: dict[str, dict[str, list[str]]] = {}
        formats: dict[str, dict[str, dict[str, int]]] = {}
        for name, columns in self._embeddings.items():
            tables.append({"name": name, "columns": list(columns)})
            profiles[name] = {
                column: profile.to_state()
                for column, profile in self._profiles[name].items()
            }
            token_sets[name] = {
                column: sorted(tokens)
                for column, tokens in self._token_sets[name].items()
            }
            formats[name] = {
                column: dict(histogram)
                for column, histogram in self._formats[name].items()
            }
        state = {
            "tables": tables,
            "profiles": profiles,
            "token_sets": token_sets,
            "formats": formats,
        }
        return state, {"embeddings": self._stack_vectors(self._embeddings.values())}

    def _load_index_state(
        self, lake: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> None:
        self._embeddings = self._unstack_vectors(
            arrays["embeddings"],
            {entry["name"]: entry["columns"] for entry in state["tables"]},
        )
        self._profiles, self._token_sets, self._formats = {}, {}, {}
        for name, columns in self._embeddings.items():
            self._profiles[name] = {
                column: ColumnProfile.from_state(state["profiles"][name][column])
                for column in columns
            }
            self._token_sets[name] = {
                column: set(state["token_sets"][name][column]) for column in columns
            }
            self._formats[name] = {
                column: Counter(
                    {
                        fmt: int(count)
                        for fmt, count in state["formats"][name][column].items()
                    }
                )
                for column in columns
            }

    # ---------------------------------------------------------------- scoring
    def _compute_query_state(
        self, query_table: Table
    ) -> dict[str, tuple[ColumnProfile, set[str], Counter[str], np.ndarray]]:
        """Per query column: its profile, token set, format histogram and
        embedding — without the memo they would be recomputed once per
        (lake table, lake column) pair."""
        return {
            column: (
                profile_column(query_table, column),
                column_token_set(query_table, column),
                format_histogram(query_table.column_values(column)),
                self._column_embedding(query_table, column),
            )
            for column in query_table.columns
        }

    def _column_pair_score(
        self,
        query_table: Table,
        query_column: str,
        lake_table_name: str,
        lake_column: str,
    ) -> float:
        query_profile, query_tokens, query_formats, query_embedding = (
            self._query_state(query_table)[query_column]
        )
        lake_profile = self._profiles[lake_table_name][lake_column]

        lake_tokens = self._token_sets[lake_table_name][lake_column]
        union = query_tokens | lake_tokens
        value_overlap = len(query_tokens & lake_tokens) / len(union) if union else 0.0

        signals = {
            "name": _name_similarity(query_column, lake_column),
            "values": value_overlap,
            "format": _histogram_similarity(
                query_formats,
                self._formats[lake_table_name][lake_column],
            ),
            "embedding": float(
                query_embedding @ self._embeddings[lake_table_name][lake_column]
            ),
            "distribution": _distribution_similarity(query_profile, lake_profile),
        }
        total_weight = sum(self.signal_weights.values())
        weighted = sum(
            self.signal_weights[name] * max(0.0, value) for name, value in signals.items()
        )
        return weighted / total_weight if total_weight > 0 else 0.0

    # ------------------------------------------------------- cascade prefilter
    def _indexed_column_vectors(self) -> dict[str, dict[str, np.ndarray]]:
        """The column word-embeddings: their per-table mean is the cheap
        stand-in for the embedding term of the aggregated signal."""
        return self._embeddings

    def _query_column_vectors(self, query_table: Table) -> dict[str, np.ndarray]:
        signals = self._query_state(query_table)
        return {column: signal[3] for column, signal in signals.items()}

    def _score_table(self, query_table: Table, lake_table: Table) -> float:
        lake_columns = self._profiles[lake_table.name]  # the index entry's columns
        if query_table.num_columns == 0 or not lake_columns:
            return 0.0
        total = 0.0
        for query_column in query_table.columns:
            total += max(
                self._column_pair_score(
                    query_table, query_column, lake_table.name, lake_column
                )
                for lake_column in lake_columns
            )
        return total / query_table.num_columns
