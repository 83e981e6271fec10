"""Column embedders used by column alignment (Table 1 of the paper).

Three families are provided, mirroring Sec. 6.2.3:

* :class:`CellLevelColumnEncoder` — embed every cell value independently with
  an underlying tuple/word encoder and average the cell embeddings.
* :class:`ColumnLevelColumnEncoder` — concatenate the column's values into one
  sentence (keeping at most 512 TF-IDF-selected tokens) and embed the sentence
  with a contextual encoder.
* :class:`StarmieColumnEncoder` — embed each column *with the context of its
  whole table* (a blend of the column sentence and a table-context vector).
  This reproduces the property the paper discusses: Starmie columns from the
  same table receive similar representations, which is good for table search
  but hurts column alignment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.api.registry import register_column_encoder
from repro.datalake.table import Table
from repro.embeddings.base import ColumnEncoder, EncoderInfo, TupleEncoder, l2_normalize
from repro.embeddings.serialization import serialize_column
from repro.embeddings.tfidf import TfidfSelector
from repro.embeddings.tokenizer import MAX_SEQUENCE_LENGTH, Tokenizer
from repro.utils.text import is_null


@dataclass
class CorpusContribution:
    """One table's share of a TF-IDF corpus fit, in exact integer form.

    A :class:`TfidfSelector` fit is a sum of per-document distinct-token
    counts, so one table's contribution — the number of column documents it
    adds and each token's document frequency among them — can be added to or
    subtracted from a fitted state with plain integer arithmetic.  Summing
    contributions in any order reproduces a from-scratch ``fit`` bit for bit,
    which is what lets :class:`~repro.search.starmie.StarmieSearcher` maintain
    its corpus statistics incrementally as the lake mutates.

    ``oversized`` records whether any of the table's column documents exceeds
    the encoder's token limit.  Only oversized documents are actually run
    through TF-IDF selection at encode time, so a table with
    ``oversized=False`` has embeddings that do not depend on the fitted state
    at all — the fact that makes most corpus-changing deltas safe to apply
    without re-encoding untouched tables.
    """

    num_documents: int = 0
    document_frequency: Counter = field(default_factory=Counter)
    oversized: bool = False

    def to_state(self) -> dict:
        """JSON-serializable form (round-trips through :meth:`from_state`)."""
        return {
            "num_documents": self.num_documents,
            "document_frequency": dict(self.document_frequency),
            "oversized": self.oversized,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CorpusContribution":
        return cls(
            num_documents=int(state["num_documents"]),
            document_frequency=Counter(
                {str(token): int(count) for token, count in state["document_frequency"].items()}
            ),
            oversized=bool(state["oversized"]),
        )


@register_column_encoder("cell-level")
class CellLevelColumnEncoder(ColumnEncoder):
    """Average of per-cell embeddings (the paper's "Cell-level" variation)."""

    def __init__(self, base: TupleEncoder, *, max_cells: int = 256) -> None:
        if max_cells <= 0:
            raise ValueError(f"max_cells must be positive, got {max_cells}")
        self._base = base
        self._max_cells = max_cells
        self._info = EncoderInfo(
            name=f"cell-level({base.info.name})",
            dimension=base.info.dimension,
            family="column-cell",
        )

    @property
    def info(self) -> EncoderInfo:
        return self._info

    def encode_column(self, header: str, values: Sequence[Any]) -> np.ndarray:
        cells = [value for value in values if not is_null(value)][: self._max_cells]
        if not cells:
            return self._base.encode_lake_texts([str(header)])[0]
        embeddings = self._base.encode_lake_texts([f"{header} {value}" for value in cells])
        return l2_normalize(embeddings.mean(axis=0))


@register_column_encoder("column-level")
class ColumnLevelColumnEncoder(ColumnEncoder):
    """Single-sentence column embedding with TF-IDF token selection.

    The column's header and values are concatenated into one sentence; if the
    sentence exceeds the encoder's 512-token limit, the most representative
    tokens are kept according to TF-IDF scores fitted over the corpus of
    columns supplied via :meth:`fit_corpus` (Sec. 6.2.3).
    """

    def __init__(
        self,
        base: TupleEncoder,
        *,
        token_limit: int = MAX_SEQUENCE_LENGTH,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        if token_limit <= 0:
            raise ValueError(f"token_limit must be positive, got {token_limit}")
        self._base = base
        self._token_limit = token_limit
        self._tokenizer = tokenizer or Tokenizer(max_length=10 * token_limit)
        self._selector = TfidfSelector()
        self._info = EncoderInfo(
            name=f"column-level({base.info.name})",
            dimension=base.info.dimension,
            family="column-sentence",
        )

    @property
    def info(self) -> EncoderInfo:
        return self._info

    def fit_corpus(self, columns: Sequence[tuple[str, Sequence[Any]]]) -> "ColumnLevelColumnEncoder":
        """Fit the TF-IDF selector over ``(header, values)`` column pairs."""
        documents = [
            self._tokenizer.tokenize_text(serialize_column(header, values))
            for header, values in columns
        ]
        self._selector.fit(documents)
        return self

    def fit_tables(self, tables: Sequence[Table]) -> "ColumnLevelColumnEncoder":
        """Fit the TF-IDF selector over every column of ``tables``."""
        corpus = [
            (column, table.column_values(column))
            for table in tables
            for column in table.columns
        ]
        return self.fit_corpus(corpus)

    def fit_state(self) -> dict:
        """JSON-serializable fitted state of the TF-IDF selector."""
        return self._selector.state_dict()

    def load_fit_state(self, state: dict) -> "ColumnLevelColumnEncoder":
        """Restore a fitted TF-IDF selector dumped by :meth:`fit_state`."""
        self._selector.load_state_dict(state)
        return self

    def corpus_contribution(
        self, columns: Sequence[tuple[str, Sequence[Any]]]
    ) -> CorpusContribution:
        """One table's :class:`CorpusContribution` to the TF-IDF corpus.

        Tokenizes the ``(header, values)`` columns exactly as
        :meth:`fit_corpus` would and returns their document count, distinct
        per-document token frequencies and whether any document exceeds the
        token limit (i.e. whether encoding these columns consults the fitted
        selector).  Summing the contributions of every table in a lake and
        loading the total via :meth:`load_fit_state` is bit-identical to
        calling :meth:`fit_tables` on the same lake.
        """
        documents = [
            self._tokenizer.tokenize_text(serialize_column(header, values))
            for header, values in columns
        ]
        frequency: Counter = Counter()
        for tokens in documents:
            for token in set(tokens):
                frequency[token] += 1
        return CorpusContribution(
            num_documents=len(documents),
            document_frequency=frequency,
            oversized=any(len(tokens) > self._token_limit for tokens in documents),
        )

    def encode_column(self, header: str, values: Sequence[Any]) -> np.ndarray:
        return self.encode_columns([(header, values)])[0]

    def encode_columns(
        self, columns: Sequence[tuple[str, Sequence[Any]]]
    ) -> np.ndarray:
        """Batch encode ``(header, values)`` columns into a ``(n, dim)`` matrix.

        TF-IDF token selection runs over the whole batch (one shared IDF
        lookup via :meth:`TfidfSelector.select_many`) and the sentences are
        embedded by one call of the base encoder's ``encode_lake_texts``; a
        contextual base runs them as row blocks, through its column memo.
        Row ``i`` is bit-identical to ``encode_column(*columns[i])``.
        """
        documents = [
            self._tokenizer.tokenize_text(serialize_column(header, values))
            for header, values in columns
        ]
        oversized = [i for i, tokens in enumerate(documents) if len(tokens) > self._token_limit]
        if oversized:
            selected = self._selector.select_many(
                [documents[i] for i in oversized], self._token_limit
            )
            for position, index in enumerate(oversized):
                documents[index] = selected[position]
        sentences = [
            " ".join(tokens) if tokens else str(header)
            for tokens, (header, _) in zip(documents, columns)
        ]
        return self._base.encode_lake_texts(sentences)


@register_column_encoder("starmie")
class StarmieColumnEncoder(ColumnEncoder):
    """Table-contextualised column embeddings (Starmie [11] stand-in).

    Each column embedding is a convex combination of the column's own sentence
    embedding and a table-context embedding (the mean of all column sentence
    embeddings of the owning table).  A substantial ``table_context_weight``
    pulls the columns of one table together — the behaviour the paper credits
    for Starmie's weak column-alignment scores (Table 1) while remaining a
    strong table-search signal (Sec. 6.5).
    """

    def __init__(
        self,
        base: TupleEncoder,
        *,
        table_context_weight: float = 0.5,
        token_limit: int = MAX_SEQUENCE_LENGTH,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        if not 0.0 <= table_context_weight < 1.0:
            raise ValueError(
                f"table_context_weight must be in [0, 1), got {table_context_weight}"
            )
        self._column_encoder = ColumnLevelColumnEncoder(
            base, token_limit=token_limit, tokenizer=tokenizer
        )
        self._table_context_weight = table_context_weight
        self._info = EncoderInfo(
            name=f"starmie({base.info.name})",
            dimension=base.info.dimension,
            family="column-table-context",
        )

    @property
    def info(self) -> EncoderInfo:
        return self._info

    @property
    def table_context_weight(self) -> float:
        """Blend weight of the table-context vector (part of the index key)."""
        return self._table_context_weight

    def fit_tables(self, tables: Sequence[Table]) -> "StarmieColumnEncoder":
        """Fit the underlying TF-IDF selector over ``tables``."""
        self._column_encoder.fit_tables(tables)
        return self

    def fit_state(self) -> dict:
        """JSON-serializable fitted state of the underlying TF-IDF selector."""
        return self._column_encoder.fit_state()

    def load_fit_state(self, state: dict) -> "StarmieColumnEncoder":
        """Restore a fitted TF-IDF selector dumped by :meth:`fit_state`."""
        self._column_encoder.load_fit_state(state)
        return self

    def corpus_contribution(self, table: Table) -> CorpusContribution:
        """The table's :class:`CorpusContribution` to the TF-IDF corpus."""
        return self._column_encoder.corpus_contribution(
            [(column, table.column_values(column)) for column in table.columns]
        )

    def encode_column(self, header: str, values: Sequence[Any]) -> np.ndarray:
        """Encode a column without table context (falls back to column-level)."""
        return self._column_encoder.encode_column(header, values)

    def encode_tables(self, tables: Sequence[Table]) -> np.ndarray:
        """Every column of ``tables``, each blended with its own table's context.

        One batch through the column encoder for all the tables, so their
        TF-IDF selection and base-encoder work is shared; each row depends
        only on its own column, so the blend of a table's row slice is the
        one a per-table call would make.
        """
        raw = self._column_encoder.encode_tables(tables)
        blended = np.empty_like(raw)
        start = 0
        for table in tables:
            stop = start + table.num_columns
            if stop == start:
                continue
            context = l2_normalize(np.mean(raw[start:stop], axis=0))
            for row in range(start, stop):
                blended[row] = l2_normalize(
                    (1.0 - self._table_context_weight) * raw[row]
                    + self._table_context_weight * context
                )
            start = stop
        return blended

    def encode_table_columns(self, table: Table) -> dict[str, np.ndarray]:
        """``{column: embedding}`` of ``table``, with its table context blended in."""
        return dict(zip(table.columns, self.encode_tables([table])))

    def encode_table(self, table: Table) -> np.ndarray:
        """Whole-table embedding: mean of its contextualised column embeddings."""
        columns = self.encode_table_columns(table)
        if not columns:
            return np.zeros(self.dimension, dtype=np.float64)
        return l2_normalize(np.mean(list(columns.values()), axis=0))
