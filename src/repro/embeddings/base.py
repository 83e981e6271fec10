"""Abstract encoder interfaces shared by every embedding model in the library."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.datalake.table import Table


@dataclass(frozen=True)
class EncoderInfo:
    """Descriptive metadata about an encoder (used in experiment reports)."""

    name: str
    dimension: int
    family: str
    is_finetuned: bool = False


class TupleEncoder(abc.ABC):
    """Maps a serialized tuple (a string) to a fixed-dimension embedding."""

    @property
    @abc.abstractmethod
    def info(self) -> EncoderInfo:
        """Metadata describing this encoder."""

    @property
    def dimension(self) -> int:
        """Output embedding dimensionality."""
        return self.info.dimension

    @abc.abstractmethod
    def encode_text(self, text: str) -> np.ndarray:
        """Encode a single serialized tuple into a 1-D float vector."""

    def encode_many(self, texts: Sequence[str]) -> np.ndarray:
        """Encode a batch of serialized tuples into a ``(n, dim)`` matrix.

        This is the batch entry point the pipeline's embedding stage calls.
        The default loops over :meth:`encode_text`; encoders with a cheaper
        batch path (shared token matrices, one matmul for the whole batch)
        override it — row ``i`` must stay identical to
        ``encode_text(texts[i])``.
        """
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float64)
        return np.vstack([self.encode_text(text) for text in texts])

    def encode_lake_texts(self, texts: Sequence[str]) -> np.ndarray:
        """:meth:`encode_many` for texts the lake makes constant.

        The column encoders call this with column sentences and cells, which
        recur whenever a lake table is a search result again, unlike the
        serialised tuples of the embed stage.  Rows are those of
        :meth:`encode_many`; an encoder that memoises texts
        (:class:`~repro.embeddings.contextual.ContextualEncoder`) keeps these
        in a memo of their own.
        """
        return self.encode_many(texts)


class ColumnEncoder(abc.ABC):
    """Maps the values of one column to a fixed-dimension embedding."""

    @property
    @abc.abstractmethod
    def info(self) -> EncoderInfo:
        """Metadata describing this encoder."""

    @property
    def dimension(self) -> int:
        """Output embedding dimensionality."""
        return self.info.dimension

    @abc.abstractmethod
    def encode_column(self, header: str, values: Sequence[Any]) -> np.ndarray:
        """Encode a column given its header and cell values."""

    def encode_columns(self, columns: Sequence[tuple[str, Sequence[Any]]]) -> np.ndarray:
        """Encode ``(header, values)`` columns into a ``(n, dim)`` matrix.

        This is the batch entry point the column aligners call, once per
        request with every column of the query and of its result tables.
        The default loops over :meth:`encode_column`.  Encoders with a batch
        path override it: the column-level encoder hands every column
        sentence to one ``encode_lake_texts``, where a contextual base stacks the
        sentences' token rows into row blocks of one GEMM per layer (a
        one-token sentence runs alone, since a one-row product takes numpy's
        gemv path and rounds differently).  Row ``i`` must stay
        bit-identical to ``encode_column(*columns[i])``.
        """
        if not columns:
            return np.zeros((0, self.dimension), dtype=np.float64)
        return np.vstack([self.encode_column(header, values) for header, values in columns])

    def encode_tables(self, tables: Sequence[Table]) -> np.ndarray:
        """Encode every column of ``tables``, in table then column order.

        The aligners' entry point.  The default is one :meth:`encode_columns`
        call over all the columns; the Starmie encoder also blends each
        table's context into its own rows.
        """
        return self.encode_columns(
            [(column, table.column_values(column)) for table in tables for column in table.columns]
        )


def l2_normalize(vector: np.ndarray, *, epsilon: float = 1e-12) -> np.ndarray:
    """Return ``vector`` scaled to unit L2 norm (zero vectors stay zero)."""
    norm = float(np.linalg.norm(vector))
    if norm < epsilon:
        return np.zeros_like(vector)
    return vector / norm
