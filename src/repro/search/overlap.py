"""Value-overlap table union search (TUS-style, Nargesian et al. [37]).

A data lake table is unionable with the query table when its columns overlap
the query columns' value sets.  The table score is the average, over query
columns, of the best (estimated) Jaccard overlap any column of the candidate
table achieves against that query column — the "syntactic unionability"
signal of the original TUS system, accelerated with MinHash/LSH.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.api.registry import register_searcher
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.search.base import IndexState, TableUnionSearcher
from repro.search.minhash import _MAX_HASH, DEFAULT_MINHASH_SEED, MinHashLSHIndex, MinHashSignature
from repro.utils.errors import SearchError
from repro.utils.text import is_null, normalize_text


def column_token_set(table: Table, column: str) -> set[str]:
    """Normalised distinct values of a column, used as its overlap token set."""
    return {
        normalize_text(value)
        for value in table.column_values(column)
        if not is_null(value) and normalize_text(value)
    }


@register_searcher("overlap")
class ValueOverlapSearcher(TableUnionSearcher):
    """Ranks lake tables by average best per-query-column value overlap.

    Parameters
    ----------
    num_hashes, num_bands:
        MinHash/LSH configuration controlling the accuracy/speed trade-off of
        the Jaccard estimates.
    min_column_overlap:
        Column pairs with estimated overlap below this threshold do not count
        as unionable columns (mirrors the per-column statistical test of TUS).
    """

    def __init__(
        self,
        *,
        num_hashes: int = 64,
        num_bands: int = 16,
        min_column_overlap: float = 0.05,
    ) -> None:
        super().__init__()
        self.num_hashes = num_hashes
        self.num_bands = num_bands
        self.min_column_overlap = min_column_overlap
        self._index: MinHashLSHIndex | None = None
        self._columns_by_table: dict[str, list[str]] = {}
        #: (num_lake_columns, num_hashes) int64 stack of all lake signatures
        #: plus each table's row positions in it, built by _finalize_matrix.
        self._signature_matrix: np.ndarray | None = None
        self._table_rows: dict[str, np.ndarray] = {}

    def _finalize_matrix(self) -> None:
        """Stack every lake column signature into one matrix for fast scoring."""
        assert self._index is not None
        keys = self._index.keys()
        self._signature_matrix = np.array(
            [self._index.signature_of(key).values for key in keys], dtype=np.int64
        ).reshape(len(keys), self.num_hashes)
        key_to_row = {key: row for row, key in enumerate(keys)}
        self._table_rows = {
            table: np.array([key_to_row[key] for key in columns], dtype=np.intp)
            for table, columns in self._columns_by_table.items()
        }

    def _compute_query_state(self, query_table: Table) -> list[np.ndarray | None]:
        """Per query column: MinHash match counts against every lake column.

        These counts depend only on the query and the (fixed) lake matrix.
        Each entry is a ``(num_lake_columns,)`` int array — the estimated
        Jaccard to lake column ``j`` is ``matches[j] / num_hashes``, exactly
        the arithmetic of :meth:`MinHashSignature.jaccard`.  Empty query
        columns map to ``None``.
        """
        assert self._signature_matrix is not None
        matches: list[np.ndarray | None] = []
        for column in query_table.columns:
            tokens = column_token_set(query_table, column)
            if not tokens:
                matches.append(None)
                continue
            signature = np.array(
                self._index.hasher.signature(tokens).values, dtype=np.int64
            )
            matches.append((self._signature_matrix == signature).sum(axis=1))
        return matches

    # ------------------------------------------------------------------ index
    def _add_table_columns(self, table: Table) -> None:
        assert self._index is not None
        keys = []
        for column in table.columns:
            key = f"{table.name}\x1f{column}"
            self._index.add(key, column_token_set(table, column))
            keys.append(key)
        self._columns_by_table[table.name] = keys

    def _build_index(self, lake: DataLake) -> None:
        self._index = MinHashLSHIndex(self.num_hashes, self.num_bands)
        self._columns_by_table = {}
        for table in lake:
            self._add_table_columns(table)
        self._finalize_matrix()

    def _apply_index_delta(self, added: list[Table], removed: list[str]) -> None:
        """MinHash signatures are per column, so deltas are exact and local.

        Removed tables' column signatures leave the LSH index, added tables'
        are hashed in, and the stacked scoring matrix is restacked from the
        per-column signatures (cheap relative to hashing cell values).  Row
        order in the matrix differs from a fresh build, but scoring reduces
        each table's rows with ``max``, so rankings are order-independent.
        """
        assert self._index is not None
        for name in removed:
            for key in self._columns_by_table.pop(name, ()):
                if key in self._index:
                    self._index.remove(key)
        for table in added:
            self._add_table_columns(table)
        self._finalize_matrix()

    # ----------------------------------------------------- index serialization
    def config_state(self) -> dict:
        return {
            "num_hashes": self.num_hashes,
            "num_bands": self.num_bands,
            "min_column_overlap": self.min_column_overlap,
        }

    def _index_state(self) -> IndexState:
        assert self._index is not None  # guaranteed by TableUnionSearcher.index
        keys = self._index.keys()
        signatures = np.array(
            [self._index.signature_of(key).values for key in keys], dtype=np.int64
        ).reshape(len(keys), self.num_hashes)
        state = {
            "num_hashes": self.num_hashes,
            "num_bands": self.num_bands,
            "keys": keys,
            "columns_by_table": self._columns_by_table,
        }
        return state, {"signatures": signatures}

    def _load_index_state(
        self, lake: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> None:
        if (
            int(state["num_hashes"]) != self.num_hashes
            or int(state["num_bands"]) != self.num_bands
        ):
            raise SearchError(
                "persisted MinHash configuration "
                f"({state['num_hashes']}/{state['num_bands']} hashes/bands) does "
                f"not match this searcher ({self.num_hashes}/{self.num_bands})"
            )
        signatures = np.asarray(arrays["signatures"], dtype=np.int64)
        index = MinHashLSHIndex(self.num_hashes, self.num_bands)
        for key, row in zip(state["keys"], signatures):
            index.add_signature(
                key, MinHashSignature(values=tuple(int(value) for value in row))
            )
        self._index = index
        self._columns_by_table = {
            table: list(columns)
            for table, columns in state["columns_by_table"].items()
        }
        self._finalize_matrix()

    # ------------------------------------------------------- cascade prefilter
    def prefilter_minhash_signatures(
        self, num_hashes: int, seed: int
    ) -> dict[str, np.ndarray] | None:
        """Table-level signatures as elementwise minima of the column rows.

        MinHash of a union of token sets is the elementwise min of the sets'
        signatures, so the per-column rows already stacked in
        ``_signature_matrix`` reduce to exact table signatures without
        re-hashing a single cell value.  Only valid when the prefilter asks
        for the same hash family this index was built under
        (``_build_index`` uses the :class:`MinHashLSHIndex` default seed).
        """
        if (
            self._signature_matrix is None
            or num_hashes != self.num_hashes
            or seed != DEFAULT_MINHASH_SEED
        ):
            return None
        signatures: dict[str, np.ndarray] = {}
        for name, rows in self._table_rows.items():
            if rows.size == 0:  # a table of empty columns hashes to all-max
                signatures[name] = np.full(self.num_hashes, _MAX_HASH, dtype=np.int64)
            else:
                signatures[name] = self._signature_matrix[rows].min(axis=0)
        return signatures

    # ----------------------------------------------------------------- search
    def _score_table(self, query_table: Table, lake_table: Table) -> float:
        assert self._index is not None  # guaranteed by TableUnionSearcher.index
        rows = self._table_rows.get(lake_table.name)
        if rows is None or rows.size == 0 or query_table.num_columns == 0:
            return 0.0
        total = 0.0
        for matches in self._query_state(query_table):
            if matches is None:
                continue
            # int matches / num_hashes is exactly MinHashSignature.jaccard.
            best = matches[rows].max() / self.num_hashes
            if best >= self.min_column_overlap:
                total += best
        return total / query_table.num_columns
