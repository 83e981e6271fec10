"""Ground-truth oracle search.

The paper's diversification experiments (Sec. 6.4) isolate the diversification
stage from search quality by starting from the benchmark's labelled unionable
tables.  :class:`OracleSearcher` plays that role: it returns exactly the
ground-truth unionable tables for a query, ranked by value overlap so the
"top-k" prefix is still meaningful.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

import numpy as np

from repro.api.registry import register_searcher
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.search.base import IndexState, TableUnionSearcher
from repro.search.overlap import column_token_set
from repro.utils.errors import SearchError


@register_searcher("oracle")
class OracleSearcher(TableUnionSearcher):
    """Returns the labelled unionable tables of each query from ground truth.

    Parameters
    ----------
    ground_truth:
        Mapping from query table name to the names of its unionable data lake
        tables (the benchmark generators produce this mapping).
    """

    def __init__(self, ground_truth: Mapping[str, Sequence[str]]) -> None:
        super().__init__()
        self._ground_truth = {
            query: list(tables) for query, tables in ground_truth.items()
        }

    def _build_index(self, lake: DataLake) -> None:
        """The oracle has no materialised index — scores read the live lake —
        so a build is just the ground-truth validation; the default
        delta-by-rebuild re-runs it, so removing a table the ground truth
        still references fails loudly instead of silently shortening results."""
        missing = {
            table_name
            for tables in self._ground_truth.values()
            for table_name in tables
            if table_name not in lake
        }
        if missing:
            raise SearchError(
                f"ground truth references tables absent from the lake: {sorted(missing)[:5]}"
            )

    # -------------------------------------------------------- sharded builds
    #: Restoring an oracle "index" re-validates the ground truth, which
    #: references tables across the whole lake — a per-shard store entry
    #: would fail that validation, so shard handling bypasses the store.
    SHARD_LOCAL_INDEX = False

    def build_partial(self, shard: DataLake) -> "IndexState":
        """Per-shard partials carry only the ground truth.

        Build-time validation must see the *whole* lake (labelled tables land
        in arbitrary shards), so partial builds skip it; it re-runs in
        :meth:`finalize_shard_group` — the oracle re-validation step of a
        sharded deployment.
        """
        if shard.num_tables == 0:
            raise SearchError("cannot build a partial index over an empty shard")
        self._lake = None
        self._indexed_table_fps = {}
        return self._index_state()

    def _load_partial_state(
        self, shard: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> None:
        self._ground_truth = {
            query: list(tables) for query, tables in state["ground_truth"].items()
        }

    def finalize_shard_group(
        self, lake: DataLake, shard_searchers: "Sequence[TableUnionSearcher]"
    ) -> None:
        """Re-validate the ground truth against the full (possibly mutated) lake."""
        self._build_index(lake)

    # ----------------------------------------------------- index serialization
    def config_state(self) -> dict:
        # The ground truth *is* the oracle's configuration: two oracles with
        # different labels must map to different persisted-index entries.
        digest = hashlib.sha256(
            json.dumps(self._ground_truth, sort_keys=True).encode()
        ).hexdigest()
        return {"ground_truth_digest": digest}

    def _index_state(self) -> IndexState:
        return {"ground_truth": self._ground_truth}, {}

    def _load_index_state(
        self, lake: DataLake, state: dict, arrays: Mapping[str, np.ndarray]
    ) -> None:
        self._ground_truth = {
            query: list(tables) for query, tables in state["ground_truth"].items()
        }
        self._build_index(lake)  # re-run the referenced-tables validation

    def unionable_tables(self, query_name: str) -> list[str]:
        """Ground-truth unionable table names for ``query_name`` (empty if unknown)."""
        return list(self._ground_truth.get(query_name, []))

    def _compute_query_state(self, query_table: Table) -> list[set[str]]:
        """The query columns' token sets."""
        return [column_token_set(query_table, column) for column in query_table.columns]

    def _score_table(self, query_table: Table, lake_table: Table) -> float:
        labelled = set(self._ground_truth.get(query_table.name, []))
        if lake_table.name not in labelled:
            return 0.0
        # Within the labelled set, rank by simple value overlap with the query
        # so that "top-k" remains a deterministic, meaningful prefix.
        overlap = 0.0
        for query_tokens in self._query_state(query_table):
            if not query_tokens:
                continue
            best = 0.0
            for lake_column in lake_table.columns:
                lake_tokens = column_token_set(lake_table, lake_column)
                union = query_tokens | lake_tokens
                if union:
                    best = max(best, len(query_tokens & lake_tokens) / len(union))
            overlap += best
        columns = max(query_table.num_columns, 1)
        return 1.0 + overlap / columns
