"""The end-to-end DUST pipeline (paper Algorithm 1 and Fig. 3).

Given a query table, a data lake and a budget ``k``:

1. **SearchTables** — retrieve the unionable data lake tables with any
   :class:`~repro.search.base.TableUnionSearcher`.
2. **AlignColumns** — align the discovered tables' columns to the query
   columns with the holistic aligner and outer-union them into unionable
   tuples expressed over the query schema.
3. **EmbedTuples** — serialize and embed every query and data lake tuple with
   the (fine-tuned) tuple encoder.
4. **DiversifyTuples** — run DUST's diversification (Algorithm 2) and return
   the ``k`` diverse unionable tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.alignment.holistic import HolisticColumnAligner
from repro.alignment.types import ColumnAlignment
from repro.alignment.union import aligned_tuples_from_tables, query_tuples
from repro.core.config import PipelineConfig
from repro.core.diversifier import DustDiversifier
from repro.core.metrics import diversity_scores
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.diversify.base import DiversificationRequest
from repro.embeddings.base import ColumnEncoder, TupleEncoder
from repro.embeddings.serialization import AlignedTuple, serialize_aligned_tuple
from repro.search.base import SearchResult, TableUnionSearcher
from repro.utils.errors import ConfigurationError, DataLakeError
from repro.utils.timing import Timer
from repro.vectorops import DistanceContext


@dataclass
class DustResult:
    """Everything produced by one end-to-end DUST run."""

    query_table_name: str
    search_results: list[SearchResult] = field(default_factory=list)
    alignment: ColumnAlignment | None = None
    selected_tuples: list[AlignedTuple] = field(default_factory=list)
    selected_indices: list[int] = field(default_factory=list)
    selected_embeddings: np.ndarray | None = None
    query_embeddings: np.ndarray | None = None
    num_candidate_tuples: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    #: The per-run distance cache; kept so post-hoc analyses (``diversity()``,
    #: re-ranking sweeps) reuse the matrices computed during the run.
    distance_context: DistanceContext | None = field(default=None, repr=False)

    def as_table(self, query_table: Table, *, name: str | None = None) -> Table:
        """Materialise the selected tuples as a table over the query schema."""
        rows = [aligned.as_row(query_table.columns) for aligned in self.selected_tuples]
        return Table(
            name=name or f"{query_table.name}__dust_top_{len(rows)}",
            columns=list(query_table.columns),
            rows=rows,
        )

    def diversity(self, *, metric: str = "cosine") -> dict[str, float]:
        """Average / Min Diversity of the selected tuples against the query.

        Served through the run's :class:`~repro.vectorops.DistanceContext`:
        blocks the run materialised are reused, anything else is computed as
        a narrow block over just the selected rows.
        """
        if self.selected_embeddings is None or self.query_embeddings is None:
            raise ConfigurationError("diversity() called on an incomplete DustResult")
        return diversity_scores(
            self.query_embeddings,
            self.selected_embeddings,
            metric=metric,
            context=self.distance_context,
            selected_indices=self.selected_indices if self.selected_indices else None,
        )


class DustPipeline:
    """Wires search, alignment, embedding and diversification together."""

    def __init__(
        self,
        searcher: TableUnionSearcher,
        column_encoder: ColumnEncoder,
        tuple_encoder: TupleEncoder,
        *,
        config: PipelineConfig | None = None,
        diversifier: DustDiversifier | None = None,
    ) -> None:
        self.searcher = searcher
        self.column_encoder = column_encoder
        self.tuple_encoder = tuple_encoder
        self.config = config or PipelineConfig()
        self.diversifier = diversifier or DustDiversifier(self.config.dust)
        self.aligner = HolisticColumnAligner(column_encoder)

    # -------------------------------------------------------------------- run
    def index(self, lake: DataLake) -> "DustPipeline":
        """Index ``lake`` for searching (delegates to the searcher)."""
        self.searcher.index(lake)
        return self

    def run(
        self,
        query_table: Table,
        *,
        k: int | None = None,
        keep_distance_context: bool = True,
        search_results: Sequence[SearchResult] | None = None,
        search_seconds: float = 0.0,
    ) -> DustResult:
        """Run Algorithm 1 for ``query_table`` and return ``k`` diverse tuples.

        ``keep_distance_context`` controls whether the run's cached distance
        matrices (up to O(s²) floats) stay on the result for post-hoc
        analyses; :meth:`run_many` turns it off so multi-query workloads
        don't accumulate one square matrix per retained result
        (``DustResult.diversity()`` works either way).

        ``search_results`` supplies precomputed step-1 rankings (e.g. the
        :class:`~repro.api.facade.Discovery` facade's cached search); when
        given, the searcher is only used to resolve table names against the
        indexed lake, and
        ``search_seconds`` is the wall time the caller spent obtaining them —
        it is what ``timings["search"]`` (and so ``timings["total"]``)
        reports for step 1, cache hit or miss.
        """
        config = self.config
        k = k if k is not None else config.k
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        if query_table.num_rows < config.min_query_rows:
            raise DataLakeError(
                f"query table {query_table.name!r} has {query_table.num_rows} rows; "
                f"the pipeline requires at least {config.min_query_rows}"
            )

        result = DustResult(query_table_name=query_table.name)
        timer = Timer()

        # Step 1: table union search (Algorithm 1, line 3).
        with timer.measure():
            if search_results is not None:
                result.search_results = list(search_results)
            else:
                result.search_results = self.searcher.search(
                    query_table, config.num_search_tables
                )
        result.timings["search"] = timer.laps[-1] + search_seconds
        lake_tables = [
            self.searcher.lake.get(hit.table_name) for hit in result.search_results
        ]
        if not lake_tables:
            raise DataLakeError(
                f"search returned no unionable tables for query {query_table.name!r}"
            )

        # Step 2: column alignment + outer union (Algorithm 1, line 5).
        with timer.measure():
            result.alignment = self.aligner.align(query_table, lake_tables)
            candidates = aligned_tuples_from_tables(result.alignment, lake_tables)
        result.timings["alignment"] = timer.laps[-1]
        result.num_candidate_tuples = len(candidates)
        if not candidates:
            raise DataLakeError(
                f"no unionable tuples could be formed for query {query_table.name!r}; "
                "the discovered tables share no aligned columns with the query"
            )

        # Step 3: tuple embedding (Algorithm 1, line 7).
        with timer.measure():
            query_rows = query_tuples(query_table)
            query_texts = [
                serialize_aligned_tuple(row, query_table.columns) for row in query_rows
            ]
            candidate_texts = [
                serialize_aligned_tuple(row, query_table.columns) for row in candidates
            ]
            result.query_embeddings = self.tuple_encoder.encode_many(query_texts)
            candidate_embeddings = self.tuple_encoder.encode_many(candidate_texts)
        result.timings["embedding"] = timer.laps[-1]

        # Step 4: diversification (Algorithm 1, line 8 / Algorithm 2).  One
        # DistanceContext per run serves every stage of Algorithm 2 and stays
        # on the result for post-hoc metrics.
        with timer.measure():
            effective_k = min(k, len(candidates))
            result.distance_context = DistanceContext(
                result.query_embeddings,
                candidate_embeddings,
                metric=self.config.dust.metric,
            )
            request = DiversificationRequest(
                query_embeddings=result.query_embeddings,
                candidate_embeddings=candidate_embeddings,
                k=effective_k,
                metric=self.config.dust.metric,
                context=result.distance_context,
            )
            table_ids = [candidate.source_table for candidate in candidates]
            selected_indices = self.diversifier.select(request, table_ids=table_ids)
        result.timings["diversification"] = timer.laps[-1]

        result.selected_indices = [int(index) for index in selected_indices]
        result.selected_tuples = [candidates[index] for index in selected_indices]
        result.selected_embeddings = candidate_embeddings[
            np.asarray(selected_indices, dtype=int)
        ]
        result.timings["total"] = sum(result.timings.values())
        if not keep_distance_context:
            result.distance_context = None
        return result

    def run_many(
        self,
        query_tables: Sequence[Table],
        *,
        k: int | None = None,
    ) -> list[DustResult]:
        """Run Algorithm 1 for several query tables against one indexed lake.

        The searcher's lake-side index is built once (by :meth:`index`) and
        reused across queries; each query gets its own
        :class:`~repro.vectorops.DistanceContext` exactly as :meth:`run`
        creates it, so multi-query workloads pay the lake indexing cost once
        and the per-query distance cost once.  The per-query contexts are
        released after each run so retained results stay small.
        """
        if not self.searcher.is_indexed:
            raise ConfigurationError(
                "run_many() called before index(); call pipeline.index(lake) first"
            )
        return [
            self.run(query_table, k=k, keep_distance_context=False)
            for query_table in query_tables
        ]
