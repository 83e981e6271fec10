"""Workload preparation shared by the diversification experiments.

The diversification experiments (Tables 2 and 3, Figs. 7/11/12 and the
appendix analyses) all need the same inputs per query: embeddings of the query
tuples and of the unionable data lake tuples, plus the source table of every
candidate.  :func:`prepare_query_workload` produces these either through the
full DUST alignment stack or — for experiments that deliberately isolate the
diversification stage — through the benchmark's generation provenance, which
gives an exact alignment at zero cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.alignment.holistic import HolisticColumnAligner
from repro.alignment.union import aligned_tuples_from_tables, query_tuples
from repro.benchgen.types import Benchmark
from repro.datalake.table import Table
from repro.embeddings.base import ColumnEncoder, TupleEncoder
from repro.embeddings.serialization import AlignedTuple, serialize_aligned_tuple
from repro.utils.errors import BenchmarkError
from repro.vectorops import DistanceContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.facade import Discovery


@dataclass
class QueryWorkload:
    """Everything a diversification algorithm needs for one query table."""

    query_table: Table
    query_embeddings: np.ndarray
    candidate_embeddings: np.ndarray
    candidates: list[AlignedTuple] = field(default_factory=list)
    table_ids: list[str] = field(default_factory=list)
    _context: DistanceContext | None = field(default=None, repr=False, compare=False)

    @property
    def num_candidates(self) -> int:
        """Number of unionable data lake tuples available to diversify."""
        return len(self.candidates)

    def distance_context(self) -> DistanceContext:
        """One shared distance cache for every method run on this workload."""
        if self._context is None:
            self._context = DistanceContext(
                self.query_embeddings, self.candidate_embeddings
            )
        return self._context


def _provenance_alignment(query_table: Table, lake_tables: Sequence[Table]) -> list[AlignedTuple]:
    """Align lake tuples to the query schema using generation provenance.

    Generated tables record which base column each of their columns derives
    from; two columns align exactly when they derive from the same base
    column.  This is the oracle alignment used when the experiment isolates
    the diversification stage from alignment quality.
    """
    query_provenance = query_table.metadata.get("column_provenance") or {
        column: column for column in query_table.columns
    }
    base_to_query = {base: column for column, base in query_provenance.items()}
    aligned: list[AlignedTuple] = []
    for table in lake_tables:
        provenance = table.metadata.get("column_provenance") or {
            column: column for column in table.columns
        }
        mapping = {
            column: base_to_query[base]
            for column, base in provenance.items()
            if base in base_to_query
        }
        if not mapping:
            continue
        for position, row in enumerate(table.rows):
            values = {
                mapping[column]: row[index]
                for index, column in enumerate(table.columns)
                if column in mapping
            }
            aligned.append(
                AlignedTuple(source_table=table.name, source_row=position, values=values)
            )
    return aligned


def prepare_query_workload(
    benchmark: Benchmark,
    query_table: Table,
    tuple_encoder: TupleEncoder,
    *,
    column_encoder: ColumnEncoder | None = None,
    use_provenance_alignment: bool = True,
    max_candidate_tuples: int | None = None,
    max_unionable_tables: int | None = None,
    discovery: "Discovery | None" = None,
    num_search_tables: int = 10,
) -> QueryWorkload:
    """Build the diversification workload of one query table.

    Parameters
    ----------
    use_provenance_alignment:
        ``True`` (default) aligns via generation provenance — the oracle
        setting of Sec. 6.4 that isolates diversification quality.  ``False``
        runs the holistic aligner with ``column_encoder`` instead, exercising
        the full pipeline.
    max_candidate_tuples:
        Optional cap on the number of unionable tuples (the ``s`` of the
        paper's experiments, at most 2 500 in Sec. 6.4.3); tuples are kept in
        table order.
    discovery:
        An attached :class:`~repro.api.facade.Discovery` facade.  When given,
        the unionable tables come from its configured backend's
        top-``num_search_tables`` rankings (cached when the config enables
        serving) instead of the benchmark's ground truth — the end-to-end
        setting of Sec. 6.5.
    """
    if discovery is not None:
        lake_tables = discovery.search_tables(query_table, num_search_tables)
    else:
        lake_tables = benchmark.unionable_tables(query_table.name)
    if max_unionable_tables is not None:
        lake_tables = lake_tables[:max_unionable_tables]
    if not lake_tables:
        raise BenchmarkError(
            f"query {query_table.name!r} has no unionable tables in benchmark "
            f"{benchmark.name!r}"
        )

    if use_provenance_alignment:
        candidates = _provenance_alignment(query_table, lake_tables)
    else:
        if column_encoder is None:
            raise BenchmarkError(
                "column_encoder is required when use_provenance_alignment is False"
            )
        alignment = HolisticColumnAligner(column_encoder).align(query_table, lake_tables)
        candidates = aligned_tuples_from_tables(alignment, lake_tables)

    if not candidates:
        raise BenchmarkError(
            f"no unionable tuples could be aligned for query {query_table.name!r}"
        )
    if max_candidate_tuples is not None:
        candidates = candidates[:max_candidate_tuples]

    column_order = list(query_table.columns)
    query_rows = query_tuples(query_table)
    query_texts = [serialize_aligned_tuple(row, column_order) for row in query_rows]
    candidate_texts = [serialize_aligned_tuple(row, column_order) for row in candidates]

    return QueryWorkload(
        query_table=query_table,
        query_embeddings=tuple_encoder.encode_many(query_texts),
        candidate_embeddings=tuple_encoder.encode_many(candidate_texts),
        candidates=candidates,
        table_ids=[candidate.source_table for candidate in candidates],
    )


def prepare_query_workloads(
    benchmark: Benchmark,
    query_tables: Sequence[Table],
    tuple_encoder: TupleEncoder,
    *,
    discovery: "Discovery | None" = None,
    num_search_tables: int = 10,
    **workload_kwargs,
) -> dict[str, QueryWorkload]:
    """Build the workloads of several query tables, name-keyed."""
    return {
        query.name: prepare_query_workload(
            benchmark,
            query,
            tuple_encoder,
            discovery=discovery,
            num_search_tables=num_search_tables,
            **workload_kwargs,
        )
        for query in query_tables
    }
