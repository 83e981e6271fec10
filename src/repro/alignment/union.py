"""Outer union of aligned tables into unionable tuples.

After column alignment, DUST outer-unions the discovered tables with the
query table's schema (Sec. 3.3): every data lake tuple is re-expressed over
the query columns, padding columns its table does not cover with nulls, and
data lake columns that aligned with no query column are dropped.
"""

from __future__ import annotations

from typing import Sequence

from repro.alignment.types import ColumnAlignment
from repro.datalake.table import Table
from repro.embeddings.serialization import AlignedTuple


def aligned_tuples_from_tables(
    alignment: ColumnAlignment,
    lake_tables: Sequence[Table],
    *,
    include_unaligned_tables: bool = False,
) -> list[AlignedTuple]:
    """Convert the rows of ``lake_tables`` into :class:`AlignedTuple` objects.

    Parameters
    ----------
    alignment:
        The column alignment anchored on the query table.
    lake_tables:
        The unionable tables returned by table union search.
    include_unaligned_tables:
        When false (default) tables none of whose columns aligned with any
        query column contribute no tuples; when true their rows are emitted
        with all-null values (useful for debugging recall issues).
    """
    tuples: list[AlignedTuple] = []
    for table in lake_tables:
        mapping = alignment.mapping_for_table(table.name)
        if not mapping and not include_unaligned_tables:
            continue
        for position, row in enumerate(table.rows):
            values = {
                mapping[column]: row[index]
                for index, column in enumerate(table.columns)
                if column in mapping
            }
            tuples.append(
                AlignedTuple(source_table=table.name, source_row=position, values=values)
            )
    return tuples


def query_tuples(query_table: Table) -> list[AlignedTuple]:
    """Express the query table's own rows as :class:`AlignedTuple` objects."""
    return [
        AlignedTuple(
            source_table=query_table.name,
            source_row=position,
            values=dict(zip(query_table.columns, row)),
        )
        for position, row in enumerate(query_table.rows)
    ]
