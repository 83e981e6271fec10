"""Column and table profiling.

Profiles summarise the contents of a column (distinct values, null fraction,
numeric statistics, token sets) and are consumed by the D3L search signals,
the benchmark statistics experiment (Fig. 5) and the case-study evaluation
(Fig. 8, counting novel values added per column).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.datalake.table import Table
from repro.utils.text import is_null, normalize_text, to_float


@dataclass(frozen=True)
class ColumnProfile:
    """Summary statistics of one column."""

    table_name: str
    column_name: str
    num_values: int
    num_nulls: int
    num_distinct: int
    is_numeric: bool
    mean: float | None
    std: float | None
    minimum: float | None
    maximum: float | None
    distinct_values: frozenset[str] = field(default_factory=frozenset)
    tokens: frozenset[str] = field(default_factory=frozenset)

    @property
    def null_fraction(self) -> float:
        """Fraction of cells that are null."""
        if self.num_values == 0:
            return 0.0
        return self.num_nulls / self.num_values

    @property
    def distinct_fraction(self) -> float:
        """Fraction of non-null cells that are distinct (uniqueness)."""
        non_null = self.num_values - self.num_nulls
        if non_null == 0:
            return 0.0
        return self.num_distinct / non_null

    def to_state(self) -> dict[str, Any]:
        """JSON-serializable form (frozensets become sorted lists).

        Floats round-trip exactly through JSON (``repr`` based), so a profile
        restored with :meth:`from_state` compares equal to the original.
        """
        return {
            "table_name": self.table_name,
            "column_name": self.column_name,
            "num_values": self.num_values,
            "num_nulls": self.num_nulls,
            "num_distinct": self.num_distinct,
            "is_numeric": self.is_numeric,
            "mean": self.mean,
            "std": self.std,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "distinct_values": sorted(self.distinct_values),
            "tokens": sorted(self.tokens),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "ColumnProfile":
        """Rebuild a profile dumped by :meth:`to_state`."""
        return cls(
            table_name=state["table_name"],
            column_name=state["column_name"],
            num_values=int(state["num_values"]),
            num_nulls=int(state["num_nulls"]),
            num_distinct=int(state["num_distinct"]),
            is_numeric=bool(state["is_numeric"]),
            mean=state["mean"],
            std=state["std"],
            minimum=state["minimum"],
            maximum=state["maximum"],
            distinct_values=frozenset(state["distinct_values"]),
            tokens=frozenset(state["tokens"]),
        )


@dataclass(frozen=True)
class TableProfile:
    """Summary statistics of one table."""

    table_name: str
    num_rows: int
    num_columns: int
    num_numeric_columns: int
    columns: tuple[ColumnProfile, ...]


def profile_column(table: Table, column_name: str) -> ColumnProfile:
    """Profile one column of ``table``."""
    values = table.column_values(column_name)
    non_null = [value for value in values if not is_null(value)]
    normalized = [normalize_text(value) for value in non_null]
    distinct = frozenset(normalized)
    tokens = frozenset(token for text in normalized for token in text.split())

    numeric_values = [to_float(value) for value in non_null]
    numeric_values = [value for value in numeric_values if value is not None]
    is_numeric = bool(non_null) and len(numeric_values) / len(non_null) >= 0.8

    if numeric_values:
        array = np.asarray(numeric_values, dtype=float)
        mean: float | None = float(array.mean())
        std: float | None = float(array.std())
        minimum: float | None = float(array.min())
        maximum: float | None = float(array.max())
    else:
        mean = std = minimum = maximum = None

    return ColumnProfile(
        table_name=table.name,
        column_name=column_name,
        num_values=len(values),
        num_nulls=len(values) - len(non_null),
        num_distinct=len(distinct),
        is_numeric=is_numeric,
        mean=mean,
        std=std,
        minimum=minimum,
        maximum=maximum,
        distinct_values=distinct,
        tokens=tokens,
    )


def profile_table(table: Table) -> TableProfile:
    """Profile every column of ``table``."""
    columns = tuple(profile_column(table, name) for name in table.columns)
    return TableProfile(
        table_name=table.name,
        num_rows=table.num_rows,
        num_columns=table.num_columns,
        num_numeric_columns=sum(1 for profile in columns if profile.is_numeric),
        columns=columns,
    )
