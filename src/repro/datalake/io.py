"""CSV round-trip for tables and data lakes.

The original benchmarks are distributed as directories of CSV files.  These
helpers let users load their own lakes from disk and let the examples persist
generated benchmarks, without requiring pandas.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.datalake.lake import DataLake
from repro.datalake.table import Row, Table
from repro.utils.errors import DataLakeError
from repro.utils.text import is_null


def table_from_rows(
    name: str,
    rows: Sequence[Mapping[str, Any]],
    *,
    columns: Sequence[str] | None = None,
) -> Table:
    """Build a :class:`Table` from a list of ``{column: value}`` mappings.

    When ``columns`` is omitted, the union of keys across all rows is used
    (in first-seen order); missing keys become ``None``.
    """
    if columns is None:
        ordered: list[str] = []
        for row in rows:
            for key in row:
                if key not in ordered:
                    ordered.append(key)
        columns = ordered
    if not columns:
        raise DataLakeError(f"cannot build table {name!r} with no columns")
    data: list[Row] = [tuple(row.get(column) for column in columns) for row in rows]
    return Table(name=name, columns=list(columns), rows=data)


def table_to_payload(table: Table) -> dict[str, Any]:
    """JSON-serializable wire form of ``table``: name, columns, rows.

    ``metadata`` is deliberately excluded — no index reads it, and the wire
    protocol transports query *content*, which is exactly what
    :meth:`~repro.datalake.table.Table.content_fingerprint` covers.
    """
    return {
        "name": table.name,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }


def table_from_payload(payload: Mapping[str, Any]) -> Table:
    """Rebuild a :class:`Table` from :func:`table_to_payload` wire form."""
    if not isinstance(payload, Mapping):
        raise DataLakeError(f"table payload must be a mapping, got {payload!r}")
    missing = {"name", "columns", "rows"} - set(payload)
    if missing:
        raise DataLakeError(f"table payload is missing keys: {sorted(missing)}")
    columns, rows = payload["columns"], payload["rows"]
    if not isinstance(columns, (list, tuple)):
        raise DataLakeError(
            f"table payload 'columns' must be a list, got {type(columns).__name__}"
        )
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in rows
    ):
        raise DataLakeError("table payload 'rows' must be a list of row lists")
    return Table(
        name=str(payload["name"]),
        columns=[str(column) for column in columns],
        rows=[tuple(row) for row in rows],
    )


def read_csv(path: str | Path, *, name: str | None = None) -> Table:
    """Read a CSV file (header row required) into a :class:`Table`.

    Empty strings and common null markers are converted to ``None`` so that
    downstream null handling (outer union padding, all-null column removal)
    behaves the same for loaded and generated tables.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise DataLakeError(f"CSV file {path} is empty") from exc
        rows: list[Row] = []
        for raw in reader:
            padded = list(raw) + [None] * (len(header) - len(raw))
            rows.append(
                tuple(None if is_null(value) else value for value in padded[: len(header)])
            )
    return Table(name=name or path.stem, columns=header, rows=rows)


def write_csv(table: Table, path: str | Path) -> Path:
    """Write ``table`` to ``path`` as UTF-8 CSV and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow(["" if value is None else value for value in row])
    return path


def read_lake(directory: str | Path, *, name: str | None = None) -> DataLake:
    """Load every ``*.csv`` file under ``directory`` into a :class:`DataLake`."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataLakeError(f"{directory} is not a directory")
    tables = [read_csv(path) for path in sorted(directory.glob("*.csv"))]
    return DataLake(tables, name=name or directory.name)


def write_lake(lake: DataLake, directory: str | Path) -> Path:
    """Write every table of ``lake`` as ``<table name>.csv`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for table in lake:
        write_csv(table, directory / f"{table.name}.csv")
    return directory


def iter_csv_rows(path: str | Path) -> Iterable[dict[str, Any]]:
    """Stream rows of a CSV file as dictionaries without loading the table."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            yield {key: (None if is_null(value) else value) for key, value in row.items()}
