"""Tests for repro.datalake.lake and repro.datalake.io."""

import pytest

from repro.datalake import DataLake, Table, read_csv, table_from_rows, write_csv
from repro.datalake.io import iter_csv_rows, read_lake, write_lake
from repro.utils.errors import DataLakeError


@pytest.fixture
def small_lake() -> DataLake:
    return DataLake(
        [
            Table(name="a", columns=["x"], rows=[(1,), (2,)]),
            Table(name="b", columns=["x", "y"], rows=[(1, 2)]),
        ],
        name="small",
    )


class TestDataLake:
    def test_counts(self, small_lake):
        assert small_lake.num_tables == 2
        assert small_lake.num_columns == 3
        assert small_lake.num_rows == 3
        assert len(small_lake) == 2

    def test_membership_and_get(self, small_lake):
        assert "a" in small_lake
        assert small_lake.get("a").num_rows == 2
        with pytest.raises(DataLakeError):
            small_lake.get("missing")

    def test_duplicate_names_rejected(self, small_lake):
        with pytest.raises(DataLakeError, match="already contains"):
            small_lake.add_table(Table(name="a", columns=["z"], rows=[]))

    def test_remove(self, small_lake):
        removed = small_lake.remove_table("a")
        assert removed.name == "a"
        assert "a" not in small_lake
        with pytest.raises(DataLakeError):
            small_lake.remove_table("a")

    def test_filter(self, small_lake):
        filtered = small_lake.filter(lambda table: table.num_columns > 1)
        assert filtered.table_names() == ["b"]

    def test_preprocess_drops_small_tables_and_null_columns(self):
        lake = DataLake(
            [
                Table(name="tiny", columns=["x"], rows=[(1,)]),
                Table(
                    name="ok",
                    columns=["x", "empty"],
                    rows=[(1, None), (2, None), (3, None)],
                ),
            ]
        )
        cleaned = lake.preprocess(min_rows=3)
        assert cleaned.table_names() == ["ok"]
        assert cleaned.get("ok").columns == ["x"]

    def test_iteration_order(self, small_lake):
        assert [table.name for table in small_lake] == ["a", "b"]


class TestCsvIO:
    def test_table_from_rows_infers_columns(self):
        table = table_from_rows(
            "t", [{"a": 1, "b": 2}, {"b": 3, "c": 4}]
        )
        assert table.columns == ["a", "b", "c"]
        assert table.rows[1] == (None, 3, 4)

    def test_table_from_rows_requires_columns(self):
        with pytest.raises(DataLakeError):
            table_from_rows("t", [])

    def test_csv_round_trip(self, tmp_path):
        table = Table(
            name="parks",
            columns=["Park Name", "Country"],
            rows=[("River Park", "USA"), ("Hyde Park", None)],
        )
        path = write_csv(table, tmp_path / "parks.csv")
        loaded = read_csv(path)
        assert loaded.name == "parks"
        assert loaded.columns == table.columns
        assert loaded.rows[0] == ("River Park", "USA")
        assert loaded.rows[1][1] is None  # empty cell round-trips as null

    def test_read_csv_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataLakeError, match="empty"):
            read_csv(path)

    def test_lake_round_trip(self, tmp_path, small_lake):
        directory = write_lake(small_lake, tmp_path / "lake")
        loaded = read_lake(directory)
        assert sorted(loaded.table_names()) == ["a", "b"]
        assert loaded.get("b").columns == ["x", "y"]

    def test_read_lake_requires_directory(self, tmp_path):
        with pytest.raises(DataLakeError):
            read_lake(tmp_path / "does-not-exist")

    def test_iter_csv_rows(self, tmp_path):
        table = Table(name="t", columns=["a", "b"], rows=[(1, ""), (2, "x")])
        path = write_csv(table, tmp_path / "t.csv")
        rows = list(iter_csv_rows(path))
        assert rows[0] == {"a": "1", "b": None}
        assert rows[1]["b"] == "x"
