"""Tests for repro.datalake.profile."""

import pytest

from repro.datalake import Table, profile_column, profile_table


@pytest.fixture
def mixed_table() -> Table:
    return Table(
        name="mixed",
        columns=["city", "population", "mostly_null"],
        rows=[
            ("Boston", 650000, None),
            ("Boston", 650000, None),
            ("Chicago", 2700000, "x"),
            ("Fresno", None, None),
        ],
    )


class TestColumnProfile:
    def test_text_column(self, mixed_table):
        profile = profile_column(mixed_table, "city")
        assert profile.num_values == 4
        assert profile.num_nulls == 0
        assert profile.num_distinct == 3
        assert not profile.is_numeric
        assert profile.mean is None
        assert "boston" in profile.distinct_values
        assert "chicago" in profile.tokens

    def test_numeric_column(self, mixed_table):
        profile = profile_column(mixed_table, "population")
        assert profile.is_numeric
        assert profile.num_nulls == 1
        assert profile.minimum == 650000
        assert profile.maximum == 2700000
        assert profile.mean == pytest.approx((650000 * 2 + 2700000) / 3)

    def test_null_fraction_and_distinct_fraction(self, mixed_table):
        profile = profile_column(mixed_table, "mostly_null")
        assert profile.null_fraction == pytest.approx(0.75)
        assert profile.distinct_fraction == pytest.approx(1.0)

    def test_empty_column_fractions(self):
        table = Table(name="t", columns=["a"], rows=[])
        profile = profile_column(table, "a")
        assert profile.null_fraction == 0.0
        assert profile.distinct_fraction == 0.0


class TestTableProfile:
    def test_profile_table(self, mixed_table):
        profile = profile_table(mixed_table)
        assert profile.table_name == "mixed"
        assert profile.num_rows == 4
        assert profile.num_columns == 3
        assert profile.num_numeric_columns == 1
        assert len(profile.columns) == 3

