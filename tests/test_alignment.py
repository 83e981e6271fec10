"""Tests for column alignment (holistic, bipartite) and aligned tuples."""

import pytest

from repro.alignment import (
    BipartiteColumnAligner,
    ColumnAlignment,
    HolisticColumnAligner,
    aligned_tuples_from_tables,
)
from repro.alignment.types import AlignedCluster
from repro.alignment.union import query_tuples
from repro.datalake import Column, Table
from repro.embeddings import CellLevelColumnEncoder, FastTextLikeModel, StarmieColumnEncoder, RobertaLikeModel
from repro.utils.errors import AlignmentError


@pytest.fixture(scope="module")
def fig1_tables() -> tuple[Table, list[Table]]:
    """The query and data lake tables of the paper's Fig. 1 / Example 3."""
    query = Table(
        name="query",
        columns=["Park Name", "Supervisor", "City", "Country"],
        rows=[
            ("River Park", "Vera Onate", "Fresno", "USA"),
            ("West Lawn Park", "Paul Veliotis", "Chicago", "USA"),
            ("Hyde Park", "Jenny Rishi", "London", "UK"),
        ],
    )
    table_b = Table(
        name="table_b",
        columns=["Park Name", "Supervisor", "Country"],
        rows=[
            ("River Park", "Vera Onate", "USA"),
            ("West Lawn Park", "Paul Veliotis", "USA"),
            ("Hyde Park", "Jenny Rishi", "UK"),
        ],
    )
    table_d = Table(
        name="table_d",
        columns=["Park Name", "Park City", "Park Country", "Park Phone", "Supervised by"],
        rows=[
            ("Chippewa Park", "Brandon", "USA", "773 731-0380", "Tim Erickson"),
            ("Lawler Park", "Chicago", "USA", "773 284-7328", "Enrique Garcia"),
            ("Otter Park", "Portland", "USA", "503 555-0161", "Marco Rossi"),
        ],
    )
    return query, [table_b, table_d]


@pytest.fixture(scope="module")
def aligner() -> HolisticColumnAligner:
    return HolisticColumnAligner(CellLevelColumnEncoder(FastTextLikeModel()))


class TestHolisticAligner:
    def test_example3_alignment(self, fig1_tables, aligner):
        query, lake_tables = fig1_tables
        alignment = aligner.align(query, lake_tables)
        assert alignment.query_table_name == "query"
        assert alignment.query_columns() == query.columns

        mapping_b = alignment.mapping_for_table("table_b")
        assert mapping_b.get("Park Name") == "Park Name"
        assert mapping_b.get("Country") == "Country"

        mapping_d = alignment.mapping_for_table("table_d")
        assert mapping_d.get("Park Name") == "Park Name"
        assert mapping_d.get("Park Country") == "Country"
        # Park Phone has no counterpart in the query: it must not be aligned.
        assert "Park Phone" not in mapping_d

    def test_discarded_columns_reported(self, fig1_tables, aligner):
        query, lake_tables = fig1_tables
        alignment = aligner.align(query, lake_tables)
        aligned = {column.qualified_name for column in alignment.member_columns()}
        discarded = {column.qualified_name for column in alignment.discarded}
        assert aligned.isdisjoint(discarded)
        all_lake_columns = {
            f"{table.name}.{column}" for table in lake_tables for column in table.columns
        }
        assert aligned | discarded == all_lake_columns

    def test_no_same_table_columns_in_one_cluster(self, fig1_tables, aligner):
        query, lake_tables = fig1_tables
        alignment = aligner.align(query, lake_tables)
        for cluster in alignment.clusters:
            tables_seen = [member.table_name for member in cluster.members]
            assert len(tables_seen) == len(set(tables_seen))

    def test_empty_query_rejected(self, aligner):
        with pytest.raises(AlignmentError):
            aligner.align(Table(name="empty", columns=[], rows=[]), [])

    def test_invalid_candidate_fraction(self):
        with pytest.raises(AlignmentError):
            HolisticColumnAligner(
                CellLevelColumnEncoder(FastTextLikeModel()), candidate_fraction=0.0
            )


class TestBipartiteAligner:
    def test_match_pair_is_injective(self, fig1_tables):
        query, lake_tables = fig1_tables
        bipartite = BipartiteColumnAligner(CellLevelColumnEncoder(FastTextLikeModel()))
        mapping = bipartite.match_pair(query, lake_tables[1])
        # Bipartite matching: no two lake columns map to the same query column.
        assert len(set(mapping.values())) == len(mapping)

    def test_align_produces_clusters_per_query_column(self, fig1_tables):
        query, lake_tables = fig1_tables
        bipartite = BipartiteColumnAligner(CellLevelColumnEncoder(FastTextLikeModel()))
        alignment = bipartite.align(query, lake_tables)
        assert [cluster.query_column.name for cluster in alignment.clusters] == query.columns

    def test_starmie_encoder_variant_runs(self, fig1_tables):
        query, lake_tables = fig1_tables
        bipartite = BipartiteColumnAligner(StarmieColumnEncoder(RobertaLikeModel()))
        alignment = bipartite.align(query, lake_tables)
        assert len(alignment.clusters) == query.num_columns

    def test_invalid_similarity_threshold(self):
        with pytest.raises(AlignmentError):
            BipartiteColumnAligner(
                CellLevelColumnEncoder(FastTextLikeModel()), min_similarity=2.0
            )


class TestColumnAlignmentType:
    def test_aligned_pairs_includes_singletons(self):
        alignment = ColumnAlignment(
            query_table_name="q",
            clusters=[
                AlignedCluster(Column("q", "a", 0), (Column("t", "x", 0),)),
                AlignedCluster(Column("q", "b", 1), ()),
            ],
        )
        pairs = alignment.aligned_pairs()
        assert frozenset({"q.a", "t.x"}) in pairs
        assert frozenset({"q.b"}) in pairs

    def test_tables_covered(self):
        alignment = ColumnAlignment(
            query_table_name="q",
            clusters=[
                AlignedCluster(Column("q", "a", 0), (Column("t1", "x", 0), Column("t2", "y", 0))),
            ],
        )
        assert alignment.tables_covered() == ["t1", "t2"]


class TestOuterUnion:
    def test_aligned_tuples_from_tables(self, fig1_tables, aligner):
        query, lake_tables = fig1_tables
        alignment = aligner.align(query, lake_tables)
        tuples = aligned_tuples_from_tables(alignment, lake_tables)
        assert len(tuples) == sum(t.num_rows for t in lake_tables)
        assert all(set(t.values) <= set(query.columns) for t in tuples)

    def test_query_tuples_helper(self, fig1_tables):
        query, _ = fig1_tables
        tuples = query_tuples(query)
        assert len(tuples) == query.num_rows
        assert tuples[0].values["Park Name"] == "River Park"
