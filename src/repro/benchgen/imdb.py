"""IMDB case-study lake (paper Sec. 6.6).

The paper samples a ~500-movie, 13-column IMDB table into a query table and
20 unionable lake tables (avg. 97 tuples, 13 columns) to study how many *new*
values each method adds to the query's columns.  Without the IMDB dump, the
same structure is generated from a synthetic movie catalogue; the evaluation
code (counting novel values per column) is identical either way.
"""

from __future__ import annotations

from repro.api.registry import register_benchmark
from repro.benchgen.base_tables import generate_base_table
from repro.benchgen.topics import ColumnSpec, TopicSpec
from repro.benchgen.types import Benchmark
from repro.datalake.lake import DataLake
from repro.utils.errors import BenchmarkError
from repro.utils.rng import derive_seed, seeded_rng

#: The 13-column movie schema used for the case study.
_IMDB_TOPIC = TopicSpec(
    name="imdb_movies",
    columns=(
        ColumnSpec("title", "entity"),
        ColumnSpec("director", "person"),
        ColumnSpec("writer", "person"),
        ColumnSpec("lead_actor", "person"),
        ColumnSpec("genre", "category"),
        ColumnSpec("budget", "number", 100000, 250000000),
        ColumnSpec("gross", "number", 50000, 900000000),
        ColumnSpec("filming_locations", "city"),
        ColumnSpec("languages", "category"),
        ColumnSpec("country", "country"),
        ColumnSpec("release_year", "year", 1980, 2024),
        ColumnSpec("runtime_minutes", "number", 70, 220),
        ColumnSpec("rating", "number", 1, 10),
    ),
    stems=("Midnight", "Silent", "Falling", "Last", "Crimson", "Echo", "Broken",
           "Distant", "Paper", "Winter", "Neon", "Hollow", "Second", "Golden"),
    suffixes=("Horizon", "Promise", "Empire", "Voyage", "Legacy", "Station",
              "Letters", "Harbor", "Garden", "Protocol"),
    categories=("Drama", "Comedy", "Thriller", "Documentary", "Animation",
                "Action", "Romance", "English", "French", "Spanish", "Japanese",
                "Hindi", "Korean"),
    descriptors=("festival", "award", "sequel", "premiere", "cast", "remastered"),
)


@register_benchmark("imdb")
def generate_imdb_case_study(
    *,
    num_movies: int = 500,
    num_lake_tables: int = 20,
    rows_per_table: int = 97,
    query_rows: int = 40,
    seed: int = 4,
) -> Benchmark:
    """Generate the IMDB case-study benchmark.

    Every lake table is a random row sample of the full movie catalogue over
    the full 13-column schema (the case study "only aims to examine diversity
    and thus only contains unionable tables/tuples"), so all lake tables are
    in the query's ground-truth unionable set.
    """
    if rows_per_table > num_movies or query_rows > num_movies:
        raise BenchmarkError(
            "rows_per_table and query_rows must not exceed num_movies"
        )
    rng = seeded_rng(derive_seed(seed, "imdb"))
    catalogue = generate_base_table(
        _IMDB_TOPIC, num_rows=num_movies, seed=seed, name="imdb_catalogue",
        null_fraction=0.0,
    )

    query_positions = sorted(
        int(i) for i in rng.choice(num_movies, size=query_rows, replace=False)
    )
    query = catalogue.select_rows(query_positions, name="imdb_query")
    query.metadata = {"topic": _IMDB_TOPIC.name, "kind": "query"}

    lake = DataLake(name="imdb-lake")
    lake_names = []
    for index in range(num_lake_tables):
        positions = sorted(
            int(i) for i in rng.choice(num_movies, size=rows_per_table, replace=False)
        )
        table = catalogue.select_rows(positions, name=f"imdb_lake_{index}")
        table.metadata = {"topic": _IMDB_TOPIC.name, "kind": "derived", "base_table": "imdb_catalogue"}
        lake.add_table(table)
        lake_names.append(table.name)

    return Benchmark(
        name="imdb-case-study",
        lake=lake,
        query_tables=[query],
        ground_truth={query.name: lake_names},
        unionable_groups={"imdb_movies": [query.name, *lake_names]},
    )
