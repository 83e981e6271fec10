"""UGEN-V1 benchmark generator (Pal et al. [39]; paper Sec. 6.1.3).

UGEN-V1 is a small, LLM-generated benchmark: 50 query tables from distinct
topics, each with 10 unionable and 10 non-unionable lake tables on a related
topic, ~10 rows per table.  The generator reproduces this shape: unionable
tables derive from the query's topic base table, non-unionable ones come from
a *different* topic (paired deterministically), and all tables are small.
"""

from __future__ import annotations

from repro.api.registry import register_benchmark
from repro.benchgen.base_tables import derive_table, generate_base_table
from repro.benchgen.topics import default_topics
from repro.benchgen.types import Benchmark
from repro.datalake.lake import DataLake
from repro.utils.errors import BenchmarkError
from repro.utils.rng import derive_seed, seeded_rng


@register_benchmark("ugen")
def generate_ugen_benchmark(
    *,
    num_queries: int = 10,
    unionable_per_query: int = 10,
    non_unionable_per_query: int = 10,
    rows_per_table: int = 10,
    seed: int = 3,
) -> Benchmark:
    """Generate a UGEN-V1-style benchmark.

    Each query topic contributes ``unionable_per_query`` unionable lake tables
    (derived from the same topical base table) and ``non_unionable_per_query``
    distractor tables generated from the *next* topic in the catalogue, so the
    distractors are thematically plausible but non-unionable — the property
    that makes UGEN-V1 harder than value-overlap benchmarks.
    """
    topics = default_topics()
    if num_queries > len(topics):
        raise BenchmarkError(
            f"num_queries={num_queries} exceeds the {len(topics)} available topics"
        )
    rng = seeded_rng(derive_seed(seed, "ugen"))
    lake = DataLake(name="ugen-lake")
    query_tables = []
    ground_truth: dict[str, list[str]] = {}
    unionable_groups: dict[str, list[str]] = {}

    for index in range(num_queries):
        topic = topics[index]
        distractor_topic = topics[(index + 1) % len(topics)]
        base = generate_base_table(
            topic, num_rows=rows_per_table * 8, seed=derive_seed(seed, "ugen-base", index)
        )
        distractor_base = generate_base_table(
            distractor_topic,
            num_rows=rows_per_table * 8,
            seed=derive_seed(seed, "ugen-distractor", index),
        )

        query_name = f"ugen_{topic.name}_query"
        query = derive_table(
            base,
            name=query_name,
            rng=rng,
            min_rows=max(3, rows_per_table // 2),
            max_row_fraction=0.25,
            rename_probability=0.0,
        )
        query.metadata["kind"] = "query"
        query_tables.append(query)

        unionable_names = []
        for table_index in range(unionable_per_query):
            table_name = f"ugen_{topic.name}_unionable_{table_index}"
            lake.add_table(
                derive_table(
                    base,
                    name=table_name,
                    rng=rng,
                    min_rows=max(3, rows_per_table // 2),
                    max_row_fraction=0.25,
                )
            )
            unionable_names.append(table_name)

        for table_index in range(non_unionable_per_query):
            table_name = f"ugen_{topic.name}_distractor_{table_index}"
            lake.add_table(
                derive_table(
                    distractor_base,
                    name=table_name,
                    rng=rng,
                    min_rows=max(3, rows_per_table // 2),
                    max_row_fraction=0.25,
                )
            )

        ground_truth[query_name] = unionable_names
        unionable_groups[f"ugen_{topic.name}"] = [query_name, *unionable_names]

    return Benchmark(
        name="ugen-v1",
        lake=lake,
        query_tables=query_tables,
        ground_truth=ground_truth,
        unionable_groups=unionable_groups,
    )
