"""TUS benchmark generator (Nargesian et al. [37]; paper Sec. 6.1.1).

The original TUS benchmark derives 5 044 lake tables from 32 non-unionable
base tables by selecting and projecting rows/columns; tables derived from the
same base table are unionable, others are not.  The generator below follows
the same procedure over synthetic topical base tables.  Default scales are
reduced so experiments run on a laptop; pass larger numbers to approach the
original sizes.
"""

from __future__ import annotations

from repro.api.registry import register_benchmark
from repro.benchgen.base_tables import derive_table, generate_base_table
from repro.benchgen.topics import TopicSpec, default_topics
from repro.benchgen.types import Benchmark
from repro.datalake.lake import DataLake
from repro.utils.errors import BenchmarkError
from repro.utils.rng import derive_seed, seeded_rng


def _build_derivation_benchmark(
    *,
    name: str,
    topics: list[TopicSpec],
    num_base_tables: int,
    base_rows: int,
    lake_tables_per_base: int,
    queries_per_base: int,
    seed: int,
    required_columns: str = "none",
    min_rows: int = 3,
    max_row_fraction: float = 0.6,
) -> Benchmark:
    """Shared derivation logic for the TUS and SANTOS style benchmarks."""
    if num_base_tables < 2:
        raise BenchmarkError("need at least two base tables (non-unionable groups)")
    if num_base_tables > len(topics):
        raise BenchmarkError(
            f"requested {num_base_tables} base tables but only {len(topics)} topics exist"
        )
    rng = seeded_rng(derive_seed(seed, name, "derivations"))
    lake = DataLake(name=f"{name}-lake")
    query_tables = []
    ground_truth: dict[str, list[str]] = {}
    unionable_groups: dict[str, list[str]] = {}

    for topic in topics[:num_base_tables]:
        base = generate_base_table(topic, num_rows=base_rows, seed=seed)
        if required_columns == "relationship":
            required = topic.relationship_columns
        else:
            required = ()

        group_members: list[str] = []
        lake_names: list[str] = []
        for index in range(lake_tables_per_base):
            table_name = f"{name}_{topic.name}_lake_{index}"
            derived = derive_table(
                base,
                name=table_name,
                rng=rng,
                required_columns=required,
                min_rows=min_rows,
                max_row_fraction=max_row_fraction,
            )
            lake.add_table(derived)
            lake_names.append(table_name)
            group_members.append(table_name)

        for index in range(queries_per_base):
            query_name = f"{name}_{topic.name}_query_{index}"
            query = derive_table(
                base,
                name=query_name,
                rng=rng,
                required_columns=required,
                min_rows=max(min_rows, 3),
                max_row_fraction=max_row_fraction,
                rename_probability=0.0,
            )
            query.metadata["kind"] = "query"
            query_tables.append(query)
            ground_truth[query_name] = list(lake_names)
            group_members.append(query_name)

        unionable_groups[topic.name] = group_members

    return Benchmark(
        name=name,
        lake=lake,
        query_tables=query_tables,
        ground_truth=ground_truth,
        unionable_groups=unionable_groups,
    )


@register_benchmark("tus")
def generate_tus_benchmark(
    *,
    num_base_tables: int = 12,
    base_rows: int = 120,
    lake_tables_per_base: int = 12,
    num_queries: int = 12,
    seed: int = 0,
) -> Benchmark:
    """Generate a TUS-style benchmark.

    ``num_queries`` query tables are spread round-robin over the base tables
    (one query per base table until the budget runs out).
    """
    topics = default_topics()
    queries_per_base = max(1, num_queries // num_base_tables)
    benchmark = _build_derivation_benchmark(
        name="tus",
        topics=topics,
        num_base_tables=num_base_tables,
        base_rows=base_rows,
        lake_tables_per_base=lake_tables_per_base,
        queries_per_base=queries_per_base,
        seed=seed,
    )
    benchmark.query_tables = benchmark.query_tables[:num_queries]
    kept = {table.name for table in benchmark.query_tables}
    benchmark.ground_truth = {
        query: tables for query, tables in benchmark.ground_truth.items() if query in kept
    }
    return benchmark


@register_benchmark("tus-sampled")
def generate_tus_sampled_benchmark(
    *,
    num_base_tables: int = 8,
    base_rows: int = 80,
    lake_tables_per_base: int = 10,
    num_queries: int = 8,
    seed: int = 1,
) -> Benchmark:
    """Generate the smaller TUS-Sampled variant (10 unionable tables per query)."""
    benchmark = generate_tus_benchmark(
        num_base_tables=num_base_tables,
        base_rows=base_rows,
        lake_tables_per_base=lake_tables_per_base,
        num_queries=num_queries,
        seed=seed,
    )
    benchmark.name = "tus-sampled"
    benchmark.lake.name = "tus-sampled-lake"
    return benchmark
