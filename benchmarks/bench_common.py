"""Shared fixtures and scale settings for the benchmark harness.

Every ``bench_*.py`` module in ``benchmarks/`` regenerates one table or figure
of the paper — the full experiment index lives in ``docs/benchmarks.md``
(engineering claims are measured by ``benchmarks/dustbench/``).  The synthetic
benchmarks are generated at reduced scale so the full harness runs on a
laptop in minutes; the scale constants below are the single place to raise if
you want paper-sized runs.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from repro.benchgen import (
    generate_finetuning_dataset,
    generate_imdb_case_study,
    generate_santos_benchmark,
    generate_tus_benchmark,
    generate_tus_sampled_benchmark,
    generate_ugen_benchmark,
)

#: Number of query tables evaluated per benchmark in the harness.
NUM_QUERIES = 4
#: Persistent index store shared by every harness run (survives reruns, so a
#: second `pytest benchmarks/` invocation skips all lake indexing).
INDEX_STORE_ROOT = Path(__file__).resolve().parent.parent / ".cache" / "index-store"
#: k used for SANTOS-style diversification experiments (paper: 100).
SANTOS_K = 30
#: k used for UGEN-style diversification experiments (paper: 30).
UGEN_K = 15
#: Maximum number of candidate unionable tuples per query (paper: 2 500).
MAX_CANDIDATES = 800


@lru_cache(maxsize=1)
def tus_benchmark():
    """TUS-style benchmark used for fine-tuning and Fig. 5."""
    return generate_tus_benchmark(
        num_base_tables=8, base_rows=80, lake_tables_per_base=8, num_queries=8, seed=0
    )


@lru_cache(maxsize=1)
def tus_sampled_benchmark():
    """TUS-Sampled-style benchmark (10 unionable tables per query)."""
    return generate_tus_sampled_benchmark(
        num_base_tables=6, base_rows=60, lake_tables_per_base=10, num_queries=NUM_QUERIES, seed=1
    )


@lru_cache(maxsize=1)
def santos_benchmark():
    """SANTOS-style benchmark (relationship-preserving derivations)."""
    return generate_santos_benchmark(
        num_base_tables=6, base_rows=100, lake_tables_per_base=8, num_queries=NUM_QUERIES, seed=2
    )


@lru_cache(maxsize=1)
def ugen_benchmark():
    """UGEN-V1-style benchmark (small tables, topical distractors)."""
    return generate_ugen_benchmark(num_queries=NUM_QUERIES, seed=3)


@lru_cache(maxsize=1)
def imdb_benchmark():
    """IMDB case-study lake (Sec. 6.6)."""
    return generate_imdb_case_study(
        num_movies=300, num_lake_tables=12, rows_per_table=80, query_rows=30, seed=4
    )


@lru_cache(maxsize=1)
def finetuning_dataset():
    """TUS fine-tuning pair dataset (Sec. 6.1.1)."""
    return generate_finetuning_dataset(tus_benchmark(), num_pairs=1500, seed=5)


@lru_cache(maxsize=1)
def dust_tuple_model():
    """A fine-tuned DUST (RoBERTa) tuple model shared across benches.

    The diversification and end-to-end experiments embed tuples with the
    fine-tuned model, as the paper does; training happens once per harness run.
    """
    from repro.models import FineTuneConfig, build_dust_model

    model, _ = build_dust_model(
        finetuning_dataset(),
        base="roberta",
        config=FineTuneConfig(max_epochs=20, patience=5, batch_size=32, hidden_dim=128),
    )
    return model


@lru_cache(maxsize=8)
def search_discovery(backend: str, benchmark_name: str):
    """An attached :class:`~repro.api.Discovery` serving one backend/lake.

    The backend is resolved by registry name and indexes are persisted under
    ``.cache/index-store`` keyed by backend configuration and lake content,
    so each lake is indexed at most once across *all* harness runs; repeated
    searches are LRU-cached.
    """
    from repro.api import Discovery

    benchmarks = {
        "santos": santos_benchmark,
        "ugen-v1": ugen_benchmark,
        "imdb": imdb_benchmark,
        "tus-sampled": tus_sampled_benchmark,
        "tus": tus_benchmark,
    }
    return Discovery.from_config(
        {
            "searcher": {"name": backend},
            "serving": {"store_dir": str(INDEX_STORE_ROOT)},
        }
    ).attach(benchmarks[benchmark_name]().lake)


@lru_cache(maxsize=4)
def diversification_workloads(benchmark_name: str):
    """Per-query diversification workloads for a named benchmark."""
    from repro.evaluation import prepare_query_workload

    benchmarks = {
        "santos": santos_benchmark,
        "ugen-v1": ugen_benchmark,
        "imdb": imdb_benchmark,
        "tus-sampled": tus_sampled_benchmark,
    }
    bench = benchmarks[benchmark_name]()
    model = dust_tuple_model()
    return {
        query.name: prepare_query_workload(
            bench, query, model, max_candidate_tuples=MAX_CANDIDATES
        )
        for query in bench.query_tables[:NUM_QUERIES]
    }
