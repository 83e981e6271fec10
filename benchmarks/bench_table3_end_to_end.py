"""E8 / Table 3 — DUST against table union search techniques and an LLM.

Compares, per query, the diversity of the k tuples returned by:

* **Starmie** — the tuple-search adaptation of Sec. 6.5.1 (each lake tuple
  indexed as its own table, top-k most unionable tuples returned);
* **D3L** — top unionable tables, bag-unioned and truncated to k tuples;
* **LLM** — the simulated GPT-3 baseline generating k tuples (UGEN only, as the
  paper excludes it from SANTOS because of its token limit);
* **DUST** — the full diversification algorithm.

All outputs are embedded with the same DUST tuple model before scoring, as in
the paper ("for a fair comparison ... we embed the output tuples by each
baseline using DUST embeddings").
"""

import pytest

from repro.core import DustDiversifier
from repro.evaluation import count_wins, evaluate_diversifiers_on_benchmark
from repro.evaluation.case_study import tuples_from_table_union
from repro.evaluation.diversity import format_win_table
from repro.embeddings.serialization import serialize_aligned_tuple
from repro.llm import LLMTokenLimitError, SimulatedLLM

from bench_common import (
    SANTOS_K,
    UGEN_K,
    diversification_workloads,
    dust_tuple_model,
    santos_benchmark,
    search_discovery,
    ugen_benchmark,
)


def _nearest_candidate_indices(workload, tuples):
    """Map externally produced tuples onto workload candidate indices.

    The evaluation harness scores selections as candidate indices; baseline
    tuples are matched to the nearest candidate embedding (exact matches for
    tuples that literally come from the lake).
    """
    import numpy as np

    model = dust_tuple_model()
    columns = list(workload.query_table.columns)
    texts = [serialize_aligned_tuple(tuple_, columns) for tuple_ in tuples]
    embeddings = model.encode_many(texts)
    chosen: list[int] = []
    used: set[int] = set()
    similarity = embeddings @ workload.candidate_embeddings.T
    for row in similarity:
        order = np.argsort(-row)
        for index in order:
            if int(index) not in used:
                chosen.append(int(index))
                used.add(int(index))
                break
    return chosen


def _starmie_method(benchmark_obj):
    # Attached deployment: the Starmie lake index is restored from the shared
    # store instead of being rebuilt on every harness run.
    searcher = search_discovery("starmie", benchmark_obj.name).searcher()

    def method(workload, k):
        tuples = searcher.search_tuples(workload.query_table, k)
        return _nearest_candidate_indices(workload, tuples)[:k] or list(range(k))

    return method


def _d3l_method(benchmark_obj):
    discovery = search_discovery("d3l", benchmark_obj.name)

    def method(workload, k):
        tables = discovery.search_tables(workload.query_table, 5)
        tuples = tuples_from_table_union(tables, workload.query_table.columns, k)
        indices = _nearest_candidate_indices(workload, tuples)[:k]
        return indices if len(indices) == k else (indices + [i for i in range(len(workload.candidates)) if i not in indices])[:k]

    return method


def _llm_method():
    llm = SimulatedLLM(token_limit=4096, seed=11)

    def method(workload, k):
        try:
            tuples = llm.generate_tuples(workload.query_table, k)
        except LLMTokenLimitError:
            return list(range(k))
        return _nearest_candidate_indices(workload, tuples)[:k]

    return method


@pytest.mark.benchmark(group="table3")
@pytest.mark.parametrize(
    "benchmark_name,k,include_llm",
    [("santos", SANTOS_K, False), ("ugen-v1", UGEN_K, True)],
)
def test_table3_dust_vs_table_search(benchmark, benchmark_name, k, include_llm):
    bench_obj = santos_benchmark() if benchmark_name == "santos" else ugen_benchmark()
    workloads = diversification_workloads(benchmark_name)

    methods = {
        "starmie": _starmie_method(bench_obj),
        "d3l": _d3l_method(bench_obj),
        "dust": DustDiversifier(),
    }
    if include_llm:
        methods["llm"] = _llm_method()

    outcomes = benchmark.pedantic(
        lambda: evaluate_diversifiers_on_benchmark(workloads, methods, k=k),
        rounds=1,
        iterations=1,
    )
    summary = count_wins(outcomes)
    print(f"\n\n=== Table 3 — DUST vs table search techniques on {benchmark_name} (k={k}) ===")
    print(format_win_table(summary, benchmark=benchmark_name))

    # Paper shape: DUST achieves the best Average and Min Diversity for the
    # largest number of queries on both benchmarks.
    best_average = max(row["average_wins"] for row in summary.values())
    best_minimum = max(row["min_wins"] for row in summary.values())
    assert summary["dust"]["average_wins"] == best_average
    assert summary["dust"]["min_wins"] == best_minimum
