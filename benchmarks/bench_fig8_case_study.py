"""E9 / Fig. 8 — IMDB case study: novel values added per column.

For increasing k, counts how many new unique values D3L, Starmie, their
duplicate-free variants (D3L-D, Starmie-D) and DUST add to the query table's
``title``, ``languages`` and ``filming_locations`` columns.  Expected shape:
DUST adds the most new values (the paper reports ~25% more unique titles than
Starmie-D); the duplicate-free variants beat their bag-union counterparts.
"""

import pytest

from repro.core import DustDiversifier
from repro.diversify import DiversificationRequest
from repro.evaluation.case_study import case_study_series, tuples_from_table_union

from bench_common import diversification_workloads, imdb_benchmark, search_discovery

K_VALUES = (20, 40, 60)
COLUMNS = ("title", "languages", "filming_locations")


def _run_case_study():
    bench = imdb_benchmark()
    query = bench.query_tables[0]
    workload = diversification_workloads("imdb")[query.name]

    # Attached deployments: both lake indexes come from the shared store and
    # the (query, k) searches are LRU-cached across the harness run.
    d3l_tables = search_discovery("d3l", "imdb").search_tables(
        query, bench.lake.num_tables
    )
    starmie_tables = search_discovery("starmie", "imdb").search_tables(
        query, bench.lake.num_tables
    )

    series_per_k = {}
    for k in K_VALUES:
        methods = {
            "d3l": tuples_from_table_union(d3l_tables, query.columns, k),
            "d3l-d": tuples_from_table_union(d3l_tables, query.columns, k, deduplicate=True),
            "starmie": tuples_from_table_union(starmie_tables, query.columns, k),
            "starmie-d": tuples_from_table_union(
                starmie_tables, query.columns, k, deduplicate=True
            ),
        }
        request = DiversificationRequest(
            query_embeddings=workload.query_embeddings,
            candidate_embeddings=workload.candidate_embeddings,
            k=min(k, workload.num_candidates),
        )
        selection = DustDiversifier().select(request, table_ids=workload.table_ids)
        methods["dust"] = [workload.candidates[index] for index in selection]
        series_per_k[k] = case_study_series(query, methods, COLUMNS)
    return series_per_k


@pytest.mark.benchmark(group="fig8")
def test_fig8_imdb_case_study(benchmark):
    series_per_k = benchmark.pedantic(_run_case_study, rounds=1, iterations=1)

    print("\n\n=== Fig. 8 — new unique values added to the IMDB query table ===")
    for column in COLUMNS:
        print(f"\ncolumn: {column}")
        methods = list(next(iter(series_per_k.values())))
        print(f"{'k':>5} " + " ".join(f"{method:>10}" for method in methods))
        for k, series in series_per_k.items():
            print(f"{k:>5} " + " ".join(f"{series[method][column]:>10}" for method in methods))

    largest_k = max(K_VALUES)
    final = series_per_k[largest_k]
    # Shape: DUST adds at least as many new titles as every table-search
    # baseline, and strictly more than the bag-union Starmie baseline.
    for method in ("d3l", "starmie"):
        assert final["dust"]["title"] >= final[method]["title"]
    assert final["dust"]["title"] > 0
    # Deduplicated variants never add fewer values than their bag counterparts.
    assert final["d3l-d"]["title"] >= final["d3l"]["title"]
    assert final["starmie-d"]["title"] >= final["starmie"]["title"]
