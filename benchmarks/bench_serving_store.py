"""Warm index store vs the seed per-run search path.

The seed code paid the full lake-indexing cost inside every process.
``repro.serving`` splits that into a build-once
:class:`~repro.serving.IndexStore` and a caching
:class:`~repro.serving.QueryService`.  This benchmark times the *second* run
of a multi-query workload — the steady state of repeated evaluation /
``run_many`` jobs — under both paths:

* **seed path**: fresh searcher, ``index(lake)`` in-process, serial
  ``search()`` per query (exactly what every run cost before this subsystem);
* **served path**: fresh service objects (simulating a new process), index
  restored from the store, queries answered by ``search_many``.

Rankings must be bit-identical between the two paths before any timing is
reported, and the default run gates on a ≥2x wall-clock speedup.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serving_store.py

``--smoke`` shrinks the lake and disables the speedup gate (used by the CI
bench-smoke job, which must catch breakage, not timing noise).
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time
from pathlib import Path

from repro.benchgen import generate_tus_benchmark, generate_ugen_benchmark
from repro.search import D3LSearcher, StarmieSearcher, ValueOverlapSearcher
from repro.serving import IndexStore, QueryService

#: Top-k retrieved per query (the pipeline default).
K = 10

BACKENDS = {
    "overlap": ValueOverlapSearcher,
    "starmie": StarmieSearcher,
    "d3l": D3LSearcher,
}


def seed_run(factory, lake, queries):
    """One full run as the seed code paid for it: in-process index + serial queries."""
    searcher = factory().index(lake)
    return [searcher.search(query, K) for query in queries]


def served_run(factory, lake, queries, store):
    """One full run through the serving layer with fresh objects (new process)."""
    service = QueryService(factory())
    service.warm(lake, store)
    return service.search_many(queries, K)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny lake, no speedup gate (CI bench-smoke mode)",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        choices=sorted(BACKENDS),
        default=sorted(BACKENDS),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        benchmark = generate_ugen_benchmark(
            num_queries=2,
            unionable_per_query=3,
            non_unionable_per_query=3,
            rows_per_table=6,
            seed=3,
        )
    else:
        # Row-heavy TUS-style lake: the regime the index store targets, where
        # per-run in-process indexing dominates a multi-query workload.
        benchmark = generate_tus_benchmark(
            num_base_tables=10,
            base_rows=150,
            lake_tables_per_base=12,
            num_queries=10,
            seed=3,
        )
    lake, queries = benchmark.lake, benchmark.query_tables
    print(
        f"multi-query serving, lake={lake.num_tables} tables / {lake.num_rows} rows, "
        f"{len(queries)} queries, k={K}"
    )
    header = (
        f"{'backend':>8} {'seed 2nd run (s)':>17} {'served 2nd run (s)':>19} "
        f"{'speedup':>8}"
    )
    print(header)
    print("-" * len(header))

    store_root = Path(tempfile.mkdtemp(prefix="repro-index-store-"))
    seed_total = served_total = 0.0
    try:
        for backend in args.backends:
            factory = BACKENDS[backend]
            store = IndexStore(store_root)

            seed_run(factory, lake, queries)  # first run (untimed warm-up)
            start = time.perf_counter()
            seed_results = seed_run(factory, lake, queries)
            seed_time = time.perf_counter() - start

            served_run(factory, lake, queries, store)  # first run builds + persists
            start = time.perf_counter()
            served_results = served_run(factory, lake, queries, store)
            served_time = time.perf_counter() - start

            assert served_results == seed_results, (
                f"served rankings diverged from direct search for {backend}"
            )
            seed_total += seed_time
            served_total += served_time
            speedup = seed_time / served_time if served_time > 0 else float("inf")
            print(
                f"{backend:>8} {seed_time:>17.3f} {served_time:>19.3f} "
                f"{speedup:>7.2f}x"
            )
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    total_speedup = seed_total / served_total if served_total > 0 else float("inf")
    print("-" * len(header))
    print(
        f"{'total':>8} {seed_total:>17.3f} {served_total:>19.3f} "
        f"{total_speedup:>7.2f}x"
    )
    print("served rankings bit-identical to direct in-process search")
    if not args.smoke and total_speedup < 2.0:
        raise SystemExit(
            f"multi-backend workload speedup {total_speedup:.2f}x is below the "
            "2x acceptance floor"
        )


if __name__ == "__main__":
    main()
