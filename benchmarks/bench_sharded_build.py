"""Partition-parallel index construction vs a monolithic serial build.

Before the sharding subsystem, indexing a lake was a single-threaded loop
over every table — the remaining scalability cliff for large lakes.  This
benchmark builds a :class:`~repro.search.sharded.ShardedSearcher` — the lake
partitioned into shards, the shard indexes built concurrently in forked
worker processes (one per core, up to the shard count — the searcher decides
by measurement, there is no knob) and kept separate for fan-out/merge serving
— and times that against the only option the seed had:
``searcher.index(lake)`` in one process.

Correctness comes first: for every backend the benchmark asserts that the
fan-out/merge serving path returns rankings — table names *and* scores —
bit-identical to the monolithic build, before any timing is reported.

The default run gates on a ≥2x aggregate build speedup.  That
floor only makes sense where the hardware can deliver it, so the gate first
*calibrates*: it measures the speedup forked workers achieve on a pure
CPU-bound busy loop — the ceiling any process-parallel build can reach on
this machine (container CPU quotas routinely make ``os.cpu_count()`` a lie)
— and scales the floor to 70% of that ceiling, capped at the 2x acceptance
criterion.  On a machine whose measured ceiling is below 1.5x, parallel
speedup is physically unavailable and the gate reports instead of failing.
``--smoke`` shrinks the lake and disables the gate for the CI bench-smoke
job, which must catch breakage, not timing noise.

Run directly::

    PYTHONPATH=src python benchmarks/bench_sharded_build.py
"""

from __future__ import annotations

import argparse
import os
import time

from repro.benchgen import generate_tus_benchmark
from repro.search import (
    D3LSearcher,
    OracleSearcher,
    SantosSearcher,
    ShardedSearcher,
    StarmieSearcher,
    ValueOverlapSearcher,
)
from repro.utils.parallel import forked_map

#: Top-k retrieved per query when asserting ranking parity.
K = 10
#: Shard plan of the acceptance scenario.
NUM_SHARDS = 8

BACKENDS = {
    "overlap": lambda benchmark: ValueOverlapSearcher(),
    "starmie": lambda benchmark: StarmieSearcher(),
    "d3l": lambda benchmark: D3LSearcher(),
    "santos": lambda benchmark: SantosSearcher(),
    "oracle": lambda benchmark: OracleSearcher(benchmark.ground_truth),
}


def rankings(searcher, queries):
    return [
        [(hit.table_name, hit.score) for hit in searcher.search(query, K)]
        for query in queries
    ]


def _busy(_: int) -> int:
    total = 0
    for value in range(2_000_000):
        total += value
    return total


def measured_parallel_ceiling(workers: int) -> float:
    """Speedup forked workers achieve on pure CPU work, on this machine.

    This is the ceiling any process-parallel build can reach here: it folds
    in real core count, container CPU quotas and fork/pool overhead.  A
    4-core machine typically measures ~3-3.8x; a quota-throttled container
    can measure ~1x even when ``os.cpu_count()`` claims more.
    """
    items = list(range(max(2 * workers, 4)))
    start = time.perf_counter()
    for item in items:
        _busy(item)
    serial = time.perf_counter() - start
    start = time.perf_counter()
    forked_map(_busy, items, workers=workers)
    forked = time.perf_counter() - start
    return serial / forked if forked > 0 else 1.0


def speedup_floor(ceiling: float) -> float | None:
    """The acceptance floor for this machine, or ``None`` when unmeasurable.

    70% of the measured parallel ceiling, capped at the 2x acceptance
    criterion (which a >=4-core machine's ~3x+ ceiling always activates).
    Below a 1.5x ceiling the hardware cannot express parallel speedup at
    all, so there is nothing to gate — the benchmark then only enforces
    parity and reports timings.
    """
    if ceiling < 1.5:
        return None
    return min(2.0, 0.7 * ceiling)


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
    parser.add_argument("--shards", type=int, default=NUM_SHARDS)
    args = parser.parse_args(argv)
    # The worker count ShardedSearcher itself settles on; the ceiling probe
    # below calibrates against exactly that.
    workers = min(os.cpu_count() or 1, args.shards)

    if args.smoke:
        benchmark = generate_tus_benchmark(
            num_base_tables=4, base_rows=30, lake_tables_per_base=4, num_queries=2, seed=7
        )
    else:
        benchmark = generate_tus_benchmark(
            num_base_tables=8, base_rows=90, lake_tables_per_base=9, num_queries=4, seed=7
        )
    lake = benchmark.lake
    queries = benchmark.query_tables
    print(
        f"sharded build, lake={lake.num_tables} tables / {lake.num_rows} rows, "
        f"shards={args.shards}, workers={workers}, "
        f"cores={os.cpu_count()}, {len(queries)} queries, k={K}"
    )
    header = f"{'backend':>8} {'monolithic (s)':>14} {'sharded (s)':>12} {'speedup':>8}"
    print(header)
    print("-" * len(header))

    monolithic_total = sharded_total = 0.0
    for backend in args.backends:
        factory = BACKENDS[backend]

        start = time.perf_counter()
        monolithic = factory(benchmark).index(lake)
        monolithic_time = time.perf_counter() - start

        start = time.perf_counter()
        fan_out = ShardedSearcher(
            lambda: factory(benchmark),
            num_shards=args.shards,
        ).index(lake)
        sharded_time = time.perf_counter() - start

        assert rankings(fan_out, queries) == rankings(monolithic, queries), (
            f"fan-out/merge serving diverged from the monolithic index for {backend}"
        )

        monolithic_total += monolithic_time
        sharded_total += sharded_time
        ratio = monolithic_time / sharded_time if sharded_time > 0 else float("inf")
        print(
            f"{backend:>8} {monolithic_time:>14.3f} {sharded_time:>12.3f} {ratio:>7.2f}x"
        )

    total_speedup = (
        monolithic_total / sharded_total if sharded_total > 0 else float("inf")
    )
    print("-" * len(header))
    print(
        f"{'total':>8} {monolithic_total:>14.3f} {sharded_total:>12.3f} "
        f"{total_speedup:>7.2f}x"
    )
    print("sharded fan-out rankings bit-identical to the monolithic index")
    if not args.smoke:
        ceiling = measured_parallel_ceiling(workers)
        floor = speedup_floor(ceiling)
        if floor is None:
            print(
                f"measured parallel ceiling {ceiling:.2f}x at {workers} workers: "
                "this machine cannot express parallel speedup (CPU quota); "
                "speedup gate skipped, parity enforced above"
            )
        elif total_speedup < floor:
            raise SystemExit(
                f"sharded build speedup {total_speedup:.2f}x is below the "
                f"{floor:.1f}x floor (70% of this machine's measured "
                f"{ceiling:.2f}x parallel ceiling)"
            )
        else:
            print(
                f"speedup {total_speedup:.2f}x >= {floor:.1f}x floor "
                f"(machine parallel ceiling {ceiling:.2f}x)"
            )


if __name__ == "__main__":
    main()
