"""``search-large``: step-1 search only, through the full wrapper stack.

In-process, closed loop, one client: ``Discovery.search`` (k = 10) over a
384-table ``tus`` lake behind ``serving`` cache -> ``cascade`` (approx, budget
48) -> ``sharding`` (4 shards) -> backend, with never-repeated queries
round-robin over ``overlap`` / ``d3l`` / ``santos``.  ``search`` does all the
work and alignment / embeddings / Algorithm 2 none, so a pipeline-stage
optimisation predicts *no change* here and a wrapper-stack refactor must hold
this line.  Set-up is index build + persist for the three backends.

Correctness: every ranking is well formed; recall@10 of the approximate stack
against the flat exact backend stays above :data:`RECALL_FLOOR`; and (traced
run) the same stack in ``exact`` mode ranks bit-identically to the flat
backend.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median
from typing import Any

from repro.api.facade import Discovery
from repro.api.registry import SEARCHERS
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.ingest.rebalance import find_sharded
from repro.search.base import SearchResult
from repro.serving.store import IndexStore

import inputs
from harness import TRACED_LOAD_SHARE, Outcome, Tracer, cache_hit_rate, peak_rss_mb

K = 10
BACKENDS = ("overlap", "d3l", "santos")
NUM_SHARDS = 4
CANDIDATE_BUDGET = 48
#: Mean recall@10 (approx stack vs flat exact) below this is a wrong output.
RECALL_FLOOR = 0.5
#: Rounds (one query per backend) in one block of the throughput median.
THROUGHPUT_ROUNDS = 10


def stack_config(store_dir: Path | None, mode: str) -> dict[str, Any]:
    serving: dict[str, Any] = {} if store_dir is None else {"store_dir": str(store_dir)}
    return {
        "serving": serving,
        "cascade": {"mode": mode, "candidate_budget": CANDIDATE_BUDGET},
        "sharding": {"num_shards": NUM_SHARDS},
    }


def build_stack(
    lake: DataLake, store_dir: Path | None, mode: str = "approx"
) -> tuple[Discovery, dict[str, float]]:
    """Attach and build all three backends; returns per-backend build seconds."""
    seconds: dict[str, float] = {}
    begin = time.perf_counter()
    discovery = Discovery.from_config(stack_config(store_dir, mode)).attach(lake)
    seconds[BACKENDS[0]] = time.perf_counter() - begin
    for backend in BACKENDS[1:]:
        begin = time.perf_counter()
        discovery.searcher(backend)
        seconds[backend] = time.perf_counter() - begin
    return discovery, seconds


def ranking(hits: list[SearchResult]) -> list[tuple[str, float]]:
    return [(hit.table_name, hit.score) for hit in hits]


def malformed(hits: list[SearchResult], lake: DataLake) -> str | None:
    names = [hit.table_name for hit in hits]
    if len(names) != K or len(set(names)) != K:
        return f"{len(names)} hits ({len(set(names))} unique), expected {K}"
    if any(name not in lake for name in names):
        return "ranked a table that is not in the lake"
    scores = [hit.score for hit in hits]
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        return "scores are not non-increasing"
    return None


def run(
    seed: int,
    seconds: float,
    trace: bool,
    scale: inputs.Scale,
    workdir: Path,
    tracer: Tracer,
) -> Outcome:
    outcome = Outcome()
    values = outcome.values

    # Set-up: lake generation + build-and-persist of three sharded cascade
    # indexes into a fresh store.  One pass: a 3-4 s build is thousands of
    # per-table index operations (quartile spread over ten seeds: 5 %), and a
    # second pass would cost a fifth of the run's time budget.
    begin = time.perf_counter()
    lake = inputs.large_lake(seed, scale)
    values["datalake.generate_s"] = time.perf_counter() - begin
    store_dir = workdir / "store"
    discovery, build_seconds = build_stack(lake, store_dir)
    values["setup_s"] = time.perf_counter() - begin
    for backend, spent in build_seconds.items():
        values[f"search.build_s.{backend}"] = spent
    store = discovery.store
    assert store is not None
    values["serving.store.payload_bytes"] = store.stats()["payload_bytes"]

    # Warm-up to the steady state.  A backend's query-side token-vector cache
    # starts cold even in the process that built the index, and fills as
    # queries bring the lake's vocabulary in: the first fifty d3l / santos
    # queries cost 2-3x the steady figure and the cost is still falling at a
    # hundred.  Measured from cold, a run that is a little slower also gets
    # less far down that ramp, which doubles the difference; so the ramp is
    # walked before the clock starts.
    stream = inputs.distinct_queries(lake, seed, "search-queries")
    for _ in range(scale.search_warmup_rounds):
        for backend in BACKENDS:
            discovery.search(next(stream), K, backend=backend)

    # Measured loop, in whole rounds of one query per backend so every run
    # times the same mix.  The traced run records one span per call — the
    # same clock reads the untraced loop makes, plus the span bookkeeping.
    ops: list[tuple[str, Table, list[SearchResult], float]] = []
    ends: list[float] = []
    load_seconds = seconds * TRACED_LOAD_SHARE if trace else seconds
    started = time.perf_counter()
    deadline = started + load_seconds
    while time.perf_counter() < deadline or len(ops) % len(BACKENDS):
        backend = BACKENDS[len(ops) % len(BACKENDS)]
        query = next(stream)
        if trace:
            with tracer.request(f"{len(ops)}"), tracer.span(f"search.stack.{backend}") as span:
                hits = discovery.search(query, K, backend=backend)
            ends.append(span["end"])
            spent = span["end"] - span["start"]
        else:
            begin = time.perf_counter()
            hits = discovery.search(query, K, backend=backend)
            ends.append(time.perf_counter())
            spent = ends[-1] - begin
        ops.append((backend, query, hits, spent))
    values["peak_rss_mb"] = peak_rss_mb()

    outcome.attempted = len(ops)
    outcome.record_latencies(
        [spent for _, _, _, spent in ops],
        ends,
        started,
        block=THROUGHPUT_ROUNDS * len(BACKENDS),
        classes=[backend for backend, _, _, _ in ops],
    )
    values["serving.service.cache_hit_rate"] = cache_hit_rate(discovery.service_stats())
    values["harness.client_threads"] = 1
    for backend in BACKENDS:
        own = [spent for name, _, _, spent in ops if name == backend]
        if own:
            values[f"search.stack_query_ms.{backend}"] = median(own) * 1000.0

    # ------------------------------------------------------------ correctness
    for position, (backend, _, hits, _) in enumerate(ops):
        problem = malformed(hits, lake)
        if problem is not None:
            outcome.fail(f"search #{position} ({backend}): {problem}")

    checked = scale.replay_requests if trace else scale.parity_sample * len(BACKENDS)
    sample = ops[:checked]
    flat = {}
    for backend in BACKENDS:
        with tracer.span(f"search.flat_build.{backend}"):
            flat[backend] = SEARCHERS.create(backend).index(lake)
    recalls: dict[str, list[float]] = {backend: [] for backend in BACKENDS}
    flat_rankings: list[list[tuple[str, float]]] = []
    flat_seconds: dict[str, list[float]] = {backend: [] for backend in BACKENDS}
    for backend, query, hits, _ in sample:
        begin = time.perf_counter()
        exact = flat[backend].search(query, K)
        flat_seconds[backend].append(time.perf_counter() - begin)
        flat_rankings.append(ranking(exact))
        truth = {hit.table_name for hit in exact}
        recalls[backend].append(len(truth & {hit.table_name for hit in hits}) / K)
    per_backend = [sum(r) / len(r) for r in recalls.values() if r]
    values["recall_at_10"] = sum(per_backend) / len(per_backend)
    outcome.counts["recall_n"] = len(sample)
    if values["recall_at_10"] < RECALL_FLOOR:
        outcome.fail(
            f"recall@{K} of the approximate stack fell to "
            f"{values['recall_at_10']:.3f} (< {RECALL_FLOOR})"
        )
    discovery.close()
    if not trace:
        return outcome

    # ------------------------------------------------------------ per layer
    for backend in BACKENDS:
        if flat_seconds[backend]:
            values[f"search.flat_query_ms.{backend}"] = median(flat_seconds[backend]) * 1000.0
    values["search.stack_over_flat_ratio"] = sum(spent for _, _, _, spent in sample) / sum(
        sum(spent) for spent in flat_seconds.values()
    )

    # The same stack in exact mode must rank bit-identically to flat search.
    exact_stack, _ = build_stack(lake, None, mode="exact")
    with exact_stack:
        for position, (backend, query, _, _) in enumerate(sample):
            if ranking(exact_stack.search(query, K, backend=backend)) != flat_rankings[position]:
                outcome.fail(
                    f"search #{position} ({backend}): exact-mode stack ranking "
                    "differs from the flat backend"
                )

    # Store layer, timed through its public calls: persisting the three flat
    # indexes, then reopening the deployment store and serving a first query.
    scratch = IndexStore(workdir / "persist-probe")
    with tracer.span("serving.store.persist") as span:
        for backend in BACKENDS:
            scratch.save(flat[backend], lake)
    values["serving.store.persist_ms"] = (span["end"] - span["start"]) * 1000.0
    with tracer.span("serving.store.warm_open") as span:
        reopened = Discovery.from_config(stack_config(store_dir, "approx")).attach(lake)
        reopened.search(sample[0][1], K)
    values["serving.store.warm_open_ms"] = (span["end"] - span["start"]) * 1000.0
    sharded = find_sharded(reopened.searcher())
    values["serving.store.shards_touched"] = (
        NUM_SHARDS - len(sharded.deferred_shards) if sharded is not None else NUM_SHARDS
    )
    reopened.close()
    return outcome
