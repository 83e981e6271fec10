"""``diversify-scale``: Algorithm 2 alone, at the paper's candidate-set sizes.

In-process, closed loop, one client: ``DustDiversifier.select`` with the
default ``DustConfig`` (prune limit s = 2 500, p = 2, cosine / average
linkage) on real 768-d tuple embeddings of a tall ``tus`` pool, round-robin
over s in {1 000, 2 500, 5 000} x k in {30, 100} — the paper's Fig. 7 /
Table 2 regime.  ``vectorops`` + ``cluster`` + ``core`` do all the work and
nothing else runs, so an Algorithm-2 kernel change shows here while staying
~1 % of a serve request.  Set-up is pool generation plus embedding it.

Correctness: each selection is k unique in-range indices; one round is
selected a second time and must repeat; its selections must beat a seeded
random pick on Average Diversity (paper Eq. 1).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.api.registry import TUPLE_ENCODERS
from repro.core.config import DustConfig
from repro.core.diversifier import DustDiversifier
from repro.core.metrics import diversity_scores
from repro.diversify.base import DiversificationRequest
from repro.utils.rng import derive_seed, seeded_rng

import inputs
from harness import TRACED_LOAD_SHARE, Outcome, Tracer, peak_rss_mb
from staged import record_select_values, staged_select


@dataclass
class Op:
    index: int
    size: int
    k: int
    selected: list[int]
    seconds: float
    end: float


class Pool:
    """The embedded tuple pool and the seeded candidate subsets drawn from it."""

    def __init__(self, seed: int, scale: inputs.Scale) -> None:
        self.seed = seed
        begin = time.perf_counter()
        pool = inputs.tuple_pool(seed, scale)
        self.generate_seconds = time.perf_counter() - begin
        begin = time.perf_counter()
        encoder = TUPLE_ENCODERS.create("roberta")
        self.query = encoder.encode_many(pool.query_texts)
        self.embeddings = encoder.encode_many(pool.texts)
        self.encode_seconds = time.perf_counter() - begin
        self.tuples_encoded = len(pool.texts) + len(pool.query_texts)
        self.table_ids = pool.table_ids
        self.combos = list(itertools.product(scale.pool_sizes, scale.pool_ks))

    def request(self, index: int) -> tuple[DiversificationRequest, list[str]]:
        """The ``index``-th request of the stream (a pure function of the seed)."""
        size, k = self.combos[index % len(self.combos)]
        rng = seeded_rng(derive_seed(self.seed, "pool-subset", index))
        subset = rng.permutation(self.embeddings.shape[0])[:size]
        request = DiversificationRequest(
            query_embeddings=self.query,
            candidate_embeddings=self.embeddings[subset],
            k=k,
        )
        return request, [self.table_ids[int(row)] for row in subset]


def run(
    seed: int,
    seconds: float,
    trace: bool,
    scale: inputs.Scale,
    tracer: Tracer,
) -> Outcome:
    outcome = Outcome()
    values = outcome.values
    config = DustConfig()
    diversifier = DustDiversifier(config)

    # Set-up is one pass: embedding the 5 000-tuple pool is thousands of
    # repetitions of the same encode call, so it is steady without repeats.
    begin = time.perf_counter()
    pool = Pool(seed, scale)
    values["setup_s"] = time.perf_counter() - begin
    values["datalake.generate_s"] = pool.generate_seconds
    values["embeddings.encode_ms"] = pool.encode_seconds * 1000.0
    values["embeddings.tuples_encoded"] = pool.tuples_encoded
    values["embeddings.encode_us_per_tuple"] = pool.encode_seconds / pool.tuples_encoded * 1e6

    # Warm-up: one round, so every cell's first call (which allocates its
    # s x s matrices for the first time, at up to 6x the steady cost) is behind.
    round_size = warmup = len(pool.combos)
    for index in range(warmup):
        request, table_ids = pool.request(index)
        diversifier.select(request, table_ids=table_ids)

    ops: list[Op] = []
    load_seconds = seconds * TRACED_LOAD_SHARE if trace else seconds
    started = time.perf_counter()
    deadline = started + load_seconds
    # Whole rounds of the six (s, k) cells, so every run times the same mix.
    while time.perf_counter() < deadline or len(ops) % round_size:
        index = warmup + len(ops)
        request, table_ids = pool.request(index)
        begin = time.perf_counter()
        selected = diversifier.select(request, table_ids=table_ids)
        end = time.perf_counter()
        size = request.candidate_embeddings.shape[0]
        ops.append(Op(index, size, request.k, list(selected), end - begin, end))
    values["peak_rss_mb"] = peak_rss_mb()

    outcome.attempted = len(ops)
    outcome.record_latencies(
        [op.seconds for op in ops],
        [op.end for op in ops],
        started,
        block=round_size,
        classes=[(op.size, op.k) for op in ops],
    )
    values["harness.client_threads"] = 1

    # ------------------------------------------------------------ correctness
    for op in ops:
        if (
            len(op.selected) != op.k
            or len(set(op.selected)) != op.k
            or not all(0 <= index < op.size for index in op.selected)
        ):
            outcome.fail(f"select #{op.index}: not {op.k} unique indices in [0, {op.size})")

    replayed = ops[: scale.replay_requests if trace else round_size]
    averages: list[float] = []
    minimums: list[float] = []
    direct_seconds = staged_seconds = 0.0
    for op in replayed:
        request, table_ids = pool.request(op.index)
        order = ("staged", "direct") if op.index % 2 == 0 else ("direct", "staged")
        for path in order if trace else ("direct",):
            begin = time.perf_counter()
            if path == "direct":
                again = list(diversifier.select(request, table_ids=table_ids))
                direct_seconds += time.perf_counter() - begin
            else:
                with tracer.request(f"{op.index}"), tracer.span("core.select"):
                    again = staged_select(
                        request.query_embeddings,
                        request.candidate_embeddings,
                        request.k,
                        table_ids,
                        config,
                        tracer,
                    )
                staged_seconds += time.perf_counter() - begin
            if again != op.selected:
                outcome.fail(f"select #{op.index}: the {path} re-run selected differently")
        scores = diversity_scores(
            request.query_embeddings, request.candidate_embeddings[op.selected]
        )
        rng = seeded_rng(derive_seed(seed, "random-pick", op.index))
        random_pick = rng.permutation(op.size)[: op.k]
        baseline = diversity_scores(
            request.query_embeddings, request.candidate_embeddings[random_pick]
        )
        if scores["average_diversity"] <= baseline["average_diversity"]:
            outcome.fail(
                f"select #{op.index}: average diversity {scores['average_diversity']:.4f} "
                f"does not beat a random pick ({baseline['average_diversity']:.4f})"
            )
        averages.append(scores["average_diversity"])
        minimums.append(scores["min_diversity"])
    values["avg_diversity"] = float(np.mean(averages))
    values["min_diversity"] = float(np.mean(minimums))
    outcome.counts["diversity_n"] = len(replayed)

    if trace and direct_seconds:
        values["harness.trace_overhead_share"] = staged_seconds / direct_seconds - 1.0
        record_select_values(values, tracer)
        unaccounted = tracer.reconciliation("core.select")
        values["harness.trace_unaccounted_share"] = unaccounted
        if unaccounted > 0.05:
            outcome.fail(
                f"stage spans leave {unaccounted:.1%} of a staged select unaccounted (> 5 %)"
            )
    return outcome
