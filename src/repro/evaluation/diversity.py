"""Diversification experiments (paper Sec. 6.4 / Tables 2 and 3).

For every query of a benchmark, each competing method selects ``k`` tuples;
the Average Diversity and Min Diversity of the selection (Sec. 5.4) and the
wall-clock time are recorded.  Following the paper, results are summarised as
the number of queries for which each method achieves the best score per
metric, together with the average time per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.core.diversifier import DustDiversifier
from repro.core.metrics import average_diversity, min_diversity
from repro.diversify.base import DiversificationRequest, Diversifier
from repro.evaluation.runner import QueryWorkload
from repro.utils.errors import DiversificationError
from repro.utils.timing import timed


@dataclass
class DiversityOutcome:
    """Per-query scores of one method on one benchmark."""

    method: str
    average_scores: dict[str, float] = field(default_factory=dict)
    min_scores: dict[str, float] = field(default_factory=dict)
    times: dict[str, float] = field(default_factory=dict)

    @property
    def mean_time(self) -> float:
        """Average seconds per query."""
        if not self.times:
            return 0.0
        return float(np.mean(list(self.times.values())))


#: A method entry: either a Diversifier instance or a callable
#: ``(workload, k) -> list[int]`` returning selected candidate indices.
MethodLike = Diversifier | Callable[[QueryWorkload, int], list[int]]


def _run_method(method: MethodLike, workload: QueryWorkload, k: int) -> list[int]:
    effective_k = min(k, workload.num_candidates)
    if isinstance(method, Diversifier):
        # Every method's request is a view over the workload's shared
        # DistanceContext, so competing methods never recompute a matrix.
        request = DiversificationRequest(
            query_embeddings=workload.query_embeddings,
            candidate_embeddings=workload.candidate_embeddings,
            k=effective_k,
            context=workload.distance_context(),
        )
        if isinstance(method, DustDiversifier):
            return method.select(request, table_ids=workload.table_ids)
        return method.select(request)
    return method(workload, effective_k)


def evaluate_diversifiers_on_benchmark(
    workloads: Mapping[str, QueryWorkload],
    methods: Mapping[str, MethodLike],
    *,
    k: int,
    metric: str = "cosine",
) -> dict[str, DiversityOutcome]:
    """Run every method on every query workload and record scores and times."""
    if not workloads:
        raise DiversificationError("no query workloads supplied")
    if not methods:
        raise DiversificationError("no diversification methods supplied")

    outcomes = {name: DiversityOutcome(method=name) for name in methods}
    for query_name, workload in workloads.items():
        for method_name, method in methods.items():
            selection, elapsed = timed(_run_method, method, workload, k)
            selected = workload.candidate_embeddings[np.asarray(selection, dtype=int)]
            context = workload.distance_context()
            outcome = outcomes[method_name]
            outcome.average_scores[query_name] = average_diversity(
                workload.query_embeddings,
                selected,
                metric=metric,
                context=context,
                selected_indices=selection,
            )
            outcome.min_scores[query_name] = min_diversity(
                workload.query_embeddings,
                selected,
                metric=metric,
                context=context,
                selected_indices=selection,
            )
            outcome.times[query_name] = elapsed
    return outcomes


def count_wins(
    outcomes: Mapping[str, DiversityOutcome],
    *,
    tolerance: float = 1e-9,
) -> dict[str, dict[str, float]]:
    """Summarise outcomes as the paper's Tables 2/3 rows.

    For every method: the number of queries where it achieves the (possibly
    tied) best Average Diversity, the number where it achieves the best Min
    Diversity, and its average time per query.
    """
    if not outcomes:
        return {}
    methods = list(outcomes)
    queries = list(next(iter(outcomes.values())).average_scores)
    summary = {
        name: {"average_wins": 0, "min_wins": 0, "mean_time": outcomes[name].mean_time}
        for name in methods
    }
    for query in queries:
        best_average = max(outcomes[name].average_scores[query] for name in methods)
        best_minimum = max(outcomes[name].min_scores[query] for name in methods)
        for name in methods:
            if outcomes[name].average_scores[query] >= best_average - tolerance:
                summary[name]["average_wins"] += 1
            if outcomes[name].min_scores[query] >= best_minimum - tolerance:
                summary[name]["min_wins"] += 1
    return summary


def format_win_table(summary: Mapping[str, Mapping[str, float]], *, benchmark: str) -> str:
    """Format a Table 2/3-style summary as aligned text."""
    header = f"{'Method':<12} {'# Average':>10} {'# Min':>7} {'Time (s)':>10}   [{benchmark}]"
    lines = [header, "-" * len(header)]
    for name, row in summary.items():
        lines.append(
            f"{name:<12} {int(row['average_wins']):>10} {int(row['min_wins']):>7} "
            f"{row['mean_time']:>10.3f}"
        )
    return "\n".join(lines)
