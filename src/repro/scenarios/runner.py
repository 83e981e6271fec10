"""The scenario matrix: workload shapes × deployment configs → Pareto fronts.

For every registered workload generator (or a named subset) the runner
builds the scenario, executes every config of the grid through the
:class:`~repro.api.facade.Discovery` facade — index build, the query
stream, and (for write scenarios) the mutation stream through
``Discovery.ingest()`` — and scores each cell with the registered metric
set (:mod:`repro.scenarios.metrics`).  Per scenario the scored cells are
reduced to a Pareto front (:mod:`repro.scenarios.pareto`) over the
objective-bearing metrics present in every cell.

Correctness is gated before anything is compared: every *exact* config
(no cascade, or sharded without cascade) must return rankings — names and
scores — bit-identical to the flat exact reference, in every scenario.
Timing is never gated (containers lie about CPUs); parity always is.

The grid deliberately contains the shipped presets
(:mod:`repro.scenarios.presets`) verbatim, so ``BENCH_scenarios.json``
records per preset whether any other measured config dominates it on its
target scenario — presets are evidence, not opinion.

Run via ``python -m repro scenarios``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any, Sequence

from repro.api.config import DiscoveryConfig
from repro.api.facade import Discovery
from repro.api.registry import SCENARIO_METRICS, WORKLOADS, available_workloads
from repro.scenarios.generators import Scenario
from repro.scenarios.metrics import MetricCollector, MetricContext, Ranking
from repro.scenarios.pareto import pareto_front
from repro.scenarios.presets import PRESET_TARGETS, PRESETS
from repro.utils.errors import ConfigurationError, ReproError

#: Top-k retrieved per request (parity, recall and latency all use it).
K = 10

#: The exact-mode reference cell every other cell's recall is scored against.
REFERENCE_CONFIG = "flat-exact"

#: Config name -> DiscoveryConfig payload.  The three shipped presets appear
#: verbatim (same payloads, same fingerprints), so front membership of a
#: preset cell *is* front membership of the preset.
CONFIG_GRID: dict[str, dict[str, Any]] = {
    REFERENCE_CONFIG: {"searcher": {"name": "overlap"}},
    "exact": PRESETS["exact"],
    "balanced": PRESETS["balanced"],
    "low-latency": PRESETS["low-latency"],
    "cascade-tight": {
        "searcher": {"name": "overlap"},
        "cascade": {"mode": "approx", "candidate_budget": 12},
    },
    "sharded-4": {
        "searcher": {"name": "overlap"},
        "sharding": {"num_shards": 4},
    },
    "sharded-cascade": {
        "searcher": {"name": "overlap"},
        "sharding": {"num_shards": 4},
        "cascade": {"mode": "approx", "candidate_budget": 32},
    },
}

#: Configs whose rankings must be bit-identical to the reference: no cascade,
#: or cascade in exact mode (sharding alone never changes rankings).
EXACT_CONFIGS = frozenset(
    name
    for name, payload in CONFIG_GRID.items()
    if payload.get("cascade") is None or payload["cascade"].get("mode") == "exact"
)

#: The 2-scenarios × 3-configs CI smoke slice (parity-gated, never timed).
SMOKE_SCENARIOS = ("uniform", "burst-writes")
SMOKE_CONFIGS = (REFERENCE_CONFIG, "low-latency", "sharded-4")


def run_cell(
    scenario: Scenario,
    config_name: str,
    payload: dict[str, Any],
    *,
    k: int = K,
    reference: list[Ranking] | None = None,
    collector: MetricCollector | None = None,
) -> tuple[dict[str, float], list[Ranking], dict[str, Any]]:
    """Execute one (scenario, config) cell through the Discovery facade.

    Returns ``(metric row, observed rankings, extras)`` where ``extras``
    carries non-metric observability (cache counters).  When ``reference``
    is ``None`` the cell scores recall against itself (the reference cell).
    """
    config = DiscoveryConfig.from_dict(payload)
    lake = scenario.fresh_lake()
    start = time.perf_counter()
    discovery = Discovery.from_config(config).attach(lake)
    build_seconds = time.perf_counter() - start
    try:
        latencies: list[float] = []
        observed: list[Ranking] = []
        for query in scenario.query_stream:
            begin = time.perf_counter()
            hits = discovery.search(query, k)
            latencies.append(time.perf_counter() - begin)
            observed.append([(hit.table_name, float(hit.score)) for hit in hits])
        mutation_count = 0
        mutation_seconds = 0.0
        if scenario.mutation_stream:
            events = scenario.fresh_mutations()
            controller = discovery.ingest()
            begin = time.perf_counter()
            controller.submit_many(events)
            controller.flush()
            mutation_seconds = time.perf_counter() - begin
            mutation_count = len(events)
        extras = {"cache": discovery.service_stats() or None}
    finally:
        discovery.close()
    ctx = MetricContext(
        scenario=scenario,
        config_name=config_name,
        k=k,
        build_seconds=build_seconds,
        latencies=latencies,
        reference=reference if reference is not None else observed,
        observed=observed,
        mutation_count=mutation_count,
        mutation_seconds=mutation_seconds,
    )
    collector = collector or MetricCollector()
    return collector.collect(ctx), observed, extras


def _resolve_names(
    requested: Sequence[str] | None, available: Sequence[str], kind: str
) -> list[str]:
    if not requested:
        return list(available)
    unknown = sorted(set(requested) - set(available))
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} {unknown}; available: {sorted(available)}"
        )
    # Preserve the canonical (grid/registry) order, not the CLI's.
    return [name for name in available if name in set(requested)]


def run_scenario(
    scenario: Scenario, config_names: Sequence[str], *, k: int = K
) -> dict[str, Any]:
    """Run every config cell of one scenario and reduce to a Pareto front."""
    collector = MetricCollector()
    ordered = [REFERENCE_CONFIG] + [
        name for name in config_names if name != REFERENCE_CONFIG
    ]
    cells: dict[str, dict[str, float]] = {}
    extras: dict[str, dict[str, Any]] = {}
    reference: list[Ranking] | None = None
    parity_failures: list[str] = []
    for name in ordered:
        row, observed, extra = run_cell(
            scenario,
            name,
            CONFIG_GRID[name],
            k=k,
            reference=reference,
            collector=collector,
        )
        if reference is None:
            reference = observed
        elif name in EXACT_CONFIGS and observed != reference:
            parity_failures.append(name)
        cells[name] = row
        extras[name] = extra
    # The front is computed over objective metrics present in every cell of
    # this scenario (write-path metrics only exist on write scenarios).
    objectives = {
        metric: direction
        for metric, direction in collector.objectives().items()
        if all(metric in row for row in cells.values())
    }
    records = [{"config": name, **row} for name, row in cells.items()]
    front = [record["config"] for record in pareto_front(records, objectives)]
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "fingerprint": scenario.fingerprint(),
        "num_tables": scenario.lake.num_tables,
        "num_queries": scenario.num_queries,
        "stream_length": len(scenario.query_stream),
        "num_mutations": len(scenario.mutation_stream),
        "cells": cells,
        "extras": extras,
        "objectives": objectives,
        "pareto_front": front,
        "parity_failures": parity_failures,
    }


def run_matrix(
    *,
    scenario_names: Sequence[str] | None = None,
    config_names: Sequence[str] | None = None,
    seed: int = 7,
    k: int = K,
    smoke: bool = False,
) -> dict[str, Any]:
    """Cross scenarios with configs and assemble the machine-readable report."""
    if smoke:
        scenario_names = scenario_names or list(SMOKE_SCENARIOS)
        config_names = config_names or list(SMOKE_CONFIGS)
    scenario_names = _resolve_names(scenario_names, available_workloads(), "scenarios")
    config_names = _resolve_names(config_names, list(CONFIG_GRID), "configs")
    if REFERENCE_CONFIG not in config_names:
        config_names = [REFERENCE_CONFIG, *config_names]
    rows = []
    for name in scenario_names:
        scenario = WORKLOADS.create(name, seed=seed)
        rows.append(run_scenario(scenario, config_names, k=k))
    presets = {}
    for preset, target in PRESET_TARGETS.items():
        if preset not in config_names:
            continue
        measured = next((row for row in rows if row["name"] == target), None)
        presets[preset] = {
            "target_scenario": target,
            "on_front": (
                preset in measured["pareto_front"] if measured is not None else None
            ),
        }
    return {
        "k": k,
        "seed": seed,
        "smoke": bool(smoke),
        "metrics": {
            name: {"objective": SCENARIO_METRICS.get(name).objective}
            for name in SCENARIO_METRICS.names()
        },
        "configs": {
            name: {
                "payload": CONFIG_GRID[name],
                "fingerprint": DiscoveryConfig.from_dict(
                    CONFIG_GRID[name]
                ).fingerprint(),
                "preset": name in PRESETS,
                "exact": name in EXACT_CONFIGS,
            }
            for name in config_names
        },
        "scenarios": rows,
        "presets": presets,
    }


# ------------------------------------------------------------------ reporting
def _print_scenario(row: dict[str, Any]) -> None:
    print(
        f"scenario {row['name']!r}: {row['num_tables']} tables, "
        f"{row['num_queries']} distinct queries over {row['stream_length']} "
        f"requests, {row['num_mutations']} mutation events"
    )
    header = (
        f"  {'config':<16} {'p50 ms':>8} {'p95 ms':>8} {'recall':>7} "
        f"{'build s':>8} {'rss MiB':>8} {'mut/s':>8}  front"
    )
    print(header)
    print("  " + "-" * (len(header) - 2))
    front = set(row["pareto_front"])
    for name, cell in row["cells"].items():
        mut = cell.get("mutations_per_second")
        mut_text = f"{mut:>8.0f}" if mut is not None else f"{'-':>8}"
        marker = "*" if name in front else ""
        print(
            f"  {name:<16} {cell['latency_p50_ms']:>8.2f} "
            f"{cell['latency_p95_ms']:>8.2f} {cell['recall_at_k']:>7.3f} "
            f"{cell['build_seconds']:>8.3f} {cell['peak_rss_mb']:>8.1f} "
            f"{mut_text}  {marker}"
        )
    print()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Scenario matrix: workload shapes × configs → Pareto fronts."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="2 scenarios × 3 configs, parity-gated only (CI bench-smoke mode)",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help="workload generators to run (default: all registered)",
    )
    parser.add_argument(
        "--configs",
        nargs="+",
        default=None,
        metavar="NAME",
        help=f"grid configs to run (default: all; grid: {sorted(CONFIG_GRID)})",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--k", type=int, default=K)
    parser.add_argument(
        "--output",
        default="BENCH_scenarios.json",
        help="machine-readable report path (default: %(default)s)",
    )
    return execute(parser.parse_args(argv))


def execute(args: argparse.Namespace) -> int:
    """Run the matrix from a parsed namespace (shared with ``repro scenarios``).

    Expects ``smoke``/``scenarios``/``configs``/``seed``/``k``/``output`` —
    the dest names both this module's parser and the ``python -m repro
    scenarios`` subparser produce.
    """
    report = run_matrix(
        scenario_names=args.scenarios,
        config_names=args.configs,
        seed=args.seed,
        k=args.k,
        smoke=args.smoke,
    )
    for row in report["scenarios"]:
        _print_scenario(row)

    failures = {
        row["name"]: row["parity_failures"]
        for row in report["scenarios"]
        if row["parity_failures"]
    }
    if failures:
        raise ReproError(
            f"exact-config rankings diverged from the flat reference: {failures}"
        )
    print("parity: every exact config bit-identical to the flat reference")

    dominated = sorted(
        name
        for name, entry in report["presets"].items()
        if entry["on_front"] is False
    )
    on_front = sorted(
        name for name, entry in report["presets"].items() if entry["on_front"]
    )
    if report["presets"]:
        for name, entry in sorted(report["presets"].items()):
            state = {True: "on", False: "DOMINATED off", None: "not measured on"}[
                entry["on_front"]
            ]
            print(
                f"preset {name!r}: {state} the {entry['target_scenario']!r} "
                f"Pareto front"
            )
        if not args.smoke and not on_front:
            raise ReproError(
                f"no shipped preset survived its target scenario's front "
                f"(dominated: {dominated})"
            )

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
