"""Tests for the scenario matrix (repro.scenarios): seeded determinism of
every registered workload generator, the property-style parity sweep
(sharded-vs-flat bit-parity and the cascade-approx recall floor per scenario
shape), Pareto dominance/front/prune reduction, the registered metric set and
collector, evidence-backed presets (``DiscoveryConfig.preset`` round-trip),
the runner, and the ``python -m repro scenarios`` / ``info`` surfaces."""

import json

import pytest
from testkit import rankings

from repro.api.cli import main as cli_main
from repro.api.config import DiscoveryConfig
from repro.api.facade import Discovery
from repro.api.registry import (
    WORKLOADS,
    available_scenario_metrics,
    available_workloads,
    registry_catalog,
)
from repro.scenarios import (
    CONFIG_GRID,
    MetricCollector,
    MetricContext,
    Scenario,
    available_presets,
    dominates,
    pareto_front,
    preset_payload,
    prune,
    random_token_lake,
    recall_against,
    run_cell,
    run_matrix,
)
from repro.scenarios.runner import EXACT_CONFIGS, REFERENCE_CONFIG
from repro.search import CascadeSearcher, ShardedSearcher, ValueOverlapSearcher
from repro.utils.errors import ConfigurationError

GENERATORS = available_workloads()


def build(name: str, seed: int = 7) -> Scenario:
    return WORKLOADS.create(name, seed=seed)


# ------------------------------------------------------------------ generators
class TestGeneratorDeterminism:
    @pytest.mark.parametrize("name", GENERATORS)
    def test_same_seed_is_bit_identical(self, name):
        first, second = build(name, seed=13), build(name, seed=13)
        assert first.fingerprint() == second.fingerprint()
        assert [q.name for q in first.query_stream] == [
            q.name for q in second.query_stream
        ]
        assert first.lake.fingerprint() == second.lake.fingerprint()

    @pytest.mark.parametrize("name", GENERATORS)
    def test_different_seed_differs(self, name):
        assert build(name, seed=13).fingerprint() != build(name, seed=14).fingerprint()

    @pytest.mark.parametrize("name", GENERATORS)
    def test_scenario_shape_is_sane(self, name):
        scenario = build(name)
        assert scenario.name == name
        assert scenario.lake.num_tables >= 4
        assert scenario.query_stream
        assert all(q.num_rows >= 3 for q in scenario.query_stream)
        assert 0.0 < scenario.recall_floor <= 1.0

    def test_fresh_lake_isolates_cells(self):
        scenario = build("uniform")
        copy = scenario.fresh_lake()
        victim = copy.table_names()[0]
        copy.remove_table(victim)
        assert victim in scenario.lake.table_names()

    def test_fresh_mutations_copy_tables(self):
        scenario = build("burst-writes")
        assert scenario.mutation_stream
        events = scenario.fresh_mutations()
        carried = next(e for e in events if e.table is not None)
        original = next(
            e for e in scenario.mutation_stream if e.name == carried.name
        )
        assert carried.table is not original.table
        assert (
            carried.table.content_fingerprint()
            == original.table.content_fingerprint()
        )

    def test_random_token_lake_seeded(self):
        assert (
            random_token_lake(3).fingerprint() == random_token_lake(3).fingerprint()
        )
        assert (
            random_token_lake(3).fingerprint() != random_token_lake(4).fingerprint()
        )


# ------------------------------------------------------------- property sweeps
class TestParitySweep:
    """The property suite: every scenario shape, not one blessed benchmark."""

    @pytest.mark.parametrize("name", GENERATORS)
    def test_sharded_matches_flat_bit_for_bit(self, name):
        scenario = build(name, seed=5)
        queries = scenario.query_stream[: scenario.num_queries]
        flat = ValueOverlapSearcher().index(scenario.fresh_lake())
        sharded = ShardedSearcher(ValueOverlapSearcher, num_shards=4).index(
            scenario.fresh_lake()
        )
        assert rankings(sharded, queries, k=10) == rankings(flat, queries, k=10)

    @pytest.mark.parametrize("name", GENERATORS)
    def test_cascade_approx_recall_floor(self, name):
        """recall@10 at a half-lake budget stays above the declared floor."""
        scenario = build(name, seed=5)
        lake = scenario.fresh_lake()
        k = 10
        budget = max(k, lake.num_tables // 2)
        flat = ValueOverlapSearcher().index(lake)
        cascade = CascadeSearcher(
            ValueOverlapSearcher(), mode="approx", candidate_budget=budget
        ).index(scenario.fresh_lake())
        queries = scenario.query_stream[: scenario.num_queries]
        recall = recall_against(
            rankings(flat, queries, k=k), rankings(cascade, queries, k=k), k
        )
        assert recall >= scenario.recall_floor, (
            f"{name}: recall@{k} {recall:.3f} under floor "
            f"{scenario.recall_floor} at budget {budget}"
        )


# ---------------------------------------------------------------------- pareto
class TestPareto:
    OBJECTIVES = {"latency": "min", "recall": "max"}

    def test_dominates_requires_strict_improvement(self):
        fast = {"latency": 1.0, "recall": 0.9}
        slow = {"latency": 2.0, "recall": 0.9}
        assert dominates(fast, slow, self.OBJECTIVES)
        assert not dominates(slow, fast, self.OBJECTIVES)
        assert not dominates(fast, dict(fast), self.OBJECTIVES)  # equal: neither

    def test_front_keeps_trade_offs_drops_dominated(self):
        records = [
            {"config": "a", "latency": 1.0, "recall": 0.8},
            {"config": "b", "latency": 2.0, "recall": 1.0},
            {"config": "c", "latency": 3.0, "recall": 0.9},  # dominated by b
            {"config": "d", "latency": 1.0, "recall": 0.8},  # tie with a: kept
        ]
        front = pareto_front(records, self.OBJECTIVES)
        assert [record["config"] for record in front] == ["a", "b", "d"]

    def test_front_rejects_empty_objectives(self):
        with pytest.raises(ConfigurationError):
            pareto_front([{"latency": 1.0}], {})

    def test_prune_applies_constraint_bounds(self):
        records = [
            {"config": "a", "latency": 1.0, "recall": 0.7},
            {"config": "b", "latency": 4.0, "recall": 1.0},
        ]
        kept = prune(records, {"latency_max": 2.0})
        assert [record["config"] for record in kept] == ["a"]
        kept = prune(records, {"recall_min": 0.9})
        assert [record["config"] for record in kept] == ["b"]
        with pytest.raises(ConfigurationError):
            prune(records, {"latency": 2.0})

    def test_prune_then_front_answers_budget_questions(self):
        """Snippet-style: best recall among configs under a latency bound."""
        records = [
            {"config": "exact", "latency": 5.0, "recall": 1.0},
            {"config": "approx", "latency": 1.0, "recall": 0.9},
            {"config": "loose", "latency": 1.5, "recall": 0.8},
        ]
        eligible = prune(records, {"latency_max": 2.0})
        front = pareto_front(eligible, self.OBJECTIVES)
        assert [record["config"] for record in front] == ["approx"]


# --------------------------------------------------------------------- metrics
def _context(**overrides) -> MetricContext:
    reference = [[("t1", 1.0), ("t2", 0.5)]]
    defaults = dict(
        scenario=build("uniform"),
        config_name="test",
        k=2,
        build_seconds=0.25,
        latencies=[0.010, 0.020, 0.100],
        reference=reference,
        observed=[[("t1", 1.0), ("t3", 0.4)]],
    )
    defaults.update(overrides)
    return MetricContext(**defaults)


class TestMetrics:
    def test_registered_set_and_objectives(self):
        names = available_scenario_metrics()
        for expected in (
            "latency_p50_ms",
            "latency_p95_ms",
            "recall_at_k",
            "build_seconds",
            "peak_rss_mb",
            "mutations_per_second",
        ):
            assert expected in names
        objectives = MetricCollector().objectives()
        assert objectives["latency_p50_ms"] == "min"
        assert objectives["recall_at_k"] == "max"
        assert "peak_rss_mb" not in objectives  # report-only: RSS is monotone

    def test_collect_scores_one_cell(self):
        collector = MetricCollector()
        row = collector.collect(_context())
        assert row["latency_p50_ms"] == pytest.approx(20.0)
        assert row["latency_p95_ms"] == pytest.approx(100.0)
        assert row["recall_at_k"] == pytest.approx(0.5)
        assert row["build_seconds"] == pytest.approx(0.25)
        assert row["peak_rss_mb"] > 0.0
        assert "mutations_per_second" not in row  # read-only cell: skipped
        assert collector.observations["latency_p50_ms"] == [row["latency_p50_ms"]]
        collector.reset()
        assert collector.observations["latency_p50_ms"] == []

    def test_write_path_metric(self):
        row = MetricCollector().collect(
            _context(mutation_count=30, mutation_seconds=0.5)
        )
        assert row["mutations_per_second"] == pytest.approx(60.0)

    def test_recall_against_is_set_based(self):
        reference = [[("a", 1.0), ("b", 0.9)], [("c", 1.0), ("d", 0.9)]]
        observed = [[("b", 1.0), ("a", 0.9)], [("c", 1.0), ("x", 0.9)]]
        assert recall_against(reference, observed, 2) == pytest.approx(0.75)
        assert recall_against([], [], 2) == 0.0


# --------------------------------------------------------------------- presets
class TestPresets:
    def test_preset_round_trip_fingerprint_stable(self):
        for name in available_presets():
            config = DiscoveryConfig.preset(name)
            rebuilt = DiscoveryConfig.from_dict(config.to_dict())
            assert rebuilt.fingerprint() == config.fingerprint()
            assert json.dumps(config.to_dict())  # JSON-serialisable

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            DiscoveryConfig.preset("turbo")

    def test_payloads_are_isolated_copies(self):
        preset_payload("balanced")["searcher"]["name"] = "mutated"
        assert preset_payload("balanced")["searcher"]["name"] == "overlap"

    def test_presets_appear_verbatim_in_grid(self):
        for name in available_presets():
            assert CONFIG_GRID[name] == preset_payload(name)


# ---------------------------------------------------------------------- runner
class TestRunner:
    def test_run_cell_reference_parity(self):
        scenario = build("uniform", seed=3)
        row, observed, extras = run_cell(
            scenario, REFERENCE_CONFIG, CONFIG_GRID[REFERENCE_CONFIG], k=10
        )
        assert row["recall_at_k"] == pytest.approx(1.0)  # scored against itself
        assert len(observed) == len(scenario.query_stream)
        assert "cache" in extras

    def test_run_matrix_smoke_report_shape(self, tmp_path):
        report = run_matrix(
            scenario_names=["burst-writes"],
            config_names=["sharded-4"],
            seed=3,
            smoke=True,
        )
        (row,) = report["scenarios"]
        assert row["parity_failures"] == []
        assert REFERENCE_CONFIG in row["cells"]  # reference always forced in
        assert set(row["cells"]) == {REFERENCE_CONFIG, "sharded-4"}
        for cell in row["cells"].values():
            for metric in (
                "latency_p50_ms",
                "latency_p95_ms",
                "recall_at_k",
                "build_seconds",
                "peak_rss_mb",
                "mutations_per_second",
            ):
                assert metric in cell
        assert "mutations_per_second" in row["objectives"]  # write scenario
        assert set(row["pareto_front"]) <= set(row["cells"])
        assert report["configs"][REFERENCE_CONFIG]["exact"] is True

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenarios"):
            run_matrix(scenario_names=["nope"], config_names=[REFERENCE_CONFIG])
        with pytest.raises(ConfigurationError, match="unknown configs"):
            run_matrix(scenario_names=["uniform"], config_names=["nope"])

    def test_exact_configs_classification(self):
        assert REFERENCE_CONFIG in EXACT_CONFIGS
        assert "sharded-4" in EXACT_CONFIGS
        assert "low-latency" not in EXACT_CONFIGS


# ------------------------------------------------------------------ discovery
class TestDiscoverability:
    def test_catalog_lists_scenario_registries(self):
        catalog = registry_catalog()
        assert set(GENERATORS) <= set(catalog["workloads"])
        assert "recall_at_k" in catalog["scenario_metrics"]

    def test_facade_info_carries_registries(self):
        scenario = build("uniform")
        with Discovery.from_config(
            {"searcher": {"name": "overlap"}}
        ).attach(scenario.fresh_lake()) as discovery:
            registries = discovery.info()["registries"]
        assert registries["workloads"] == available_workloads()
        assert registries["scenario_metrics"] == available_scenario_metrics()

    def test_info_cli_lists_workloads(self, capsys):
        assert cli_main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workloads"] == available_workloads()
        assert payload["scenario_metrics"] == available_scenario_metrics()

    def test_scenarios_cli_writes_report(self, capsys, tmp_path, monkeypatch):
        output = tmp_path / "BENCH_scenarios.json"
        assert (
            cli_main(
                [
                    "scenarios",
                    "--smoke",
                    "--scenarios",
                    "uniform",
                    "--configs",
                    "sharded-4",
                    "--seed",
                    "3",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "parity: every exact config" in out
        report = json.loads(output.read_text())
        assert report["smoke"] is True
        assert [row["name"] for row in report["scenarios"]] == ["uniform"]
