"""Tests for the workload shapes and presets (repro.scenarios): seeded
determinism of every registered workload generator, the property-style parity
sweep (sharded-vs-flat and facade-level exact-config bit-parity, the
cascade-approx recall floor, per scenario shape), the named presets
(``DiscoveryConfig.preset`` round-trip and pinned fingerprints) and the
``info`` surfaces."""

import json

import pytest
from testkit import rankings, recall_against

from repro.api.cli import main as cli_main
from repro.api.config import DiscoveryConfig
from repro.api.facade import Discovery
from repro.api.registry import WORKLOADS, available_workloads, registry_catalog
from repro.scenarios import (
    Scenario,
    available_presets,
    preset_payload,
    random_token_lake,
)
from repro.search import ShardedSearcher, ValueOverlapSearcher
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
#: The flat exact reference and the deployment configs that must reproduce it
#: bit for bit (no cascade: a result cache and sharding never change rankings).
FLAT_CONFIG = {"searcher": {"name": "overlap"}}
EXACT_CONFIGS = {
    "exact-preset": preset_payload("exact"),
    "sharded-4": {"searcher": {"name": "overlap"}, "sharding": {"num_shards": 4}},
}


def facade_rankings(payload: dict, scenario: Scenario):
    """Rankings of the whole request stream (repeats included) via the facade."""
    with Discovery.from_config(payload).attach(scenario.fresh_lake()) as discovery:
        return rankings(discovery, scenario.query_stream, k=10)


@pytest.fixture(scope="module", params=GENERATORS)
def flat_reference(request):
    """One shape at a time, built once per module: the scenario and its flat
    rankings."""
    scenario = build(request.param, seed=5)
    return scenario, facade_rankings(FLAT_CONFIG, scenario)


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

    @pytest.mark.parametrize("config", sorted(EXACT_CONFIGS))
    def test_exact_configs_match_flat_through_the_facade(self, flat_reference, config):
        """Names *and scores*, every request of the stream, repeats included."""
        scenario, reference = flat_reference
        assert facade_rankings(EXACT_CONFIGS[config], scenario) == reference

    def test_recall_against_is_set_based(self):
        reference = [[("a", 1.0), ("b", 0.9)], [("c", 1.0), ("d", 0.9)]]
        observed = [[("b", 1.0), ("a", 0.9)], [("c", 1.0), ("x", 0.9)]]
        assert recall_against(reference, observed, 2) == pytest.approx(0.75)
        assert recall_against([], [], 2) == 0.0

    @pytest.mark.parametrize("name", GENERATORS)
    def test_cascade_approx_recall_floor(self, name):
        """recall@10 at a half-lake budget stays above the declared floor."""
        scenario = build(name, seed=5)
        lake = scenario.fresh_lake()
        k = 10
        budget = max(k, lake.num_tables // 2)
        flat = ValueOverlapSearcher().index(lake)
        cascade = ShardedSearcher(
            ValueOverlapSearcher, num_shards=1, candidate_budget=budget
        ).index(scenario.fresh_lake())
        queries = scenario.query_stream[: scenario.num_queries]
        recall = recall_against(
            rankings(flat, queries, k=k), rankings(cascade, queries, k=k), k
        )
        assert recall >= scenario.recall_floor, (
            f"{name}: recall@{k} {recall:.3f} under floor "
            f"{scenario.recall_floor} at budget {budget}"
        )


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

    def test_fingerprints_are_pinned(self):
        """Store keys and wire provenance fold these in: a payload edit that
        moves one invalidates every deployment built from the preset."""
        assert {
            name: DiscoveryConfig.preset(name).fingerprint()
            for name in available_presets()
        } == {
            "exact": "0083d59f64065c34594a5859765aaac19f97721dc059c8d378cd0564bf1599c8",
            "balanced": "af2d29ca3c4e7c1fb03762f090bdeaae076f0e4093585bf54d0d5563047e6fbd",
            "low-latency": "eabbf9095dd0ad06da98a265d8eba766217d3ad7bb9295a67ce86ec575293f48",
        }


# ------------------------------------------------------------------ discovery
class TestDiscoverability:
    def test_catalog_lists_scenario_registries(self):
        catalog = registry_catalog()
        assert sorted(catalog) == [
            "benchmarks",
            "column_encoders",
            "diversifiers",
            "searchers",
            "tuple_encoders",
            "workloads",
        ]
        assert catalog["workloads"] == GENERATORS

    def test_facade_info_carries_registries(self):
        scenario = build("uniform")
        with Discovery.from_config(
            {"searcher": {"name": "overlap"}}
        ).attach(scenario.fresh_lake()) as discovery:
            registries = discovery.info()["registries"]
        assert registries == registry_catalog()

    def test_info_cli_lists_workloads(self, capsys):
        assert cli_main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workloads"] == available_workloads()
