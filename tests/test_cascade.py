"""Tests for the tiered query cascade: prefilters, exact/approx modes, plumbing.

Covers the :class:`LSHPrefilter`/:class:`ProjectionPrefilter` candidate
generators and their persistence, the :class:`CascadeSearcher` wrapper
(exact-mode bit-parity against every flat backend — property-style over
random lakes — full-budget recall floor, margin-band escalation),
composition with :class:`ShardedSearcher`,
index-state round-trips through the :class:`IndexStore`, and the API surface
(``DiscoveryConfig`` cascade section, facade wrapping, the ``--cascade-*``
and ``--profile`` CLI flags).
"""

import json
import math

import pytest
from testkit import BACKEND_FACTORIES, fresh_lake, rankings

from repro.api import Discovery, DiscoveryConfig
from repro.api.cli import main as cli_main
from repro.benchgen import generate_tus_benchmark
from repro.search import (
    CascadeSearcher,
    D3LSearcher,
    LSHPrefilter,
    ProjectionPrefilter,
    SantosSearcher,
    ShardedSearcher,
    StarmieSearcher,
    ValueOverlapSearcher,
)
from repro.search.base import rank_scores
from repro.search.cascade import CascadePrefilterEntry
from repro.serving import IndexStore
from repro.utils.errors import ConfigurationError, SearchError


# ------------------------------------------------------------------ prefilters
class TestPrefilters:
    def test_lsh_candidates_respect_budget_and_margin(self, tus_bench):
        lake = fresh_lake(tus_bench)
        base = ValueOverlapSearcher().index(lake)
        prefilter = LSHPrefilter()
        prefilter.fit(base, lake)
        query = tus_bench.query_tables[0]

        names, margin = prefilter.candidates(query, 5)
        assert len(names) == 5
        assert len(set(names)) == 5
        assert all(name in lake.table_names() for name in names)
        assert math.isfinite(margin) and margin >= 0.0

        # Budget >= lake size: nothing is excluded, so the margin is infinite.
        all_names, full_margin = prefilter.candidates(query, lake.num_tables)
        assert full_margin == math.inf
        assert set(names) <= set(all_names)

    def test_projection_candidates_match_lsh_contract(self, tus_bench):
        lake = fresh_lake(tus_bench)
        base = StarmieSearcher().index(lake)
        prefilter = ProjectionPrefilter(dim=8, seed=3)
        prefilter.fit(base, lake)
        names, margin = prefilter.candidates(tus_bench.query_tables[0], 4)
        assert len(names) == 4 and math.isfinite(margin)

    def test_projection_requires_embedding_backend(self, tus_bench):
        lake = fresh_lake(tus_bench)
        base = ValueOverlapSearcher().index(lake)  # no prefilter_table_vectors
        with pytest.raises(SearchError):
            ProjectionPrefilter().fit(base, lake)

    def test_lsh_state_round_trip(self, tus_bench):
        lake = fresh_lake(tus_bench)
        base = ValueOverlapSearcher().index(lake)
        prefilter = LSHPrefilter()
        prefilter.fit(base, lake)
        state, arrays = prefilter.state()

        restored = LSHPrefilter()
        restored.load_state(state, arrays)
        query = tus_bench.query_tables[0]
        assert restored.candidates(query, 6) == prefilter.candidates(query, 6)

        mismatched = LSHPrefilter(num_hashes=32, num_bands=8)
        with pytest.raises(SearchError):
            mismatched.load_state(state, arrays)

    def test_projection_state_round_trip_requires_bind(self, tus_bench):
        lake = fresh_lake(tus_bench)
        base = SantosSearcher().index(lake)
        prefilter = ProjectionPrefilter(dim=8)
        prefilter.fit(base, lake)
        state, arrays = prefilter.state()

        restored = ProjectionPrefilter(dim=8)
        restored.load_state(state, arrays)
        query = tus_bench.query_tables[0]
        with pytest.raises(SearchError):  # query vectors come from the backend
            restored.candidates(query, 4)
        restored.bind(base)
        assert restored.candidates(query, 4) == prefilter.candidates(query, 4)

    def test_lsh_reuses_overlap_signatures(self, tus_bench):
        """overlap's per-column MinHash rows collapse to table signatures."""
        lake = fresh_lake(tus_bench)
        base = ValueOverlapSearcher().index(lake)
        signatures = base.prefilter_minhash_signatures(base.num_hashes, 7)
        assert signatures is not None
        assert set(signatures) == set(lake.table_names())
        # A different seed would not match the indexed hash family.
        assert base.prefilter_minhash_signatures(base.num_hashes, 8) is None


# ------------------------------------------------------------------ parity
class TestExactParity:
    @pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
    def test_exact_mode_is_bit_identical(self, tus_bench, backend):
        lake = fresh_lake(tus_bench)
        flat = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        cascade = CascadeSearcher(flat, mode="exact").index(lake)
        assert rankings(cascade, tus_bench.query_tables) == rankings(
            flat, tus_bench.query_tables
        )

    @pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
    def test_full_budget_approx_matches_exact(self, tus_bench, backend):
        """Budget >= lake size makes approx a reordering-free identity."""
        lake = fresh_lake(tus_bench)
        flat = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        cascade = CascadeSearcher(
            flat, mode="approx", candidate_budget=lake.num_tables
        ).index(lake)
        assert rankings(cascade, tus_bench.query_tables) == rankings(
            flat, tus_bench.query_tables
        )

    @pytest.mark.parametrize("backend", ["overlap", "d3l", "santos"])
    @pytest.mark.parametrize("seed", [5, 23])
    def test_exact_parity_over_random_lakes(self, backend, seed):
        """Property-style: exact-mode parity holds for arbitrary lake shapes."""
        bench = generate_tus_benchmark(
            num_base_tables=3,
            base_rows=20,
            lake_tables_per_base=3,
            num_queries=2,
            seed=seed,
        )
        flat = BACKEND_FACTORIES[backend](bench).index(bench.lake)
        cascade = CascadeSearcher(flat, mode="exact").index(bench.lake)
        assert rankings(cascade, bench.query_tables, k=6) == rankings(
            flat, bench.query_tables, k=6
        )


# ------------------------------------------------------------------ approx
class TestApproxMode:
    def test_prefilter_auto_selection(self, tus_bench):
        lake = fresh_lake(tus_bench)
        lsh = CascadeSearcher(ValueOverlapSearcher()).index(lake)
        assert lsh.prefilter.name == "lsh"
        projection = CascadeSearcher(D3LSearcher()).index(lake)
        assert projection.prefilter.name == "projection"

    def test_approx_recall_floor_at_full_budget(self, tus_bench):
        """With budget >= lake size the configured recall floor is 1.0."""
        lake = fresh_lake(tus_bench)
        flat = D3LSearcher().index(lake)
        cascade = CascadeSearcher(
            flat, mode="approx", candidate_budget=lake.num_tables
        ).index(lake)
        k = 5
        for query in tus_bench.query_tables:
            exact_top = {hit.table_name for hit in flat.search(query, k)}
            approx_top = {hit.table_name for hit in cascade.search(query, k)}
            assert len(exact_top & approx_top) / k == 1.0

    def test_escalation_fires_inside_margin_band(self, tus_bench):
        """A cut that excluded something, inside the band: exactly the base's
        full-lake ranking, not the narrow one."""
        lake = fresh_lake(tus_bench)
        flat = ValueOverlapSearcher().index(lake)
        cascade = CascadeSearcher(
            flat, mode="approx", candidate_budget=4, escalation_margin=math.inf
        ).index(lake)
        query = tus_bench.query_tables[0]
        _, margin = cascade.prefilter.candidates(query, 4)
        assert margin < math.inf
        assert rankings(cascade, [query], k=4) == rankings(flat, [query], k=4)

    def test_no_escalation_when_nothing_excluded(self, tus_bench):
        """Budget >= lake size yields an infinite margin: never escalate."""
        lake = fresh_lake(tus_bench)
        cascade = CascadeSearcher(
            ValueOverlapSearcher(),
            mode="approx",
            candidate_budget=lake.num_tables,
            escalation_margin=math.inf,
        ).index(lake)
        query = tus_bench.query_tables[0]
        names, margin = cascade.prefilter.candidates(query, lake.num_tables)
        assert margin == math.inf
        assert cascade.search(query, 4) == rank_scores(
            cascade.base.score_candidates(query, names), 4
        )

    def test_default_margin_never_escalates(self, tus_bench):
        """Margin 0: the ranking is the narrow scoring of the prefilter's
        candidates."""
        lake = fresh_lake(tus_bench)
        cascade = CascadeSearcher(
            ValueOverlapSearcher(), mode="approx", candidate_budget=4
        ).index(lake)
        query = tus_bench.query_tables[0]
        names, _ = cascade.prefilter.candidates(query, 4)
        assert len(names) <= 4
        assert cascade.search(query, 4) == rank_scores(
            cascade.base.score_candidates(query, names), 4
        )

    def test_budget_never_below_k(self, tus_bench):
        """Asking for more results than the budget widens the candidate set."""
        lake = fresh_lake(tus_bench)
        cascade = CascadeSearcher(
            ValueOverlapSearcher(), mode="approx", candidate_budget=2
        ).index(lake)
        results = cascade.search(tus_bench.query_tables[0], 6)
        assert len(results) == 6

    def test_invalid_arguments_rejected(self):
        base = ValueOverlapSearcher()
        with pytest.raises(SearchError):
            CascadeSearcher(base, mode="fuzzy")
        with pytest.raises(SearchError):
            CascadeSearcher(base, candidate_budget=0)
        with pytest.raises(SearchError):
            CascadeSearcher(base, escalation_margin=-0.1)
        with pytest.raises(SearchError):
            CascadeSearcher(base, prefilter="bloom")
        with pytest.raises(SearchError):
            CascadeSearcher(base, num_hashes=10, num_bands=4)
        with pytest.raises(SearchError):
            CascadeSearcher(base, projection_dim=0)

    def test_score_candidates_validates_names(self, tus_bench):
        lake = fresh_lake(tus_bench)
        flat = ValueOverlapSearcher().index(lake)
        with pytest.raises(SearchError):
            flat.score_candidates(tus_bench.query_tables[0], ["no_such_table"])


# ------------------------------------------------------------------ sharding
class TestShardedComposition:
    @pytest.mark.parametrize("backend", ["overlap", "d3l", "oracle"])
    def test_sharded_cascade_matches_flat_cascade(self, tus_bench, backend):
        lake = fresh_lake(tus_bench)
        flat = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        sharded = ShardedSearcher(
            lambda: BACKEND_FACTORIES[backend](tus_bench), num_shards=3
        ).index(lake)
        for mode, budget in (("exact", 32), ("approx", 6)):
            over_flat = CascadeSearcher(
                flat, mode=mode, candidate_budget=budget
            ).index(lake)
            over_sharded = CascadeSearcher(
                sharded, mode=mode, candidate_budget=budget
            ).index(lake)
            assert rankings(over_sharded, tus_bench.query_tables) == rankings(
                over_flat, tus_bench.query_tables
            )

    def test_cascade_fingerprint_shared_across_flat_and_sharded(self, tus_bench):
        """Sharding is an execution strategy, not a semantic config change."""
        lake = fresh_lake(tus_bench)
        flat = CascadeSearcher(ValueOverlapSearcher().index(lake)).index(lake)
        sharded_base = ShardedSearcher(ValueOverlapSearcher, num_shards=3)
        sharded = CascadeSearcher(sharded_base).index(lake)
        # Everything that keys a *store entry* is shared: the base's own
        # fingerprint (per-shard and whole-lake entries live in one
        # namespace) and the persisted prefilter's.
        assert flat.base.config_fingerprint() == sharded.base.config_fingerprint()
        assert (
            CascadePrefilterEntry(flat).config_fingerprint()
            == CascadePrefilterEntry(sharded).config_fingerprint()
        )
        # The composite's own fingerprint (result-cache key, provenance) also
        # folds the base *class*, so it tells the two deployments apart.
        assert flat.config_fingerprint() != sharded.config_fingerprint()

    def test_sharded_score_candidates_rejects_unknown_names(self, tus_bench):
        lake = fresh_lake(tus_bench)
        sharded = ShardedSearcher(ValueOverlapSearcher, num_shards=3).index(lake)
        with pytest.raises(SearchError):
            sharded.score_candidates(tus_bench.query_tables[0], ["no_such_table"])


# ------------------------------------------------------------------ persistence
class TestPersistence:
    @pytest.mark.parametrize("backend", ["overlap", "santos"])
    def test_index_state_round_trip(self, tus_bench, backend):
        """The cascade's own persisted state is its fitted prefilter."""
        lake = fresh_lake(tus_bench)
        built = CascadeSearcher(
            BACKEND_FACTORIES[backend](tus_bench), mode="approx", candidate_budget=6
        ).index(lake)
        state, arrays = CascadePrefilterEntry(built).index_state()

        restored = CascadeSearcher(
            BACKEND_FACTORIES[backend](tus_bench), mode="approx", candidate_budget=6
        ).index(lake)
        restored._prefilter = None
        CascadePrefilterEntry(restored).load_index_state(lake, state, arrays)
        assert rankings(restored, tus_bench.query_tables) == rankings(
            built, tus_bench.query_tables
        )
        assert restored.prefilter.name == built.prefilter.name

    def test_store_round_trip(self, tus_bench, tmp_path, monkeypatch):
        lake = fresh_lake(tus_bench)

        def deployment():
            return CascadeSearcher(
                ValueOverlapSearcher(), mode="approx", candidate_budget=6
            )

        built = deployment().warm(lake, IndexStore(tmp_path))
        # One entry format: the base's own entry plus the prefilter's.
        assert len(list(tmp_path.glob("ValueOverlapSearcher-*/*/manifest.json"))) == 1
        assert len(list(tmp_path.glob("CascadePrefilterEntry-*/*/manifest.json"))) == 1
        assert not list(tmp_path.glob("CascadeSearcher-*"))

        def forbid(*_args, **_kwargs):
            raise AssertionError("a warm store must restore, not rebuild or refit")

        monkeypatch.setattr(ValueOverlapSearcher, "_build_index", forbid)
        monkeypatch.setattr(CascadeSearcher, "_fit_prefilter", forbid)
        store = IndexStore(tmp_path)
        before = store.stats()
        restored = deployment().warm(lake, store)
        assert rankings(restored, tus_bench.query_tables) == rankings(
            built, tus_bench.query_tables
        )
        assert store.stats() == before

    def test_legacy_monolithic_entry_heals_by_refit_and_repersist(
        self, tus_bench, tmp_path
    ):
        """Stores written before the one-format change hold cascade-over-flat
        deployments as a single ``CascadeSearcher-*`` entry.  That namespace
        is no longer read: the first warm rebuilds the base, refits the
        prefilter and persists both in the current format; the second warm
        is a pure load."""
        lake = fresh_lake(tus_bench)
        store = IndexStore(tmp_path)
        cascade = CascadeSearcher(
            ValueOverlapSearcher(), mode="approx", candidate_budget=6
        )
        store._write_entry(
            store.root
            / f"CascadeSearcher-{cascade.config_fingerprint()[:12]}"
            / lake.fingerprint()[:16],
            state={"base": {}, "cascade": {"prefilter_name": "lsh", "prefilter": {}}},
            arrays={},
            manifest={
                "store_format": 1,
                "config_fingerprint": cascade.config_fingerprint(),
                "lake_fingerprint": lake.fingerprint(),
            },
        )
        legacy_only = store.stats()["entries"]
        healed = cascade.warm(lake, store)
        assert store.stats()["entries"] == legacy_only + 2  # base + prefilter
        reference = CascadeSearcher(
            ValueOverlapSearcher(), mode="approx", candidate_budget=6
        ).index(lake)
        assert rankings(healed, tus_bench.query_tables) == rankings(
            reference, tus_bench.query_tables
        )
        before = store.stats()
        CascadeSearcher(
            ValueOverlapSearcher(), mode="approx", candidate_budget=6
        ).warm(lake, store)
        assert store.stats() == before

    def test_refresh_refits_prefilter(self, tus_bench):
        lake = fresh_lake(tus_bench)
        cascade = CascadeSearcher(
            ValueOverlapSearcher(), mode="approx", candidate_budget=4
        ).index(lake)
        victim = lake.table_names()[0]
        lake.remove_table(victim)
        cascade.refresh()
        query = tus_bench.query_tables[0]
        names, _ = cascade.prefilter.candidates(query, lake.num_tables)
        assert victim not in names
        assert victim not in [name for name, _ in rankings(cascade, [query])[0]]


# ------------------------------------------------------------------ API surface
class TestCascadeConfig:
    def test_cascade_section_round_trips(self):
        config = DiscoveryConfig.from_dict(
            {"searcher": "overlap", "cascade": {"mode": "approx", "candidate_budget": 16}}
        )
        assert config.cascade["candidate_budget"] == 16
        assert config.cascade["prefilter"] == "auto"  # defaults merged in
        rebuilt = DiscoveryConfig.from_dict(config.to_dict())
        assert rebuilt.fingerprint() == config.fingerprint()

    def test_cascade_section_validated(self):
        for bad in (
            {"mode": "fuzzy"},
            {"prefilter": "bloom"},
            {"candidate_budget": 0},
            {"escalation_margin": -1.0},
            {"projection_dim": 0},
            {"num_hashes": 10, "num_bands": 4},
            {"budget": 4},  # unknown key
        ):
            with pytest.raises(ConfigurationError):
                DiscoveryConfig.from_dict({"cascade": bad})

    def test_cascade_changes_config_fingerprint(self):
        plain = DiscoveryConfig.from_dict({"searcher": "overlap"})
        approx = DiscoveryConfig.from_dict(
            {"searcher": "overlap", "cascade": {"mode": "approx"}}
        )
        wider = DiscoveryConfig.from_dict(
            {"searcher": "overlap", "cascade": {"mode": "approx", "candidate_budget": 64}}
        )
        assert len({plain.fingerprint(), approx.fingerprint(), wider.fingerprint()}) == 3

    def test_facade_exact_cascade_parity(self, tus_bench):
        lake = fresh_lake(tus_bench)
        cascaded = Discovery.from_config(
            {"searcher": {"name": "overlap"}, "cascade": {"mode": "exact"}}
        ).attach(lake)
        flat = Discovery.from_config({"searcher": {"name": "overlap"}}).attach(lake)
        query = tus_bench.query_tables[0]
        assert cascaded.search(query, 8) == flat.search(query, 8)
        assert isinstance(cascaded.searcher(), CascadeSearcher)
        assert cascaded.info()["cascade"] == "exact"
        assert flat.info()["cascade"] is None

    def test_facade_cascade_over_sharding(self, tus_bench):
        lake = fresh_lake(tus_bench)
        composed = Discovery.from_config(
            {
                "searcher": {"name": "overlap"},
                "sharding": {"num_shards": 3},
                "cascade": {"mode": "exact"},
            }
        ).attach(lake)
        flat = Discovery.from_config({"searcher": {"name": "overlap"}}).attach(lake)
        query = tus_bench.query_tables[0]
        assert composed.search(query, 8) == flat.search(query, 8)
        assert isinstance(composed.searcher(), CascadeSearcher)


class TestCascadeCLI:
    def test_search_cli_cascade_with_profile(self, capsys):
        exit_code = cli_main(
            [
                "search",
                "--benchmark",
                "tus",
                "--backend",
                "overlap",
                "--num-queries",
                "1",
                "--cascade-mode",
                "approx",
                "--cascade-budget",
                "8",
                "--profile",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        for stage in ("search", "alignment", "diversification", "total"):
            assert f"  {stage} " in captured.err

    def test_search_cli_exact_cascade_matches_plain(self, capsys, tmp_path):
        plain_out = tmp_path / "plain.json"
        cascade_out = tmp_path / "cascade.json"
        common = ["search", "--benchmark", "tus", "--backend", "overlap",
                  "--num-queries", "1"]
        assert cli_main(common + ["--output", str(plain_out)]) == 0
        assert (
            cli_main(
                common + ["--cascade-mode", "exact", "--output", str(cascade_out)]
            )
            == 0
        )
        plain = json.loads(plain_out.read_text())
        cascaded = json.loads(cascade_out.read_text())
        # Provenance fingerprints (cascade section present) and wall-clock
        # timings legitimately differ; the retrieved content must not.
        assert (
            plain["provenance"]["lake_fingerprint"]
            == cascaded["provenance"]["lake_fingerprint"]
        )
        for payload in (plain, cascaded):
            payload.pop("provenance", None)
            payload.pop("timings", None)
        assert plain == cascaded

    def test_warm_cli_persists_cascade_entries(self, tmp_path, capsys):
        exit_code = cli_main(
            [
                "warm",
                "--store",
                str(tmp_path),
                "--benchmark",
                "tus",
                "--backends",
                "overlap",
                "--num-queries",
                "1",
                "--cascade-mode",
                "approx",
                "--cascade-budget",
                "8",
            ]
        )
        assert exit_code == 0
        assert list(tmp_path.glob("ValueOverlapSearcher-*/*/manifest.json"))
        assert list(tmp_path.glob("CascadePrefilterEntry-*/*/manifest.json"))
