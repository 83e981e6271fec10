"""Tests for the executor's prefilter stage: prefilters, budgets, plumbing.

Covers the :class:`LSHPrefilter`/:class:`ProjectionPrefilter` candidate
generators and their persistence, the :class:`ShardedSearcher` prefilter
stage (no-budget bit-parity against every flat backend — property-style over
random lakes — full-budget identity, narrow scoring of the candidates),
flat (one shard) versus sharded parity, index-state round-trips through the
:class:`IndexStore` and the keys they are stored under, ``rebase`` onto a new
lake object, and the API surface (``DiscoveryConfig`` cascade section,
facade executor selection, the ``--cascade-*`` and ``--profile`` CLI flags).
"""

import json

import pytest
from testkit import BACKEND_FACTORIES, fresh_lake, make_table, rankings

import repro.search.sharded as sharded_module
from repro.api import Discovery, DiscoveryConfig
from repro.api.cli import main as cli_main
from repro.benchgen import generate_tus_benchmark
from repro.datalake import DataLake
from repro.search import (
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


def executor(factory, budget=None, num_shards=1):
    return ShardedSearcher(factory, num_shards=num_shards, candidate_budget=budget)


# ------------------------------------------------------------------ prefilters
class TestPrefilters:
    def test_lsh_candidates_respect_budget(self, tus_bench):
        lake = fresh_lake(tus_bench)
        base = ValueOverlapSearcher().index(lake)
        prefilter = LSHPrefilter()
        prefilter.fit(base, lake)
        query = tus_bench.query_tables[0]

        names = prefilter.candidates(query, 5)
        assert len(names) == 5
        assert len(set(names)) == 5
        assert all(name in lake.table_names() for name in names)
        assert set(names) <= set(prefilter.candidates(query, lake.num_tables))

    def test_lsh_fills_the_budget_when_the_query_is_a_lake_member(self, tus_bench):
        """The bucket probe of a query held in the lake finds the query
        itself; it is never a candidate, so it must not fill a budget slot."""
        lake = fresh_lake(tus_bench)
        query = lake.tables()[0]
        for copy in range(5):
            lake.add_table(query.copy(name=f"{query.name}_copy{copy}"))
        base = ValueOverlapSearcher().index(lake)
        prefilter = LSHPrefilter()
        prefilter.fit(base, lake)
        for budget in (5, 6):
            names = prefilter.candidates(query, budget)
            assert len(names) == budget
            assert query.name not in names

    def test_projection_candidates_match_lsh_contract(self, tus_bench):
        lake = fresh_lake(tus_bench)
        base = StarmieSearcher().index(lake)
        prefilter = ProjectionPrefilter()
        prefilter.fit(base, lake)
        assert len(prefilter.candidates(tus_bench.query_tables[0], 4)) == 4

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

        with pytest.raises(SearchError):
            LSHPrefilter().load_state({**state, "num_hashes": 32}, arrays)

    def test_projection_state_round_trip_requires_bind(self, tus_bench):
        lake = fresh_lake(tus_bench)
        base = SantosSearcher().index(lake)
        prefilter = ProjectionPrefilter()
        prefilter.fit(base, lake)
        state, arrays = prefilter.state()

        restored = ProjectionPrefilter()
        restored.load_state(state, arrays)
        with pytest.raises(SearchError):
            ProjectionPrefilter().load_state({**state, "dim": 8}, arrays)
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
        """Exact is no budget: the full fan-out, bit-identical to flat."""
        lake = fresh_lake(tus_bench)
        flat = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        one_shard = executor(lambda: BACKEND_FACTORIES[backend](tus_bench)).index(lake)
        assert rankings(one_shard, tus_bench.query_tables) == rankings(
            flat, tus_bench.query_tables
        )

    @pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
    def test_full_budget_approx_matches_exact(self, tus_bench, backend):
        """Budget >= lake size makes approx a reordering-free identity."""
        lake = fresh_lake(tus_bench)
        flat = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        approx = executor(
            lambda: BACKEND_FACTORIES[backend](tus_bench), budget=lake.num_tables
        ).index(lake)
        assert rankings(approx, tus_bench.query_tables) == rankings(
            flat, tus_bench.query_tables
        )

    @pytest.mark.parametrize("backend", ["overlap", "d3l", "santos"])
    @pytest.mark.parametrize("seed", [5, 23])
    def test_exact_parity_over_random_lakes(self, backend, seed):
        """Property-style: no-budget parity holds for arbitrary lake shapes."""
        bench = generate_tus_benchmark(
            num_base_tables=3,
            base_rows=20,
            lake_tables_per_base=3,
            num_queries=2,
            seed=seed,
        )
        flat = BACKEND_FACTORIES[backend](bench).index(bench.lake)
        one_shard = executor(lambda: BACKEND_FACTORIES[backend](bench)).index(bench.lake)
        assert rankings(one_shard, bench.query_tables, k=6) == rankings(
            flat, bench.query_tables, k=6
        )


# ------------------------------------------------------------------ approx
class TestApproxMode:
    def test_prefilter_auto_selection(self, tus_bench):
        lake = fresh_lake(tus_bench)
        lsh = executor(ValueOverlapSearcher, budget=32).index(lake)
        assert lsh.prefilter.name == "lsh"
        projection = executor(D3LSearcher, budget=32).index(lake)
        assert projection.prefilter.name == "projection"

    def test_approx_recall_floor_at_full_budget(self, tus_bench):
        """With budget >= lake size the configured recall floor is 1.0."""
        lake = fresh_lake(tus_bench)
        flat = D3LSearcher().index(lake)
        approx = executor(D3LSearcher, budget=lake.num_tables).index(lake)
        k = 5
        for query in tus_bench.query_tables:
            exact_top = {hit.table_name for hit in flat.search(query, k)}
            approx_top = {hit.table_name for hit in approx.search(query, k)}
            assert len(exact_top & approx_top) / k == 1.0

    def test_approx_ranks_exactly_the_prefilter_candidates(self, tus_bench):
        """Whether or not the cut excluded something, the ranking is the
        narrow scoring of the prefilter's candidates."""
        lake = fresh_lake(tus_bench)
        query = tus_bench.query_tables[0]
        for budget in (4, lake.num_tables):
            approx = executor(ValueOverlapSearcher, budget=budget).index(lake)
            names = approx.prefilter.candidates(query, budget)
            assert len(names) <= budget
            assert approx.search(query, 4) == rank_scores(
                approx.score_candidates(query, names), 4
            )

    def test_budget_never_below_k(self, tus_bench):
        """Asking for more results than the budget widens the candidate set."""
        lake = fresh_lake(tus_bench)
        approx = executor(ValueOverlapSearcher, budget=2).index(lake)
        results = approx.search(tus_bench.query_tables[0], 6)
        assert len(results) == 6

    def test_invalid_arguments_rejected(self, tus_bench):
        for budget in (0, -3):
            with pytest.raises(SearchError):
                executor(ValueOverlapSearcher, budget=budget)
        unindexed = executor(ValueOverlapSearcher, budget=4)
        with pytest.raises(SearchError):
            unindexed.search(tus_bench.query_tables[0], 4)
        no_stage = executor(ValueOverlapSearcher).index(fresh_lake(tus_bench))
        with pytest.raises(SearchError):
            no_stage.prefilter

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

        def factory():
            return BACKEND_FACTORIES[backend](tus_bench)

        for budget in (None, 6):
            flat = executor(factory, budget=budget).index(lake)
            sharded = executor(factory, budget=budget, num_shards=3).index(lake)
            assert rankings(sharded, tus_bench.query_tables) == rankings(
                flat, tus_bench.query_tables
            )

    def test_cascade_fingerprint_shared_across_flat_and_sharded(self):
        """Sharding is an execution strategy, not a semantic config change:
        the executor's fingerprint (result-cache key, provenance) and the
        persisted prefilter's are independent of the shard count."""
        flat = executor(ValueOverlapSearcher, budget=32)
        sharded = executor(ValueOverlapSearcher, budget=32, num_shards=3)
        assert flat.config_fingerprint() == sharded.config_fingerprint()
        assert (
            CascadePrefilterEntry(flat).config_fingerprint()
            == CascadePrefilterEntry(sharded).config_fingerprint()
        )
        # The budget is folded in; without a stage it is the backend's own.
        bare = ValueOverlapSearcher().config_fingerprint()
        assert executor(ValueOverlapSearcher).config_fingerprint() == bare
        assert flat.config_fingerprint() != bare
        assert executor(ValueOverlapSearcher, budget=16).config_fingerprint() not in (
            bare,
            flat.config_fingerprint(),
        )

    def test_sharded_score_candidates_rejects_unknown_names(self, tus_bench):
        lake = fresh_lake(tus_bench)
        sharded = ShardedSearcher(ValueOverlapSearcher, num_shards=3).index(lake)
        with pytest.raises(SearchError):
            sharded.score_candidates(tus_bench.query_tables[0], ["no_such_table"])

    @pytest.mark.parametrize("shards", [None, 3])
    def test_rebase_onto_a_grown_lake_matches_a_fresh_index(self, tus_bench, shards):
        """A facade-built approx deployment, re-pointed at a new lake object
        with one more table, ranks exactly like one indexed on that lake."""
        config = {"searcher": "overlap", "cascade": {"mode": "approx", "candidate_budget": 6}}
        if shards is not None:
            config["sharding"] = {"num_shards": shards}
        lake = fresh_lake(tus_bench)
        grown = DataLake([*lake.tables(), make_table("zz_newcomer", seed="grown")])
        with Discovery.from_config(config).attach(lake) as deployed:
            rebased = deployed.searcher().rebase(grown)
            with Discovery.from_config(config).attach(grown) as fresh:
                assert rankings(rebased, tus_bench.query_tables) == rankings(
                    fresh.searcher(), tus_bench.query_tables
                )


# ------------------------------------------------------------------ persistence
class TestPersistence:
    @pytest.mark.parametrize("backend", ["overlap", "santos"])
    def test_index_state_round_trip(self, tus_bench, backend):
        """The stage's own persisted state is its fitted prefilter."""
        lake = fresh_lake(tus_bench)

        def factory():
            return BACKEND_FACTORIES[backend](tus_bench)

        built = executor(factory, budget=6).index(lake)
        state, arrays = CascadePrefilterEntry(built, built.prefilter).index_state()

        restored = executor(factory, budget=6).index(lake)
        restored._prefilter = (
            CascadePrefilterEntry(restored).load_index_state(lake, state, arrays).prefilter
        )
        assert rankings(restored, tus_bench.query_tables) == rankings(
            built, tus_bench.query_tables
        )
        assert restored.prefilter.name == built.prefilter.name

    def test_store_round_trip(self, tus_bench, tmp_path, monkeypatch):
        lake = fresh_lake(tus_bench)

        def deployment():
            return executor(ValueOverlapSearcher, budget=6)

        built = deployment().warm(lake, IndexStore(tmp_path))
        # One entry format: the shard's entry plus the prefilter's.
        assert len(list(tmp_path.glob("ValueOverlapSearcher-*/*/manifest.json"))) == 1
        assert len(list(tmp_path.glob("CascadePrefilterEntry-*/*/manifest.json"))) == 1
        assert not list(tmp_path.glob("ShardedSearcher-*"))

        def forbid(*_args, **_kwargs):
            raise AssertionError("a warm store must restore, not rebuild or refit")

        monkeypatch.setattr(ValueOverlapSearcher, "_build_index", forbid)
        monkeypatch.setattr(sharded_module, "fit_prefilter", forbid)
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
        """Old stores may hold a flat deployment as a single
        ``CascadeSearcher-*`` entry.  That namespace is never read: the first
        warm builds the shard, fits the prefilter and persists both in the
        current format; the second warm is a pure load."""
        lake = fresh_lake(tus_bench)
        store = IndexStore(tmp_path)
        legacy_fingerprint = "5c0ffee" * 9 + "0"
        store._write_entry(
            store.root
            / f"CascadeSearcher-{legacy_fingerprint[:12]}"
            / lake.fingerprint()[:16],
            state={"base": {}, "cascade": {"prefilter_name": "lsh", "prefilter": {}}},
            arrays={},
            manifest={
                "store_format": 1,
                "config_fingerprint": legacy_fingerprint,
                "lake_fingerprint": lake.fingerprint(),
            },
        )
        legacy_only = store.stats()["entries"]
        healed = executor(ValueOverlapSearcher, budget=6).warm(lake, store)
        assert store.stats()["entries"] == legacy_only + 2  # shard + prefilter
        reference = executor(ValueOverlapSearcher, budget=6).index(lake)
        assert rankings(healed, tus_bench.query_tables) == rankings(
            reference, tus_bench.query_tables
        )
        before = store.stats()
        executor(ValueOverlapSearcher, budget=6).warm(lake, store)
        assert store.stats() == before

    def test_refresh_refits_prefilter(self, tus_bench):
        lake = fresh_lake(tus_bench)
        approx = executor(ValueOverlapSearcher, budget=4).index(lake)
        victim = lake.table_names()[0]
        lake.remove_table(victim)
        approx.refresh()
        query = tus_bench.query_tables[0]
        assert victim not in approx.prefilter.candidates(query, lake.num_tables)
        assert victim not in [name for name, _ in rankings(approx, [query])[0]]


class TestPersistedKeys:
    #: ``CascadePrefilterEntry-<prefix>`` per backend, independent of sharding.
    PREFILTER_PREFIXES = {
        "overlap": "3219f38f9af2",
        "d3l": "c17afe4bdc90",
        "santos": "4ecd769af992",
        "starmie": "b5d16c7aee4f",
    }

    @pytest.mark.parametrize("shards", [None, 4])
    def test_prefilter_entry_keys_are_pinned(self, shards):
        """Existing stores must keep loading: a moved key orphans every
        persisted prefilter, and the next warm refits them all."""
        config = {"cascade": {"mode": "approx"}}
        if shards is not None:
            config["sharding"] = {"num_shards": shards}
        discovery = Discovery.from_config(config)
        assert {
            backend: CascadePrefilterEntry(
                discovery._build_searcher(backend)
            ).config_fingerprint()[:12]
            for backend in self.PREFILTER_PREFIXES
        } == self.PREFILTER_PREFIXES

    def test_flat_approx_writes_one_backend_and_one_prefilter_entry(
        self, tus_bench, tmp_path
    ):
        config = {
            "searcher": "overlap",
            "serving": {"store_dir": str(tmp_path)},
            "cascade": {"mode": "approx", "candidate_budget": 6},
        }
        with Discovery.from_config(config).attach(fresh_lake(tus_bench)) as discovery:
            discovery.search(tus_bench.query_tables[0], 4)
        namespaces = sorted(path.name for path in tmp_path.iterdir())
        assert [name.split("-")[0] for name in namespaces] == [
            "CascadePrefilterEntry",
            "ValueOverlapSearcher",
        ]
        assert namespaces[0] == f"CascadePrefilterEntry-{self.PREFILTER_PREFIXES['overlap']}"
        assert all(len(list((tmp_path / name).iterdir())) == 1 for name in namespaces)


# ------------------------------------------------------------------ API surface
class TestCascadeConfig:
    def test_cascade_section_round_trips(self):
        config = DiscoveryConfig.from_dict(
            {"searcher": "overlap", "cascade": {"mode": "approx", "candidate_budget": 16}}
        )
        assert config.cascade == {"mode": "approx", "candidate_budget": 16}
        rebuilt = DiscoveryConfig.from_dict(config.to_dict())
        assert rebuilt.fingerprint() == config.fingerprint()

    def test_cascade_section_validated(self):
        for bad in (
            {"mode": "fuzzy"},
            {"candidate_budget": 0},
            {"candidate_budget": 2.5},
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
        # Flat exact is the bare backend; flat approx is a one-shard executor.
        assert isinstance(cascaded.searcher(), ValueOverlapSearcher)
        assert cascaded.info()["cascade"] == "exact"
        assert flat.info()["cascade"] is None
        approx = Discovery.from_config(
            {"searcher": {"name": "overlap"}, "cascade": {"mode": "approx"}}
        ).attach(lake)
        assert approx.searcher().num_shards == 1
        assert approx.searcher().candidate_budget == 32

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
        assert isinstance(composed.searcher(), ShardedSearcher)
        assert composed.searcher().candidate_budget is None


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
