"""Tests for lake sharding: partitioning, partial builds, fan-out serving.

Covers the :class:`LakePartitioner`/:class:`LakeShard` views, the seed-table
journaling fix, per-shard builds merged at query time (property-style parity
against monolithic ``index()`` over random lakes and partitions, including
shard-then-delta sequences), the :class:`ShardedSearcher` composite
(fan-out/merge parity, shard-local refresh, per-shard store persistence), the
build-only :mod:`repro.utils.parallel` fan-out and the API surface
(``DiscoveryConfig`` sharding section, transparent facade sharding, the warm
CLI's ``--shards``).
"""

import os

import pytest
from testkit import (
    BACKEND_FACTORIES,
    fresh_lake,
    make_table,
    random_lake,
    rankings,
)

import repro.datalake.lake as lake_module
from repro.api import Discovery, DiscoveryConfig
from repro.api.cli import main as cli_main
from repro.datalake import DataLake, LakePartitioner, LakeShard, Table
from repro.search import (
    OracleSearcher,
    ShardedSearcher,
    StarmieSearcher,
    ValueOverlapSearcher,
)
from repro.serving import IndexStore
from repro.utils.errors import (
    ConfigurationError,
    DataLakeError,
    SearchError,
)
from repro.utils import parallel
from repro.utils.parallel import fork_available, forked_map, probe_gate
from repro.utils.rng import seeded_rng


# ----------------------------------------------------------------- partitioner
class TestLakePartitioner:
    def test_partition_is_deterministic_and_covering(self, tus_bench):
        lake = fresh_lake(tus_bench)
        partitioner = LakePartitioner(4)
        first = partitioner.partition(lake)
        second = partitioner.partition(lake)
        assert all(isinstance(shard, LakeShard) for shard in first)
        assert [shard.table_names for shard in first] == [
            shard.table_names for shard in second
        ]
        names = [name for shard in first for name in shard.table_names]
        assert sorted(names) == sorted(lake.table_names())  # disjoint + complete

    def test_hash_assignment_is_mutation_stable(self, tus_bench):
        lake = fresh_lake(tus_bench)
        partitioner = LakePartitioner(4)
        before = {
            name: shard.shard_id
            for shard in partitioner.partition(lake)
            for name in shard.table_names
        }
        lake.add_table(make_table("newcomer"))
        after = {
            name: shard.shard_id
            for shard in partitioner.partition(lake)
            for name in shard.table_names
        }
        assert all(after[name] == shard for name, shard in before.items())
        assert after["newcomer"] == partitioner.shard_id_of("newcomer")

    def test_shard_lake_shares_table_objects(self, tus_bench):
        lake = fresh_lake(tus_bench)
        shard = LakePartitioner(3).partition(lake)[0]
        view = shard.to_lake()
        for name in shard.table_names:
            assert view.get(name) is lake.get(name)  # no copying
        assert shard.fingerprint() == view.fingerprint()

    def test_mutation_moves_exactly_one_shard_fingerprint(self, tus_bench):
        lake = fresh_lake(tus_bench)
        partitioner = LakePartitioner(4)
        before = {s.shard_id: s.fingerprint() for s in partitioner.partition(lake)}
        mutated = lake.table_names()[0]
        grown = lake.get(mutated).copy()
        grown.append_rows([tuple(f"new{i}" for i in range(grown.num_columns))])
        lake.replace_table(grown)
        after = {s.shard_id: s.fingerprint() for s in partitioner.partition(lake)}
        changed = [sid for sid in before if before[sid] != after[sid]]
        assert changed == [partitioner.shard_id_of(mutated)]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(DataLakeError):
            LakePartitioner(0)

    def test_more_shards_than_tables_leaves_empty_shards(self):
        lake = DataLake([make_table("a"), make_table("b")])
        shards = LakePartitioner(8).partition(lake)
        assert len(shards) == 8
        assert sum(shard.num_tables for shard in shards) == 2
        assert any(shard.is_empty for shard in shards)


# ------------------------------------------------------------- seed journaling
class TestSeedJournaling:
    def test_seeding_does_not_burn_journal_window(self, monkeypatch):
        monkeypatch.setattr(lake_module, "MAX_JOURNAL_ENTRIES", 4)
        lake = DataLake([make_table(f"seed{i}") for i in range(64)])
        assert lake.version == 0
        delta = lake.changes_since(0)
        assert delta is not None and delta.is_empty  # not a forced rebuild
        lake.add_table(make_table("late"))
        assert lake.changes_since(0).added == ("late",)

    def test_shard_views_never_advance_parent_consumers(self, tus_bench):
        lake = fresh_lake(tus_bench)
        base = lake.version
        for shard in LakePartitioner(4).partition(lake):
            shard.to_lake()  # materialising views must not journal anything
        assert lake.version == base


# ------------------------------------- sharded fan-out == monolithic (property)
# (The test ids keep their pre-PR-13 "merge_of_partials" name: renaming 15
# parametrised ids would spend the per-PR removed-test budget on a label.)
class TestPartialMergeParity:
    @pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_of_partials_matches_monolithic(self, tus_bench, backend, seed):
        """Property: random lake x random partition -> fan-out merge == monolithic."""
        rng = seeded_rng(100 + seed)
        if backend == "oracle":
            lake = fresh_lake(tus_bench)  # ground truth must reference the lake
            queries = tus_bench.query_tables
        else:
            lake = random_lake(seed)
            queries = [make_table("query", seed="tok"), random_lake(seed + 50, 1).tables()[0].copy(name="q2")]
        num_shards = int(rng.integers(2, 6))
        factory = BACKEND_FACTORIES[backend]
        monolithic = factory(tus_bench).index(lake)
        sharded = ShardedSearcher(
            lambda: factory(tus_bench), num_shards=num_shards
        ).index(lake)
        assert sum(s is not None for s in sharded.shard_searchers) >= 1
        assert rankings(sharded, queries) == rankings(monolithic, queries)

    @pytest.mark.parametrize("backend", ["overlap", "starmie", "d3l", "santos"])
    def test_shard_then_delta_then_remerge(self, tus_bench, backend):
        """Mutating one shard, delta-updating it and re-merging stays exact."""
        lake = fresh_lake(tus_bench)
        factory = BACKEND_FACTORIES[backend]
        sharded = ShardedSearcher(
            lambda: factory(tus_bench), num_shards=3
        ).index(lake)

        # Grow one table in place and add another: only their shards move.
        target = next(shard for shard in sharded.shards if shard.num_tables >= 2)
        grown = lake.get(target.table_names[0]).copy()
        grown.append_rows([tuple(f"extra{i}" for i in range(grown.num_columns))])
        lake.replace_table(grown)
        lake.add_table(make_table("zz_shardling"))
        sharded.refresh()
        monolithic = factory(tus_bench).index(lake)
        assert rankings(sharded, tus_bench.query_tables) == rankings(
            monolithic, tus_bench.query_tables
        )

    def test_build_partial_leaves_searcher_unindexed(self, tus_bench):
        searcher = ValueOverlapSearcher()
        shard = LakePartitioner(2).partition(fresh_lake(tus_bench))[0]
        searcher.build_partial(shard.to_lake())
        assert not searcher.is_indexed

    def test_forked_build_sharded_matches_serial(self, tus_bench, monkeypatch):
        if not fork_available():
            pytest.skip("platform has no fork")
        # The fan-out is measured, not configured: zero the gate (and pretend
        # to have two cores) so even this tiny lake forks its shard builds.
        forked_batches = []

        def recording_forked_map(func, items, *, workers):
            forked_batches.append((list(items), workers))
            return forked_map(func, items, workers=workers)

        monkeypatch.setattr(parallel, "FORK_MIN_SECONDS", 0.0)
        monkeypatch.setattr(parallel, "forked_map", recording_forked_map)
        monkeypatch.setattr("repro.search.sharded.os.cpu_count", lambda: 2)
        lake = fresh_lake(tus_bench)
        monolithic = ValueOverlapSearcher().index(lake)
        forked = ShardedSearcher(ValueOverlapSearcher, num_shards=4).index(lake)
        assert len(forked_batches) == 1 and forked_batches[0][1] == 2
        assert rankings(forked, tus_bench.query_tables) == rankings(
            monolithic, tus_bench.query_tables
        )

    def test_small_builds_never_fork(self, tus_bench, monkeypatch):
        def no_fork(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a millisecond build must stay in-process")

        monkeypatch.setattr(parallel, "forked_map", no_fork)
        ShardedSearcher(ValueOverlapSearcher, num_shards=4).index(fresh_lake(tus_bench))

    def test_build_sharded_single_shard_is_plain_index(self, tus_bench):
        lake = fresh_lake(tus_bench)
        searcher = ShardedSearcher(ValueOverlapSearcher, num_shards=1).index(lake)
        (only,) = searcher.shard_searchers
        assert searcher.is_indexed and searcher.lake is lake
        assert set(only.lake.table_names()) == set(lake.table_names())


# -------------------------------------------------------------- rebase helper
class TestRebase:
    def test_rebase_unindexed_is_index(self, tus_bench):
        lake = fresh_lake(tus_bench)
        searcher = ValueOverlapSearcher().rebase(lake)
        assert searcher.is_indexed and searcher.lake is lake

    def test_rebase_applies_cross_object_delta(self, tus_bench):
        lake = fresh_lake(tus_bench)
        searcher = ValueOverlapSearcher().index(lake)
        moved = fresh_lake(tus_bench)
        moved.add_table(make_table("zz_rebase"))
        searcher.rebase(moved)
        assert searcher.lake is moved
        rebuilt = ValueOverlapSearcher().index(moved)
        assert rankings(searcher, tus_bench.query_tables) == rankings(
            rebuilt, tus_bench.query_tables
        )

    def test_rebase_empty_lake_rejected(self, tus_bench):
        searcher = ValueOverlapSearcher().index(fresh_lake(tus_bench))
        with pytest.raises(SearchError):
            searcher.rebase(DataLake())


# ------------------------------------------------------------ sharded searcher
class TestShardedSearcher:
    @pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
    def test_fan_out_matches_monolithic(self, tus_bench, backend):
        lake = fresh_lake(tus_bench)
        factory = BACKEND_FACTORIES[backend]
        monolithic = factory(tus_bench).index(lake)
        sharded = ShardedSearcher(
            lambda: factory(tus_bench), num_shards=4
        ).index(lake)
        assert rankings(sharded, tus_bench.query_tables) == rankings(
            monolithic, tus_bench.query_tables
        )

    def test_starmie_oversized_tables_align_to_global_corpus(self, tus_bench):
        # Oversized column documents make embeddings corpus-dependent; the
        # shard-group finalization must erase the shard-local fit exactly.
        lake = fresh_lake(tus_bench)
        lake.add_table(
            Table(name="huge", columns=["words"], rows=[(f"token{i}",) for i in range(700)])
        )
        monolithic = StarmieSearcher().index(lake)
        sharded = ShardedSearcher(
            StarmieSearcher, num_shards=4
        ).index(lake)
        assert rankings(sharded, tus_bench.query_tables) == rankings(
            monolithic, tus_bench.query_tables
        )

    def test_starmie_oversized_refresh_realigns(self, tus_bench):
        # A refresh changes shard-local corpora; finalization must re-derive
        # the global fit and re-encode oversized tables in *other* shards.
        lake = fresh_lake(tus_bench)
        lake.add_table(
            Table(name="huge", columns=["words"], rows=[(f"token{i}",) for i in range(700)])
        )
        sharded = ShardedSearcher(
            StarmieSearcher, num_shards=4
        ).index(lake)
        lake.add_table(make_table("zz_corpus_shift"))
        sharded.refresh()
        rebuilt = StarmieSearcher().index(lake)
        assert rankings(sharded, tus_bench.query_tables) == rankings(
            rebuilt, tus_bench.query_tables
        )

    def test_refresh_touches_only_changed_shards(self, tus_bench):
        lake = fresh_lake(tus_bench)
        sharded = ShardedSearcher(
            ValueOverlapSearcher, num_shards=4
        ).index(lake)
        before = list(sharded.shard_searchers)
        mutated = lake.table_names()[0]
        shard_id = sharded.partitioner.shard_id_of(mutated)
        grown = lake.get(mutated).copy()
        grown.append_rows([tuple(f"new{i}" for i in range(grown.num_columns))])
        lake.replace_table(grown)
        sharded.refresh()
        after = sharded.shard_searchers
        for position, (old, new) in enumerate(zip(before, after)):
            if position == shard_id:
                continue
            assert new is old  # untouched shards keep their searchers
        rebuilt = ValueOverlapSearcher().index(lake)
        assert rankings(sharded, tus_bench.query_tables) == rankings(
            rebuilt, tus_bench.query_tables
        )

    def test_refresh_matches_rebuild_for_every_backend(self, tus_bench):
        for backend, factory in BACKEND_FACTORIES.items():
            lake = fresh_lake(tus_bench)
            sharded = ShardedSearcher(
                lambda: factory(tus_bench), num_shards=3
            ).index(lake)
            lake.add_table(make_table("zz_refresh"))
            sharded.refresh()
            rebuilt = factory(tus_bench).index(lake)
            assert rankings(sharded, tus_bench.query_tables) == rankings(
                rebuilt, tus_bench.query_tables
            ), backend

    def test_oracle_sharded_revalidates_on_refresh(self, tus_bench):
        lake = fresh_lake(tus_bench)
        sharded = ShardedSearcher(
            lambda: OracleSearcher(tus_bench.ground_truth),
            num_shards=3,
        ).index(lake)
        labelled = next(iter(tus_bench.ground_truth.values()))[0]
        lake.remove_table(labelled)
        with pytest.raises(SearchError):
            sharded.refresh()

    def test_invalid_k_and_factory_rejected(self, tus_bench):
        with pytest.raises(SearchError):
            ShardedSearcher(lambda: object(), num_shards=2)  # not a searcher
        lake = fresh_lake(tus_bench)
        sharded = ShardedSearcher(
            ValueOverlapSearcher, num_shards=2
        ).index(lake)
        with pytest.raises(SearchError):
            sharded.search(tus_bench.query_tables[0], 0)

    def test_config_fingerprint_matches_prototype(self):
        sharded = ShardedSearcher(ValueOverlapSearcher, num_shards=4)
        assert sharded.config_fingerprint() == ValueOverlapSearcher().config_fingerprint()
        assert sharded.config_state() == {
            "base_fingerprint": ValueOverlapSearcher().config_fingerprint(),
            "candidate_budget": None,
        }

    def test_score_table_delegates_to_owning_shard(self, tus_bench):
        lake = fresh_lake(tus_bench)
        sharded = ShardedSearcher(
            ValueOverlapSearcher, num_shards=3
        ).index(lake)
        flat = ValueOverlapSearcher().index(lake)
        query = tus_bench.query_tables[0]
        member = lake.tables()[0]
        assert sharded._score_table(query, member) == flat._score_table(query, member)
        assert len(sharded.shards) == 3
        with pytest.raises(SearchError):
            sharded._score_table(query, make_table("stranger"))

    def test_more_shards_than_tables(self, tus_bench):
        lake = DataLake([make_table("a"), make_table("b", seed="y")])
        sharded = ShardedSearcher(
            ValueOverlapSearcher, num_shards=8
        ).index(lake)
        hits = sharded.search(make_table("q", seed="y"), 5)
        assert [hit.table_name for hit in hits] == [
            hit.table_name for hit in ValueOverlapSearcher().index(lake).search(make_table("q", seed="y"), 5)
        ]


# ------------------------------------------------------- per-shard persistence
class TestShardStorePersistence:
    def test_per_shard_entries_and_load_path(self, tus_bench, tmp_path):
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)
        first = ShardedSearcher(
            ValueOverlapSearcher, num_shards=3, store=store
        ).index(lake)
        occupied = sum(1 for s in first.shard_searchers if s is not None)
        entries = list(store.backend_dir(ValueOverlapSearcher()).glob("*/manifest.json"))
        assert len(entries) == occupied  # one entry per non-empty shard

        # A second sharded deployment over the same content loads every shard.
        builds = {"count": 0}
        original = ValueOverlapSearcher._build_index

        def counting_build(self, lake):
            builds["count"] += 1
            return original(self, lake)

        ValueOverlapSearcher._build_index = counting_build
        try:
            second = ShardedSearcher(
                ValueOverlapSearcher, num_shards=3, store=store
            ).index(lake)
        finally:
            ValueOverlapSearcher._build_index = original
        assert builds["count"] == 0  # all shards served from the store
        assert rankings(second, tus_bench.query_tables) == rankings(
            first, tus_bench.query_tables
        )

    def test_mutating_one_shard_persists_only_that_shard(self, tus_bench, tmp_path):
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)
        sharded = ShardedSearcher(
            ValueOverlapSearcher, num_shards=3, store=store
        ).index(lake)
        backend_dir = store.backend_dir(ValueOverlapSearcher())
        before = {p.parent.name for p in backend_dir.glob("*/manifest.json")}
        mutated = lake.table_names()[0]
        grown = lake.get(mutated).copy()
        grown.append_rows([tuple(f"new{i}" for i in range(grown.num_columns))])
        lake.replace_table(grown)
        sharded.refresh()
        after = {p.parent.name for p in backend_dir.glob("*/manifest.json")}
        assert before <= after  # old shard entries remain valid snapshots
        assert len(after - before) == 1  # exactly one shard re-persisted

    def test_default_store_bound_never_evicts_live_shards(self, tus_bench, tmp_path):
        # Regression: with the store's default per-backend entry bound (8),
        # building >8 shards used to evict live shard entries mid-build; the
        # composite now raises the bound to fit every live shard.
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)
        sharded = ShardedSearcher(
            ValueOverlapSearcher, num_shards=12, store=store
        ).index(lake)
        occupied = sum(1 for s in sharded.shard_searchers if s is not None)
        assert occupied > 8
        entries = list(store.backend_dir(ValueOverlapSearcher()).glob("*/manifest.json"))
        assert len(entries) == occupied

    def test_build_sharded_second_warm_is_a_pure_load(
        self, tus_bench, tmp_path, monkeypatch
    ):
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)

        def deployment():
            return ShardedSearcher(
                ValueOverlapSearcher, num_shards=4
            )

        first = deployment().warm(lake, store)
        before = store.stats()

        def forbid(*_args, **_kwargs):
            raise AssertionError("warm store entries should have been loaded")

        monkeypatch.setattr(ValueOverlapSearcher, "_build_index", forbid)
        second = deployment().warm(lake, IndexStore(tmp_path))
        assert second.deferred_shards  # nothing loaded until first touch
        assert rankings(second, tus_bench.query_tables) == rankings(
            first, tus_bench.query_tables
        )
        assert store.stats() == before  # and nothing written

    def test_sharded_service_skips_monolithic_store_entry(self, tus_bench, tmp_path):
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)
        searcher = ShardedSearcher(
            ValueOverlapSearcher, num_shards=3
        ).warm(lake, store)
        assert searcher.store is store  # the composite persists per shard
        assert not list(tmp_path.glob("ShardedSearcher-*"))  # no composite entry
        lake.add_table(make_table("zz_served"))
        searcher.refresh()
        searcher.persist()
        assert not list(tmp_path.glob("ShardedSearcher-*"))
        fresh = ValueOverlapSearcher().index(lake)
        query = tus_bench.query_tables[0]
        assert searcher.search(query, 8) == fresh.search(query, 8)


# ------------------------------------------------------------- utils.parallel
class TestParallelUtils:
    def test_probe_gate_skips_fan_out_below_threshold(self):
        served = []
        remaining, fan_out = probe_gate(
            [1, 2, 3], served.append, min_seconds=10_000.0
        )
        assert not fan_out
        assert served == [1]  # one cheap probe settles it; the 2nd never runs
        assert remaining == [2, 3]

    def test_probe_gate_zero_threshold_always_fans_out(self):
        served = []
        remaining, fan_out = probe_gate([1, 2, 3, 4], served.append, min_seconds=0.0)
        assert fan_out and served == [1, 2] and remaining == [3, 4]

    def test_probe_gate_exhausts_small_workloads(self):
        served = []
        remaining, fan_out = probe_gate([1], served.append, min_seconds=10.0)
        assert served == [1] and remaining == [] and not fan_out

    def test_forked_map_inherits_closures(self):
        if not fork_available():
            pytest.skip("platform has no fork")
        payload = {"base": 10}  # captured, unpicklable-by-reference state
        parent = os.getpid()
        results = forked_map(
            lambda x: (payload["base"] + x, os.getpid()), [1, 2, 3], workers=2
        )
        assert [value for value, _ in results] == [11, 12, 13]
        assert all(pid != parent for _, pid in results)  # really ran in workers

    def test_forked_map_empty_items(self):
        assert forked_map(lambda x: x, [], workers=4) == []


# ---------------------------------------------------------------- API surface
class TestShardingConfig:
    def test_sharding_section_round_trips(self):
        config = DiscoveryConfig.from_dict(
            {"searcher": "overlap", "sharding": {"num_shards": 4}}
        )
        assert config.sharding == {"num_shards": 4}
        rebuilt = DiscoveryConfig.from_dict(config.to_dict())
        assert rebuilt.fingerprint() == config.fingerprint()

    def test_sharding_section_validated(self):
        with pytest.raises(ConfigurationError):
            DiscoveryConfig.from_dict({"sharding": {"num_shards": 0}})
        with pytest.raises(ConfigurationError):
            DiscoveryConfig.from_dict({"sharding": {"strategy": "hash"}})  # removed
        with pytest.raises(ConfigurationError):
            DiscoveryConfig.from_dict({"sharding": {"shards": 4}})  # unknown key

    def test_facade_transparent_sharding_parity(self, tus_bench):
        lake = fresh_lake(tus_bench)
        sharded = Discovery.from_config(
            {
                "searcher": {"name": "overlap"},
                "sharding": {"num_shards": 3},
            }
        ).attach(lake)
        flat = Discovery.from_config({"searcher": {"name": "overlap"}}).attach(lake)
        query = tus_bench.query_tables[0]
        assert sharded.search(query, 8) == flat.search(query, 8)
        assert isinstance(sharded.searcher(), ShardedSearcher)
        assert sharded.info()["num_shards"] == 3

    def test_facade_sharding_with_serving_and_store(self, tus_bench, tmp_path):
        lake = fresh_lake(tus_bench)
        discovery = Discovery.from_config(
            {
                "searcher": {"name": "overlap"},
                "serving": {"store_dir": str(tmp_path)},
                "sharding": {"num_shards": 3},
            }
        ).attach(lake)
        query = tus_bench.query_tables[0]
        served = discovery.search(query, 8)
        flat = Discovery.from_config({"searcher": {"name": "overlap"}}).attach(lake)
        assert served == flat.search(query, 8)
        assert not list(tmp_path.glob("ShardedSearcher-*"))
        assert list(tmp_path.glob("ValueOverlapSearcher-*/*/manifest.json"))

    def test_warm_cli_writes_exactly_what_a_sharded_cascade_server_reads(
        self, tmp_path, capsys
    ):
        """Regression: ``warm`` used to build through a merged flat index, so
        none of its entries were hit and a sharded cascade server refit its
        prefilter on first boot."""
        import json

        from repro.api.facade import build_benchmark
        from repro.ingest.rebalance import find_sharded

        store_dir = tmp_path / "store"
        config = {
            "searcher": {"name": "overlap"},
            "sharding": {"num_shards": 4},
            "cascade": {"mode": "approx", "candidate_budget": 8},
            "serving": {"store_dir": str(store_dir)},
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        argv = ["--benchmark", "tus", "--num-queries", "2", "--seed", "5"]
        assert (
            cli_main(
                ["warm", "--config", str(config_file), "--store", str(store_dir)]
                + argv
                + ["--backends", "overlap"]
            )
            == 0
        )
        assert "built" in capsys.readouterr().out
        benchmark = build_benchmark("tus", num_queries=2, seed=5)
        lake, query = benchmark.lake, benchmark.query_tables[0]

        with Discovery.from_config(config).attach(lake) as served:
            warmed = served.store.stats()
            sharded = find_sharded(served.searcher())
            occupied = [s.shard_id for s in sharded.shards if not s.is_empty]
            assert len(occupied) > 1
            # (a) every shard restore is deferred: nothing loaded, nothing built
            assert sharded.deferred_shards == occupied
            # (b) attach + one cascade query only *read* the store
            assert len(served.search(query, 5)) == 5
            assert served.store.stats() == warmed
            assert warmed["entries"] == len(occupied) + 1  # shards + prefilter

        # (c) the same entries serve exact mode, bit-identical to a flat index
        exact = {**config, "cascade": {"mode": "exact"}}
        flat = ValueOverlapSearcher().index(lake)
        with Discovery.from_config(exact).attach(lake) as served:
            assert served.search(query, 5) == flat.search(query, 5)
            assert served.store.stats() == warmed

    def test_warm_cli_sharded(self, tmp_path, capsys):
        exit_code = cli_main(
            [
                "warm",
                "--store",
                str(tmp_path),
                "--benchmark",
                "tus",
                "--backends",
                "overlap",
                "--shards",
                "2",
                "--num-queries",
                "1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "shards=2" in output
        manifests = list(tmp_path.glob("ValueOverlapSearcher-*/*/manifest.json"))
        # exactly one entry per non-empty shard — what a sharded server reads
        assert len(manifests) == 2
