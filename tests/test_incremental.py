"""Tests for incremental lake mutation + delta index maintenance.

Covers the versioned :class:`DataLake` mutation API (journal netting,
fingerprint diffs), the :meth:`TableUnionSearcher.update_index`/``refresh``
protocol (per-backend delta-vs-rebuild ranking parity, rebuild fallback), the
delta-aware :class:`IndexStore`, the searcher's drift / indexed-lake digest,
result-cache invalidation and the lazy :meth:`Discovery.refresh` facade
semantics.
"""

import json

import pytest

import repro.datalake.lake as lake_module
import repro.serving.store as store_module
from repro.api import Discovery
from repro.benchgen import generate_tus_benchmark
from repro.datalake import DataLake, LakeDelta, Table, diff_table_fingerprints
from repro.search import (
    D3LSearcher,
    OracleSearcher,
    SantosSearcher,
    StarmieSearcher,
    ValueOverlapSearcher,
)
from repro.search.base import TableUnionSearcher
from repro.serving import IndexStore
from repro.utils.errors import (
    ConfigurationError,
    DataLakeError,
    SearchError,
)


@pytest.fixture(scope="module")
def tus_bench():
    """A small TUS-style benchmark with ground truth (for the oracle)."""
    return generate_tus_benchmark(
        num_base_tables=4, base_rows=30, lake_tables_per_base=4, num_queries=2, seed=11
    )


BACKEND_FACTORIES = {
    "overlap": lambda bench: ValueOverlapSearcher(),
    "starmie": lambda bench: StarmieSearcher(),
    "d3l": lambda bench: D3LSearcher(),
    "santos": lambda bench: SantosSearcher(),
    "oracle": lambda bench: OracleSearcher(bench.ground_truth),
}


def make_table(name: str, seed: str = "x") -> Table:
    return Table(
        name=name,
        columns=["city", "population"],
        rows=[(f"{seed}ville{i}", str(1000 + i)) for i in range(6)],
    )


def fresh_lake(bench) -> DataLake:
    """An independent copy of the benchmark lake (safe to mutate)."""
    return DataLake((table.copy() for table in bench.lake), name=bench.lake.name)


def mutate_tenth(lake: DataLake, bench) -> None:
    """Standard small mutation: one add, one remove, one in-place replace."""
    protected = {name for names in bench.ground_truth.values() for name in names}
    removable = [table.name for table in lake if table.name not in protected]
    lake.remove_table(removable[0])
    lake.add_table(make_table("zz_added"))
    target = lake.get(removable[1])
    grown = target.copy()
    grown.append_rows([tuple(f"new{i}" for i in range(target.num_columns))])
    lake.replace_table(grown)


def rankings(searcher, queries, k=8):
    return [
        [(hit.table_name, hit.score) for hit in searcher.search(query, k)]
        for query in queries
    ]


# --------------------------------------------------------------------- datalake
class TestLakeVersioning:
    def test_constructor_seeds_without_journaling(self):
        # Seed tables are the version-0 state, not mutations: constructing a
        # lake burns no journal entries and version-0 consumers see no delta.
        lake = DataLake([make_table("a"), make_table("b")])
        assert lake.version == 0
        delta = lake.changes_since(0)
        assert delta is not None and delta.is_empty

    def test_construction_churn_keeps_journal_window(self, monkeypatch):
        # Regression: seeding used to journal every table, so building a
        # large lake exhausted MAX_JOURNAL_ENTRIES and forced version-0
        # consumers into spurious full rebuilds (changes_since -> None).
        monkeypatch.setattr(lake_module, "MAX_JOURNAL_ENTRIES", 4)
        lake = DataLake([make_table(f"seed{i}") for i in range(32)])
        delta = lake.changes_since(0)
        assert delta is not None and delta.is_empty
        lake.add_table(make_table("late"))
        assert lake.changes_since(0).added == ("late",)

    def test_mutations_bump_version_and_journal(self):
        lake = DataLake([make_table("a")])
        base = lake.version
        lake.add_table(make_table("b"))
        lake.remove_table("a")
        delta = lake.changes_since(base)
        assert delta == LakeDelta(base_version=base, version=lake.version, added=("b",), removed=("a",))

    def test_add_then_remove_cancels(self):
        lake = DataLake([make_table("a")])
        base = lake.version
        lake.add_table(make_table("b"))
        lake.remove_table("b")
        delta = lake.changes_since(base)
        assert delta.is_empty and delta.num_changes == 0

    def test_replace_appears_in_both_lists(self):
        lake = DataLake([make_table("a")])
        base = lake.version
        lake.replace_table(make_table("a", seed="y"))
        delta = lake.changes_since(base)
        assert delta.added == ("a",) and delta.removed == ("a",)

    def test_replace_identical_content_is_noop(self):
        lake = DataLake([make_table("a")])
        base = lake.version
        previous = lake.replace_table(make_table("a"))
        assert previous.name == "a"
        assert lake.version == base
        assert lake.changes_since(base).is_empty

    def test_replace_missing_raises(self):
        lake = DataLake([make_table("a")])
        with pytest.raises(DataLakeError):
            lake.replace_table(make_table("ghost"))

    def test_touch_registers_inplace_mutation(self):
        lake = DataLake([make_table("a")])
        base = lake.version
        lake.get("a").append_rows([("late", "1")])
        assert lake.changes_since(base).is_empty  # append alone is invisible
        lake.touch("a")
        delta = lake.changes_since(base)
        assert delta.added == ("a",) and delta.removed == ("a",)
        with pytest.raises(DataLakeError):
            lake.touch("ghost")

    def test_future_version_returns_none(self):
        lake = DataLake([make_table("a")])
        assert lake.changes_since(lake.version + 1) is None

    def test_journal_floor_returns_none(self, monkeypatch):
        monkeypatch.setattr(lake_module, "MAX_JOURNAL_ENTRIES", 4)
        lake = DataLake()
        for i in range(8):
            lake.add_table(make_table(f"t{i}"))
        assert lake.changes_since(0) is None  # predates the retained window
        recent = lake.changes_since(lake.version - 2)
        assert recent is not None and len(recent.added) == 2

    def test_table_fingerprints_see_inplace_mutation(self):
        lake = DataLake([make_table("a"), make_table("b")])
        before = lake.table_fingerprints()
        lake.get("a").append_rows([("extra", "1")])
        added, removed = diff_table_fingerprints(before, lake.table_fingerprints())
        assert added == ["a"] and removed == ["a"]


class TestJournalCompaction:
    def test_trim_never_splits_a_replace_pair(self, monkeypatch):
        # Regression: the journal trim used to cut mid-group, so a consumer
        # whose anchor landed between a replace's remove+add entries (same
        # version) was served a spurious add-only delta.  The trim now
        # extends to the group boundary: every retained entry's version is
        # strictly above the floor.
        monkeypatch.setattr(lake_module, "MAX_JOURNAL_ENTRIES", 4)
        lake = DataLake([make_table("a"), make_table("b")])
        lake.replace_table(make_table("a", seed="v1"))  # 2 entries at one version
        lake.replace_table(make_table("b", seed="v1"))  # trim trips here
        lake.add_table(make_table("c"))
        assert all(
            version > lake.journal_floor for version, _, _ in lake._journal
        )
        # A consumer anchored exactly at the floor is served from the journal
        # and sees complete replace pairs, never an orphaned add.
        delta = lake.changes_since(lake.journal_floor)
        assert delta is not None
        assert set(delta.removed) <= set(delta.added) | {"a", "b"}
        for name in delta.added:
            if name in ("a", "b"):  # replaced tables appear in both lists
                assert name in delta.removed

    def test_floor_boundary_semantics(self, monkeypatch):
        monkeypatch.setattr(lake_module, "MAX_JOURNAL_ENTRIES", 4)
        lake = DataLake()
        for i in range(8):
            lake.add_table(make_table(f"t{i}"))
        floor = lake.journal_floor
        assert floor > 0
        assert lake.changes_since(floor) is not None  # at the floor: served
        assert lake.changes_since(floor - 1) is None  # past it, no checkpoint
        assert lake.journal_dropped == 8 - lake.journal_depth

    def test_checkpoint_serves_consumers_past_the_floor(self, monkeypatch):
        monkeypatch.setattr(lake_module, "MAX_JOURNAL_ENTRIES", 4)
        lake = DataLake([make_table("seed")])
        anchor = lake.checkpoint()
        for i in range(8):
            lake.add_table(make_table(f"t{i}"))
        lake.remove_table("seed")
        assert anchor < lake.journal_floor
        delta = lake.changes_since(anchor)
        assert delta is not None
        assert set(delta.added) == {f"t{i}" for i in range(8)}
        assert delta.removed == ("seed",)

    def test_checkpoint_ring_is_bounded(self):
        lake = DataLake()
        for i in range(lake_module.MAX_CHECKPOINTS + 5):
            lake.add_table(make_table(f"t{i}"))
            lake.checkpoint()
        versions = lake.checkpoint_versions
        assert len(versions) == lake_module.MAX_CHECKPOINTS
        assert versions == sorted(versions)
        # The oldest checkpoints were evicted; a consumer anchored on an
        # evicted version past the floor gets the honest "rebuild" answer.
        assert versions[0] == 6

    def test_checkpoint_at_current_version_yields_empty_delta(self):
        lake = DataLake([make_table("a")])
        lake.add_table(make_table("b"))
        version = lake.checkpoint()
        delta = lake.changes_since(version)
        assert delta is not None and delta.is_empty
        lake.replace_table(make_table("b", seed="v2"))
        delta = lake.changes_since(version)
        assert delta.added == ("b",) and delta.removed == ("b",)


# ----------------------------------------------------------- searcher protocol
class RebuildOnlySearcher(TableUnionSearcher):
    """A backend with no incremental path: update_index must rebuild."""

    def __init__(self):
        super().__init__()
        self.builds = 0

    def _build_index(self, lake):
        self.builds += 1

    def _score_table(self, query_table, lake_table):
        return float(lake_table.num_rows)


class TestUpdateProtocol:
    def test_update_before_index_raises(self):
        with pytest.raises(SearchError):
            RebuildOnlySearcher().update_index(added=[make_table("a")])

    def test_default_delta_falls_back_to_rebuild(self):
        lake = DataLake([make_table("a")])
        searcher = RebuildOnlySearcher().index(lake)
        assert searcher.builds == 1
        lake.add_table(make_table("b"))
        searcher.update_index(added=[lake.get("b")])
        assert searcher.builds == 2  # the default delta is a full rebuild
        assert {hit.table_name for hit in searcher.search(make_table("q"), 5)} == {"a", "b"}

    def test_update_validates_membership(self):
        lake = DataLake([make_table("a")])
        searcher = RebuildOnlySearcher().index(lake)
        with pytest.raises(SearchError):
            searcher.update_index(added=[make_table("stranger")])
        with pytest.raises(SearchError):
            searcher.update_index(removed=["a"])  # still a member

    def test_empty_delta_is_noop(self):
        lake = DataLake([make_table("a")])
        searcher = RebuildOnlySearcher().index(lake)
        searcher.update_index()
        assert searcher.builds == 1

    def test_refresh_noop_when_unchanged(self):
        lake = DataLake([make_table("a")])
        searcher = RebuildOnlySearcher().index(lake)
        searcher.refresh()
        assert searcher.builds == 1

    def test_refresh_sees_inplace_append_without_touch(self):
        lake = DataLake([make_table("a")])
        searcher = RebuildOnlySearcher().index(lake)
        lake.get("a").append_rows([("grown", "1")])
        searcher.refresh()
        assert searcher.builds == 2


# ------------------------------------------------------------ backend parity
class TestBackendDeltaParity:
    @pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
    def test_refresh_matches_rebuild_bit_for_bit(self, tus_bench, backend):
        lake = fresh_lake(tus_bench)
        maintained = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        mutate_tenth(lake, tus_bench)
        maintained.refresh()
        rebuilt = BACKEND_FACTORIES[backend](tus_bench).index(lake)
        assert rankings(maintained, tus_bench.query_tables) == rankings(
            rebuilt, tus_bench.query_tables
        )

    @pytest.mark.parametrize("backend", ["overlap", "starmie", "d3l", "santos"])
    def test_delta_path_avoids_rebuild(self, tus_bench, backend, monkeypatch):
        lake = fresh_lake(tus_bench)
        searcher = BACKEND_FACTORIES[backend](tus_bench).index(lake)

        def forbid_rebuild(mutated_lake):
            raise AssertionError("delta update unexpectedly fell back to a rebuild")

        monkeypatch.setattr(searcher, "_build_index", forbid_rebuild)
        mutate_tenth(lake, tus_bench)
        searcher.refresh()

    def test_oracle_rejects_removing_labelled_table(self, tus_bench):
        lake = fresh_lake(tus_bench)
        searcher = OracleSearcher(tus_bench.ground_truth).index(lake)
        labelled = next(iter(tus_bench.ground_truth.values()))[0]
        lake.remove_table(labelled)
        with pytest.raises(SearchError):
            searcher.refresh()

    def test_repeated_refresh_converges(self, tus_bench):
        lake = fresh_lake(tus_bench)
        searcher = ValueOverlapSearcher().index(lake)
        for round_number in range(3):
            lake.add_table(make_table(f"round{round_number}", seed=str(round_number)))
            searcher.refresh()
        rebuilt = ValueOverlapSearcher().index(lake)
        assert rankings(searcher, tus_bench.query_tables) == rankings(
            rebuilt, tus_bench.query_tables
        )


class TestStarmieCorpusDelta:
    def oversized_table(self, name="huge"):
        # One column whose serialized document far exceeds the 512-token
        # limit, so its embedding depends on the fitted TF-IDF state.
        return Table(
            name=name,
            columns=["words"],
            rows=[(f"token{i}",) for i in range(700)],
        )

    def test_oversized_retained_table_forces_rebuild(self, tus_bench, monkeypatch):
        lake = fresh_lake(tus_bench)
        lake.add_table(self.oversized_table())
        searcher = StarmieSearcher().index(lake)
        builds = []
        build_index = searcher._build_index
        monkeypatch.setattr(
            searcher, "_build_index", lambda lake: (builds.append(lake), build_index(lake))
        )
        lake.add_table(make_table("fresh"))  # changes the corpus statistics
        searcher.refresh()
        assert builds == [lake]  # the delta path fell back to one full rebuild
        rebuilt = StarmieSearcher().index(lake)
        assert rankings(searcher, tus_bench.query_tables) == rankings(
            rebuilt, tus_bench.query_tables
        )

    def test_oversized_added_table_keeps_delta(self, tus_bench, monkeypatch):
        # An oversized *added* table is encoded under the updated corpus, so
        # the delta path still applies as long as retained tables are small.
        lake = fresh_lake(tus_bench)
        searcher = StarmieSearcher().index(lake)
        monkeypatch.setattr(
            searcher,
            "_build_index",
            lambda mutated: (_ for _ in ()).throw(AssertionError("rebuilt")),
        )
        lake.add_table(self.oversized_table())
        searcher.refresh()
        queries = tus_bench.query_tables
        restored = StarmieSearcher().index(fresh_lake_with(lake))
        assert rankings(searcher, queries) == rankings(restored, queries)


def fresh_lake_with(lake: DataLake) -> DataLake:
    return DataLake((table.copy() for table in lake), name=lake.name)


# ------------------------------------------------------------------ IndexStore
class TestStoreDelta:
    def test_load_or_build_updates_prior_snapshot(self, tus_bench, tmp_path):
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)
        store.load_or_build(D3LSearcher(), lake)  # snapshot A persisted

        mutate_tenth(lake, tus_bench)
        warm = D3LSearcher()

        def forbid_build(mutated_lake):
            raise AssertionError("store delta path unexpectedly rebuilt from scratch")

        warm._build_index = forbid_build
        store.load_or_build(warm, lake)  # prior snapshot + delta, no build
        assert store.contains(warm, lake)  # updated entry persisted for B

        rebuilt = D3LSearcher().index(lake)
        assert rankings(warm, tus_bench.query_tables) == rankings(
            rebuilt, tus_bench.query_tables
        )

    def test_manifest_records_table_fingerprints(self, tus_bench, tmp_path):
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)
        searcher = ValueOverlapSearcher().index(lake)
        entry = store.save(searcher, lake)
        manifest = json.loads((entry / "manifest.json").read_text())
        assert manifest["table_fingerprints"] == lake.table_fingerprints()

    def test_entry_without_fingerprints_falls_back_to_build(self, tus_bench, tmp_path):
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)
        searcher = ValueOverlapSearcher().index(lake)
        entry = store.save(searcher, lake)
        manifest = json.loads((entry / "manifest.json").read_text())
        del manifest["table_fingerprints"]
        (entry / "manifest.json").write_text(json.dumps(manifest))

        mutate_tenth(lake, tus_bench)
        built = store.load_or_build(ValueOverlapSearcher(), lake)
        rebuilt = ValueOverlapSearcher().index(lake)
        assert rankings(built, tus_bench.query_tables) == rankings(
            rebuilt, tus_bench.query_tables
        )

    def test_delta_fraction_zero_disables_updates(self, tus_bench, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_DELTA_FRACTION", 0.0)
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)
        store.load_or_build(ValueOverlapSearcher(), lake)
        mutate_tenth(lake, tus_bench)
        searcher = ValueOverlapSearcher()
        calls = {"updates": 0}
        original = searcher.update_index

        def counting_update(**kwargs):
            calls["updates"] += 1
            return original(**kwargs)

        searcher.update_index = counting_update
        store.load_or_build(searcher, lake)
        assert calls["updates"] == 0  # threshold suppressed the delta path

    def test_save_evicts_superseded_entries(self, tus_bench, tmp_path):
        store = IndexStore(tmp_path)
        store.max_entries_per_backend = 2
        lake = fresh_lake(tus_bench)
        searcher = ValueOverlapSearcher()
        store.load_or_build(searcher, lake)
        for round_number in range(4):  # 4 more content versions
            lake.add_table(make_table(f"churn{round_number}", seed=str(round_number)))
            searcher.refresh()
            store.save(searcher, lake)
        entries = list(store.backend_dir(searcher).glob("*/manifest.json"))
        assert len(entries) == 2  # oldest snapshots evicted
        assert store.contains(searcher, lake)  # newest content always kept


# ------------------------------------------------------- drift + result cache
def served(lake, **serving):
    """An overlap deployment on ``lake`` with a result cache."""
    return Discovery.from_config(
        {"searcher": {"name": "overlap"}, "serving": {"cache_size": 64, **serving}}
    ).attach(lake)


class TestServiceRefresh:
    def test_refresh_before_warm_raises(self):
        searcher = ValueOverlapSearcher()
        assert searcher.drifted  # nothing indexed yet
        with pytest.raises(SearchError):
            searcher.refresh()
        with pytest.raises(SearchError):
            searcher.indexed_fingerprint

    def test_drift_and_indexed_digest_follow_refresh(self, tus_bench):
        """``indexed_fingerprint`` is the lake fingerprint as last indexed —
        byte-identical, and it stays put until a refresh moves the index."""
        lake = fresh_lake(tus_bench)
        searcher = ValueOverlapSearcher().index(lake)
        indexed = lake.fingerprint()
        assert searcher.indexed_fingerprint == indexed and not searcher.drifted
        mutate_tenth(lake, tus_bench)
        assert searcher.drifted
        assert searcher.indexed_fingerprint == indexed != lake.fingerprint()
        searcher.refresh()
        assert not searcher.drifted
        assert searcher.indexed_fingerprint == lake.fingerprint()

    def test_refresh_drops_stale_cache_and_matches_fresh(self, tus_bench):
        lake = fresh_lake(tus_bench)
        discovery = served(lake)
        query = tus_bench.query_tables[0]
        discovery.search(query, 8)
        assert discovery.service_stats()["overlap"]["size"] == 1

        mutate_tenth(lake, tus_bench)
        discovery.refresh()
        assert discovery.service_stats()["overlap"]["size"] == 1  # lazy
        fresh = Discovery.from_config({"searcher": {"name": "overlap"}}).attach(lake)
        assert discovery.search(query, 8) == fresh.search(query, 8)
        assert discovery.service_stats()["overlap"] == {"hits": 0, "misses": 2, "size": 1}

        # resync() is the eager spelling: it drops the cache of every backend
        # it moves, and only of those.
        discovery.search(query, 8, backend="d3l")
        lake.add_table(make_table("zz_eager"))
        assert discovery.resync() == ["overlap", "d3l"]
        assert all(stats["size"] == 0 for stats in discovery.service_stats().values())
        assert discovery.resync() == []

    def test_refresh_noop_keeps_cache(self, tus_bench):
        lake = fresh_lake(tus_bench)
        discovery = served(lake)
        discovery.search(tus_bench.query_tables[0], 8)
        discovery.refresh()
        discovery.search(tus_bench.query_tables[0], 8)
        assert discovery.service_stats()["overlap"] == {"hits": 1, "misses": 1, "size": 1}

    def test_refresh_persists_updated_index(self, tus_bench, tmp_path):
        store = IndexStore(tmp_path)
        lake = fresh_lake(tus_bench)
        discovery = served(lake, store_dir=str(tmp_path))
        mutate_tenth(lake, tus_bench)
        discovery.refresh()
        discovery.search(tus_bench.query_tables[0], 8)  # re-syncs, then persists
        assert store.contains(discovery.searcher(), lake)


# ------------------------------------------------------------------- Discovery
class TestDiscoveryRefresh:
    def test_refresh_requires_attached_lake(self):
        with pytest.raises(ConfigurationError):
            Discovery.from_config({"searcher": {"name": "overlap"}}).refresh()

    def test_refresh_is_lazy_per_backend(self, tus_bench):
        lake = fresh_lake(tus_bench)
        discovery = Discovery.from_config({"searcher": {"name": "overlap"}}).attach(lake)
        discovery.search(tus_bench.query_tables[0], 5, backend="d3l")  # build a 2nd backend
        mutate_tenth(lake, tus_bench)
        discovery.refresh()
        assert discovery._stale_backends == {"overlap", "d3l"}
        discovery.search(tus_bench.query_tables[0], 5)  # default backend syncs
        assert discovery._stale_backends == {"d3l"}  # d3l still pending

    def test_refreshed_rankings_match_fresh_discovery(self, tus_bench):
        lake = fresh_lake(tus_bench)
        discovery = Discovery.from_config({"searcher": {"name": "overlap"}}).attach(lake)
        mutate_tenth(lake, tus_bench)
        discovery.refresh()
        refreshed = discovery.search(tus_bench.query_tables[0], 8)
        fresh = Discovery.from_config({"searcher": {"name": "overlap"}}).attach(lake)
        assert refreshed == fresh.search(tus_bench.query_tables[0], 8)

    def test_run_applies_pending_refresh_through_cached_pipeline(self, tus_bench):
        # Regression: pipeline() used to return the cached DustPipeline
        # without consulting the stale set, so run() after refresh() served
        # the pre-mutation index.
        lake = fresh_lake(tus_bench)
        discovery = Discovery.from_config(
            {"searcher": {"name": "overlap"}, "pipeline": {"k": 4, "num_search_tables": 4}}
        ).attach(lake)
        query = tus_bench.query_tables[0]
        discovery.run(query)  # builds and caches the pipeline
        clone = query.copy(name="query_clone_in_lake")
        lake.add_table(clone)  # a perfect-overlap table the old index can't know
        discovery.refresh()
        result = discovery.run(query)
        assert not discovery._stale_backends
        assert result.search_results[0].table_name == "query_clone_in_lake"

    def test_refresh_with_serving_invalidates_result_cache(self, tus_bench, tmp_path):
        lake = fresh_lake(tus_bench)
        discovery = Discovery.from_config(
            {
                "searcher": {"name": "overlap"},
                "serving": {"store_dir": str(tmp_path)},
            }
        ).attach(lake)
        query = tus_bench.query_tables[0]
        discovery.search(query, 8)
        mutate_tenth(lake, tus_bench)
        discovery.refresh()
        refreshed = discovery.search(query, 8)
        fresh = Discovery.from_config({"searcher": {"name": "overlap"}}).attach(lake)
        assert refreshed == fresh.search(query, 8)
