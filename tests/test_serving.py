"""Tests for repro.serving: content fingerprints, the persistent index store,
the facade's result cache, and their wiring into the DUST pipeline."""

import json
import time

import numpy as np
import pytest

from repro.benchgen import generate_ugen_benchmark
from repro.core import DustPipeline, PipelineConfig
from repro.datalake import DataLake, Table
from repro.embeddings.column import CellLevelColumnEncoder
from repro.embeddings.word import FastTextLikeModel
from repro.evaluation import prepare_query_workload, prepare_query_workloads
from repro.search import (
    D3LSearcher,
    OracleSearcher,
    SantosSearcher,
    StarmieSearcher,
    ValueOverlapSearcher,
)
from repro.api import Discovery
from repro.api.cli import main as cli_main
from repro.serving import IndexStore
from repro.utils.errors import (
    IndexStoreMiss,
    SearchError,
    ServingError,
)


@pytest.fixture(scope="module")
def small_benchmark():
    return generate_ugen_benchmark(
        num_queries=2,
        unionable_per_query=4,
        non_unionable_per_query=4,
        rows_per_table=6,
        seed=9,
    )


BACKEND_FACTORIES = {
    "overlap": lambda benchmark: ValueOverlapSearcher(),
    "starmie": lambda benchmark: StarmieSearcher(),
    "d3l": lambda benchmark: D3LSearcher(),
    "santos": lambda benchmark: SantosSearcher(),
    "oracle": lambda benchmark: OracleSearcher(benchmark.ground_truth),
}


class TestFingerprints:
    def test_table_fingerprint_is_content_stable(self):
        first = Table("t", ["a", "b"], [(1, "x"), (2, "y")])
        second = Table("t", ["a", "b"], [(1, "x"), (2, "y")])
        assert first.content_fingerprint() == second.content_fingerprint()

    def test_table_fingerprint_ignores_metadata(self):
        plain = Table("t", ["a"], [(1,)])
        annotated = Table("t", ["a"], [(1,)], metadata={"topic": "parks"})
        assert plain.content_fingerprint() == annotated.content_fingerprint()

    def test_table_fingerprint_sensitive_to_name_cells_and_types(self):
        base = Table("t", ["a"], [(1,)])
        assert base.content_fingerprint() != Table("u", ["a"], [(1,)]).content_fingerprint()
        assert base.content_fingerprint() != Table("t", ["a"], [(2,)]).content_fingerprint()
        # int 1 and string "1" must not collide
        assert base.content_fingerprint() != Table("t", ["a"], [("1",)]).content_fingerprint()

    def test_lake_fingerprint_ignores_lake_name(self):
        tables = [Table("t", ["a"], [(1,)])]
        assert (
            DataLake(tables, name="one").fingerprint()
            == DataLake([tables[0].copy()], name="two").fingerprint()
        )

    def test_lake_fingerprint_tracks_contents(self):
        first = DataLake([Table("t", ["a"], [(1,)])])
        second = DataLake([Table("t", ["a"], [(1,)]), Table("u", ["a"], [(2,)])])
        assert first.fingerprint() != second.fingerprint()


class TestIndexRoundTrip:
    @pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
    def test_round_trip_rankings_identical(self, backend, small_benchmark, tmp_path):
        """Save/load every backend's index and compare full SearchResult lists
        against a freshly built index on the same fixtures."""
        factory = BACKEND_FACTORIES[backend]
        lake = small_benchmark.lake
        store = IndexStore(tmp_path / "store")

        fresh = factory(small_benchmark).index(lake)
        store.save(fresh, lake)
        loaded = store.load(factory(small_benchmark), lake)

        assert loaded.is_indexed
        for query in small_benchmark.query_tables:
            for k in (3, 8):
                assert loaded.search(query, k) == fresh.search(query, k)

    @pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
    def test_config_fingerprints_are_distinct_per_backend(
        self, backend, small_benchmark
    ):
        searcher = BACKEND_FACTORIES[backend](small_benchmark)
        others = {
            name: BACKEND_FACTORIES[name](small_benchmark).config_fingerprint()
            for name in BACKEND_FACTORIES
            if name != backend
        }
        assert searcher.config_fingerprint() not in others.values()

    def test_config_change_changes_fingerprint(self):
        assert (
            ValueOverlapSearcher(num_hashes=64).config_fingerprint()
            != ValueOverlapSearcher(num_hashes=128).config_fingerprint()
        )


class TestIndexStore:
    def test_load_without_entry_is_a_miss(self, small_benchmark, tmp_path):
        store = IndexStore(tmp_path / "empty")
        with pytest.raises(IndexStoreMiss):
            store.load(ValueOverlapSearcher(), small_benchmark.lake)

    def test_contains_and_load_or_build(self, small_benchmark, tmp_path):
        store = IndexStore(tmp_path / "store")
        lake = small_benchmark.lake
        assert not store.contains(ValueOverlapSearcher(), lake)
        built = store.load_or_build(ValueOverlapSearcher(), lake)
        assert built.is_indexed
        assert store.contains(ValueOverlapSearcher(), lake)
        # Second pass loads instead of rebuilding: _build_index never runs.
        loaded = store.load_or_build(ValueOverlapSearcher(), lake)
        assert loaded.is_indexed
        query = small_benchmark.query_tables[0]
        assert loaded.search(query, 5) == built.search(query, 5)

    def test_corrupt_payload_detected_and_healed(self, small_benchmark, tmp_path):
        store = IndexStore(tmp_path / "store")
        lake = small_benchmark.lake
        entry = store.save(ValueOverlapSearcher().index(lake), lake)
        (entry / "arrays.npz").write_bytes(b"garbage")
        with pytest.raises(ServingError):
            store.load(ValueOverlapSearcher(), lake)
        healed = store.load_or_build(ValueOverlapSearcher(), lake)
        assert healed.is_indexed
        # The rebuilt entry is valid again.
        store.load(ValueOverlapSearcher(), lake)

    def test_config_mismatch_is_a_miss(self, small_benchmark, tmp_path):
        store = IndexStore(tmp_path / "store")
        lake = small_benchmark.lake
        store.save(ValueOverlapSearcher(num_hashes=64).index(lake), lake)
        with pytest.raises(IndexStoreMiss):
            store.load(ValueOverlapSearcher(num_hashes=128), lake)

    def test_lake_change_is_a_miss(self, small_benchmark, tmp_path):
        store = IndexStore(tmp_path / "store")
        lake = small_benchmark.lake
        store.save(ValueOverlapSearcher().index(lake), lake)
        other = DataLake(
            [table.copy() for table in lake] + [Table("extra", ["a"], [("v",)])],
            name=lake.name,
        )
        with pytest.raises(IndexStoreMiss):
            store.load(ValueOverlapSearcher(), other)

    def test_inconsistent_payloads_heal_via_rebuild(self, small_benchmark, tmp_path):
        """Checksummed-but-mutually-inconsistent payloads (e.g. a layout
        change without a format bump) must surface as ServingError and be
        rebuilt by load_or_build, not escape as SearchError/IndexError."""
        store = IndexStore(tmp_path / "store")
        lake = small_benchmark.lake
        searcher = SantosSearcher().index(lake)
        entry = store.save(searcher, lake)
        # Rewrite the arrays with truncated vectors and a matching checksum.
        state, arrays = searcher.index_state()
        arrays["column_vectors"] = arrays["column_vectors"][:1]
        with (entry / "arrays.npz").open("wb") as handle:
            np.savez(handle, **arrays)
        manifest = json.loads((entry / "manifest.json").read_text())
        import hashlib

        manifest["checksums"]["arrays.npz"] = hashlib.sha256(
            (entry / "arrays.npz").read_bytes()
        ).hexdigest()
        (entry / "manifest.json").write_text(json.dumps(manifest))

        with pytest.raises(ServingError):
            store.load(SantosSearcher(), lake)
        healed = store.load_or_build(SantosSearcher(), lake)
        query = small_benchmark.query_tables[0]
        assert healed.search(query, 5) == searcher.search(query, 5)

    def test_manifest_records_checksums(self, small_benchmark, tmp_path):
        store = IndexStore(tmp_path / "store")
        entry = store.save(
            ValueOverlapSearcher().index(small_benchmark.lake), small_benchmark.lake
        )
        manifest = json.loads((entry / "manifest.json").read_text())
        assert manifest["backend_class"] == "ValueOverlapSearcher"
        assert set(manifest["checksums"]) == {"state.json", "arrays.npz"}

    def test_entry_evicted_mid_load_heals_via_rebuild(
        self, small_benchmark, tmp_path, monkeypatch
    ):
        """Regression: evict_cold racing load_or_build.  The maintenance loop
        can rmtree an entry between load()'s checksum validation and its
        payload reads; the resulting FileNotFoundError must surface as
        store corruption (healed by a rebuild), not escape the caller."""
        import shutil

        import repro.serving.store as store_module

        store = IndexStore(tmp_path / "store")
        lake = small_benchmark.lake
        entry = store.save(ValueOverlapSearcher().index(lake), lake)

        real_checksum = store_module._file_checksum
        state = {"remaining": 2}

        def checksum_then_evict(path):
            digest = real_checksum(path)
            state["remaining"] -= 1
            if state["remaining"] == 0:
                # Both payloads just validated: the eviction sweep wins the
                # race and removes the whole entry before load() reads them.
                shutil.rmtree(entry)
            return digest

        monkeypatch.setattr(store_module, "_file_checksum", checksum_then_evict)
        with pytest.raises(ServingError, match="mid-load"):
            store.load(ValueOverlapSearcher(), lake)

        monkeypatch.setattr(store_module, "_file_checksum", real_checksum)
        healed = store.load_or_build(ValueOverlapSearcher(), lake)
        assert healed.is_indexed
        query = small_benchmark.query_tables[0]
        fresh = ValueOverlapSearcher().index(lake)
        assert healed.search(query, 5) == fresh.search(query, 5)

    def test_entry_evicted_mid_save_keeps_the_built_searcher(
        self, small_benchmark, tmp_path, monkeypatch
    ):
        """Regression: evict_cold racing load_or_build's save.  The sweep can
        rmtree the entry between _write_entry's mkdir and its checksum
        writes; the FileNotFoundError is a failed best-effort save, not an
        error for a caller whose searcher is already built."""
        import shutil

        import repro.serving.store as store_module

        store = IndexStore(tmp_path / "store")
        lake = small_benchmark.lake
        entry = store.entry_dir(ValueOverlapSearcher(), lake)
        real_checksum = store_module._file_checksum
        evictions = {"remaining": 1}

        def evict_then_checksum(path):
            if evictions["remaining"]:
                evictions["remaining"] -= 1
                shutil.rmtree(entry)
            return real_checksum(path)

        monkeypatch.setattr(store_module, "_file_checksum", evict_then_checksum)
        built = store.load_or_build(ValueOverlapSearcher(), lake)
        assert built.is_indexed
        assert not store.contains(ValueOverlapSearcher(), lake)
        query = small_benchmark.query_tables[0]
        fresh = ValueOverlapSearcher().index(lake)
        assert built.search(query, 5) == fresh.search(query, 5)

        store.load_or_build(ValueOverlapSearcher(), lake)
        assert store.contains(ValueOverlapSearcher(), lake)

    def test_evict_cold_racing_load_or_build_stress(self, small_benchmark, tmp_path):
        """evict_cold and load_or_build hammering one store concurrently must
        never raise and must always end with a servable index."""
        import threading

        store = IndexStore(tmp_path / "store")
        store.max_entries_per_backend = 1
        lake = small_benchmark.lake
        mutated = DataLake(
            [table.copy() for table in lake] + [Table("extra", ["a"], [("v",)])],
            name=lake.name,
        )
        errors: list[BaseException] = []
        stop = threading.Event()

        def loader():
            try:
                for i in range(10):
                    loaded = store.load_or_build(
                        ValueOverlapSearcher(), lake if i % 2 else mutated
                    )
                    assert loaded.is_indexed
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)
            finally:
                stop.set()

        def evictor():
            try:
                while not stop.is_set():
                    store.evict_cold()
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=loader), threading.Thread(target=evictor)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        final = store.load_or_build(ValueOverlapSearcher(), lake)
        query = small_benchmark.query_tables[0]
        fresh = ValueOverlapSearcher().index(lake)
        assert final.search(query, 5) == fresh.search(query, 5)


#: A small, fast deployment wired like :func:`_pipeline`, with a result cache.
SERVED = {
    "searcher": {"name": "overlap"},
    "column_encoder": {"name": "cell-level", "base": {"name": "fasttext", "dimension": 64}},
    "tuple_encoder": {"name": "fasttext", "dimension": 64},
    "pipeline": {"num_search_tables": 4, "min_query_rows": 1},
    "serving": {"cache_size": 64},
}
UNSERVED = {key: value for key, value in SERVED.items() if key != "serving"}


def _served(benchmark, *, lake=None, **sections):
    """``SERVED`` attached to ``lake`` (default: the benchmark's), with
    ``sections`` replacing whole config sections."""
    config = {**SERVED, **sections}
    return Discovery.from_config(config).attach(
        lake if lake is not None else benchmark.lake
    )


def _count_searches(discovery) -> dict[str, int]:
    """Count the default backend searcher's ``search()`` calls."""
    searcher = discovery.searcher()
    real_search = searcher.search
    calls = {"searches": 0}

    def counting(query_table, k):
        calls["searches"] += 1
        return real_search(query_table, k)

    searcher.search = counting
    return calls


def _pipeline(searcher):
    model = FastTextLikeModel(dimension=64)
    return DustPipeline(
        searcher,
        column_encoder=CellLevelColumnEncoder(model),
        tuple_encoder=model,
        config=PipelineConfig(num_search_tables=4, min_query_rows=1),
    )


class TestFacadeServing:
    def test_query_path_never_forks(self, small_benchmark, monkeypatch):
        """Repeated searches and ``run_many`` are loops over the one cached
        single-query path, with a plain loop's counters — and the query
        path never forks."""

        def no_fork(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the query path must never fork")

        monkeypatch.setattr("repro.utils.parallel.forked_map", no_fork)
        discovery = _served(small_benchmark)
        calls = _count_searches(discovery)
        queries = small_benchmark.query_tables * 3  # repeats hit the cache
        distinct = len(small_benchmark.query_tables)
        direct = ValueOverlapSearcher().index(small_benchmark.lake)
        for query in queries:
            assert discovery.search(query, 6) == direct.search(query, 6)
        assert calls["searches"] == distinct
        assert discovery.service_stats() == {
            "overlap": {"hits": len(queries) - distinct, "misses": distinct, "size": distinct}
        }
        assert discovery.run_many([]) == []

    def test_cache_serves_repeats_without_recomputing(self, small_benchmark):
        discovery = _served(small_benchmark)
        calls = _count_searches(discovery)
        query = small_benchmark.query_tables[0]
        first = discovery.search(query, 5)
        assert discovery.search(query, 5) == first
        assert calls["searches"] == 1
        assert discovery.service_stats()["overlap"] == {"hits": 1, "misses": 1, "size": 1}
        # A different k is a different cache entry.
        discovery.search(query, 3)
        assert calls["searches"] == 2

    def test_cache_is_bounded_lru(self, small_benchmark):
        discovery = _served(small_benchmark, serving={"cache_size": 1})
        calls = _count_searches(discovery)
        first, second = small_benchmark.query_tables[:2]
        discovery.search(first, 5)
        discovery.search(second, 5)  # evicts the entry for `first`
        assert discovery.service_stats()["overlap"]["size"] == 1
        discovery.search(first, 5)
        assert calls["searches"] == 3

    def test_cache_key_tracks_live_searcher_config(self, small_benchmark):
        """Regression: the cache key must fold in the *current* searcher
        config fingerprint, not one captured at construction — flipping a
        cascade config on a live deployment must never serve stale rankings."""
        discovery = _served(
            small_benchmark, cascade={"mode": "approx", "candidate_budget": 4}
        )
        searcher = discovery.searcher()
        query = small_benchmark.query_tables[0]
        discovery.search(query, 5)
        searcher.candidate_budget = None  # live flip to exact on the served searcher
        discovery.search(query, 5)
        # Two distinct entries were cached — no hit despite identical
        # lake/query/k — and flipping back hits the original approx entry.
        assert discovery.service_stats()["overlap"] == {"hits": 0, "misses": 2, "size": 2}
        searcher.candidate_budget = 4
        discovery.search(query, 5)
        assert discovery.service_stats()["overlap"]["hits"] == 1

    def test_warm_through_store_skips_rebuild(self, small_benchmark, tmp_path, monkeypatch):
        serving = {"store_dir": str(tmp_path / "store"), "cache_size": 64}
        _served(small_benchmark, serving=serving)  # builds and persists
        query = small_benchmark.query_tables[0]
        expected = ValueOverlapSearcher().index(small_benchmark.lake).search(query, 4)

        # Same class/config (the store key): a rebuild would now be a bug.
        def exploding_build(self, lake):  # pragma: no cover - must not run
            raise AssertionError("warm() should load, not rebuild")

        monkeypatch.setattr(ValueOverlapSearcher, "_build_index", exploding_build)
        warmed = _served(small_benchmark, serving=serving)
        assert warmed.searcher().is_indexed
        assert warmed.search(query, 4) == expected

    def test_deployment_without_serving_reports_misses_only(self, small_benchmark):
        discovery = Discovery.from_config(UNSERVED).attach(small_benchmark.lake)
        query = small_benchmark.query_tables[0]
        assert discovery.search(query, 5) == discovery.search(query, 5)
        assert discovery.service_stats() == {"overlap": {"hits": 0, "misses": 2, "size": 0}}

    def test_cached_ranking_never_outlives_a_removed_table(self, small_benchmark):
        """Regression: a cached ranking kept serving a table removed from the
        lake, and ``run()`` then raised resolving it.  Between a mutation and
        the next refresh the cache must answer exactly as the cache-less path
        does: a table is ranked iff it is indexed *and* still in the lake."""
        lake = DataLake([table.copy() for table in small_benchmark.lake], name="served")
        cached = _served(small_benchmark, lake=lake)
        uncached = Discovery.from_config(UNSERVED).attach(lake)
        query = small_benchmark.query_tables[0]
        top = cached.search(query)[0].table_name
        removed = lake.get(top)
        lake.remove_table(top)
        after_removal = cached.search(query)
        assert top not in [hit.table_name for hit in after_removal]
        assert after_removal == uncached.search(query)
        assert cached.run(query).selections() == uncached.run(query).selections()
        # Re-adding it before any refresh puts it back on both paths: no
        # ranking computed while it was missing may have been cached.
        lake.add_table(removed)
        assert cached.search(query)[0].table_name == top
        assert cached.search(query) == uncached.search(query)


class TestPipelineServing:
    def test_run_many_with_service_matches_direct_path(self, small_benchmark):
        """A served deployment's ``run_many`` — second pass all cache hits —
        selects exactly what a hand-wired direct pipeline does."""
        lake, queries = small_benchmark.lake, small_benchmark.query_tables
        direct_results = _pipeline(ValueOverlapSearcher()).index(lake).run_many(queries, k=5)
        served_results = _served(small_benchmark).run_many(queries * 2, k=5)
        for mine, theirs in zip(direct_results * 2, served_results):
            assert mine.search_results == theirs.search_results
            assert mine.selected_indices == theirs.selected_indices
            assert mine.selected_tuples == theirs.selected_tuples

    def test_run_many_times_each_search_on_its_own(self, small_benchmark):
        """A cache-hit query reports its own (smaller) step-1 time, not an
        equal share of the batch."""
        discovery = _served(small_benchmark)
        searcher = discovery.searcher()
        real_search = searcher.search

        def slow_search(query_table, k):
            time.sleep(0.05)
            return real_search(query_table, k)

        searcher.search = slow_search
        query = small_benchmark.query_tables[0]
        miss, hit = discovery.run_many([query, query], k=5)
        assert discovery.service_stats()["overlap"]["hits"] == 1
        assert miss.timings["search"] >= 0.05
        assert hit.timings["search"] < miss.timings["search"]
        assert hit.search_results == miss.search_results


class TestEvaluationServing:
    def test_prepare_query_workload_takes_tables_from_discovery(self, small_benchmark):
        model = FastTextLikeModel(dimension=64)
        discovery = _served(small_benchmark)
        query = small_benchmark.query_tables[0]
        served = prepare_query_workload(
            small_benchmark,
            query,
            model,
            discovery=discovery,
            num_search_tables=4,
        )
        expected_tables = [table.name for table in discovery.search_tables(query, 4)]
        assert set(served.table_ids) <= set(expected_tables)
        assert served.num_candidates > 0

    def test_prepare_query_workloads_batches_through_cache(self, small_benchmark):
        model = FastTextLikeModel(dimension=64)
        discovery = _served(small_benchmark)
        calls = _count_searches(discovery)

        def prepare():
            return prepare_query_workloads(
                small_benchmark,
                small_benchmark.query_tables,
                model,
                discovery=discovery,
                num_search_tables=4,
            )

        workloads = prepare()
        assert set(workloads) == {q.name for q in small_benchmark.query_tables}
        # One search per query; preparing again is served from the cache.
        assert calls["searches"] == len(small_benchmark.query_tables)
        prepare()
        assert calls["searches"] == len(small_benchmark.query_tables)
        hits = discovery.service_stats()["overlap"]["hits"]
        assert hits >= len(small_benchmark.query_tables)


class TestSearcherIndexGuards:
    def test_failed_build_leaves_searcher_unindexed(self, small_benchmark):
        class ExplodingSearcher(ValueOverlapSearcher):
            def _build_index(self, lake):
                raise SearchError("boom")

        searcher = ExplodingSearcher()
        with pytest.raises(SearchError):
            searcher.index(small_benchmark.lake)
        assert not searcher.is_indexed
        with pytest.raises(SearchError):
            searcher.search(small_benchmark.query_tables[0], 3)

    def test_index_state_requires_index(self):
        with pytest.raises(SearchError):
            ValueOverlapSearcher().index_state()

    def test_unsupported_backend_reports_clean_error(self, small_benchmark):
        class Opaque(ValueOverlapSearcher):
            def _index_state(self):
                raise SearchError(f"{type(self).__name__} does not support it")

        searcher = Opaque().index(small_benchmark.lake)
        with pytest.raises(SearchError):
            searcher.index_state()


class TestWarmCLI:
    def test_warm_builds_then_loads(self, tmp_path, capsys):
        store_dir = tmp_path / "warm-store"
        argv = [
            "--store",
            str(store_dir),
            "--benchmark",
            "ugen",
            "--backends",
            "overlap",
            "oracle",
            "--num-queries",
            "2",
            "--seed",
            "9",
        ]
        assert cli_main(["warm", *argv]) == 0
        out = capsys.readouterr().out
        assert out.count("built") == 2
        # Entries exist on disk with manifests.
        manifests = list(store_dir.rglob("manifest.json"))
        assert len(manifests) == 2
        # Second invocation is served from the store.
        assert cli_main(["warm", *argv]) == 0
        out = capsys.readouterr().out
        assert out.count("loaded") == 2


class TestPersistedArrays:
    def test_loaded_state_arrays_are_float64(self, small_benchmark, tmp_path):
        """npz round-trips must not silently change dtypes (parity depends on it)."""
        store = IndexStore(tmp_path / "store")
        searcher = SantosSearcher().index(small_benchmark.lake)
        store.save(searcher, small_benchmark.lake)
        loaded = store.load(SantosSearcher(), small_benchmark.lake)
        table = small_benchmark.lake.tables()[0]
        vector = loaded._column_vectors[table.name][table.columns[0]]
        assert vector.dtype == np.float64
