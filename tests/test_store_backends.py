"""Tests for the pluggable index-store backends (:mod:`repro.serving.backends`).

One parameterized suite runs the full store contract — round-trip parity,
miss semantics, corruption healing, delta updates, eviction — against both
physical backends, so ``directory`` and ``sqlite`` are provably
interchangeable.  Backend-specific classes cover what only one of them has:
WAL concurrency, schema migration and connection pooling for SQLite;
memory-mapped payload views for the directory layout.  The lazy-restoration
classes pin the O(touched-shards) cold-start behavior the backends exist to
enable.
"""

import hashlib
import json
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.api.registry import available_store_backends
from repro.search import CascadeSearcher, ShardedSearcher, ValueOverlapSearcher
from repro.search.cascade import CascadePrefilterEntry
from repro.serving import IndexStore
from repro.serving.backends.base import (
    MappedArrayPayload,
    checksum_bytes,
    serialize_arrays,
)
from repro.serving.backends.sqlite import SCHEMA_V1_STATEMENTS, SCHEMA_VERSION
from repro.serving.store import _file_checksum
from repro.utils.errors import ConfigurationError, IndexStoreMiss, ServingError
from testkit import make_lake, make_table

BACKENDS = ("directory", "sqlite")


def make_store(tmp_path, backend, **kwargs):
    return IndexStore(tmp_path / f"store-{backend}", backend=backend, **kwargs)


def search_pairs(searcher, lake, query_name="t0", k=5):
    return [
        (hit.table_name, hit.score)
        for hit in searcher.search(lake.get(query_name), k)
    ]


def corrupt_entry(store, searcher, lake):
    """Flip the persisted arrays payload of one entry, per physical backend."""
    if store.backend_name == "directory":
        payload = store.entry_dir(searcher, lake) / "arrays.npz"
        payload.write_bytes(b"garbage" + payload.read_bytes()[7:])
    else:
        with sqlite3.connect(store._backend.path) as connection:
            connection.execute(
                "UPDATE payloads SET data = ? WHERE name = 'arrays.npz'",
                (b"garbage",),
            )


class _CountingSearcher(ValueOverlapSearcher):
    """ValueOverlapSearcher that counts full index builds."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.builds = 0

    def _build_index(self, lake):
        self.builds += 1
        super()._build_index(lake)


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert {"directory", "sqlite"} <= set(available_store_backends())

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises((ConfigurationError, ServingError, KeyError)):
            IndexStore(tmp_path, backend="no-such-backend")


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreContract:
    def test_round_trip_rankings_identical(self, backend, tmp_path):
        lake = make_lake("t0", "t1", "t2", "t3", "t4")
        store = make_store(tmp_path, backend)
        built = ValueOverlapSearcher().index(lake)
        store.save(built, lake)
        restored = store.load(ValueOverlapSearcher(), lake)
        assert search_pairs(restored, lake) == search_pairs(built, lake)

    def test_load_without_entry_is_a_miss(self, backend, tmp_path):
        lake = make_lake("t0", "t1")
        store = make_store(tmp_path, backend)
        with pytest.raises(IndexStoreMiss):
            store.load(ValueOverlapSearcher(), lake)

    def test_config_mismatch_is_a_miss(self, backend, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path, backend)
        store.save(ValueOverlapSearcher(num_hashes=64).index(lake), lake)
        with pytest.raises(IndexStoreMiss):
            store.load(ValueOverlapSearcher(num_hashes=32), lake)

    def test_lake_change_is_a_miss(self, backend, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path, backend)
        store.save(ValueOverlapSearcher().index(lake), lake)
        grown = make_lake("t0", "t1", "t2", "brand_new")
        with pytest.raises(IndexStoreMiss):
            store.load(ValueOverlapSearcher(), grown)

    def test_load_or_build_builds_once_then_loads(self, backend, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path, backend)
        first = _CountingSearcher()
        store.load_or_build(first, lake)
        assert first.builds == 1
        second = _CountingSearcher()
        store.load_or_build(second, lake)
        assert second.builds == 0
        assert search_pairs(second, lake) == search_pairs(first, lake)

    def test_corrupt_payload_detected_and_healed(self, backend, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path, backend)
        built = _CountingSearcher().index(lake)
        store.save(built, lake)
        corrupt_entry(store, built, lake)
        with pytest.raises(ServingError):
            store.load(_CountingSearcher(), lake)
        healed = _CountingSearcher()
        store.load_or_build(healed, lake)
        assert healed.builds == 1
        assert search_pairs(healed, lake) == search_pairs(built, lake)
        # The healing rebuild re-persisted a valid entry.
        assert search_pairs(store.load(_CountingSearcher(), lake), lake) == (
            search_pairs(built, lake)
        )

    def test_delta_update_serves_grown_lake_without_rebuild(self, backend, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path, backend)
        store.save(_CountingSearcher().index(lake), lake)
        grown = make_lake("t0", "t1", "t2", "t3")
        delta = _CountingSearcher()
        store.load_or_build(delta, grown)
        assert delta.builds == 0  # prior snapshot + update_index, no rebuild
        fresh = ValueOverlapSearcher().index(grown)
        assert search_pairs(delta, grown) == search_pairs(fresh, grown)

    def test_save_evicts_superseded_entries(self, backend, tmp_path):
        store = make_store(tmp_path, backend, max_entries_per_backend=2)
        searcher = ValueOverlapSearcher()
        lakes = [
            make_lake("t0", "t1", f"snapshot{i}") for i in range(3)
        ]
        for lake in lakes:
            store.save(ValueOverlapSearcher().index(lake), lake)
            time.sleep(0.01)  # distinct last-access stamps
        assert not store.contains(searcher, lakes[0])
        assert store.contains(searcher, lakes[1])
        assert store.contains(searcher, lakes[2])

    def test_evict_cold_keeps_recently_loaded_entry(self, backend, tmp_path):
        """Eviction orders by last access, not creation: loading refreshes."""
        store = make_store(tmp_path, backend)
        searcher = ValueOverlapSearcher()
        old = make_lake("t0", "t1", "old")
        new = make_lake("t0", "t1", "new")
        store.save(ValueOverlapSearcher().index(old), old)
        time.sleep(0.01)
        store.save(ValueOverlapSearcher().index(new), new)
        time.sleep(0.01)
        store.load(ValueOverlapSearcher(), old)  # touch: old is now freshest
        assert store.evict_cold(max_entries=1) == 1
        assert store.contains(searcher, old)
        assert not store.contains(searcher, new)

    def test_evict_cold_bounds_every_namespace(self, backend, tmp_path):
        store = make_store(tmp_path, backend)
        for i in range(3):
            lake = make_lake("t0", "t1", f"v{i}")
            store.save(ValueOverlapSearcher().index(lake), lake)
            time.sleep(0.01)
        assert store.evict_cold(max_entries=1) == 2
        assert store.evict_cold(max_entries=1) == 0

    def test_stats_report_occupancy(self, backend, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path, backend)
        empty = store.stats()
        assert empty["backend"] == backend
        assert empty["entries"] == 0
        store.save(ValueOverlapSearcher().index(lake), lake)
        stats = store.stats()
        assert stats["backend"] == backend
        assert stats["backends"] == 1
        assert stats["entries"] == 1
        assert stats["payload_bytes"] > 0

    def test_payload_bytes_identical_across_backends(self, backend, tmp_path):
        """Both backends serialize the same canonical bytes (shared parity)."""
        lake = make_lake("t0", "t1", "t2")
        checksums = {}
        for name in BACKENDS:
            store = make_store(tmp_path, name)
            built = ValueOverlapSearcher().index(lake)
            store.save(built, lake)
            manifest = store._backend.read_manifest(
                store._backend_key(built), store._entry_key(lake)
            )
            checksums[name] = manifest["checksums"]
        assert checksums["directory"] == checksums["sqlite"]


class TestSQLiteBackend:
    def _seed(self, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path, "sqlite")
        built = ValueOverlapSearcher().index(lake)
        store.save(built, lake)
        return store, built, lake

    def test_database_is_in_wal_mode(self, tmp_path):
        store, _, _ = self._seed(tmp_path)
        with sqlite3.connect(store._backend.path) as connection:
            mode = connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_concurrent_readers_share_one_database(self, tmp_path):
        store, built, lake = self._seed(tmp_path)
        expected = search_pairs(built, lake)
        results, errors = [], []

        def reader():
            try:
                restored = store.load(ValueOverlapSearcher(), lake)
                results.append(search_pairs(restored, lake))
            except Exception as exc:  # pragma: no cover - diagnostic aid
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == [expected] * 6

    def test_v1_database_migrates_forward(self, tmp_path):
        db = tmp_path / "legacy.sqlite3"
        with sqlite3.connect(db) as connection:
            for statement in SCHEMA_V1_STATEMENTS:
                connection.execute(statement)
            connection.execute(
                "INSERT INTO entries (backend_key, entry_key, manifest, created) "
                "VALUES (?, ?, ?, ?)",
                ("bk", "ek", json.dumps({"lake_fingerprint": "x"}), 123.0),
            )
        store = IndexStore(tmp_path, backend="sqlite", path=db)
        # Opening migrates: the v1 row is still served, stamped from created.
        assert store._backend.read_manifest("bk", "ek") == {"lake_fingerprint": "x"}
        assert store._backend.list_entries("bk") == [(123.0, "ek")]
        with sqlite3.connect(db) as connection:
            version = connection.execute(
                "SELECT MAX(version) FROM schema_version"
            ).fetchone()[0]
        assert version == SCHEMA_VERSION

    def test_future_schema_version_rejected(self, tmp_path):
        db = tmp_path / "future.sqlite3"
        with sqlite3.connect(db) as connection:
            connection.execute("CREATE TABLE schema_version (version INTEGER NOT NULL)")
            connection.execute("INSERT INTO schema_version (version) VALUES (99)")
        store = IndexStore(tmp_path, backend="sqlite", path=db)
        with pytest.raises(ServingError, match="newer than this build"):
            store.stats()

    def test_connections_are_pooled_and_reused(self, tmp_path):
        store, built, lake = self._seed(tmp_path)
        opened_after_seed = store._backend._connections_opened
        for _ in range(5):
            store.load(ValueOverlapSearcher(), lake)
            store.stats()
        assert store._backend._connections_opened == opened_after_seed

    def test_corrupted_database_file_quarantined_and_healed(self, tmp_path):
        store, built, lake = self._seed(tmp_path)
        store._backend.close()
        db = store._backend.path
        db.write_bytes(b"this is not a sqlite database at all")
        fresh = IndexStore(tmp_path / "store-sqlite", backend="sqlite")
        rebuilt = _CountingSearcher()
        fresh.load_or_build(rebuilt, lake)
        assert rebuilt.builds == 1
        assert db.with_name(db.name + ".corrupt").exists()
        assert search_pairs(
            fresh.load(_CountingSearcher(), lake), lake
        ) == search_pairs(built, lake)


class TestMappedArrayPayload:
    def _payload(self, tmp_path, arrays):
        path = tmp_path / "arrays.npz"
        path.write_bytes(serialize_arrays(arrays))
        return path, MappedArrayPayload(path)

    def test_parity_with_eager_load(self, tmp_path):
        arrays = {
            "floats": np.arange(48.0).reshape(6, 8),
            "ints": np.arange(12, dtype=np.int64),
            "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            "unicode": np.array(["ab", "cde", "f"]),
            "empty": np.zeros((0, 4)),
            "scalar": np.array(3.5),
        }
        path, payload = self._payload(tmp_path, arrays)
        assert set(payload) == set(arrays)
        with np.load(path, allow_pickle=False) as eager:
            for key in arrays:
                np.testing.assert_array_equal(payload[key], eager[key])

    def test_large_numeric_members_are_memory_mapped(self, tmp_path):
        arrays = {
            "floats": np.arange(48.0).reshape(6, 8),
            "empty": np.zeros((0, 4)),
            "scalar": np.array(3.5),
        }
        _, payload = self._payload(tmp_path, arrays)
        assert "floats" in payload.mapped_keys
        assert isinstance(payload["floats"], np.memmap)
        # Degenerate members fall back to eager decoding, transparently.
        assert "empty" not in payload.mapped_keys
        assert "scalar" not in payload.mapped_keys

    def test_mapped_views_are_read_only(self, tmp_path):
        _, payload = self._payload(tmp_path, {"floats": np.arange(8.0)})
        view = payload["floats"]
        with pytest.raises(ValueError):
            view[0] = 99.0


class TestFileChecksum:
    def test_streams_multi_chunk_files(self, tmp_path):
        data = bytes(range(256)) * (12 * 1024) + b"tail"  # ~3 MiB + odd tail
        path = tmp_path / "payload.bin"
        path.write_bytes(data)
        assert _file_checksum(path) == hashlib.sha256(data).hexdigest()

    def test_matches_bytes_checksum(self, tmp_path):
        path = tmp_path / "small.bin"
        path.write_bytes(b"abc")
        assert _file_checksum(path) == checksum_bytes(b"abc")


@pytest.mark.parametrize("backend", BACKENDS)
class TestLazyShardRestore:
    def _deployment(self, store, num_shards=4):
        return ShardedSearcher(
            lambda: ValueOverlapSearcher(), num_shards=num_shards, store=store
        )

    def test_warm_start_defers_every_shard(self, backend, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path, backend)
        cold = self._deployment(store).index(lake)
        assert cold.deferred_shards == []
        warm = self._deployment(make_store(tmp_path, backend)).index(lake)
        assert warm.deferred_shards == [0, 1, 2, 3]

    def test_first_query_materializes_owner_shards_only(self, backend, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path, backend)
        cold = self._deployment(store).index(lake)
        reference = cold.score_candidates(lake.get("t0"), ["t1", "t2"])
        warm = self._deployment(make_store(tmp_path, backend)).index(lake)
        scores = warm.score_candidates(lake.get("t0"), ["t1", "t2"])
        assert scores == reference
        touched = 4 - len(warm.deferred_shards)
        assert 0 < touched < 4  # only the shards owning t1/t2 materialized

    def test_full_search_drains_deferral_with_parity(self, backend, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path, backend)
        cold = self._deployment(store).index(lake)
        reference = search_pairs(cold, lake)
        warm = self._deployment(make_store(tmp_path, backend)).index(lake)
        assert search_pairs(warm, lake) == reference
        assert warm.deferred_shards == []

    def test_refresh_keeps_untouched_shards_deferred(self, backend, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path, backend)
        self._deployment(store).index(lake)
        warm = self._deployment(make_store(tmp_path, backend)).index(lake)
        assert len(warm.deferred_shards) == 4
        added = make_table("t12")
        lake.add_table(added)
        warm.update_index(added=[added], removed=[])
        # Only the shard that owns the new table had to materialize.
        assert 0 < len(warm.deferred_shards) < 4
        fresh = self._deployment(
            make_store(tmp_path / "fresh", backend)
        ).index(make_lake(*[f"t{i}" for i in range(13)]))
        assert search_pairs(warm, lake) == search_pairs(fresh, lake)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCascadePrefilterEntry:
    def _deployment(self, store):
        base = ShardedSearcher(
            lambda: ValueOverlapSearcher(), num_shards=4, store=store
        )
        return CascadeSearcher(base, mode="approx", candidate_budget=4)

    def test_warm_cascade_restores_prefilter_without_touching_shards(
        self, backend, tmp_path
    ):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        cold = self._deployment(make_store(tmp_path, backend)).index(lake)
        reference = search_pairs(cold, lake)
        warm = self._deployment(make_store(tmp_path, backend)).index(lake)
        assert warm.prefilter.is_fitted
        assert warm.base.deferred_shards == [0, 1, 2, 3]
        assert search_pairs(warm, lake) == reference
        assert len(warm.base.deferred_shards) > 0  # query touched a subset

    def test_prefilter_entry_persisted_alongside_shards(self, backend, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path, backend)
        cascade = self._deployment(store).index(lake)
        assert store.contains(CascadePrefilterEntry(cascade), lake)
        assert store.stats()["entries"] == 4 + 1  # shards + prefilter

    def test_corrupt_prefilter_entry_heals_via_refit(self, backend, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        cold = self._deployment(make_store(tmp_path, backend)).index(lake)
        reference = search_pairs(cold, lake)
        store = make_store(tmp_path, backend)
        corrupt_entry(store, CascadePrefilterEntry(cold), lake)
        healed = self._deployment(store).index(lake)
        assert healed.prefilter.is_fitted
        assert search_pairs(healed, lake) == reference

    def test_refresh_repersists_prefilter(self, backend, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path, backend)
        cascade = self._deployment(store).index(lake)
        added = make_table("t12")
        lake.add_table(added)
        cascade.update_index(added=[added], removed=[])
        grown = cascade.base.lake
        assert store.contains(CascadePrefilterEntry(cascade), grown)
        warm = self._deployment(make_store(tmp_path, backend)).index(grown)
        assert warm.base.deferred_shards == [0, 1, 2, 3]
        assert search_pairs(warm, grown) == search_pairs(cascade, grown)
