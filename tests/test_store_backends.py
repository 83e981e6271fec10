"""Tests for the index store's on-disk entries (:mod:`repro.serving.store`).

One suite runs the store contract — round-trip parity, miss semantics,
corruption healing, delta updates, eviction — plus a pin of the entry
format, so a store written by an earlier build keeps loading without a
rebuild.  Further classes cover the memory-mapped payload views, the
streaming checksum, and the O(touched-shards) cold start that lazy shard
and prefilter restoration provide.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from repro.api import Discovery
from repro.api.facade import build_benchmark
from repro.datalake.lake import DataLake
from repro.search import ShardedSearcher, ValueOverlapSearcher
from repro.search.cascade import CascadePrefilterEntry
from repro.serving import IndexStore
from repro.serving.payload import MappedArrayPayload
from repro.serving.store import _file_checksum
from repro.utils.errors import IndexStoreMiss, ServingError
from testkit import make_lake, make_table


def make_store(tmp_path):
    return IndexStore(tmp_path / "store")


def search_pairs(searcher, lake, query_name="t0", k=5):
    return [
        (hit.table_name, hit.score)
        for hit in searcher.search(lake.get(query_name), k)
    ]


def corrupt_entry(store, searcher, lake):
    """Flip the persisted arrays payload of one entry."""
    payload = store.entry_dir(searcher, lake) / "arrays.npz"
    payload.write_bytes(b"garbage" + payload.read_bytes()[7:])


class _CountingSearcher(ValueOverlapSearcher):
    """ValueOverlapSearcher that counts full index builds."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.builds = 0

    def _build_index(self, lake):
        self.builds += 1
        super()._build_index(lake)


class TestStoreContract:
    def test_round_trip_rankings_identical(self, tmp_path):
        lake = make_lake("t0", "t1", "t2", "t3", "t4")
        store = make_store(tmp_path)
        built = ValueOverlapSearcher().index(lake)
        store.save(built, lake)
        restored = store.load(ValueOverlapSearcher(), lake)
        assert search_pairs(restored, lake) == search_pairs(built, lake)

    def test_load_without_entry_is_a_miss(self, tmp_path):
        lake = make_lake("t0", "t1")
        store = make_store(tmp_path)
        with pytest.raises(IndexStoreMiss):
            store.load(ValueOverlapSearcher(), lake)

    def test_config_mismatch_is_a_miss(self, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path)
        store.save(ValueOverlapSearcher(num_hashes=64).index(lake), lake)
        with pytest.raises(IndexStoreMiss):
            store.load(ValueOverlapSearcher(num_hashes=32), lake)

    def test_lake_change_is_a_miss(self, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path)
        store.save(ValueOverlapSearcher().index(lake), lake)
        grown = make_lake("t0", "t1", "t2", "brand_new")
        with pytest.raises(IndexStoreMiss):
            store.load(ValueOverlapSearcher(), grown)

    def test_load_or_build_builds_once_then_loads(self, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path)
        first = _CountingSearcher()
        store.load_or_build(first, lake)
        assert first.builds == 1
        second = _CountingSearcher()
        store.load_or_build(second, lake)
        assert second.builds == 0
        assert search_pairs(second, lake) == search_pairs(first, lake)

    def test_corrupt_payload_detected_and_healed(self, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path)
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

    def test_delta_update_serves_grown_lake_without_rebuild(self, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path)
        store.save(_CountingSearcher().index(lake), lake)
        grown = make_lake("t0", "t1", "t2", "t3")
        delta = _CountingSearcher()
        store.load_or_build(delta, grown)
        assert delta.builds == 0  # prior snapshot + update_index, no rebuild
        fresh = ValueOverlapSearcher().index(grown)
        assert search_pairs(delta, grown) == search_pairs(fresh, grown)

    def test_save_evicts_superseded_entries(self, tmp_path):
        store = make_store(tmp_path)
        store.max_entries_per_backend = 2
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

    def test_evict_cold_keeps_recently_loaded_entry(self, tmp_path):
        """Eviction orders by last access, not creation: loading refreshes."""
        store = make_store(tmp_path)
        searcher = ValueOverlapSearcher()
        old = make_lake("t0", "t1", "old")
        new = make_lake("t0", "t1", "new")
        store.save(ValueOverlapSearcher().index(old), old)
        time.sleep(0.01)
        store.save(ValueOverlapSearcher().index(new), new)
        time.sleep(0.01)
        store.load(ValueOverlapSearcher(), old)  # touch: old is now freshest
        store.max_entries_per_backend = 1
        assert store.evict_cold() == 1
        assert store.contains(searcher, old)
        assert not store.contains(searcher, new)

    def test_evict_cold_bounds_every_namespace(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(3):
            lake = make_lake("t0", "t1", f"v{i}")
            store.save(ValueOverlapSearcher().index(lake), lake)
            time.sleep(0.01)
        store.max_entries_per_backend = 1
        assert store.evict_cold() == 2
        assert store.evict_cold() == 0

    def test_stats_report_occupancy(self, tmp_path):
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path)
        empty = store.stats()
        assert set(empty) == {"location", "backends", "entries", "payload_bytes"}
        assert empty["entries"] == 0
        store.save(ValueOverlapSearcher().index(lake), lake)
        stats = store.stats()
        assert stats["location"] == str(store.root)
        assert stats["backends"] == 1
        assert stats["entries"] == 1
        assert stats["payload_bytes"] > 0

    def test_entry_format_is_pinned(self, tmp_path):
        """The on-disk entry every earlier build wrote, file for file: what
        lets a store written before this layout was the only one load
        without a rebuild."""
        lake = make_lake("t0", "t1", "t2")
        store = make_store(tmp_path)
        built = ValueOverlapSearcher().index(lake)
        entry = store.save(built, lake)
        assert entry.relative_to(store.root).parts == (
            f"ValueOverlapSearcher-{built.config_fingerprint()[:12]}",
            lake.fingerprint()[:16],
        )
        assert sorted(path.name for path in entry.iterdir()) == [
            "arrays.npz",
            "manifest.json",
            "state.json",
        ]
        manifest = json.loads((entry / "manifest.json").read_text())
        assert set(manifest) == {
            "backend_class",
            "backend_config",
            "checksums",
            "config_fingerprint",
            "index_format",
            "lake_fingerprint",
            "last_access",
            "num_tables",
            "store_format",
            "table_fingerprints",
        }
        assert manifest["checksums"] == {
            name: hashlib.sha256((entry / name).read_bytes()).hexdigest()
            for name in ("state.json", "arrays.npz")
        }


class TestMappedArrayPayload:
    def _payload(self, tmp_path, arrays):
        path = tmp_path / "arrays.npz"
        np.savez(path, **arrays)
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


class TestLazyShardRestore:
    def _deployment(self, store, num_shards=4):
        return ShardedSearcher(
            lambda: ValueOverlapSearcher(), num_shards=num_shards, store=store
        )

    def test_warm_start_defers_every_shard(self, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path)
        cold = self._deployment(store).index(lake)
        assert cold.deferred_shards == []
        warm = self._deployment(make_store(tmp_path)).index(lake)
        assert warm.deferred_shards == [0, 1, 2, 3]

    def test_first_query_materializes_owner_shards_only(self, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path)
        cold = self._deployment(store).index(lake)
        reference = cold.score_candidates(lake.get("t0"), ["t1", "t2"])
        warm = self._deployment(make_store(tmp_path)).index(lake)
        scores = warm.score_candidates(lake.get("t0"), ["t1", "t2"])
        assert scores == reference
        touched = 4 - len(warm.deferred_shards)
        assert 0 < touched < 4  # only the shards owning t1/t2 materialized

    def test_full_search_drains_deferral_with_parity(self, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path)
        cold = self._deployment(store).index(lake)
        reference = search_pairs(cold, lake)
        warm = self._deployment(make_store(tmp_path)).index(lake)
        assert search_pairs(warm, lake) == reference
        assert warm.deferred_shards == []

    def test_refresh_keeps_untouched_shards_deferred(self, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path)
        self._deployment(store).index(lake)
        warm = self._deployment(make_store(tmp_path)).index(lake)
        assert len(warm.deferred_shards) == 4
        added = make_table("t12")
        lake.add_table(added)
        warm.update_index(added=[added], removed=[])
        # Only the shard that owns the new table had to materialize.
        assert 0 < len(warm.deferred_shards) < 4
        fresh = self._deployment(
            make_store(tmp_path / "fresh")
        ).index(make_lake(*[f"t{i}" for i in range(13)]))
        assert search_pairs(warm, lake) == search_pairs(fresh, lake)

    def test_repeated_resyncs_keep_every_live_shard_entry(self, tmp_path, monkeypatch):
        """Regression: eviction ranks a namespace by ``last_access``, and an
        unchanged shard used to keep its build-time stamp — older than one
        busy shard's superseded snapshots — so repeated re-syncs of that
        shard evicted the live entries of the others, and a restart rebuilt
        them."""
        bench = build_benchmark("tus", num_queries=1, seed=3)
        lake = DataLake((table.copy() for table in bench.lake), name=bench.lake.name)
        config = {
            "searcher": {"name": "overlap"},
            "serving": {"store_dir": str(tmp_path / "store")},
            "sharding": {"num_shards": 4},
        }
        with Discovery.from_config(config).attach(lake) as discovery:
            sharded = discovery.searcher()
            busy = sharded.shards[0].table_names[0]
            for round_ in range(8):
                table = lake.get(busy).copy()
                table.append_rows([tuple(f"r{round_}" for _ in table.columns)])
                lake.replace_table(table)
                discovery.resync()
            live = {
                shard_id: shard_lake
                for shard_id, shard_lake in enumerate(sharded._shard_lakes)
                if shard_lake.num_tables
            }
            for shard_lake in live.values():
                assert discovery.store.contains(ValueOverlapSearcher(), shard_lake)

        builds = []
        monkeypatch.setattr(
            ValueOverlapSearcher, "_build_index", lambda self, lake: builds.append(lake)
        )
        with Discovery.from_config(config).attach(lake) as reopened:
            assert reopened.searcher().deferred_shards == sorted(live)
        assert builds == []


class TestCascadePrefilterEntry:
    def _deployment(self, store):
        return ShardedSearcher(
            lambda: ValueOverlapSearcher(), num_shards=4, store=store, candidate_budget=4
        )

    def test_warm_cascade_restores_prefilter_without_touching_shards(self, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        cold = self._deployment(make_store(tmp_path)).index(lake)
        reference = search_pairs(cold, lake)
        warm = self._deployment(make_store(tmp_path)).index(lake)
        assert warm.prefilter.is_fitted
        assert warm.deferred_shards == [0, 1, 2, 3]
        assert search_pairs(warm, lake) == reference
        assert len(warm.deferred_shards) > 0  # query touched a subset

    def test_prefilter_entry_persisted_alongside_shards(self, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path)
        cascade = self._deployment(store).index(lake)
        assert store.contains(CascadePrefilterEntry(cascade), lake)
        assert store.stats()["entries"] == 4 + 1  # shards + prefilter

    def test_corrupt_prefilter_entry_heals_via_refit(self, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        cold = self._deployment(make_store(tmp_path)).index(lake)
        reference = search_pairs(cold, lake)
        store = make_store(tmp_path)
        corrupt_entry(store, CascadePrefilterEntry(cold), lake)
        healed = self._deployment(store).index(lake)
        assert healed.prefilter.is_fitted
        assert search_pairs(healed, lake) == reference

    def test_refresh_repersists_prefilter(self, tmp_path):
        lake = make_lake(*[f"t{i}" for i in range(12)])
        store = make_store(tmp_path)
        cascade = self._deployment(store).index(lake)
        added = make_table("t12")
        lake.add_table(added)
        cascade.update_index(added=[added], removed=[])
        grown = cascade.lake
        assert store.contains(CascadePrefilterEntry(cascade), grown)
        warm = self._deployment(make_store(tmp_path)).index(grown)
        assert warm.deferred_shards == [0, 1, 2, 3]
        assert search_pairs(warm, grown) == search_pairs(cascade, grown)
