"""Tests for the resident discovery server and the versioned result API:
repro.serving.server / maintenance / events, repro.api.schema, and the
Discovery lifecycle (close / context manager)."""

import gc
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

import repro.serving.events as events_module
import repro.serving.maintenance as maintenance_module
import repro.serving.server as server_module
from repro.api.cli import build_parser
from repro.api.facade import Discovery
from repro.api.schema import (
    RESULT_SCHEMA_VERSION,
    canonical_result_payload,
    dump_result,
    validate_result_payload,
)
from repro.benchgen import generate_ugen_benchmark
from repro.datalake import table_from_payload, table_from_rows, table_to_payload
from repro.embeddings.contextual import MEMO_BUDGET_BYTES
from repro.search import ValueOverlapSearcher
from repro.serving import IndexStore
from repro.serving.events import EventLog, latency_summary, percentile, read_events
from repro.serving.maintenance import ActivityGate, MaintenanceLoop
from repro.serving.server import DiscoveryServer
from repro.utils import blas
from repro.utils.errors import ConfigurationError, ServingError


@pytest.fixture(scope="module")
def small_benchmark():
    return generate_ugen_benchmark(
        num_queries=2,
        unionable_per_query=4,
        non_unionable_per_query=4,
        rows_per_table=6,
        seed=9,
    )


# ------------------------------------------------------------------ http utils
def _get(url: str):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _post(url: str, payload) -> tuple[int, bytes, dict]:
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


@pytest.fixture()
def server(small_benchmark):
    with DiscoveryServer.from_config(
        {"serving": {}},
        small_benchmark.lake,
        queries=small_benchmark.query_tables,
        port=0,
        maintenance=False,
    ) as running:
        yield running


# ------------------------------------------------------------------ the schema
class TestResultSchema:
    def test_round_trip_through_wire_serialization(self, small_benchmark):
        with Discovery.from_config(None).attach(small_benchmark.lake) as discovery:
            result = discovery.run(small_benchmark.query_tables[0], k=4)
        payload = result.to_dict()
        assert payload["schema_version"] == RESULT_SCHEMA_VERSION
        # CLI output and wire body are the same dump_result serialization.
        assert result.to_json() == dump_result(payload)
        decoded = json.loads(dump_result(payload))
        validated = validate_result_payload(decoded)
        assert validated["query"] == payload["query"]
        assert [hit["table"] for hit in validated["search_results"]] == [
            hit["table"] for hit in payload["search_results"]
        ]
        assert [hit["rank"] for hit in validated["search_results"]] == list(
            range(1, len(validated["search_results"]) + 1)
        )

    def test_validate_rejects_missing_keys_and_versions(self):
        with pytest.raises(ConfigurationError):
            validate_result_payload({"schema_version": RESULT_SCHEMA_VERSION})
        with Discovery.from_config(None) as discovery:
            assert discovery is not None
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION + 1,
            "query": "q",
            "provenance": {},
            "search_results": [],
            "num_candidate_tuples": 0,
            "selections": [],
            "selected_rows": [],
            "timings": {},
        }
        with pytest.raises(ConfigurationError):
            validate_result_payload(payload)

    def test_canonical_payload_strips_volatile_timings(self, small_benchmark):
        with Discovery.from_config(None).attach(small_benchmark.lake) as discovery:
            first = discovery.run(small_benchmark.query_tables[0], k=4).to_dict()
            second = discovery.run(small_benchmark.query_tables[0], k=4).to_dict()
        assert "timings" not in canonical_result_payload(first)
        assert dump_result(canonical_result_payload(first)) == dump_result(
            canonical_result_payload(second)
        )


# ------------------------------------------------------------------- lifecycle
class TestDiscoveryLifecycle:
    def test_close_is_idempotent_and_blocks_queries(self, small_benchmark):
        discovery = Discovery.from_config({"serving": {}}).attach(small_benchmark.lake)
        discovery.run(small_benchmark.query_tables[0], k=3)
        assert not discovery.closed
        discovery.close()
        assert discovery.closed
        discovery.close()  # no-op
        with pytest.raises(ConfigurationError):
            discovery.run(small_benchmark.query_tables[0], k=3)
        with pytest.raises(ConfigurationError):
            discovery.attach(small_benchmark.lake)

    def test_context_manager_closes(self, small_benchmark):
        with Discovery.from_config(None).attach(small_benchmark.lake) as discovery:
            result = discovery.run(small_benchmark.query_tables[0], k=3)
            assert len(result.search_results) > 0
        assert discovery.closed
        with pytest.raises(ConfigurationError):
            discovery.__enter__()


# ------------------------------------------------------------------ event logs
class TestEventLog:
    def test_tail_is_bounded_but_count_is_not(self, monkeypatch):
        monkeypatch.setattr(events_module, "TAIL_SIZE", 3)
        log = EventLog()
        for index in range(5):
            log.append(kind="search", index=index)
        assert len(log) == 5
        assert [event["index"] for event in log.tail()] == [2, 3, 4]
        assert [event["index"] for event in log.tail(1)] == [4]

    def test_jsonl_round_trip_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.append(kind="search", status="ok", latency_seconds=0.25)
            log.append(kind="search", status="rejected")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"truncated": ')
        events = read_events(path)
        assert len(events) == 2
        assert events[0]["latency_seconds"] == 0.25
        summary = latency_summary(events)
        assert summary["count"] == 1  # the rejection has no latency field
        assert summary["p50"] == summary["p95"] == 0.25

    def test_percentile_and_empty_summary(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0
        assert abs(percentile(values, 0.5) - 50.5) <= 0.5  # nearest rank
        assert percentile(values, 0.95) == 95.0
        with pytest.raises(ServingError):
            percentile([], 0.5)
        with pytest.raises(ServingError):
            percentile([1.0], 1.5)
        assert latency_summary([])["count"] == 0


# -------------------------------------------------------------------- the gate
class TestActivityGate:
    def test_enter_leave_and_busy(self):
        gate = ActivityGate()
        assert not gate.busy
        with gate.active():
            assert gate.busy
            assert gate.idle_for() == 0.0
        assert not gate.busy
        with pytest.raises(ServingError):
            gate.leave()

    def test_exclusive_waits_for_drain_and_blocks_entry(self):
        gate = ActivityGate()
        gate.enter()
        # Cannot drain while a query is in flight.
        assert not gate.acquire_exclusive(timeout=0.05)
        gate.leave()
        assert gate.acquire_exclusive(timeout=0.05)
        entered = threading.Event()

        def _query():
            with gate.active():
                entered.set()

        thread = threading.Thread(target=_query)
        thread.start()
        # The query blocks at enter() while exclusive is held...
        assert not entered.wait(0.1)
        gate.release_exclusive()
        # ... and proceeds the moment it is released.
        assert entered.wait(2.0)
        thread.join()
        with pytest.raises(ServingError):
            gate.release_exclusive()

    def test_wait_idle_honours_stop(self):
        gate = ActivityGate()
        stop = threading.Event()
        assert gate.wait_idle(0.0, stop)
        stop.set()
        gate.enter()
        assert not gate.wait_idle(10.0, stop)
        gate.leave()


# ------------------------------------------------------------- the maintenance
class TestMaintenanceLoop:
    def test_cycle_resyncs_after_mutation(self, small_benchmark):
        lake = generate_ugen_benchmark(
            num_queries=1,
            unionable_per_query=3,
            non_unionable_per_query=3,
            rows_per_table=5,
            seed=11,
        ).lake
        with Discovery.from_config({"serving": {}}).attach(lake) as discovery:
            loop = MaintenanceLoop(discovery)
            assert loop.run_cycle()["resynced_backends"] == 0
            lake.add_table(table_from_rows("fresh", [{"a": 1}, {"a": 2}]))
            done = loop.run_cycle()
            assert done["resynced_backends"] == 1
            assert loop.stats["resyncs"] == 1

    def test_cycle_yields_under_sustained_traffic(self, small_benchmark, monkeypatch):
        monkeypatch.setattr(maintenance_module, "RESYNC_EXCLUSIVE_TIMEOUT_SECONDS", 0.05)
        with Discovery.from_config(None).attach(small_benchmark.lake) as discovery:
            gate = ActivityGate()
            loop = MaintenanceLoop(discovery, gate=gate)
            gate.enter()
            try:
                done = loop.run_cycle()
            finally:
                gate.leave()
            assert done == {
                "resynced_backends": 0,
                "prewarmed": 0,
                "evicted": 0,
                "batches_applied": 0,
                "yielded": 1,
            }
            assert loop.stats["yields"] == 1

    def test_prewarm_replays_recent_distinct_queries(self, small_benchmark):
        with Discovery.from_config({"serving": {}}).attach(
            small_benchmark.lake
        ) as discovery:
            log = EventLog()
            query = small_benchmark.query_tables[0]
            for _ in range(3):  # duplicates collapse to one replay
                log.append(
                    kind="search",
                    status="ok",
                    query=query.name,
                    backend=None,
                    k=3,
                    latency_seconds=0.01,
                )
            log.append(kind="search", status="rejected")
            loop = MaintenanceLoop(
                discovery,
                event_log=log,
                resolve_query=lambda name: query if name == query.name else None,
            )
            done = loop.run_cycle()
            assert done["prewarmed"] == 1
            stats = discovery.service_stats()
            (cache_stats,) = stats.values()
            assert cache_stats["size"] >= 1 or cache_stats["misses"] >= 1

    def test_start_stop_lifecycle(self, small_benchmark, monkeypatch):
        monkeypatch.setattr(maintenance_module, "INTERVAL_SECONDS", 0.01)
        monkeypatch.setattr(maintenance_module, "IDLE_SECONDS", 0.0)
        with Discovery.from_config(None).attach(small_benchmark.lake) as discovery:
            loop = MaintenanceLoop(discovery).start()
            with pytest.raises(ServingError):
                loop.start()
            assert loop.running
            deadline = time.monotonic() + 5.0
            while loop.stats["cycles"] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            loop.stop()
            assert not loop.running
            assert loop.stats["cycles"] >= 1
            loop.stop()  # double stop is a no-op

    def test_run_cycle_is_serialized_across_threads(self, small_benchmark):
        """The background maintenance thread and an on-demand ``/v1/refresh``
        can request a cycle at the same instant; the cycle lock must run
        them one at a time, never interleaved mid-cycle."""

        class ProbeIngest:
            """Stands in for IngestController; records call concurrency."""

            def __init__(self):
                self.active = 0
                self.max_active = 0
                self.calls = 0
                self._lock = threading.Lock()

            def flush_if_due(self):
                with self._lock:
                    self.active += 1
                    self.calls += 1
                    self.max_active = max(self.max_active, self.active)
                time.sleep(0.02)  # widen the window an overlap would need
                with self._lock:
                    self.active -= 1
                return []

        with Discovery.from_config(None).attach(small_benchmark.lake) as discovery:
            probe = ProbeIngest()
            loop = MaintenanceLoop(discovery, ingest=probe)
            threads = [threading.Thread(target=loop.run_cycle) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert probe.calls == 4
            assert probe.max_active == 1
            assert loop.stats["cycles"] == 4

    def test_background_thread_and_refresh_share_the_cycle_lock(
        self, small_benchmark, monkeypatch
    ):
        """While the background thread is mid-cycle, a concurrent on-demand
        run_cycle (what ``/v1/refresh`` calls) blocks until it finishes
        instead of racing it."""
        entered = threading.Event()
        release = threading.Event()

        class BlockingIngest:
            def flush_if_due(self):
                entered.set()
                assert release.wait(timeout=30)
                return []

        monkeypatch.setattr(maintenance_module, "IDLE_SECONDS", 0.0)
        monkeypatch.setattr(maintenance_module, "INTERVAL_SECONDS", 0.01)
        with Discovery.from_config(None).attach(small_benchmark.lake) as discovery:
            loop = MaintenanceLoop(discovery, ingest=BlockingIngest()).start()
            try:
                assert entered.wait(timeout=30)  # background thread mid-cycle
                on_demand: list[dict] = []
                refresher = threading.Thread(
                    target=lambda: on_demand.append(loop.run_cycle())
                )
                refresher.start()
                refresher.join(timeout=0.2)
                assert refresher.is_alive()  # blocked on the cycle lock
                entered.clear()
                release.set()
                refresher.join(timeout=30)
                assert not refresher.is_alive()
                (done,) = on_demand
                assert done["yielded"] == 0
            finally:
                release.set()
                loop.stop()


# --------------------------------------------------------------- store hygiene
class TestEvictCold:
    def test_trims_every_backend_to_the_bound(self, tmp_path, small_benchmark):
        store = IndexStore(tmp_path / "store")
        lake = small_benchmark.lake
        searcher = ValueOverlapSearcher().index(lake)
        store.save(searcher, lake)
        lake_two = generate_ugen_benchmark(
            num_queries=1,
            unionable_per_query=3,
            non_unionable_per_query=3,
            rows_per_table=5,
            seed=21,
        ).lake
        store.save(ValueOverlapSearcher().index(lake_two), lake_two)
        store.max_entries_per_backend = 1
        assert store.evict_cold() == 1
        assert store.contains(searcher, lake_two)  # newest entry survives
        assert store.evict_cold() == 0


# ------------------------------------------------------------------ the server
class TestServerEndpoints:
    def test_health_info_metrics(self, server, small_benchmark):
        status, health, _ = _get(server.url + "/v1/health")
        assert (status, health["status"]) == (200, "ok")
        status, info, _ = _get(server.url + "/v1/info")
        assert status == 200
        assert info["server"]["result_schema_version"] == RESULT_SCHEMA_VERSION
        assert info["server"]["queries"] == [
            table.name for table in small_benchmark.query_tables
        ]
        assert "/v1/search" in info["server"]["endpoints"]["POST"]
        status, metrics, _ = _get(server.url + "/v1/metrics")
        assert status == 200
        assert metrics["counters"]["served"] == 0
        assert metrics["latency"]["count"] == 0
        memo = metrics["encoder_memo"]
        keys = {"hits", "misses", "entries", "bytes", "budget_bytes"}
        assert set(memo) == keys | {"column", "tuple"}
        assert set(memo["column"]) == set(memo["tuple"]) == keys
        # The default config's column and tuple stages share one encoder,
        # which keeps one memo per stage.
        assert memo["budget_bytes"] == 2 * MEMO_BUDGET_BYTES
        assert memo["column"]["budget_bytes"] == memo["tuple"]["budget_bytes"] == MEMO_BUDGET_BYTES
        assert set(metrics["blas"]) == {
            "available",
            "default_threads",
            "threads",
            "holders",
            "capped_entries",
        }
        assert metrics["blas"]["holders"] == 0
        assert metrics["blas"]["threads"] == metrics["blas"]["default_threads"]

    def test_wire_result_matches_direct_facade_bytes(self, server, small_benchmark):
        status, body, _ = _post(server.url + "/v1/search", {"query_index": 0, "k": 4})
        assert status == 200
        wire = validate_result_payload(json.loads(body))
        with Discovery.from_config({"serving": {}}).attach(
            small_benchmark.lake
        ) as direct:
            expected = direct.run(small_benchmark.query_tables[0], k=4).to_dict()
        # Identical modulo the volatile timings block: the canonical
        # serializations are bit-identical.
        assert dump_result(canonical_result_payload(wire)) == dump_result(
            canonical_result_payload(expected)
        )

    def test_inline_query_table_round_trips(self, server, small_benchmark):
        query = small_benchmark.query_tables[1]
        payload = table_to_payload(query)
        assert table_from_payload(payload).content_fingerprint() == (
            query.content_fingerprint()
        )
        status, body, _ = _post(
            server.url + "/v1/search", {"query_table": payload, "k": 3}
        )
        assert status == 200
        assert json.loads(body)["query"] == query.name

    def test_query_name_resolves_lake_tables(self, server):
        name = server.discovery.lake.table_names()[0]
        status, body, _ = _post(server.url + "/v1/search", {"query_name": name, "k": 3})
        assert status == 200
        assert json.loads(body)["query"] == name

    def test_bool_query_index_is_rejected(self, server):
        """JSON ``true`` is not query 1: ``query_index`` rejects bools the way
        ``k`` does."""
        status, body, _ = _post(server.url + "/v1/search", {"query_index": True})
        assert status == 400
        assert "query_index" in json.loads(body)["error"]

    def test_error_paths(self, server):
        status, payload, _ = _get(server.url + "/v1/nope")
        assert status == 404
        assert "endpoints" in payload
        status, body, _ = _post(server.url + "/v1/search", b"{not json")
        assert status == 400
        status, body, _ = _post(server.url + "/v1/search", {"k": 3})
        assert status == 400
        assert "query_table" in json.loads(body)["error"]
        status, body, _ = _post(server.url + "/v1/search", {"query_index": 99})
        assert status == 400
        status, body, _ = _post(
            server.url + "/v1/search", {"query_index": 0, "backend": "nope"}
        )
        assert status == 400
        status, body, _ = _post(
            server.url + "/v1/search", {"query_name": "no_such_table"}
        )
        assert status == 400
        for malformed in (
            {"name": "x", "columns": ["a"], "rows": 7},
            {"name": "x", "columns": ["a"], "rows": [7]},
            {"name": "x", "columns": 3, "rows": []},
        ):
            status, body, _ = _post(
                server.url + "/v1/search", {"query_table": malformed}
            )
            assert status == 400
            assert "table payload" in json.loads(body)["error"]
        for length in ("abc", "-5"):
            connection = http.client.HTTPConnection(
                server.server_address[0], server.server_address[1], timeout=10.0
            )
            try:
                connection.putrequest("POST", "/v1/search")
                connection.putheader("Content-Length", length)
                connection.endheaders()
                response = connection.getresponse()
                assert response.status == 400
                assert "Content-Length" in json.loads(response.read())["error"]
            finally:
                connection.close()
        status, metrics, _ = _get(server.url + "/v1/metrics")
        assert metrics["counters"]["errors"] >= 9
        assert metrics["counters"]["inflight"] == 0

    def test_events_are_written_to_jsonl(self, small_benchmark, tmp_path):
        path = tmp_path / "events.jsonl"
        with DiscoveryServer.from_config(
            None,
            small_benchmark.lake,
            queries=small_benchmark.query_tables,
            port=0,
            event_log=str(path),
            maintenance=False,
        ) as running:
            _post(running.url + "/v1/search", {"query_index": 0, "k": 3})
        events = read_events(path)
        assert [event["status"] for event in events] == ["ok"]
        assert latency_summary(events)["count"] == 1


class TestServerConcurrency:
    def test_threaded_clients_get_bit_identical_results(
        self, small_benchmark, monkeypatch
    ):
        config = {"serving": {}}
        with Discovery.from_config(config).attach(small_benchmark.lake) as direct:
            expected = {
                index: dump_result(
                    canonical_result_payload(
                        direct.run(query, k=4).to_dict()
                    )
                )
                for index, query in enumerate(small_benchmark.query_tables)
            }
        monkeypatch.setattr(server_module, "QUEUE_TIMEOUT_SECONDS", 30.0)
        monkeypatch.setattr(maintenance_module, "IDLE_SECONDS", 0.0)
        monkeypatch.setattr(maintenance_module, "INTERVAL_SECONDS", 0.05)
        with DiscoveryServer.from_config(
            config,
            small_benchmark.lake,
            queries=small_benchmark.query_tables,
            port=0,
            max_inflight=8,
        ) as running:
            results: dict[int, tuple[int, bytes]] = {}

            def _client(slot: int) -> None:
                index = slot % len(small_benchmark.query_tables)
                status, body, _ = _post(
                    running.url + "/v1/search", {"query_index": index, "k": 4}
                )
                results[slot] = (status, body)

            threads = [
                threading.Thread(target=_client, args=(slot,)) for slot in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 6
            for slot, (status, body) in results.items():
                assert status == 200
                canonical = dump_result(canonical_result_payload(json.loads(body)))
                assert canonical == expected[slot % len(expected)]
            _, metrics, _ = _get(running.url + "/v1/metrics")
            assert metrics["counters"]["served"] == 6
            assert metrics["latency"]["count"] == 6
            assert metrics["latency"]["p95"] >= metrics["latency"]["p50"] > 0.0

    def test_admission_control_rejects_with_retry_after(
        self, small_benchmark, monkeypatch
    ):
        monkeypatch.setattr(server_module, "QUEUE_TIMEOUT_SECONDS", 0.05)
        with DiscoveryServer.from_config(
            None,
            small_benchmark.lake,
            queries=small_benchmark.query_tables,
            port=0,
            max_inflight=1,
            maintenance=False,
        ) as running:
            release = threading.Event()
            started = threading.Event()
            original_run = running.discovery.run

            def _slow_run(*args, **kwargs):
                started.set()
                release.wait(10.0)
                return original_run(*args, **kwargs)

            running.discovery.run = _slow_run
            first: dict[str, int] = {}

            def _holder() -> None:
                status, _, _ = _post(
                    running.url + "/v1/search", {"query_index": 0, "k": 3}
                )
                first["status"] = status

            holder = threading.Thread(target=_holder)
            holder.start()
            assert started.wait(10.0)
            status, body, headers = _post(
                running.url + "/v1/search", {"query_index": 1, "k": 3}
            )
            release.set()
            holder.join()
            assert status == 503
            assert headers["Retry-After"] == "0.05"
            rejection = json.loads(body)
            assert "saturated" in rejection["error"]
            assert rejection["retry_after_seconds"] == 0.05
            assert first["status"] == 200
            _, metrics, _ = _get(running.url + "/v1/metrics")
            assert metrics["counters"]["rejected"] == 1
            assert metrics["counters"]["served"] == 1

    def test_two_searches_in_flight_run_one_blas_thread(
        self, small_benchmark, monkeypatch
    ):
        library = {"threads": 4, "calls": []}

        def _set(threads: int) -> None:
            library["calls"].append(threads)
            library["threads"] = threads

        monkeypatch.setattr(
            blas, "_PROCESS_CAP", blas.BlasCap([(_set, lambda: library["threads"])])
        )
        monkeypatch.setattr(server_module, "QUEUE_TIMEOUT_SECONDS", 30.0)
        with DiscoveryServer.from_config(
            None,
            small_benchmark.lake,
            queries=small_benchmark.query_tables,
            port=0,
            max_inflight=4,
            maintenance=False,
        ) as running:
            release = threading.Event()
            both_inside = threading.Barrier(3)
            original_run = running.discovery.run

            def _held_run(*args, **kwargs):
                both_inside.wait(10.0)
                release.wait(10.0)
                return original_run(*args, **kwargs)

            running.discovery.run = _held_run
            statuses: list[int] = []

            def _client(index: int) -> None:
                status, _, _ = _post(
                    running.url + "/v1/search", {"query_index": index, "k": 3}
                )
                statuses.append(status)

            clients = [
                threading.Thread(target=_client, args=(index,)) for index in (0, 1)
            ]
            for client in clients:
                client.start()
            try:
                both_inside.wait(10.0)
                assert library["threads"] == 1
                _, metrics, _ = _get(running.url + "/v1/metrics")
                assert metrics["blas"]["holders"] == 2
                assert metrics["blas"]["threads"] == 1
            finally:
                release.set()
                for client in clients:
                    client.join(timeout=30.0)
            assert not any(client.is_alive() for client in clients)
            assert statuses == [200, 200]
            assert library["threads"] == 4
            assert library["calls"] == [1, 4]
            _, metrics, _ = _get(running.url + "/v1/metrics")
            assert metrics["blas"]["holders"] == 0
            assert metrics["blas"]["capped_entries"] == 1

    def test_mutation_visible_after_maintenance_without_restart(self, small_benchmark):
        lake = generate_ugen_benchmark(
            num_queries=1,
            unionable_per_query=3,
            non_unionable_per_query=3,
            rows_per_table=5,
            seed=31,
        ).lake
        query = lake.get(lake.table_names()[0])
        with DiscoveryServer.from_config(
            {"serving": {}},
            lake,
            queries=[query],
            port=0,
            maintenance=False,  # drive cycles deterministically via /v1/refresh
        ) as running:
            status, before, _ = _post(
                running.url + "/v1/search", {"query_index": 0, "k": 4}
            )
            assert status == 200
            fingerprint_before = json.loads(before)["provenance"]["lake_fingerprint"]
            # A copy of the query (under a new name) must land in its own
            # post-mutation ranking.
            clone = table_from_payload(
                {**table_to_payload(query), "name": "pr7_clone"}
            )
            lake.add_table(clone)
            status, refreshed, _ = _post(running.url + "/v1/refresh", {})
            assert status == 200
            assert json.loads(refreshed)["refresh"]["resynced_backends"] == 1
            status, after, _ = _post(
                running.url + "/v1/search", {"query_index": 0, "k": 4}
            )
            assert status == 200
            payload = json.loads(after)
            assert payload["provenance"]["lake_fingerprint"] != fingerprint_before
            assert "pr7_clone" in [
                hit["table"] for hit in payload["search_results"]
            ]

    def test_prewarm_after_resync_hits_for_a_request_that_names_k(self):
        """A request's ``k`` is its diverse-tuple count; pre-warm must fill the
        step-1 cache key requests read, whatever ``k`` they carried."""
        lake = generate_ugen_benchmark(
            num_queries=1,
            unionable_per_query=3,
            non_unionable_per_query=3,
            rows_per_table=5,
            seed=37,
        ).lake
        query = lake.get(lake.table_names()[0])
        with DiscoveryServer.from_config(
            {"serving": {}}, lake, queries=[query], port=0, maintenance=False
        ) as running:
            request = {"query_index": 0, "k": 5}
            assert _post(running.url + "/v1/search", request)[0] == 200
            lake.add_table(table_from_rows("fresh", [{"a": 1}, {"a": 2}]))
            status, refreshed, _ = _post(running.url + "/v1/refresh", {})
            assert status == 200
            assert json.loads(refreshed)["refresh"]["prewarmed"] == 1
            (before,) = running.discovery.service_stats().values()
            assert _post(running.url + "/v1/search", request)[0] == 200
            (after,) = running.discovery.service_stats().values()
            assert (after["hits"], after["misses"]) == (
                before["hits"] + 1,
                before["misses"],
            )


class TestServerLifecycle:
    def test_double_start_and_stop(self, small_benchmark):
        running = DiscoveryServer.from_config(
            None, small_benchmark.lake, port=0, maintenance=False
        )
        running.start()
        with pytest.raises(ServingError):
            running.start()
        running.stop()
        running.stop()  # idempotent
        assert running.discovery.closed  # from_config hands over ownership
        with pytest.raises(ServingError):
            running.start()

    def test_failed_bind_releases_owned_resources(
        self, small_benchmark, tmp_path, monkeypatch
    ):
        """A busy port is a ServingError naming host:port, and the event log
        and facade the server owns are closed, not left for the collector."""
        closed: list[Discovery] = []
        original_close = Discovery.close

        def _recording_close(discovery):
            closed.append(discovery)
            original_close(discovery)

        monkeypatch.setattr(Discovery, "close", _recording_close)
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ServingError, match=f"127.0.0.1:{port}"):
                    DiscoveryServer.from_config(
                        None,
                        small_benchmark.lake,
                        port=port,
                        event_log=str(tmp_path / "ev.jsonl"),
                        maintenance=False,
                    )
                gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len(closed) == 1 and closed[0].closed

    def test_invalid_max_inflight(self, small_benchmark):
        with Discovery.from_config(None).attach(small_benchmark.lake) as discovery:
            with pytest.raises(ServingError):
                DiscoveryServer(discovery, port=0, max_inflight=0)


# --------------------------------------------------------------------- the CLI
class TestCliSurface:
    def test_search_warm_serve_share_the_override_flag_set(self):
        parser = build_parser()
        subparsers_action = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        shared = {
            "--config",
            "--cascade-mode",
            "--cascade-budget",
            "--shards",
        }
        flag_sets = {}
        for name in ("search", "warm", "serve"):
            sub = subparsers_action.choices[name]
            flags = {
                option
                for action in sub._actions
                for option in action.option_strings
            }
            assert shared <= flags, f"{name} is missing {shared - flags}"
            flag_sets[name] = flags & shared
        assert flag_sets["search"] == flag_sets["warm"] == flag_sets["serve"]

    def test_search_json_flag_prints_exact_payload(self, capsys, tmp_path):
        from repro.api.cli import main

        output = tmp_path / "result.json"
        assert (
            main(
                [
                    "search",
                    "--benchmark",
                    "ugen",
                    "--k",
                    "3",
                    "--json",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        payload = validate_result_payload(json.loads(stdout))
        assert stdout.strip() == dump_result(payload)
        assert json.loads(output.read_text()) == json.loads(stdout)
