"""Tests for the streaming-ingestion subsystem (repro.ingest): events and
their wire/JSONL forms, the netting DeltaRegistry/IngestQueue, atomic
MicroBatcher application under the ActivityGate, the IngestController facade
handle + config section, the POST /v1/ingest endpoint and the
``python -m repro ingest`` CLI."""

import io
import json
import random
import threading
import urllib.error
import urllib.request

import pytest
from testkit import make_lake, make_table, rankings

import repro.datalake.lake as lake_module
from repro.api.cli import main as cli_main
from repro.api.config import DiscoveryConfig
from repro.api.facade import Discovery
from repro.benchgen import generate_ugen_benchmark
from repro.datalake import DataLake, Table
from repro.ingest import (
    DeltaRegistry,
    IngestQueue,
    MicroBatcher,
    TableEvent,
    event_from_payload,
    events_from_jsonl,
    find_sharded,
)
from repro.search.sharded import skew_of
from repro.serving.maintenance import ActivityGate, MaintenanceLoop
from repro.serving.server import DiscoveryServer
from repro.utils.errors import ConfigurationError, IngestError


def add_event(name: str, seed: str = "x") -> TableEvent:
    return TableEvent(op="add", name=name, table=make_table(name, seed))


def replace_event(name: str, seed: str = "y") -> TableEvent:
    return TableEvent(op="replace", name=name, table=make_table(name, seed))


def remove_event(name: str) -> TableEvent:
    return TableEvent(op="remove", name=name)


def churn_events(lake: DataLake, total: int, seed: int) -> list[TableEvent]:
    """A seeded add / replace / remove stream over the lake.

    Stream tables are row samples of the lake's own tables, and replaces and
    removes hit original tables as well as streamed ones, so the churn moves
    the rankings instead of idling in a namespace no query ever retrieves.
    """
    rng = random.Random(seed)
    sources = list(lake)
    live = [table.name for table in sources]
    events = []
    for index in range(total):
        roll = rng.random()
        if len(live) > 4 and roll < 0.2:
            events.append(remove_event(live.pop(rng.randrange(len(live)))))
            continue
        if roll < 0.6:
            op, name = "replace", rng.choice(live)
        else:
            op, name = "add", f"stream_{index:03d}"
            live.append(name)
        source = rng.choice(sources)
        table = Table(
            name=name,
            columns=list(source.columns),
            rows=rng.sample(source.rows, max(1, len(source.rows) - 2)),
        )
        events.append(TableEvent(op=op, name=name, table=table))
    return events


# -------------------------------------------------------------------- events
class TestTableEvent:
    def test_validation(self):
        with pytest.raises(IngestError, match="unknown ingest op"):
            TableEvent(op="upsert", name="t", table=make_table("t"))
        with pytest.raises(IngestError, match="non-empty"):
            TableEvent(op="remove", name="")
        with pytest.raises(IngestError, match="must not carry"):
            TableEvent(op="remove", name="t", table=make_table("t"))
        with pytest.raises(IngestError, match="require a table"):
            TableEvent(op="add", name="t")
        with pytest.raises(IngestError, match="does not match"):
            TableEvent(op="add", name="t", table=make_table("other"))

    def test_cost_estimate(self):
        assert remove_event("t").cost_bytes == 64
        assert add_event("t").cost_bytes > 64

    def test_payload_round_trip(self):
        for event in (add_event("t"), remove_event("t"), replace_event("t")):
            decoded = event_from_payload(event.to_payload())
            assert decoded.op == event.op and decoded.name == event.name
            assert decoded.fingerprint() == event.fingerprint()

    def test_payload_rejects_bad_shapes(self):
        with pytest.raises(IngestError, match="must be an object"):
            event_from_payload(["not", "a", "dict"])
        with pytest.raises(IngestError, match="string 'op' and 'name'"):
            event_from_payload({"op": "add"})
        with pytest.raises(IngestError, match="invalid table payload"):
            event_from_payload({"op": "add", "name": "t", "table": {"bogus": 1}})

    def test_jsonl_stream(self):
        lines = "\n".join(
            [
                json.dumps(add_event("a").to_payload()),
                "",  # blank lines are skipped
                json.dumps(remove_event("b").to_payload()),
            ]
        )
        events = list(events_from_jsonl(io.StringIO(lines)))
        assert [event.op for event in events] == ["add", "remove"]

    def test_jsonl_errors_carry_line_numbers(self):
        with pytest.raises(IngestError, match="line 2: invalid JSON"):
            list(events_from_jsonl(io.StringIO('{"op": "remove", "name": "a"}\n{')))
        bad_event = json.dumps({"op": "bogus", "name": "a"})
        with pytest.raises(IngestError, match="line 1: unknown ingest op"):
            list(events_from_jsonl(io.StringIO(bad_event)))


# ------------------------------------------------------------------- netting
class TestDeltaRegistry:
    def test_add_then_remove_cancels(self):
        registry = DeltaRegistry()
        assert registry.record(add_event("t"))
        assert not registry.record(remove_event("t"))
        assert registry.pending_events == 0
        assert registry.stats["cancelled"] == 1

    def test_remove_then_add_nets_to_replace(self):
        registry = DeltaRegistry()
        registry.record(remove_event("t"))
        registry.record(add_event("t", seed="new"))
        (batch,) = registry.drain()
        assert batch.op == "replace"
        assert batch.table.rows[0][0].startswith("new")

    def test_supersede_keeps_pending_op_kind(self):
        registry = DeltaRegistry()
        registry.record(add_event("t", seed="v1"))
        registry.record(replace_event("t", seed="v2"))
        (batch,) = registry.drain()
        assert batch.op == "add"  # unapplied add stays an add
        assert batch.table.rows[0][0].startswith("v2")  # newest content wins

    def test_identical_content_dedups(self):
        registry = DeltaRegistry()
        registry.record(add_event("t"))
        registry.record(replace_event("t", seed="x"))  # same content as add
        assert registry.stats["deduped"] == 1
        assert registry.pending_events == 1

    def test_replace_then_remove_nets_to_plain_remove(self):
        registry = DeltaRegistry()
        registry.record(replace_event("t"))
        registry.record(remove_event("t"))
        (batch,) = registry.drain()
        assert batch.op == "remove" and batch.table is None

    def test_remove_remove_dedups(self):
        registry = DeltaRegistry()
        registry.record(remove_event("t"))
        registry.record(remove_event("t"))
        assert registry.stats["deduped"] == 1
        assert len(registry.drain()) == 1

    def test_lake_fingerprint_noop_dropped(self):
        lake = make_lake("t")
        registry = DeltaRegistry(
            fingerprint_of=lambda name: (
                lake.get(name).content_fingerprint() if name in lake else None
            )
        )
        assert not registry.record(replace_event("t", seed="x"))  # same content
        assert registry.stats["noops_dropped"] == 1
        assert registry.record(replace_event("t", seed="different"))

    def test_drain_is_fifo_and_bounded(self):
        registry = DeltaRegistry()
        for name in ("a", "b", "c"):
            registry.record(add_event(name))
        first = registry.drain(max_events=2)
        assert [event.name for event in first] == ["a", "b"]
        assert [event.name for event in registry.drain()] == ["c"]

    def test_drain_byte_budget_always_yields_one(self):
        registry = DeltaRegistry()
        registry.record(add_event("big"))
        registry.record(add_event("other"))
        batch = registry.drain(max_bytes=1)  # smaller than any single event
        assert [event.name for event in batch] == ["big"]


class TestIngestQueue:
    def test_concurrent_submitters(self):
        queue = IngestQueue()

        def submit(slot: int) -> None:
            for i in range(50):
                queue.submit(add_event(f"t_{slot}_{i}"))

        threads = [threading.Thread(target=submit, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert queue.pending_events == 200
        assert queue.stats["received"] == 200

    def test_latency_anchor_resets_on_full_drain(self):
        queue = IngestQueue()
        assert queue.oldest_pending_seconds() == 0.0
        queue.submit(add_event("t"))
        assert queue.oldest_pending_seconds() >= 0.0
        queue.drain()
        assert queue.oldest_pending_seconds() == 0.0


# ------------------------------------------------------------- micro-batcher
class TestMicroBatcher:
    def test_bounds_validation(self):
        queue = IngestQueue()
        lake = make_lake()
        with pytest.raises(IngestError):
            MicroBatcher(queue, lake, max_events=0)
        with pytest.raises(IngestError):
            MicroBatcher(queue, lake, max_bytes=0)
        with pytest.raises(IngestError):
            MicroBatcher(queue, lake, max_latency_seconds=0)

    def test_due_by_count_bytes_and_latency(self):
        queue = IngestQueue()
        lake = make_lake()
        batcher = MicroBatcher(
            queue, lake, max_events=2, max_bytes=1 << 20, max_latency_seconds=60
        )
        assert not batcher.due()
        queue.submit(add_event("a"))
        assert not batcher.due()
        queue.submit(add_event("b"))
        assert batcher.due()  # count bound
        queue.drain()
        queue.submit(add_event("c"))
        batcher.max_bytes = 1
        assert batcher.due()  # byte bound
        batcher.max_bytes = 1 << 20
        batcher.max_latency_seconds = 1e-9
        assert batcher.due()  # latency bound

    def test_flush_applies_refreshes_and_checkpoints(self):
        queue = IngestQueue()
        lake = make_lake("keep")
        refreshed = []
        batcher = MicroBatcher(queue, lake, refresh=lambda: refreshed.append(1))
        queue.submit(add_event("new"))
        queue.submit(remove_event("keep"))
        (report,) = batcher.flush()
        assert "new" in lake and "keep" not in lake
        assert report.added == 1 and report.removed == 1
        assert refreshed == [1]
        assert report.checkpoint_version == lake.version
        delta = lake.changes_since(report.checkpoint_version)
        assert delta is not None and delta.is_empty

    def test_flush_splits_into_bounded_batches(self):
        queue = IngestQueue()
        lake = make_lake()
        batcher = MicroBatcher(queue, lake, max_events=2)
        for i in range(5):
            queue.submit(add_event(f"t{i}"))
        reports = batcher.flush()
        assert [report.events for report in reports] == [2, 2, 1]
        assert lake.num_tables == 5

    def test_membership_resolved_application(self):
        queue = IngestQueue()
        lake = make_lake("present")
        batcher = MicroBatcher(queue, lake)
        queue.submit(add_event("present", seed="mutated"))  # add on present
        queue.submit(remove_event("ghost"))  # remove on absent
        (report,) = batcher.flush()
        assert report.replaced == 1 and report.skipped == 1
        assert lake.get("present").rows[0][0].startswith("mutated")

    def test_gate_timeout_is_lossless(self):
        queue = IngestQueue()
        lake = make_lake()
        gate = ActivityGate()
        batcher = MicroBatcher(queue, lake, gate=gate, exclusive_timeout=0.05)
        queue.submit(add_event("t"))
        gate.enter()  # a query is in flight: the gate can never drain
        try:
            with pytest.raises(IngestError, match="timed out"):
                batcher.flush()
        finally:
            gate.leave()
        # Nothing drained, nothing applied: the flush is retryable.
        assert queue.pending_events == 1
        assert "t" not in lake
        assert batcher.stats["flush_timeouts"] == 1
        (report,) = batcher.flush()
        assert report.added == 1 and "t" in lake

    def test_queries_blocked_while_batch_applies(self):
        queue = IngestQueue()
        lake = make_lake()
        gate = ActivityGate()
        observed = []

        def refresh():
            # While the batch applies (gate exclusive), a new query must not
            # be able to enter; it proceeds only after release.
            blocked = threading.Thread(target=lambda: (gate.enter(), observed.append(lake.num_tables), gate.leave()))
            blocked.start()
            blocked.join(timeout=0.1)
            assert blocked.is_alive(), "query entered the gate mid-batch"
            observed.append("applying")
            refresh.blocked = blocked

        batcher = MicroBatcher(queue, lake, refresh=refresh, gate=gate)
        queue.submit(add_event("t"))
        batcher.flush()
        refresh.blocked.join(timeout=2.0)
        assert observed == ["applying", 1]  # query saw the post-batch lake


# ---------------------------------------------------------------- controller
@pytest.fixture(scope="module")
def small_benchmark():
    return generate_ugen_benchmark(
        num_queries=2,
        unionable_per_query=4,
        non_unionable_per_query=4,
        rows_per_table=6,
        seed=9,
    )


def fresh_lake(benchmark) -> DataLake:
    return DataLake(
        (table.copy() for table in benchmark.lake), name=benchmark.lake.name
    )


class TestIngestController:
    def test_submit_accepts_events_and_payloads(self, small_benchmark):
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            controller = d.ingest()
            assert controller.submit(add_event("wire_a"))
            assert controller.submit(add_event("wire_b").to_payload())
            with pytest.raises(IngestError, match="accepts TableEvent"):
                controller.submit(42)
            assert controller.pending_events == 2
            reports = controller.flush()
            assert sum(r["events"] for r in reports) == 2
            assert "wire_a" in d.lake and "wire_b" in d.lake

    def test_flush_updates_search_results(self, small_benchmark):
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            query = small_benchmark.query_tables[0]
            baseline = [h.table_name for h in d.searcher().search(query, 5)]
            clone = Table(
                name="ingested_clone", columns=list(query.columns), rows=list(query.rows)
            )
            d.ingest().submit(TableEvent(op="add", name=clone.name, table=clone))
            d.ingest().flush()
            after = [h.table_name for h in d.searcher().search(query, 5)]
            assert "ingested_clone" in after
            assert after != baseline

    def test_handle_is_idempotent_and_closed_with_discovery(self, small_benchmark):
        discovery = Discovery.from_config(None).attach(fresh_lake(small_benchmark))
        controller = discovery.ingest()
        assert discovery.ingest() is controller
        discovery.close()
        assert discovery.closed

    def test_stats_merge_all_layers(self, small_benchmark):
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            controller = d.ingest()
            controller.submit(add_event("s1"))
            stats = controller.stats
            for key in (
                "received",
                "noops_dropped",
                "cancelled",
                "superseded",
                "deduped",
                "batches_applied",
                "events_applied",
                "pending_events",
                "pending_bytes",
                "rebalances",
                "rebalance_moved_tables",
            ):
                assert key in stats
            assert stats["pending_events"] == 1

    def test_maybe_rebalance_skips_flat_backends(self, small_benchmark):
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            d.searcher()  # built, but not sharded
            assert d.ingest().maybe_rebalance(force=True) == []

    def test_maybe_rebalance_on_sharded_backend(self, small_benchmark):
        config = {"sharding": {"num_shards": 2}}
        with Discovery.from_config(config).attach(fresh_lake(small_benchmark)) as d:
            d.searcher()
            controller = d.ingest()
            # Skew the shards: a burst of adds all hash wherever they land;
            # force=True rebalances regardless of the threshold.
            for i in range(6):
                controller.submit(add_event(f"skew_{i}"))
            controller.flush()
            (report,) = controller.maybe_rebalance(force=True)
            assert report["backend"]
            sharded = find_sharded(d.searcher())
            assert sharded is not None
            assert skew_of(sharded.shard_loads()) >= 1.0

    def test_gate_timeout_reports_yield(self, small_benchmark):
        config = {"sharding": {"num_shards": 2}}
        with Discovery.from_config(config).attach(fresh_lake(small_benchmark)) as d:
            d.searcher()
            gate = ActivityGate()
            controller = d.ingest(gate=gate)
            controller.batcher.exclusive_timeout = 0.05
            gate.enter()
            try:
                (report,) = controller.maybe_rebalance(force=True)
                assert report == {
                    "backend": d.built_backends[0],
                    "rebalanced": False,
                    "yielded": True,
                }
            finally:
                gate.leave()


# -------------------------------------------------------------------- config
class TestIngestConfigSection:
    def test_defaults_and_overrides(self):
        config = DiscoveryConfig.from_dict({"ingest": {"max_batch_events": 7}})
        assert config.ingest["max_batch_events"] == 7
        assert config.ingest["max_latency_seconds"] == 0.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="ingest"):
            DiscoveryConfig.from_dict({"ingest": {"bogus": 1}})

    def test_fingerprint_neutral(self):
        bare = DiscoveryConfig.from_dict({})
        tuned = DiscoveryConfig.from_dict({"ingest": {"max_batch_events": 7}})
        assert bare.fingerprint() == tuned.fingerprint()

    def test_round_trips_through_to_dict(self):
        config = DiscoveryConfig.from_dict({"ingest": {"max_batch_events": 7}})
        clone = DiscoveryConfig.from_dict(config.to_dict())
        assert clone.ingest == config.ingest


# ------------------------------------------------------------ facade health
class TestLakeHealth:
    def test_detached_returns_none(self):
        with Discovery.from_config(None) as discovery:
            assert discovery.lake_health() is None

    def test_health_tracks_write_path(self, small_benchmark):
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            controller = d.ingest()
            controller.submit(add_event("health_probe"))
            controller.flush()
            health = d.lake_health()
            assert health["version"] == d.lake.version
            assert health["journal_depth"] >= 1
            assert health["journal_dropped"] == 0
            assert d.lake.version in health["checkpoints"]
            info = d.info()
            assert info["lake"]["journal_depth"] == health["journal_depth"]
            assert info["ingest"]["batches_applied"] == 1


# ------------------------------------------------------------------ the wire
def _post(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def server(small_benchmark):
    with DiscoveryServer.from_config(
        {"ingest": {"max_batch_events": 4}},
        fresh_lake(small_benchmark),
        queries=small_benchmark.query_tables,
        port=0,
        maintenance=False,
    ) as running:
        yield running


class TestIngestEndpoint:
    def test_flush_true_applies_immediately(self, server):
        version = server.discovery.lake.version
        status, body = _post(
            server.url + "/v1/ingest",
            {"events": [add_event("wire_added").to_payload()], "flush": True},
        )
        assert status == 200
        assert body["received"] == 1 and body["accepted"] == 1
        assert body["flushed"] and body["batches_applied"] == 1
        assert body["lake_version"] > version
        assert "wire_added" in server.discovery.lake

    def test_without_flush_events_stay_pending(self, server):
        status, body = _post(
            server.url + "/v1/ingest",
            {"events": [add_event("wire_pending").to_payload()]},
        )
        assert status == 200
        assert not body["flushed"]
        assert body["pending_events"] == 1
        assert "wire_pending" not in server.discovery.lake
        # The maintenance cycle picks pending events up once a bound trips.
        server.ingest.batcher.max_latency_seconds = 1e-9
        server.maintenance.run_cycle()
        assert "wire_pending" in server.discovery.lake

    def test_netting_on_the_wire(self, server):
        status, body = _post(
            server.url + "/v1/ingest",
            {
                "events": [
                    add_event("wire_net").to_payload(),
                    remove_event("wire_net").to_payload(),
                ],
                "flush": True,
            },
        )
        assert status == 200
        assert body["received"] == 2 and body["accepted"] == 1
        assert body["events_applied"] == 0  # add+remove cancelled
        assert "wire_net" not in server.discovery.lake

    def test_malformed_payloads_400(self, server):
        for payload in (
            ["a", "list"],
            {"events": "nope"},
            {"events": [], "flush": "yes"},
            {"events": [{"op": "bogus", "name": "x"}]},
        ):
            status, body = _post(server.url + "/v1/ingest", payload)
            assert status == 400 and "error" in body

    def test_metrics_report_lake_and_ingest_health(self, server):
        _post(
            server.url + "/v1/ingest",
            {"events": [add_event("wire_metrics").to_payload()], "flush": True},
        )
        with urllib.request.urlopen(server.url + "/v1/metrics") as response:
            metrics = json.loads(response.read())
        assert metrics["lake"]["version"] == server.discovery.lake.version
        assert metrics["lake"]["journal_depth"] >= 1
        assert metrics["ingest"]["batches_applied"] >= 1
        assert metrics["maintenance"]["batches_applied"] >= 0


# ----------------------------------------------------------------------- CLI
class TestIngestCli:
    def test_round_trip_through_running_server(self, server, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        stream.write_text(
            json.dumps(add_event("cli_added").to_payload())
            + "\n"
            + json.dumps({"op": "remove", "name": "cli_added"})
            + "\n"
            + json.dumps(add_event("cli_kept").to_payload())
            + "\n"
        )
        rc = cli_main(
            ["ingest", "--url", server.url, "--events", str(stream), "--batch-size", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sent 3 event(s) in 2 request(s)" in out
        assert "cli_kept" in server.discovery.lake
        assert "cli_added" not in server.discovery.lake

    def test_stdin_stream(self, server, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(add_event("cli_stdin").to_payload()))
        )
        assert cli_main(["ingest", "--url", server.url]) == 0
        assert "cli_stdin" in server.discovery.lake

    def test_no_flush_leaves_events_pending(self, server, tmp_path):
        stream = tmp_path / "events.jsonl"
        stream.write_text(json.dumps(add_event("cli_pending").to_payload()) + "\n")
        rc = cli_main(
            ["ingest", "--url", server.url, "--events", str(stream), "--no-flush"]
        )
        assert rc == 0
        assert "cli_pending" not in server.discovery.lake
        assert server.ingest.pending_events == 1

    def test_empty_stream_is_a_noop(self, server, tmp_path, capsys):
        stream = tmp_path / "empty.jsonl"
        stream.write_text("\n")
        assert cli_main(["ingest", "--url", server.url, "--events", str(stream)]) == 0
        assert "no events to send" in capsys.readouterr().out

    def test_bad_batch_size_and_bad_stream_error(self, server, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        stream.write_text("{not json\n")
        rc = cli_main(
            ["ingest", "--url", server.url, "--events", str(stream), "--batch-size", "0"]
        )
        assert rc == 2
        rc = cli_main(["ingest", "--url", server.url, "--events", str(stream)])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unreachable_server_errors_cleanly(self, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        stream.write_text(json.dumps({"op": "remove", "name": "t"}) + "\n")
        rc = cli_main(
            ["ingest", "--url", "http://127.0.0.1:9", "--events", str(stream)]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------- maintenance-loop integration
class TestMaintenanceIntegration:
    def test_cycle_flushes_due_batches_first(self, small_benchmark):
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            gate = ActivityGate()
            controller = d.ingest(gate=gate)
            controller.batcher.max_latency_seconds = 1e-9
            loop = MaintenanceLoop(d, gate=gate, ingest=controller)
            controller.submit(add_event("cycle_added"))
            done = loop.run_cycle()
            assert done["batches_applied"] == 1
            assert "cycle_added" in d.lake
            assert loop.stats["batches_applied"] == 1
            assert loop.stats["events_applied"] == 1

    def test_cycle_yields_on_gate_timeout_without_losing_events(
        self, small_benchmark
    ):
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            gate = ActivityGate()
            controller = d.ingest(gate=gate)
            controller.batcher.max_latency_seconds = 1e-9
            controller.batcher.exclusive_timeout = 0.05
            loop = MaintenanceLoop(d, gate=gate, ingest=controller, exclusive_timeout=0.05)
            controller.submit(add_event("cycle_kept"))
            gate.enter()
            try:
                done = loop.run_cycle()
            finally:
                gate.leave()
            assert done["yielded"] == 1 and done["batches_applied"] == 0
            assert controller.pending_events == 1
            done = loop.run_cycle()
            assert done["batches_applied"] == 1
            assert "cycle_kept" in d.lake


# ---------------------------------------------- journal compaction end to end
class TestCompactionEndToEnd:
    def test_consumers_reanchor_past_the_journal_window(
        self, small_benchmark, monkeypatch
    ):
        monkeypatch.setattr(lake_module, "MAX_JOURNAL_ENTRIES", 16)
        with Discovery.from_config(
            {"ingest": {"max_batch_events": 8}}
        ).attach(fresh_lake(small_benchmark)) as d:
            controller = d.ingest()
            anchor = d.lake.checkpoint()
            served_behind_floor = 0
            for wave in range(10):
                for i in range(8):
                    controller.submit(add_event(f"wave{wave}_t{i}"))
                (report,) = controller.flush()
                # A slow consumer re-anchors only every third batch (24
                # events against a 16-entry window), so its anchor predates
                # the trimmed journal — the batch checkpoints keep serving
                # it a real delta, never the full-rebuild ``None``.
                delta = d.lake.changes_since(anchor)
                assert delta is not None
                assert f"wave{wave}_t0" in delta.added
                if wave % 3 == 2:
                    served_behind_floor += anchor < d.lake.journal_floor
                    anchor = report["checkpoint_version"]
            assert served_behind_floor == 3
            assert d.lake.journal_dropped > 0  # the window really trimmed
            assert len(d.lake.checkpoint_versions) <= lake_module.MAX_CHECKPOINTS

    @pytest.mark.parametrize("num_shards", [1, 2], ids=["flat", "2-shard"])
    @pytest.mark.parametrize("backend", ["overlap", "d3l", "santos", "starmie"])
    def test_stream_past_the_window_converges_to_a_fresh_rebuild(
        self, small_benchmark, monkeypatch, backend, num_shards
    ):
        """After >= 5x the journal window of add / replace / remove events
        applied in bounded batches, the maintained index ranks (names and
        scores) exactly as a fresh deployment attached to the final lake."""
        monkeypatch.setattr(lake_module, "MAX_JOURNAL_ENTRIES", 16)
        config = {
            "sharding": {"num_shards": num_shards},
            "ingest": {"max_batch_events": 8, "max_latency_seconds": 3600.0},
        }
        queries = small_benchmark.query_tables
        lake = fresh_lake(small_benchmark)
        events = churn_events(lake, 5 * lake_module.MAX_JOURNAL_ENTRIES, seed=11)
        with Discovery.from_config(config).attach(lake) as d:
            d.searcher(backend)  # built before the stream; re-synced per batch
            controller = d.ingest()
            for event in events:
                controller.submit(event)
                controller.flush_if_due()
            controller.flush()
            assert controller.stats["batches_applied"] >= 5
            assert lake.journal_dropped > 0  # the window really trimmed
            maintained = rankings(d.searcher(backend), queries, k=10)
            final = DataLake((table.copy() for table in lake), name=lake.name)
            with Discovery.from_config(config).attach(final) as fresh:
                assert maintained == rankings(fresh.searcher(backend), queries, k=10)
