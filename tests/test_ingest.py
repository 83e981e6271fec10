"""Tests for the streaming-ingestion subsystem (repro.ingest): events and
their wire/JSONL forms, the IngestController's last-event-per-table netting
(a case table plus a one-event-at-a-time model property), its batch
application under the ActivityGate, the facade handle, the POST /v1/ingest
endpoint and the ``python -m repro ingest`` CLI."""

import io
import json
import random
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from testkit import fresh_lake, make_lake, make_table, rankings

import repro.datalake.lake as lake_module
import repro.ingest.controller as controller_module
import repro.serving.maintenance as maintenance_module
from repro.api.cli import main as cli_main
from repro.api.facade import Discovery
from repro.benchgen import generate_ugen_benchmark
from repro.datalake import DataLake, Table
from repro.ingest import (
    EVENT_OPS,
    TableEvent,
    event_from_payload,
    events_from_jsonl,
)
from repro.serving.maintenance import ActivityGate, MaintenanceLoop
from repro.serving.server import DiscoveryServer
from repro.utils.errors import IngestError, SearchError


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


#: Word-model encoders: a deployment the write path can rebuild per example.
LIGHT_CONFIG = {
    "column_encoder": {"name": "cell-level", "base": "fasttext"},
    "tuple_encoder": {"name": "glove", "dimension": 16},
}


@pytest.fixture()
def deployment():
    """A deployment over two bystander tables, so the lake is never empty."""
    with Discovery.from_config(LIGHT_CONFIG).attach(
        make_lake("bystander_a", "bystander_b")
    ) as d:
        yield d


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
#: Marks a flush point inside a case's event list.
FLUSH = ("flush", "", None)

#: Counters every netting case states (missing ones are expected to be 0).
NETTING_COUNTERS = (
    "accepted", "deduped", "cancelled", "superseded", "noops_dropped", "events_applied",
)


@dataclass(frozen=True)
class NettingCase:
    """One stream: the lake's initial ``t`` content (``None`` = absent), the
    ``(op, name, content seed)`` events, the expected final content of ``t``
    and the expected counters."""

    name: str
    initial: str | None
    events: list[tuple[str, str, str | None]]
    final: str | None
    counters: dict[str, int] = field(default_factory=dict)


NETTING_CASES = [
    NettingCase(
        name="add_then_remove_of_a_new_table",
        initial=None,
        events=[("add", "t", "x"), ("remove", "t", None)],
        final=None,
        counters={"accepted": 1, "cancelled": 1, "noops_dropped": 1, "events_applied": 1},
    ),
    NettingCase(
        name="add_of_a_present_table_then_remove",  # the add must not cancel the remove
        initial="x",
        events=[("add", "t", "y"), ("remove", "t", None)],
        final=None,
        counters={"accepted": 1, "cancelled": 1, "events_applied": 1},
    ),
    NettingCase(
        name="replace_then_remove",
        initial="x",
        events=[("replace", "t", "y"), ("remove", "t", None)],
        final=None,
        counters={"accepted": 1, "cancelled": 1, "events_applied": 1},
    ),
    NettingCase(
        name="remove_then_add_replaces",
        initial="x",
        events=[("remove", "t", None), ("add", "t", "new")],
        final="new",
        counters={"accepted": 1, "superseded": 1, "events_applied": 1},
    ),
    NettingCase(
        name="newest_content_wins",
        initial=None,
        events=[("add", "t", "v1"), ("replace", "t", "v2")],
        final="v2",
        counters={"accepted": 1, "superseded": 1, "events_applied": 1},
    ),
    NettingCase(
        name="same_op_same_content_dedups",
        initial=None,
        events=[("add", "t", "x"), ("add", "t", "x")],
        final="x",
        counters={"accepted": 1, "deduped": 1, "events_applied": 1},
    ),
    NettingCase(
        name="other_op_same_content_supersedes",
        initial=None,
        events=[("add", "t", "x"), ("replace", "t", "x")],
        final="x",
        counters={"accepted": 1, "superseded": 1, "events_applied": 1},
    ),
    NettingCase(
        name="remove_remove_dedups",
        initial="x",
        events=[("remove", "t", None), ("remove", "t", None)],
        final=None,
        counters={"accepted": 1, "deduped": 1, "events_applied": 1},
    ),
    NettingCase(
        name="identical_content_is_a_noop_at_apply",
        initial="x",
        events=[("replace", "t", "x")],
        final="x",
        counters={"accepted": 1, "noops_dropped": 1, "events_applied": 1},
    ),
    NettingCase(
        name="remove_of_an_absent_table_is_skipped",
        initial=None,
        events=[("remove", "t", None)],
        final=None,
        counters={"accepted": 1, "noops_dropped": 1, "events_applied": 1},
    ),
    NettingCase(
        name="replace_of_an_absent_table_adds",
        initial=None,
        events=[("replace", "t", "y")],
        final="y",
        counters={"accepted": 1, "events_applied": 1},
    ),
    NettingCase(
        name="write_back_after_a_flush_lands",  # the race form is tested below
        initial="x",
        events=[("replace", "t", "c1"), FLUSH, ("replace", "t", "x")],
        final="x",
        counters={"accepted": 2, "events_applied": 2},
    ),
]


def _content(seed: str | None) -> str | None:
    return None if seed is None else make_table("t", seed).content_fingerprint()


class TestNetting:
    @pytest.mark.parametrize("case", NETTING_CASES, ids=lambda case: case.name)
    def test_case(self, deployment, case):
        if case.initial is not None:
            deployment.lake.add_table(make_table("t", case.initial))
        controller = deployment.ingest()
        accepted = 0
        for op, name, seed in case.events:
            if op == "flush":
                controller.flush()
                continue
            table = None if seed is None else make_table(name, seed)
            accepted += controller.submit(TableEvent(op=op, name=name, table=table))
        controller.flush()
        lake = deployment.lake
        observed = lake.get("t").content_fingerprint() if "t" in lake else None
        assert observed == _content(case.final)
        counters = {**controller.stats, "accepted": accepted}
        assert {key: counters[key] for key in NETTING_COUNTERS} == {
            **dict.fromkeys(NETTING_COUNTERS, 0),
            **case.counters,
        }

    @settings(max_examples=100, deadline=None)
    @given(
        initial=st.dictionaries(
            st.sampled_from(["p0", "p1", "p2", "p3"]), st.sampled_from(["c0", "c1", "c2"])
        ),
        steps=st.lists(
            st.tuples(
                st.sampled_from(EVENT_OPS),
                st.sampled_from(["p0", "p1", "p2", "p3"]),
                st.sampled_from(["c0", "c1", "c2"]),
                st.booleans(),
            ),
            max_size=12,
        ),
    )
    def test_matches_applying_one_event_at_a_time(self, initial, steps):
        """Whatever the stream and wherever it flushes, the lake ends as the
        one-event-at-a-time model says, and no built index is left behind."""
        lake = make_lake("bystander_a", "bystander_b")
        for name, seed in initial.items():
            lake.add_table(make_table(name, seed))
        model = lake.table_fingerprints()
        with Discovery.from_config(LIGHT_CONFIG).attach(lake) as d:
            controller = d.ingest()
            for op, name, seed, flush_after in steps:
                table = None if op == "remove" else make_table(name, seed)
                controller.submit(TableEvent(op=op, name=name, table=table))
                if table is None:
                    model.pop(name, None)
                else:
                    model[name] = table.content_fingerprint()
                if flush_after:
                    controller.flush()
            controller.flush()
            assert lake.table_fingerprints() == model
            assert not any(d.searcher(key).drifted for key in d.built_backends)

    def test_write_submitted_during_a_flush_is_kept(self, deployment, monkeypatch):
        """A write submitted while a drained batch is still applying is
        pending work, never a no-op judged against the pre-batch lake."""
        lake = deployment.lake
        original = lake.get("bystander_a")
        changed = make_table("bystander_a", "c1")
        applying, release = threading.Event(), threading.Event()
        replace_table = lake.replace_table

        def blocking_replace(table):
            applying.set()
            assert release.wait(timeout=10)
            return replace_table(table)

        monkeypatch.setattr(lake, "replace_table", blocking_replace)
        controller = deployment.ingest()
        controller.submit(TableEvent(op="replace", name="bystander_a", table=changed))
        flusher = threading.Thread(target=controller.flush)
        flusher.start()
        try:
            assert applying.wait(timeout=10)
            restore = TableEvent(op="replace", name="bystander_a", table=original.copy())
            assert controller.submit(restore)
        finally:
            release.set()
            flusher.join(timeout=10)
        assert not flusher.is_alive()
        controller.flush()
        assert lake.get("bystander_a").content_fingerprint() == original.content_fingerprint()
        assert controller.stats["noops_dropped"] == 0


# ------------------------------------------------------------- batch apply
class TestBatchApply:
    def test_due_by_count_bytes_and_latency(self, deployment, monkeypatch):
        monkeypatch.setattr(controller_module, "MAX_BATCH_EVENTS", 2)
        monkeypatch.setattr(controller_module, "MAX_LATENCY_SECONDS", 60.0)
        controller = deployment.ingest()
        assert not controller.due()
        controller.submit(add_event("a"))
        assert not controller.due()
        controller.submit(add_event("b"))
        assert controller.due()  # count bound
        controller.flush()
        controller.submit(add_event("c"))
        monkeypatch.setattr(controller_module, "MAX_BATCH_BYTES", 1)
        assert controller.due()  # byte bound
        monkeypatch.setattr(controller_module, "MAX_BATCH_BYTES", 1 << 20)
        monkeypatch.setattr(controller_module, "MAX_LATENCY_SECONDS", 0.0)
        assert controller.due()  # latency bound

    def test_latency_anchor_resets_on_full_drain(self, deployment, monkeypatch):
        clock = {"now": 0.0}
        monkeypatch.setattr(
            controller_module, "time", SimpleNamespace(monotonic=lambda: clock["now"])
        )
        monkeypatch.setattr(controller_module, "MAX_LATENCY_SECONDS", 60.0)
        controller = deployment.ingest()
        controller.submit(add_event("a"))
        clock["now"] = 61.0
        assert controller.due()  # "a" has waited past the bound
        controller.flush()
        assert not controller.due()
        controller.submit(add_event("b"))
        clock["now"] = 62.0
        assert not controller.due()  # "b" waits from its own submit, not from "a"
        clock["now"] = 121.0
        assert controller.due()

    def test_flush_applies_refreshes_and_checkpoints(self, deployment, monkeypatch):
        lake = deployment.lake
        resyncs = []
        resync = deployment.resync
        monkeypatch.setattr(deployment, "resync", lambda: resyncs.append(resync()))
        controller = deployment.ingest()
        controller.submit(add_event("new"))
        controller.submit(remove_event("bystander_b"))
        (report,) = controller.flush()
        assert "new" in lake and "bystander_b" not in lake
        assert report["added"] == 1 and report["removed"] == 1
        assert len(resyncs) == 1
        assert report["checkpoint_version"] == lake.version
        delta = lake.changes_since(report["checkpoint_version"])
        assert delta is not None and delta.is_empty
        # A batch that moves nothing skips the resync and the checkpoint.
        controller.submit(remove_event("ghost"))
        (noop,) = controller.flush()
        assert noop["skipped"] == 1 and noop["checkpoint_version"] is None
        assert noop["version_before"] == noop["version_after"] and len(resyncs) == 1

    def test_flush_splits_into_bounded_batches(self, deployment, monkeypatch):
        monkeypatch.setattr(controller_module, "MAX_BATCH_EVENTS", 2)
        controller = deployment.ingest()
        for i in range(5):
            controller.submit(add_event(f"t{i}"))
        reports = controller.flush()
        assert [report["events"] for report in reports] == [2, 2, 1]
        assert deployment.lake.num_tables == 2 + 5

    def test_batches_are_fifo_and_bounded(self, deployment, monkeypatch):
        monkeypatch.setattr(controller_module, "MAX_BATCH_EVENTS", 2)
        controller = deployment.ingest()
        for name in ("a", "b", "c"):
            controller.submit(add_event(name))
        controller.submit(add_event("a", seed="later"))  # keeps a's first slot
        reports = controller.flush()
        assert [report["events"] for report in reports] == [2, 1]
        assert deployment.lake.table_names()[2:] == ["a", "b", "c"]
        assert deployment.lake.get("a").rows[0][0].startswith("later")

    def test_over_budget_event_is_a_batch_of_one(self, deployment, monkeypatch):
        monkeypatch.setattr(controller_module, "MAX_BATCH_BYTES", 1)  # below any event
        controller = deployment.ingest()
        controller.submit(add_event("big"))
        controller.submit(add_event("other"))
        assert [report["events"] for report in controller.flush()] == [1, 1]
        assert "big" in deployment.lake and "other" in deployment.lake

    def test_membership_resolved_application(self, deployment):
        controller = deployment.ingest()
        controller.submit(add_event("bystander_a", seed="mutated"))  # add on present
        controller.submit(remove_event("ghost"))  # remove on absent
        (report,) = controller.flush()
        assert report["replaced"] == 1 and report["skipped"] == 1
        assert deployment.lake.get("bystander_a").rows[0][0].startswith("mutated")

    def test_gate_timeout_is_lossless(self, deployment, monkeypatch):
        monkeypatch.setattr(controller_module, "EXCLUSIVE_TIMEOUT_SECONDS", 0.05)
        gate = ActivityGate()
        controller = deployment.ingest(gate=gate)
        controller.submit(add_event("t"))
        gate.enter()  # a query is in flight: the gate can never drain
        try:
            with pytest.raises(IngestError, match="timed out"):
                controller.flush()
        finally:
            gate.leave()
        # Nothing drained, nothing applied: the flush is retryable.
        assert controller.pending_events == 1
        assert "t" not in deployment.lake
        assert controller.stats["flush_timeouts"] == 1
        (report,) = controller.flush()
        assert report["added"] == 1 and "t" in deployment.lake

    def test_queries_blocked_while_batch_applies(self, deployment, monkeypatch):
        lake = deployment.lake
        gate = ActivityGate()
        observed = []
        blocked = threading.Thread(
            target=lambda: (gate.enter(), observed.append(lake.num_tables), gate.leave())
        )

        def resync():
            # While the batch applies (gate exclusive), a new query must not
            # be able to enter; it proceeds only after release.
            blocked.start()
            blocked.join(timeout=0.1)
            assert blocked.is_alive(), "query entered the gate mid-batch"
            observed.append("applying")

        monkeypatch.setattr(deployment, "resync", resync)
        controller = deployment.ingest(gate=gate)
        controller.submit(add_event("t"))
        controller.flush()
        blocked.join(timeout=2.0)
        assert observed == ["applying", 3]  # query saw the post-batch lake


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

    def test_concurrent_submitters(self, deployment):
        """Four submitters race a flushing thread: no event is lost between
        submit and drain."""
        controller = deployment.ingest()
        done = threading.Event()

        def submit(slot: int) -> None:
            for i in range(50):
                controller.submit(add_event(f"t_{slot}_{i}"))

        def flush_until_done() -> None:
            while not done.is_set():
                controller.flush()

        submitters = [threading.Thread(target=submit, args=(slot,)) for slot in range(4)]
        flusher = threading.Thread(target=flush_until_done)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            flusher.start()
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=30)
        finally:
            done.set()
            flusher.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in [*submitters, flusher])
        controller.flush()
        stats = controller.stats
        assert stats["received"] == stats["events_applied"] == 200
        assert deployment.lake.num_tables == 202

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
        gate = ActivityGate()
        assert discovery.ingest(gate=gate) is controller and controller.gate is gate
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
            ):
                assert key in stats
            assert stats["pending_events"] == 1


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
        None,
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

    def test_without_flush_events_stay_pending(self, server, monkeypatch):
        status, body = _post(
            server.url + "/v1/ingest",
            {"events": [add_event("wire_pending").to_payload()]},
        )
        assert status == 200
        assert not body["flushed"]
        assert body["pending_events"] == 1
        assert "wire_pending" not in server.discovery.lake
        # The maintenance cycle picks pending events up once a bound trips.
        monkeypatch.setattr(controller_module, "MAX_LATENCY_SECONDS", 0.0)
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
        assert body["events_applied"] == 1  # the remove, applied as a skip
        assert "wire_net" not in server.discovery.lake

    def test_add_of_a_present_table_then_remove_removes_it(self, server):
        lake = server.discovery.lake
        first = lake.get(lake.table_names()[0])
        shrunk = Table(name=first.name, columns=list(first.columns), rows=first.rows[:2])
        status, body = _post(
            server.url + "/v1/ingest",
            {
                "events": [
                    TableEvent(op="add", name=first.name, table=shrunk).to_payload(),
                    remove_event(first.name).to_payload(),
                ],
                "flush": True,
            },
        )
        assert status == 200
        assert first.name not in lake
        assert body["accepted"] == 1 and body["events_applied"] == 1

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
        # dustbench reads these counters (events and batches applied, flush
        # timeouts, the four netting counters): a cut must fail here first.
        assert sorted(metrics["ingest"]) == sorted([
            "received",
            "noops_dropped",
            "cancelled",
            "superseded",
            "deduped",
            "drained",
            "batches_applied",
            "events_applied",
            "flush_timeouts",
            "pending_events",
            "pending_bytes",
        ])


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
    def test_cycle_flushes_due_batches_first(self, small_benchmark, monkeypatch):
        monkeypatch.setattr(controller_module, "MAX_LATENCY_SECONDS", 0.0)
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            gate = ActivityGate()
            controller = d.ingest(gate=gate)
            loop = MaintenanceLoop(d, gate=gate, ingest=controller)
            controller.submit(add_event("cycle_added"))
            done = loop.run_cycle()
            assert done["batches_applied"] == 1
            assert "cycle_added" in d.lake
            assert loop.stats["batches_applied"] == 1
            assert loop.stats["events_applied"] == 1

    def test_cycle_yields_on_gate_timeout_without_losing_events(
        self, small_benchmark, monkeypatch
    ):
        monkeypatch.setattr(controller_module, "MAX_LATENCY_SECONDS", 0.0)
        monkeypatch.setattr(controller_module, "EXCLUSIVE_TIMEOUT_SECONDS", 0.05)
        monkeypatch.setattr(maintenance_module, "RESYNC_EXCLUSIVE_TIMEOUT_SECONDS", 0.05)
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            gate = ActivityGate()
            controller = d.ingest(gate=gate)
            loop = MaintenanceLoop(d, gate=gate, ingest=controller)
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

    def test_failed_batch_apply_is_an_error_not_a_yield(
        self, small_benchmark, monkeypatch
    ):
        """A batch that fails after its drain has already changed the lake:
        the cycle reports an error, never a lossless yield."""
        monkeypatch.setattr(controller_module, "MAX_LATENCY_SECONDS", 0.0)
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
            gate = ActivityGate()
            controller = d.ingest(gate=gate)
            loop = MaintenanceLoop(d, gate=gate, ingest=controller)
            controller.submit(add_event("cycle_failed"))

            def failing_resync():
                raise SearchError("index update failed")

            monkeypatch.setattr(d, "resync", failing_resync)
            done = loop.run_cycle()
            assert done["yielded"] == 0 and done["batches_applied"] == 0
            assert loop.stats["yields"] == 0 and loop.stats["errors"] == 1
            assert "cycle_failed" in d.lake and controller.pending_events == 0


# ---------------------------------------------- journal compaction end to end
class TestCompactionEndToEnd:
    def test_consumers_reanchor_past_the_journal_window(
        self, small_benchmark, monkeypatch
    ):
        monkeypatch.setattr(lake_module, "MAX_JOURNAL_ENTRIES", 16)
        monkeypatch.setattr(controller_module, "MAX_BATCH_EVENTS", 8)
        with Discovery.from_config(None).attach(fresh_lake(small_benchmark)) as d:
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
        monkeypatch.setattr(controller_module, "MAX_BATCH_EVENTS", 8)
        monkeypatch.setattr(controller_module, "MAX_LATENCY_SECONDS", 3600.0)
        config = {"sharding": {"num_shards": num_shards}}
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
