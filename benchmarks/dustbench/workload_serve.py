"""The two wire workloads: ``serve-distinct-c2`` and ``serve-hot-writes``.

Both drive a child-process ``DiscoveryServer`` over a 720-table ``ugen`` lake
(36 topics x 20 short tables — every topic the generator has, so two seeds
give lakes with the same aggregate shape) with full Algorithm-1 requests
(k = 30):

* ``serve-distinct-c2`` — closed loop, 2 clients, every request an inline
  never-repeated ``query_table``: no reuse is possible, so alignment and
  embedding own the service time and the server's handling of two concurrent
  requests owns the rest.
* ``serve-hot-writes`` — closed loop, 1 client drawing Zipf(1.1) over 36
  registered queries (one per topic), beside an open-loop writer posting a
  4-event batch with ``flush: true`` every second (timed from the due time):
  reuse is possible and writes keep invalidating it.

Correctness is judged against a *model* deployment in the harness process:
the same lake (after the same JSON round trip), the same config, and — for
the write workload — the same event batches replayed through the same ingest
path.  Every response names the lake fingerprint it was computed against, so
each one is matched to the model lake state it must agree with.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from statistics import median
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.api.facade import Discovery
from repro.api.schema import canonical_result_payload, validate_result_payload
from repro.datalake.io import table_from_payload, table_to_payload
from repro.datalake.table import Table
from repro.ingest.events import TableEvent
from repro.serving.events import percentile, read_events
from repro.utils.errors import ReproError
from repro.utils.rng import derive_seed, seeded_rng

import inputs
from harness import TRACED_LOAD_SHARE, Outcome, Tracer, available_cpus, cache_hit_rate
from serverproc import ChildServer, call, get_json, wire_copy
from staged import record_stage_values, staged_run

K = 30
CONFIGS: dict[str, dict[str, Any]] = {
    "serve-distinct-c2": {"serving": {}},
    "serve-hot-writes": {"serving": {"cache_size": 256}},
}
QUERY_CLIENTS = {"serve-distinct-c2": 2, "serve-hot-writes": 1}
#: Completed searches in one block of the throughput median.
THROUGHPUT_BLOCK = 8
#: Seconds between write batches of ``serve-hot-writes`` (open loop).
WRITE_INTERVAL = 1.0


@dataclass
class Sample:
    """One search request as the client saw it."""

    index: int
    request: dict[str, Any]
    start: float
    end: float
    status: int
    body: bytes
    failure: str | None = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class WriteSample:
    """One ingest POST of the open-loop writer, timed from its due time."""

    events: list[TableEvent]
    due: float
    sent: float
    end: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


# ------------------------------------------------------------------ load loops
def closed_loop(
    url: str,
    stream: Iterator[dict[str, Any]],
    clients: int,
    *,
    seconds: float | None = None,
    count: int | None = None,
) -> tuple[list[Sample], float]:
    """``clients`` threads, each sending its next request when its last returned.

    Requests are taken from ``stream`` in order under a lock, so the n-th
    request sent is the n-th of the seeded stream whatever the interleaving.
    Stops handing out requests after ``seconds`` (or after ``count``) and
    waits for those in flight; returns the samples and the loop's start time.
    """
    samples: list[Sample] = []
    lock = threading.Lock()
    counter = itertools.count()
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def take() -> tuple[int, dict[str, Any]] | None:
        with lock:
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            index = next(counter)
            if count is not None and index >= count:
                return None
            return index, next(stream)

    def client() -> None:
        while True:
            taken = take()
            if taken is None:
                return
            index, request = taken
            begin = time.perf_counter()
            status, body = call(url, "POST", "/v1/search", request)
            sample = Sample(index, request, begin, time.perf_counter(), status, body)
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda sample: sample.index)
    return samples, started


def open_loop_writer(
    url: str,
    batches: Iterator[list[TableEvent]],
    *,
    interval: float,
    seconds: float,
    out: list[WriteSample],
) -> None:
    """Post one batch every ``interval`` seconds on a fixed schedule.

    The schedule never slips: a batch that could not be sent on time (the
    previous POST was still blocking) is sent as soon as possible and its
    latency still counts from when it was due.
    """
    started = time.perf_counter()
    for slot in itertools.count(1):
        due = started + slot * interval
        if due >= started + seconds:
            return
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        events = next(batches)
        payload = {"events": [event.to_payload() for event in events], "flush": True}
        sent = time.perf_counter()
        status, body = call(url, "POST", "/v1/ingest", payload)
        out.append(WriteSample(events, due, sent, time.perf_counter(), status, body))


# ------------------------------------------------------------------- requests
def inline_requests(lake, seed: int) -> Iterator[dict[str, Any]]:
    for query in inputs.distinct_queries(lake, seed, "serve-queries"):
        yield {"query_table": table_to_payload(query), "k": K}


def hot_requests(queries: list[Table], seed: int) -> Iterator[dict[str, Any]]:
    for pick in inputs.zipf_picks(len(queries), seed):
        yield {"query_name": queries[pick].name, "k": K}


def request_table(request: dict[str, Any], registered: dict[str, Table]) -> Table:
    """The query table the server resolved ``request`` to."""
    if "query_table" in request:
        return table_from_payload(request["query_table"])
    return registered[request["query_name"]]


# ------------------------------------------------------------------------ run
def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: inputs.Scale,
    workdir: Path,
    tracer: Tracer,
) -> Outcome:
    config = CONFIGS[workload]
    clients = QUERY_CLIENTS[workload]
    writes_enabled = workload == "serve-hot-writes"
    client_threads = clients + (1 if writes_enabled else 0)
    if client_threads > available_cpus():
        raise SystemExit(
            f"{workload} needs {client_threads} client threads but only "
            f"{available_cpus()} CPUs are available; refusing to measure a "
            "load generator that would starve itself"
        )
    outcome = Outcome()
    values = outcome.values
    values["harness.client_threads"] = client_threads

    # Set-up: lake generation + spec write + child start-to-ready, repeated so
    # the reported figure is a median; the last child is the one measured.
    # Retired children wind down in the background and are reaped at the end.
    setups: list[float] = []
    generate: list[float] = []
    servers: list[ChildServer] = []
    try:
        for repeat in range(1 if trace else scale.setup_repeats):
            if servers:
                servers[-1].terminate()
            begin = time.perf_counter()
            lake = inputs.serve_lake(seed, scale)
            registered = (
                inputs.registered_queries(lake, seed, scale) if writes_enabled else []
            )
            generate.append(time.perf_counter() - begin)
            child_dir = workdir / f"server-{repeat}"
            child_dir.mkdir()
            servers.append(ChildServer(child_dir, config, lake, registered).start())
            setups.append(time.perf_counter() - begin)
        server = servers[-1]
        assert server.url is not None
        values["setup_s"] = median(setups)
        values["datalake.generate_s"] = median(generate)

        stream = (
            hot_requests(registered, seed) if writes_enabled else inline_requests(lake, seed)
        )
        closed_loop(server.url, stream, clients, count=scale.warmup_requests)

        load_seconds = seconds * TRACED_LOAD_SHARE if trace else seconds
        writes: list[WriteSample] = []
        writer = threading.Thread(
            target=open_loop_writer,
            args=(server.url, inputs.write_batches(lake, seed)),
            kwargs={
                "interval": min(WRITE_INTERVAL, load_seconds / 3.0),
                "seconds": load_seconds,
                "out": writes,
            },
            daemon=True,
        )
        measure_epoch = time.time()
        if writes_enabled:
            writer.start()
        samples, started = closed_loop(server.url, stream, clients, seconds=load_seconds)
        if writes_enabled:
            writer.join()

        metrics = get_json(server.url, "/v1/metrics")
        info = get_json(server.url, "/v1/info")
        values["peak_rss_mb"] = server.peak_rss_mb()
        server.terminate()  # shuts down while its responses are verified

        outcome.attempted = len(samples) + len(writes)
        _record_client_side(outcome, samples, writes, started, load_seconds)
        _record_server_side(values, metrics, server.event_log, measure_epoch)
        _verify(
            outcome,
            config=config,
            lake=lake,
            registered=registered,
            samples=samples,
            writes=writes,
            final_fingerprint=info["lake"]["fingerprint"],
            seed=seed,
            trace=trace,
            scale=scale,
            tracer=tracer,
        )
    finally:
        for server in servers:
            server.stop()
    for sample in samples:
        if sample.failure is not None:
            outcome.fail(sample.failure)
    return outcome


def _record_client_side(
    outcome: Outcome,
    samples: list[Sample],
    writes: list[WriteSample],
    started: float,
    seconds: float,
) -> None:
    """End-to-end numbers as the clients saw them; non-200s become failures.

    Throughput counts the requests *completed inside* the ``seconds`` window:
    the requests still in flight when it closes run on with fewer neighbours.
    """
    values = outcome.values
    served = [sample for sample in samples if sample.status == 200]
    for sample in samples:
        if sample.status != 200:
            sample.failure = f"search #{sample.index}: status {sample.status}"
    in_window = [sample.end for sample in served if sample.end <= started + seconds]
    # With nothing served the run is a failure anyway; the window length
    # stands in so the record stays well formed.
    outcome.record_latencies(
        [sample.latency for sample in served] or [seconds],
        in_window or [started + seconds],
        started,
        block=THROUGHPUT_BLOCK,
    )
    if not writes:
        return
    for write in writes:
        if write.status != 200:
            outcome.fail(f"ingest POST: status {write.status}: {write.body[:120]!r}")
    applied = [write.latency for write in writes if write.status == 200]
    if applied:
        values["write_latency_p50_ms"] = median(applied) * 1000.0
    values["harness.generator_lateness_p90_ms"] = (
        percentile([write.lateness for write in writes], 0.90) * 1000.0
    )
    outcome.counts["write_n"] = len(applied)


def _record_server_side(
    values: dict[str, float], metrics: dict[str, Any], event_log: Path, since_epoch: float
) -> None:
    """Counters from ``/v1/metrics`` and service times from the event log."""
    values["serving.server.rejected"] = metrics["counters"]["rejected"]
    values["serving.server.errors"] = metrics["counters"]["errors"]
    values["serving.service.cache_hit_rate"] = cache_hit_rate(metrics["cache"])
    values["serving.maintenance.resyncs"] = metrics["maintenance"]["resyncs"]
    values["serving.maintenance.yields"] = metrics["maintenance"]["yields"]
    ingest = metrics["ingest"]
    values["ingest.events_applied"] = ingest["events_applied"]
    values["ingest.batches_applied"] = ingest["batches_applied"]
    values["ingest.flush_timeouts"] = ingest["flush_timeouts"]
    values["ingest.netting_dropped"] = sum(
        ingest[key] for key in ("noops_dropped", "cancelled", "superseded", "deduped")
    )
    service_seconds = [
        event["latency_seconds"]
        for event in read_events(event_log)
        if event.get("kind") == "search"
        and event.get("status") == "ok"
        and event.get("ts", 0.0) >= since_epoch  # skips the warm-up requests
    ]
    if service_seconds:
        service_ms = median(service_seconds) * 1000.0
        values["serving.server.service_ms"] = service_ms
        values["serving.server.wire_overhead_ms"] = values["latency_p50_ms"] - service_ms


def _verify(
    outcome: Outcome,
    *,
    config: dict[str, Any],
    lake,
    registered: list[Table],
    samples: list[Sample],
    writes: list[WriteSample],
    final_fingerprint: str,
    seed: int,
    trace: bool,
    scale: inputs.Scale,
    tracer: Tracer,
) -> None:
    """Check every response; replay the chosen ones against the model lake.

    All served responses are checked structurally and must name a lake state
    the model also reaches.  A seeded sample (untraced) or the first
    ``replay_requests`` (traced) are re-run on the model deployment *at that
    lake state* and must be canonical-payload-identical; in the traced run
    each of those is also re-executed stage by stage under spans.
    """
    values = outcome.values
    by_name = {
        table.name: table_from_payload(table_to_payload(table)) for table in registered
    }
    payloads: dict[int, dict[str, Any]] = {}
    for sample in samples:
        if sample.status != 200:
            continue
        try:
            payload = validate_result_payload(json.loads(sample.body))
        except (ValueError, ReproError) as exc:
            sample.failure = f"search #{sample.index}: malformed response: {exc}"
            continue
        expected = min(K, payload["num_candidate_tuples"])
        if len(payload["selections"]) != expected or len(
            {tuple(pair) for pair in payload["selections"]}
        ) != expected:
            sample.failure = (
                f"search #{sample.index}: {len(payload['selections'])} selections, "
                f"expected {expected} unique"
            )
            continue
        payloads[sample.index] = payload

    checkable = [sample for sample in samples if sample.index in payloads]
    if trace:
        chosen = checkable[: scale.replay_requests]
    else:
        rng = seeded_rng(derive_seed(seed, "parity-sample"))
        picks = rng.permutation(len(checkable))[: scale.parity_sample]
        chosen = [checkable[int(i)] for i in sorted(picks)]
    pending: dict[str, list[Sample]] = {}
    for sample in chosen:
        fingerprint = payloads[sample.index]["provenance"]["lake_fingerprint"]
        pending.setdefault(fingerprint, []).append(sample)

    direct_seconds: list[float] = []
    staged_seconds: list[float] = []
    with Discovery.from_config(config).attach(wire_copy(lake)) as model:
        reached: set[str] = set()

        def visit() -> None:
            fingerprint = model.lake.fingerprint()
            reached.add(fingerprint)
            for sample in pending.pop(fingerprint, []):
                query = request_table(sample.request, by_name)
                wire = canonical_result_payload(payloads[sample.index])
                # Alternate which path runs first so neither systematically
                # inherits the other's warm token/vector caches.
                order = ("staged", "direct") if sample.index % 2 == 0 else ("direct", "staged")
                results: dict[str, dict[str, Any]] = {}
                for path in order if trace else ("direct",):
                    begin = time.perf_counter()
                    if path == "direct":
                        results[path] = model.run(query, k=K).to_dict()
                        direct_seconds.append(time.perf_counter() - begin)
                    else:
                        with tracer.request(f"{sample.index}"):
                            results[path], _ = staged_run(model, query, K, tracer)
                        staged_seconds.append(time.perf_counter() - begin)
                for path, result in results.items():
                    if canonical_result_payload(result) != wire:
                        sample.failure = (
                            f"search #{sample.index}: wire response differs from "
                            f"the {path} facade run on the model lake"
                        )

        visit()
        ingest = model.ingest()
        for write in writes:
            if write.status != 200:
                continue
            ingest.submit_many(write.events)
            ingest.flush()
            visit()
        for sample in checkable:
            fingerprint = payloads[sample.index]["provenance"]["lake_fingerprint"]
            if fingerprint not in reached and sample.failure is None:
                sample.failure = (
                    f"search #{sample.index}: served from a lake state the model "
                    "never reaches"
                )
        if final_fingerprint != model.lake.fingerprint():
            outcome.fail(
                "server lake fingerprint after the run differs from the model "
                "lake after replaying the same events"
            )
    outcome.counts["parity_checked"] = len(chosen)

    if not trace or not direct_seconds:
        return
    values["api.facade.run_ms"] = median(direct_seconds) * 1000.0
    values["serving.server.served_over_direct_ratio"] = (
        values["latency_p50_ms"] / values["api.facade.run_ms"]
    )
    values["harness.trace_overhead_share"] = sum(staged_seconds) / sum(direct_seconds) - 1.0
    record_stage_values(values, tracer)
    unaccounted = tracer.reconciliation("request")
    values["harness.trace_unaccounted_share"] = unaccounted
    if unaccounted > 0.05:
        outcome.fail(
            f"stage spans leave {unaccounted:.1%} of a staged request unaccounted (> 5 %)"
        )
