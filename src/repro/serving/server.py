"""The resident discovery server: ``python -m repro serve``.

Everything before this module was one-shot — a process builds or loads
indexes, answers a workload, and exits.  :class:`DiscoveryServer` keeps a
:class:`~repro.api.facade.Discovery` deployment resident and serves a
versioned HTTP/JSON API off the standard library's ``ThreadingHTTPServer``
(no new dependencies):

===================  ====================================================
``GET /v1/health``   liveness + uptime
``GET /v1/info``     :meth:`Discovery.info` plus the server's own block
``GET /v1/metrics``  served/rejected/error counters, in-flight gauge,
                     latency p50/p95 over the event tail, result-cache
                     hit rates, maintenance-loop stats, BLAS cap state
``POST /v1/search``  one Algorithm-1 run; the response body is the
                     :func:`~repro.api.schema.dump_result` serialization
                     of :meth:`ResultSet.to_dict` — byte-identical to the
                     ``search`` CLI output for the same query
``POST /v1/refresh`` run one maintenance cycle now (eager re-sync)
===================  ====================================================

Four mechanisms keep heavy concurrent traffic honest:

* **Admission control** — a bounded semaphore caps in-flight searches;
  a request that cannot acquire a slot within :data:`QUEUE_TIMEOUT_SECONDS`
  is rejected with ``503`` and a ``Retry-After`` header of the same
  length instead of piling onto an overloaded deployment.
* **Latency events** — every answered (or rejected) search appends one
  event to an :class:`~repro.serving.events.EventLog`; ``/v1/metrics``
  and the concurrency benchmark summarise percentiles from it, and the
  maintenance loop pre-warms the result cache from its tail.
* **Background maintenance** — a :class:`~repro.serving.maintenance.MaintenanceLoop`
  thread runs between request bursts (the :class:`ActivityGate` pauses it
  around queries), eagerly re-syncing drifted indexes from lake deltas,
  re-warming the LRU, and evicting cold store entries.
* **BLAS thread cap** — every admitted ``Discovery.run`` holds the
  process-wide :func:`~repro.utils.blas.process_cap`, so while two searches
  are in flight every loaded OpenBLAS library runs one thread instead of
  the searches fighting over its worker team.

The query side of the versioned API accepts three body shapes::

    {"query_index": 0, "k": 5}                  # registered benchmark query
    {"query_name": "lake_table_3"}              # registered query or lake table
    {"query_table": {"name": ..., "columns": [...], "rows": [[...]]}}

``table_from_payload`` rebuilds the inline form, so a wire client can ask
about tables the server has never seen.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.api.schema import RESULT_SCHEMA_VERSION, dump_result
from repro.datalake.io import table_from_payload
from repro.datalake.table import Table
from repro.serving.events import EventLog, latency_summary
from repro.serving.maintenance import ActivityGate, MaintenanceLoop
from repro.utils.blas import process_cap
from repro.utils.errors import ReproError, ServingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> serving)
    from repro.api.config import DiscoveryConfig
    from repro.api.facade import Discovery
    from repro.datalake.lake import DataLake

#: The versioned wire surface; ``/v1/info`` advertises it so clients can
#: discover capabilities instead of hard-coding paths.
ENDPOINTS: dict[str, tuple[str, ...]] = {
    "GET": ("/v1/health", "/v1/info", "/v1/metrics"),
    "POST": ("/v1/search", "/v1/refresh", "/v1/ingest"),
}

#: How long a search waits for an admission slot before the ``503``; also
#: the ``Retry-After`` it advertises.
QUEUE_TIMEOUT_SECONDS = 1.0


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, indent=2, sort_keys=True, default=str).encode("utf-8")


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP layer: routing, body parsing, response framing.

    All endpoint logic lives on :class:`DiscoveryServer` (``self.server``)
    so it can be unit-tested without sockets.
    """

    server: "DiscoveryServer"
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a resident server
    # records structured events instead.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _respond(
        self, status: int, body: bytes, headers: Mapping[str, str] | None = None
    ) -> None:
        # One request per connection keeps handler threads from lingering on
        # keep-alive sockets after shutdown.
        self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _route(self) -> str:
        path = self.path.split("?", 1)[0]
        return path.rstrip("/") or "/"

    def _not_found(self, path: str) -> None:
        self._respond(
            404, _json_bytes({"error": f"unknown path {path!r}", "endpoints": ENDPOINTS})
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self._route()
        routes = {
            "/v1/health": self.server.api_health,
            "/v1/info": self.server.api_info,
            "/v1/metrics": self.server.api_metrics,
        }
        handler = routes.get(path)
        if handler is None:
            self._not_found(path)
            return
        try:
            self._respond(200, _json_bytes(handler()))
        except ReproError as exc:
            self.server._bump("errors")
            self._respond(400, _json_bytes({"error": str(exc)}))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self._route()
        if path not in ENDPOINTS["POST"]:
            self._not_found(path)
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.server._bump("errors")
            self._respond(
                400,
                _json_bytes({"error": "Content-Length must be a non-negative integer"}),
            )
            return
        raw = self.rfile.read(length) if length > 0 else b""
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            self.server._bump("errors")
            self._respond(400, _json_bytes({"error": "request body is not valid JSON"}))
            return
        if path == "/v1/search":
            status, headers, body = self.server.api_search(payload)
            self._respond(status, body, headers)
            return
        routes = {
            "/v1/refresh": lambda: self.server.api_refresh(),
            "/v1/ingest": lambda: self.server.api_ingest(payload),
        }
        try:
            self._respond(200, _json_bytes(routes[path]()))
        except ReproError as exc:
            self.server._bump("errors")
            self._respond(400, _json_bytes({"error": str(exc)}))


class DiscoveryServer(ThreadingHTTPServer):
    """A resident :class:`~repro.api.facade.Discovery` deployment over HTTP.

    Parameters mirror the config's ``server`` section (see
    :data:`repro.api.config._SERVER_DEFAULTS`); :meth:`from_config` maps the
    section automatically.  ``port=0`` binds an ephemeral port — read the
    bound address back from :attr:`url`; a port that cannot be bound raises
    :class:`~repro.utils.errors.ServingError` after releasing the owned
    event log and facade.  Admission waits :data:`QUEUE_TIMEOUT_SECONDS`;
    the maintenance cadence comes from :mod:`repro.serving.maintenance`'s
    constants.

    ``queries`` registers named query tables (typically a benchmark's) that
    wire clients can reference by ``query_index``/``query_name`` without
    shipping table content, and that the maintenance loop resolves when
    pre-warming from the event tail.

    The server is a context manager::

        with DiscoveryServer(discovery, port=0) as server:
            body = urllib.request.urlopen(server.url + "/v1/health").read()
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        discovery: "Discovery",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 4,
        event_log: "EventLog | str | None" = None,
        queries: Sequence[Table] | None = None,
        maintenance: bool = True,
        owns_discovery: bool = False,
    ) -> None:
        if not isinstance(max_inflight, int) or max_inflight < 1:
            raise ServingError(
                f"max_inflight must be a positive integer, got {max_inflight!r}"
            )
        self.discovery = discovery
        self._owns_discovery = owns_discovery
        self.gate = ActivityGate()
        if isinstance(event_log, EventLog):
            self.events = event_log
            self._owns_events = False
        else:
            self.events = EventLog(event_log)
            self._owns_events = True
        queries = list(queries or [])
        self._query_order: list[str] = [table.name for table in queries]
        self._queries: dict[str, Table] = {table.name: table for table in queries}
        self.max_inflight = max_inflight
        self._admission = threading.BoundedSemaphore(max_inflight)
        self._state_lock = threading.Lock()
        self._counters = {"served": 0, "rejected": 0, "errors": 0}
        self._inflight = 0
        #: Serializes lazy first-builds of alternate backends: the facade's
        #: per-backend construction is not safe under concurrent first
        #: queries, and once built this lock guards a dict lookup only.
        self._ensure_lock = threading.Lock()
        #: The deployment's streaming write path, bound to this server's
        #: gate so applied micro-batches exclude in-flight queries.
        self.ingest = discovery.ingest(gate=self.gate)
        self.maintenance = MaintenanceLoop(
            discovery,
            gate=self.gate,
            event_log=self.events,
            resolve_query=self.resolve_query,
            store=discovery.store,
            ingest=self.ingest,
        )
        self.maintenance_enabled = bool(maintenance)
        self._serve_thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._stopped = False
        try:
            super().__init__((host, int(port)), _RequestHandler)
        except OSError as exc:
            self._release_owned()
            raise ServingError(f"cannot bind {host}:{port}: {exc}") from exc

    # ------------------------------------------------------------ construction
    @classmethod
    def from_config(
        cls,
        config: "DiscoveryConfig | Mapping[str, Any] | str | None",
        lake: "DataLake",
        *,
        queries: Sequence[Table] | None = None,
        **overrides: Any,
    ) -> "DiscoveryServer":
        """Build, attach and wrap a deployment per the config's ``server`` section.

        ``overrides`` (CLI flags: ``host``, ``port``, ``event_log``, ...)
        take precedence over the section; ``None`` values are ignored so
        unset flags fall through.  The server owns the facade it builds and
        closes it on :meth:`stop`.
        """
        from repro.api.config import _SERVER_DEFAULTS
        from repro.api.facade import Discovery

        discovery = Discovery.from_config(config).attach(lake)
        section = dict(_SERVER_DEFAULTS)
        if discovery.config.server is not None:
            section.update(discovery.config.server)
        section.update(
            {key: value for key, value in overrides.items() if value is not None}
        )
        return cls(
            discovery,
            host=section["host"],
            port=section["port"],
            max_inflight=section["max_inflight"],
            event_log=section["event_log"],
            queries=queries,
            maintenance=section["maintenance"],
            owns_discovery=True,
        )

    # -------------------------------------------------------------- lifecycle
    @property
    def url(self) -> str:
        """``http://host:port`` of the bound socket (real port for port 0)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "DiscoveryServer":
        """Serve in a background thread; start maintenance when enabled."""
        if self._serve_thread is not None:
            raise ServingError("DiscoveryServer is already started")
        if self._stopped:
            raise ServingError("DiscoveryServer is stopped; build a new one")
        self._started_at = time.monotonic()
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._serve_thread.start()
        if self.maintenance_enabled:
            self.maintenance.start()
        return self

    def stop(self) -> None:
        """Stop serving, join threads, release owned resources; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        if self.maintenance.running:
            self.maintenance.stop()
        if self._serve_thread is not None:
            self.shutdown()
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        self.server_close()
        self._release_owned()

    def _release_owned(self) -> None:
        if self._owns_events:
            self.events.close()
        if self._owns_discovery:
            self.discovery.close()

    def __enter__(self) -> "DiscoveryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # ----------------------------------------------------------------- helpers
    def _bump(self, key: str, amount: int = 1) -> None:
        with self._state_lock:
            self._counters[key] += amount

    def resolve_query(self, name: str) -> Table | None:
        """A registered query table or lake table by name; None when unknown."""
        table = self._queries.get(name)
        if table is not None:
            return table
        try:
            return self.discovery.lake.get(name)
        except ReproError:
            return None

    def _parse_search(self, payload: Any) -> tuple[Table, int | None, str | None]:
        if not isinstance(payload, Mapping):
            raise ServingError(
                f"search body must be a JSON object, got {type(payload).__name__}"
            )
        k = payload.get("k")
        if k is not None:
            if not isinstance(k, int) or isinstance(k, bool):
                raise ServingError(f"k must be an integer, got {k!r}")
        backend = payload.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise ServingError(f"backend must be a string, got {backend!r}")
        if "query_table" in payload:
            table = table_from_payload(payload["query_table"])
        elif "query_name" in payload:
            name = str(payload["query_name"])
            resolved = self.resolve_query(name)
            if resolved is None:
                raise ServingError(
                    f"unknown query table {name!r}: not a registered query "
                    "and not in the attached lake"
                )
            table = resolved
        elif "query_index" in payload:
            index = payload["query_index"]
            if (
                not isinstance(index, int)
                or isinstance(index, bool)
                or not 0 <= index < len(self._query_order)
            ):
                raise ServingError(
                    f"query_index {index!r} out of range; server has "
                    f"{len(self._query_order)} registered query tables"
                )
            table = self._queries[self._query_order[index]]
        else:
            raise ServingError(
                "search body needs one of query_table, query_name, query_index"
            )
        return table, k, backend

    # --------------------------------------------------------------- endpoints
    def api_health(self) -> dict[str, Any]:
        return {"status": "ok", "uptime_seconds": self.uptime_seconds()}

    def api_info(self) -> dict[str, Any]:
        info = self.discovery.info()
        info["server"] = {
            "url": self.url,
            "result_schema_version": RESULT_SCHEMA_VERSION,
            "endpoints": {method: list(paths) for method, paths in ENDPOINTS.items()},
            "max_inflight": self.max_inflight,
            "queue_timeout_seconds": QUEUE_TIMEOUT_SECONDS,
            "maintenance": self.maintenance_enabled,
            "queries": list(self._query_order),
        }
        return info

    def api_metrics(self) -> dict[str, Any]:
        with self._state_lock:
            counters = dict(self._counters)
            inflight = self._inflight
        return {
            "uptime_seconds": self.uptime_seconds(),
            "counters": {**counters, "inflight": inflight},
            "events_logged": len(self.events),
            "latency": latency_summary(self.events.tail()),
            "cache": self.discovery.service_stats(),
            "encoder_memo": self.discovery.encoder_memo_stats(),
            "maintenance": self.maintenance.stats,
            "lake": self.discovery.lake_health(),
            "ingest": self.ingest.stats,
            "blas": process_cap().stats(),
        }

    def api_refresh(self) -> dict[str, Any]:
        """Run one maintenance cycle on demand (eager re-sync after mutation).

        Runs in the calling request thread *without* holding the gate active
        — the cycle itself acquires the gate exclusively around the index
        re-sync, so a refresh issued under live traffic either drains and
        applies the delta or yields (``"yielded": 1``) for a later cycle.
        """
        return {
            "refresh": self.maintenance.run_cycle(),
            "maintenance": self.maintenance.stats,
        }

    def api_ingest(self, payload: Any) -> dict[str, Any]:
        """Accept a batch of mutation events into the streaming write path.

        Body shape::

            {"events": [{"op": "add"|"replace"|"remove", "name": ...,
                         "table": {...}}, ...],
             "flush": false}

        Each event becomes its table's pending event (``accepted`` counts
        those that opened a new pending entry); with ``"flush": true`` all
        pending micro-batches are applied before responding (the CLI sets it
        on its final chunk), otherwise batches land when a bound trips —
        applied by this request if one is already due, else by the
        maintenance loop.  The response reports what happened *now*;
        unapplied events stay pending in the controller either way.
        """
        if not isinstance(payload, Mapping):
            raise ServingError(
                f"ingest body must be a JSON object, got {type(payload).__name__}"
            )
        raw_events = payload.get("events")
        if not isinstance(raw_events, list):
            raise ServingError("ingest body needs an 'events' list")
        flush = payload.get("flush", False)
        if not isinstance(flush, bool):
            raise ServingError(f"ingest 'flush' must be a boolean, got {flush!r}")
        from repro.ingest.events import event_from_payload

        events = [event_from_payload(item) for item in raw_events]
        accepted = self.ingest.submit_many(events)
        reports = self.ingest.flush() if flush else self.ingest.flush_if_due()
        return {
            "received": len(events),
            "accepted": accepted,
            "pending_events": self.ingest.pending_events,
            "pending_bytes": self.ingest.pending_bytes,
            "flushed": bool(reports),
            "batches_applied": len(reports),
            "events_applied": sum(report["events"] for report in reports),
            "lake_version": self.discovery.lake.version,
        }

    def api_search(self, payload: Any) -> tuple[int, dict[str, str], bytes]:
        """Admission-controlled Algorithm-1 run; returns (status, headers, body)."""
        timeout = QUEUE_TIMEOUT_SECONDS
        if not self._admission.acquire(timeout=timeout):
            self._bump("rejected")
            self.events.append(kind="search", status="rejected")
            body = _json_bytes(
                {
                    "error": (
                        f"server saturated: {self.max_inflight} queries in "
                        f"flight and none finished within {timeout}s"
                    ),
                    "retry_after_seconds": timeout,
                }
            )
            return 503, {"Retry-After": f"{timeout:g}"}, body
        with self._state_lock:
            self._inflight += 1
        try:
            start = time.perf_counter()
            table, k, backend = self._parse_search(payload)
            with self.gate.active():
                with self._ensure_lock:
                    self.discovery.searcher(backend)
                with process_cap().held():
                    result = self.discovery.run(table, k=k, backend=backend)
            latency = time.perf_counter() - start
            self._bump("served")
            self.events.append(
                kind="search",
                status="ok",
                query=table.name,
                backend=backend,
                k=k,
                latency_seconds=latency,
            )
            return 200, {}, dump_result(result.to_dict()).encode("utf-8")
        except ReproError as exc:
            self._bump("errors")
            self.events.append(kind="search", status="error", error=str(exc))
            return 400, {}, _json_bytes({"error": str(exc)})
        finally:
            with self._state_lock:
                self._inflight -= 1
            self._admission.release()


def run_server(server: DiscoveryServer, *, stream=None) -> int:
    """Serve until SIGTERM/SIGINT; the CLI's blocking entry point.

    Prints a machine-parseable readiness line (``SERVING http://host:port``)
    once the socket is bound — the CI smoke script and the concurrency
    benchmark read it to discover the ephemeral port.  Returns 0 on a clean
    signal-initiated shutdown.
    """
    stream = stream if stream is not None else sys.stdout
    stop = threading.Event()

    def _handle_signal(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        signum: signal.signal(signum, _handle_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    server.start()
    print(f"SERVING {server.url}", file=stream, flush=True)
    try:
        while not stop.wait(0.2):
            pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.stop()
    return 0
