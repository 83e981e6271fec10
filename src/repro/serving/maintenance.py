"""Background maintenance between request bursts: re-sync, pre-warm, evict.

The resident server (:mod:`repro.serving.server`) answers queries in request
threads and runs a single :class:`MaintenanceLoop` thread between bursts.
The loop never competes with live traffic: an :class:`ActivityGate` tracks
in-flight queries, the loop waits until the deployment has been idle for
:data:`IDLE_SECONDS` before starting a cycle, and it checks the gate again
between tasks so a query arriving mid-cycle makes it yield immediately —
maintenance *pauses around queries and resumes when idle*.

One cycle runs three tasks, each a wiring of machinery earlier PRs built:

1. **Re-sync** — :meth:`~repro.api.facade.Discovery.resync` detects lake
   content drift by fingerprint and applies the net delta to every built
   backend through the refresh protocol (per-shard delta updates and a
   prefilter restore-or-refit on a ``ShardedSearcher``, store
   re-persistence, result-cache invalidation).  Queries served before the
   cycle see the previously indexed content; queries after it see the
   mutated lake — no restart.
2. **Pre-warm** — the re-sync just emptied the result caches, so the loop
   replays the most recent distinct queries from the event-log tail through
   the facade, refilling the LRU before the next burst arrives.
3. **Evict** — :meth:`~repro.serving.store.IndexStore.evict_cold` trims
   superseded index snapshots the mutation history accumulated on disk.

With an :class:`~repro.ingest.controller.IngestController` attached, the
cycle first flushes its due micro-batches.  Only a gate-drain timeout
(:class:`~repro.utils.errors.IngestError`, which drains nothing) counts as a
yield; any other failure of a batch counts as an error, because its events
were already drained and applied.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.datalake.table import Table
from repro.serving.events import EventLog
from repro.utils.errors import IngestError, ReproError, ServingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> serving)
    from repro.api.facade import Discovery
    from repro.ingest.controller import IngestController
    from repro.serving.store import IndexStore

#: Minimum delay between the end of one cycle and the start of the next, so
#: an idle server does not spin.
INTERVAL_SECONDS = 1.0
#: How long the deployment must be quiet before a cycle may start.
IDLE_SECONDS = 0.5
#: Upper bound of distinct recent queries replayed per cycle.
PREWARM_QUERIES = 8
#: How long a cycle waits for in-flight queries to drain before the re-sync
#: yields.  Not ingest's ``EXCLUSIVE_TIMEOUT_SECONDS`` (5.0): the two waits
#: differ, and how writers yield under read traffic depends on both.
RESYNC_EXCLUSIVE_TIMEOUT_SECONDS = 1.0


class ActivityGate:
    """Tracks in-flight queries so maintenance can yield to live traffic.

    Request handlers wrap query execution in :meth:`enter`/:meth:`leave`
    (or the :meth:`active` context manager).  The maintenance loop calls
    :meth:`wait_idle` before a cycle and reads :attr:`busy` between tasks.

    The gate also hands maintenance an **exclusive** mode for the one task
    that must never race live queries — applying an index delta.  While
    exclusive is held, new queries block in :meth:`enter` (they resume, in
    order, the moment it is released); exclusive acquisition itself waits for
    all in-flight queries to drain, with a timeout so constant traffic makes
    maintenance yield instead of stalling requests indefinitely.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._active = 0
        self._exclusive = False
        self._last_activity = time.monotonic()

    def enter(self) -> None:
        with self._condition:
            while self._exclusive:
                self._condition.wait()
            self._active += 1
            self._last_activity = time.monotonic()

    def leave(self) -> None:
        with self._condition:
            if self._active <= 0:
                raise ServingError("ActivityGate.leave() without a matching enter()")
            self._active -= 1
            self._last_activity = time.monotonic()
            self._condition.notify_all()

    def acquire_exclusive(self, timeout: float | None = None) -> bool:
        """Pause the request path: wait for in-flight queries, block new ones.

        Returns False (acquiring nothing) when the deployment did not drain
        within ``timeout`` seconds — the caller should yield and retry on a
        later cycle.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while self._exclusive or self._active > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._condition.wait(remaining)
            self._exclusive = True
            return True

    def release_exclusive(self) -> None:
        """Resume the request path; blocked queries proceed immediately."""
        with self._condition:
            if not self._exclusive:
                raise ServingError(
                    "ActivityGate.release_exclusive() without acquire_exclusive()"
                )
            self._exclusive = False
            self._last_activity = time.monotonic()
            self._condition.notify_all()

    class _Active:
        def __init__(self, gate: "ActivityGate") -> None:
            self._gate = gate

        def __enter__(self) -> None:
            self._gate.enter()

        def __exit__(self, exc_type, exc, tb) -> None:
            self._gate.leave()

    def active(self) -> "ActivityGate._Active":
        """Context manager marking one query in flight."""
        return ActivityGate._Active(self)

    @property
    def busy(self) -> bool:
        """Whether any query is in flight right now."""
        with self._lock:
            return self._active > 0

    def idle_for(self) -> float:
        """Seconds since the last query started or finished (inf if never busy)."""
        with self._lock:
            if self._active > 0:
                return 0.0
            return time.monotonic() - self._last_activity

    def wait_idle(self, idle_seconds: float, stop: threading.Event) -> bool:
        """Block until idle for ``idle_seconds`` or ``stop`` is set.

        Returns True when the idle window was reached, False when stopped.
        """
        while not stop.is_set():
            remaining = idle_seconds - self.idle_for()
            if remaining <= 0:
                return True
            # Sleep on the stop event (so shutdown is immediate) for the
            # shorter of the remaining idle window and a polling bound that
            # keeps a busy server from pinning this thread on the condition.
            stop.wait(min(max(remaining, 0.01), 0.25))
        return False


class MaintenanceLoop:
    """The resident server's background maintenance thread.

    Parameters
    ----------
    discovery:
        The served :class:`~repro.api.facade.Discovery` deployment.
    gate:
        The :class:`ActivityGate` the request path reports through.
    event_log:
        Optional :class:`~repro.serving.events.EventLog` whose tail drives
        cache pre-warming.
    resolve_query:
        Maps an event's recorded query-table name back to a
        :class:`~repro.datalake.table.Table` (the server resolves against
        its registered query tables and the lake).  Unresolvable names are
        skipped — the tail may reference inline wire tables the server no
        longer holds.
    store:
        Optional :class:`~repro.serving.store.IndexStore` to trim with
        ``evict_cold`` each cycle.
    ingest:
        Optional :class:`~repro.ingest.controller.IngestController` whose
        due micro-batches each cycle flushes first.

    The cadence and bounds are the module constants :data:`INTERVAL_SECONDS`,
    :data:`IDLE_SECONDS`, :data:`PREWARM_QUERIES` and
    :data:`RESYNC_EXCLUSIVE_TIMEOUT_SECONDS`, read at use time.
    """

    def __init__(
        self,
        discovery: "Discovery",
        *,
        gate: ActivityGate | None = None,
        event_log: EventLog | None = None,
        resolve_query: Callable[[str], Table | None] | None = None,
        store: "IndexStore | None" = None,
        ingest: "IngestController | None" = None,
    ) -> None:
        self.discovery = discovery
        self.gate = gate if gate is not None else ActivityGate()
        self.event_log = event_log
        self.resolve_query = resolve_query
        self.store = store
        #: Optional streaming-ingest controller; when present each cycle
        #: flushes due micro-batches first (the freshest possible index for
        #: the re-sync/pre-warm that follows).
        self.ingest = ingest
        #: Serializes cycles: the background thread and an on-demand
        #: ``/v1/refresh`` may ask for one concurrently.
        self._cycle_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._stats = {
            "cycles": 0,
            "resyncs": 0,
            "backends_resynced": 0,
            "prewarmed": 0,
            "evicted_entries": 0,
            "batches_applied": 0,
            "events_applied": 0,
            "yields": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------------ stats
    @property
    def stats(self) -> dict[str, int]:
        """Counters over the loop's lifetime (snapshot)."""
        with self._lock:
            return dict(self._stats)

    def _bump(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self._stats[key] += amount

    # ------------------------------------------------------------------ cycle
    def run_cycle(self) -> dict[str, int]:
        """Run one maintenance cycle now; returns what it did.

        Public so tests and benchmarks can drive maintenance
        deterministically instead of sleeping through the idle window.  A
        cycle yields (returns early) as soon as a query shows up between
        tasks.
        """
        with self._cycle_lock:
            return self._run_cycle_locked()

    def _run_cycle_locked(self) -> dict[str, int]:
        done = {
            "resynced_backends": 0,
            "prewarmed": 0,
            "evicted": 0,
            "batches_applied": 0,
            "yielded": 0,
        }
        self._bump("cycles")
        # Streaming ingest flushes first: the controller takes the gate
        # exclusively itself (per batch), and the re-sync below then sees a
        # lake whose pending writes already landed.
        if self.ingest is not None:
            try:
                reports = self.ingest.flush_if_due()
            except IngestError:
                # Gate drain timeout — nothing was drained, events stay
                # pending for a later cycle.
                self._bump("yields")
                done["yielded"] = 1
                reports = []
            except ReproError:
                # A drained batch failed mid-apply: its events already hit
                # the lake, so this is an error, not a yield.
                self._bump("errors")
                return done
            if reports:
                done["batches_applied"] = len(reports)
                self._bump("batches_applied", len(reports))
                self._bump(
                    "events_applied", sum(r.get("events", 0) for r in reports)
                )
        # Re-sync mutates live indexes, so it runs with the gate held
        # exclusively: in-flight queries drain first, arriving queries wait
        # at enter() until the delta is applied.  Under constant traffic the
        # drain times out and the cycle yields rather than stalling requests.
        if not self.gate.acquire_exclusive(timeout=RESYNC_EXCLUSIVE_TIMEOUT_SECONDS):
            self._bump("yields")
            done["yielded"] = 1
            return done
        try:
            moved = self.discovery.resync()
        except ReproError:
            self._bump("errors")
            return done
        finally:
            self.gate.release_exclusive()
        if moved:
            self._bump("resyncs")
            self._bump("backends_resynced", len(moved))
            done["resynced_backends"] = len(moved)
        if self.gate.busy:
            self._bump("yields")
            done["yielded"] = 1
            return done
        done["prewarmed"] = self._prewarm()
        if self.gate.busy:
            self._bump("yields")
            done["yielded"] = 1
            return done
        if self.store is not None:
            evicted = self.store.evict_cold()
            self._bump("evicted_entries", evicted)
            done["evicted"] = evicted
        return done

    def _prewarm(self) -> int:
        """Replay recent distinct queries so the LRU is hot after a re-sync."""
        if self.event_log is None or self.resolve_query is None:
            return 0
        replayed = 0
        seen: set[tuple[str, str | None]] = set()
        for event in reversed(self.event_log.tail()):
            if replayed >= PREWARM_QUERIES or self.gate.busy:
                break
            if event.get("status") != "ok" or event.get("kind") != "search":
                continue
            key = (str(event.get("query")), event.get("backend"))
            if key in seen:
                continue
            seen.add(key)
            table = self.resolve_query(key[0])
            if table is None:
                continue
            try:
                # The event's ``k`` is the request's diverse-tuple count;
                # requests read step 1 at the pipeline's own search depth.
                self.discovery.search(table, backend=key[1])
                replayed += 1
            except ReproError:
                self._bump("errors")
        if replayed:
            self._bump("prewarmed", replayed)
        return replayed

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "MaintenanceLoop":
        """Start the background thread; starting twice is an error."""
        if self._thread is not None:
            raise ServingError("MaintenanceLoop is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-maintenance", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            if not self.gate.wait_idle(IDLE_SECONDS, self._stop):
                break  # stopped while waiting
            try:
                self.run_cycle()
            except Exception:
                # The loop must outlive any single bad cycle: a failed
                # maintenance pass degrades freshness, never availability.
                self._bump("errors")
            self._stop.wait(INTERVAL_SECONDS)

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the thread to exit and join it; double-stop is a no-op."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()
