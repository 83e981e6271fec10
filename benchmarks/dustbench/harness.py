"""Shared plumbing of dustbench: statistics, spans, environment, work dirs.

Nothing here knows about a workload.  The pieces are:

* :class:`Outcome` — what a workload run returns, with the latency roll-up
  every workload shares (class-balanced percentiles, reported beside their
  sample count);
* :class:`Tracer` — the harness-side span recorder of the traced replay
  (``name, start, end, parent, request_id``), kept in memory and dumped once;
* :func:`environment` — everything a reader needs to judge whether two
  result files are comparable (seed, git sha, versions, CPU budget);
* :class:`WorkDir` — a scratch directory *inside the checkout* (the benchmark
  may not write anywhere else), removed on every exit path;
* :func:`load_spec` — ``BENCHMARK.json``, the single place metric names,
  units, directions and bounds are declared.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
#: Scratch root for lake specs, index stores and event logs (git-ignored).
WORK_ROOT = BENCH_DIR / ".work"
#: Where result files and ``trace.json`` land (git-ignored).
OUT_DIR = BENCH_DIR / "out"
#: Share of ``--seconds`` a traced run spends under load before its replay.
TRACED_LOAD_SHARE = 0.6


# -------------------------------------------------------------------- outcome
@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``values`` maps metric names (as declared in ``BENCHMARK.json``) to
    measured numbers; ``counts`` carries sample sizes reported beside them;
    each entry of ``failures`` is one failed operation or violated check.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def record_latencies(
        self,
        latencies_s: Sequence[float],
        ends_s: Sequence[float],
        started_s: float,
        *,
        block: int,
        classes: Sequence[Any] | None = None,
    ) -> None:
        """The timing metrics of a measured window.

        ``latencies_s`` are the completed operations' latencies, ``ends_s``
        their completion times on the clock ``started_s`` was read from, and
        ``classes`` the operation class of each (the backend searched, the
        ``(s, k)`` cell selected from; one class when omitted).

        A latency percentile is taken *within each class* and the classes are
        then averaged with equal weight.  The round-robin workloads mix
        classes whose costs differ 5-10x; a plain median over that mixture
        sits on the edge between two classes and jumps from one to the other
        on a 1 % change of either, while the class-balanced one moves by what
        the classes moved.

        Throughput is the *median* completion rate over consecutive blocks of
        ``block`` completions (a whole number of round-robin rounds), not
        completions over wall: the host's other tenants slow this machine for
        seconds at a time, a mean carries every such stretch in full, and the
        median rate is the one the program sustains in a typical stretch.
        """
        labels = list(classes) if classes is not None else [None] * len(latencies_s)
        by_class: dict[Any, list[float]] = {}
        for label, latency in zip(labels, latencies_s):
            by_class.setdefault(label, []).append(latency)
        for name, fraction in (("p50", 0.50), ("p75", 0.75), ("p90", 0.90)):
            per_class = [quantile(own, fraction) for own in by_class.values()]
            self.values[f"latency_{name}_ms"] = statistics.fmean(per_class) * 1000.0
        ends = sorted(ends_s)
        edges = [started_s, *ends[block - 1 :: block]]
        if len(edges) < 2:  # less than one block completed: all of them over the wall
            edges, block = [started_s, ends[-1]], len(ends)
        self.values["throughput_ops_s"] = statistics.median(
            block / (after - before) for before, after in zip(edges, edges[1:])
        )
        self.counts["latency_n"] = len(latencies_s)
        self.counts["latency_classes"] = len(by_class)
        self.counts["throughput_blocks"] = len(edges) - 1


def quantile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated quantile (``fraction`` in [0, 1]) of ``values``.

    Interpolated rather than nearest-rank: a class of a round-robin workload
    has as few as 20 samples in a run, where the step between neighbouring
    order statistics is itself a few percent.
    """
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (position - below)


def cache_hit_rate(stats: Mapping[str, Mapping[str, int]]) -> float:
    """Hits over lookups across the per-backend ``cache_stats`` of a deployment."""
    hits = sum(backend["hits"] for backend in stats.values())
    lookups = hits + sum(backend["misses"] for backend in stats.values())
    return hits / lookups if lookups else 0.0


# ---------------------------------------------------------------------- spans
class Tracer:
    """In-memory span recorder for the serial traced replay.

    Spans nest by a stack (the replay is single-threaded), so ``parent`` is
    the index of the enclosing span and a span's *self time* is its duration
    minus its direct children's.  Nothing is written until :func:`dump_traces`.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._request_id: str | None = None

    @contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Scope the spans of one replayed request under a shared id."""
        previous, self._request_id = self._request_id, request_id
        try:
            with self.span("request"):
                yield
        finally:
            self._request_id = previous

    @contextmanager
    def span(self, name: str, **counts: float) -> Iterator[dict[str, Any]]:
        record: dict[str, Any] = {
            "name": name,
            "request_id": self._request_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed interval under the current span."""
        self.spans.append(
            {
                "name": name,
                "request_id": self._request_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": start,
                "end": end,
            }
        )

    # ---------------------------------------------------------------- queries
    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``, in record order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def _child_seconds(self) -> dict[int, float]:
        """Span index -> summed duration of its direct children."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (
                    covered.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        return covered

    def self_times(self, name: str) -> list[float]:
        """Seconds of every ``name`` span minus its direct children's time."""
        covered = self._child_seconds()
        return [
            span["end"] - span["start"] - covered.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span["name"] == name
        ]

    def mean_ms(self, name: str, *, self_time: bool = False) -> float:
        """Mean milliseconds per ``name`` span (means add up across stages)."""
        values = self.self_times(name) if self_time else self.durations(name)
        return statistics.fmean(values) * 1000.0 if values else 0.0

    def reconciliation(self, parent: str, *, slack: float = 0.0005) -> float:
        """Worst share of a ``parent`` span that its direct children do not cover.

        ``(|parent - sum(direct children)| - slack) / parent`` — the part of
        the staged wall no stage span accounts for (acceptance: within 5 %).
        ``slack`` (half a millisecond) is the span bookkeeping itself, which
        is a fixed cost per request and would otherwise fail millisecond-sized
        smoke requests on nothing but the recorder's own overhead.
        """
        covered = self._child_seconds()
        worst = 0.0
        for index, span in enumerate(self.spans):
            wall = span["end"] - span["start"]
            if span["name"] == parent and index in covered and wall > 0:
                gap = max(0.0, abs(wall - covered[index]) - slack)
                worst = max(worst, gap / wall)
        return worst

    def export(self) -> list[dict[str, Any]]:
        """The spans with their ``id`` and times relative to the first span."""
        origin = min((span["start"] for span in self.spans), default=0.0)
        return [
            {**span, "id": index, "start": span["start"] - origin, "end": span["end"] - origin}
            for index, span in enumerate(self.spans)
        ]


def dump_traces(path: Path, tracers: Mapping[str, Tracer], **header: Any) -> None:
    """Write ``{workload: spans}`` once, at the end of the run."""
    payload = {
        **header,
        "clock": "perf_counter seconds since the workload's first span",
        "workloads": {name: tracer.export() for name, tracer in tracers.items()},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")


# ---------------------------------------------------------------- environment
def available_cpus() -> int:
    """CPUs this process may run on (affinity-aware), capped by a cgroup quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    quota = cgroup_cpu_quota()
    if quota is not None:
        cpus = max(1, min(cpus, int(quota)))
    return cpus


def cgroup_cpu_quota() -> float | None:
    """CPU quota in cores from cgroup v2 or v1; ``None`` when unlimited/unknown."""
    try:
        raw = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if raw and raw[0] != "max":
            return int(raw[0]) / int(raw[1])
        return None
    except (OSError, ValueError, IndexError):
        pass
    try:
        quota = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
        period = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
        return quota / period if quota > 0 and period > 0 else None
    except (OSError, ValueError):
        return None


def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git repository."""
    try:
        completed = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def environment(seed: int) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": available_cpus(),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "argv": sys.argv[1:],
    }


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS (Linux ``clear_refs``).

    Lets several in-process workloads run in one process without each
    inheriting the peak of the one before; best effort elsewhere.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process), MiB."""
    status = Path(f"/proc/{pid if pid is not None else os.getpid()}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


# ------------------------------------------------------------------ work dirs
class WorkDir:
    """A per-run scratch directory under :data:`WORK_ROOT`, always removed."""

    def __init__(self, label: str) -> None:
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_ROOT))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, exc_type, exc, tb) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds when no sibling run is active
        except OSError:
            pass


# ----------------------------------------------------------------------- spec
def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: workloads, metric names, units, directions, bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
