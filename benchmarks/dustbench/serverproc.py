"""Child-server lifecycle and the wire client the load generator uses.

:class:`ChildServer` writes the generated inputs to a spec file, spawns
``child_server.py``, waits for the ``SERVING`` readiness line and guarantees
the child is terminated and reaped on every exit path.  :func:`call` is one
HTTP request with a hard timeout: a wedged server yields a failed request
(status 0), never a hung benchmark.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Mapping, Sequence
from urllib.parse import urlsplit

from repro.datalake.io import table_from_payload, table_to_payload
from repro.datalake.lake import DataLake
from repro.datalake.table import Table

from harness import BENCH_DIR, REPO_ROOT, peak_rss_mb

#: Seconds a child may take from spawn to its readiness line.
READY_TIMEOUT = 60.0
#: Per-request client timeout.
REQUEST_TIMEOUT = 20.0


def wire_copy(lake: DataLake) -> DataLake:
    """``lake`` after the JSON round trip the child's copy went through."""
    return DataLake(
        [table_from_payload(table_to_payload(table)) for table in lake.tables()],
        name=lake.name,
    )


def call(
    url: str,
    method: str,
    path: str,
    payload: Mapping[str, Any] | None = None,
    *,
    timeout: float = REQUEST_TIMEOUT,
) -> tuple[int, bytes]:
    """One request; ``(status, body)`` with status 0 on timeout/refusal/reset."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        return 0, f"{type(exc).__name__}: {exc}".encode("utf-8")
    finally:
        connection.close()


def get_json(url: str, path: str) -> dict[str, Any]:
    status, body = call(url, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}: {body[:200]!r}")
    return json.loads(body)


class ChildServer:
    """One ``DiscoveryServer`` in its own process, built from generated inputs."""

    def __init__(
        self,
        workdir: Path,
        config: Mapping[str, Any],
        lake: DataLake,
        queries: Sequence[Table] = (),
    ) -> None:
        self.workdir = workdir
        self.event_log = workdir / "events.jsonl"
        self.spec_path = workdir / "spec.json"
        self.spec_path.write_text(
            json.dumps(
                {
                    "config": dict(config),
                    "lake": {
                        "name": lake.name,
                        "tables": [table_to_payload(table) for table in lake.tables()],
                    },
                    "queries": [table_to_payload(table) for table in queries],
                    "event_log": str(self.event_log),
                }
            )
        )
        self.url: str | None = None
        self._process: subprocess.Popen | None = None
        self._stderr = None

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "ChildServer":
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._stderr = (self.workdir / "child.stderr").open("wb")
        self._process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child_server.py"), str(self.spec_path)],
            stdin=subprocess.PIPE,  # held open, never written: EOF = harness died
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=str(self.workdir),
        )
        ready: list[str] = []

        def read_ready() -> None:
            assert self._process is not None and self._process.stdout is not None
            for raw in self._process.stdout:
                line = raw.decode("utf-8", "replace").strip()
                if line.startswith("SERVING "):
                    ready.append(line.split(" ", 1)[1])
                    return

        reader = threading.Thread(target=read_ready, daemon=True)
        reader.start()
        reader.join(READY_TIMEOUT)
        if not ready:
            detail = self._failure_detail()
            self.stop()
            raise RuntimeError(f"child server never became ready: {detail}")
        self.url = ready[0]
        return self

    def _failure_detail(self) -> str:
        if self._stderr is not None:
            self._stderr.flush()
        try:
            return (self.workdir / "child.stderr").read_text(errors="replace")[-800:]
        except OSError:
            return "(no stderr captured)"

    @property
    def pid(self) -> int:
        if self._process is None:
            raise RuntimeError("child server is not running")
        return self._process.pid

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def terminate(self) -> None:
        """Send SIGTERM without waiting; :meth:`stop` still has to reap.

        A graceful server shutdown is ~1.5 s of joins on sleeping threads, so
        callers overlap it with their next step instead of waiting it out.
        """
        if self._process is not None and self._process.poll() is None:
            self._process.terminate()

    def stop(self) -> None:
        """SIGTERM, wait, SIGKILL on timeout; always reaps the child."""
        self.terminate()
        process, self._process = self._process, None
        if process is not None:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            for pipe in (process.stdin, process.stdout):
                if pipe is not None:
                    pipe.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None

    def __enter__(self) -> "ChildServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

