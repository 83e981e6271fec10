"""CI smoke for the resident discovery server (``python -m repro serve``).

Starts the server as a real subprocess on an ephemeral port, discovers the
bound address from the ``SERVING http://host:port`` readiness line, and then:

1. checks ``/v1/health``,
2. issues an HTTP search and asserts parity with ``python -m repro search
   --json`` for the same benchmark query (canonical serializations —
   volatile ``timings`` stripped — must be bit-identical),
3. reads ``/v1/metrics`` and checks the served counter,
4. round-trips streaming ingestion: ``python -m repro ingest`` pipes a
   JSONL add through ``POST /v1/ingest``, a follow-up query finds the
   ingested table, and ``/v1/metrics`` reports the applied batch in its
   ``lake``/``ingest`` blocks,
5. sends SIGTERM and requires a clean exit code 0,
6. runs ``serve`` on a port another socket holds and requires exit code 2
   with an ``error:`` line (no traceback) within 30 s.

Run from the repo root::

    python scripts/server_smoke.py
    python scripts/server_smoke.py --shards 2

Extra arguments are forwarded to both ``serve`` and ``search``, so the
second form runs the same checks against a sharded deployment — the wire
ingest then lands as a per-shard delta that the follow-up query must see.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.api.schema import canonical_result_payload, dump_result  # noqa: E402
from repro.benchgen import generate_ugen_benchmark  # noqa: E402

#: CLI arguments that pin both processes to the same deterministic lake.
BENCH_ARGS = ["--benchmark", "ugen", "--num-queries", "2", "--seed", "3"]
K = 4


def _fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def _wait_for_ready(proc: subprocess.Popen) -> str | None:
    """Read the subprocess's stdout until the readiness line appears."""
    assert proc.stdout is not None
    while True:
        line = proc.stdout.readline()
        if not line:
            return None  # the server died before binding
        print(f"serve: {line.rstrip()}")
        if line.startswith("SERVING "):
            return line.split(None, 1)[1].strip()


def _busy_port_failure(env: dict[str, str], extra_args: list[str]) -> str | None:
    """Run ``serve`` on a held port; the problem found, or None when it fails cleanly."""
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--port", str(port),
                 *BENCH_ARGS, *extra_args],
                env=env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            )
        except subprocess.TimeoutExpired:
            return f"serve on busy port {port} still running after 30s"
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    if proc.returncode != 2 or not errors:
        return (
            f"serve on busy port {port}: exit {proc.returncode}, "
            f"stderr {proc.stderr[-400:]!r}"
        )
    print(f"busy port: exit 2, {errors[0]}")
    return None


def main(extra_args: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *BENCH_ARGS, *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        url = _wait_for_ready(proc)
        if url is None:
            return _fail(f"server exited (code {proc.poll()}) before binding")
        print(f"server ready at {url}")

        health = json.load(urllib.request.urlopen(url + "/v1/health"))
        if health.get("status") != "ok":
            return _fail(f"/v1/health returned {health}")

        request = urllib.request.Request(
            url + "/v1/search",
            data=json.dumps({"query_index": 0, "k": K}).encode(),
            method="POST",
        )
        wire_body = urllib.request.urlopen(request).read()
        cli = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "search",
                *BENCH_ARGS,
                "--query",
                "0",
                "--k",
                str(K),
                "--json",
                *extra_args,
            ],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        wire = dump_result(canonical_result_payload(json.loads(wire_body)))
        direct = dump_result(canonical_result_payload(json.loads(cli.stdout)))
        if wire != direct:
            return _fail("wire response and CLI --json output diverge")
        print("parity: wire /v1/search == CLI search --json (canonical bytes)")

        metrics = json.load(urllib.request.urlopen(url + "/v1/metrics"))
        counters = metrics["counters"]
        if counters["served"] != 1 or counters["errors"] != 0:
            return _fail(f"unexpected counters {counters}")
        print(f"metrics: {counters}")

        # Streaming ingest round-trip: CLI -> POST /v1/ingest -> query.  The
        # streamed table clones benchmark query 0's content, so re-running
        # that query must now surface it (identical content, top overlap).
        version_before = metrics["lake"]["version"]
        benchmark = generate_ugen_benchmark(num_queries=2, seed=3)
        query = benchmark.query_tables[0]
        streamed = {
            "name": "smoke_stream",
            "columns": list(query.columns),
            "rows": [list(row) for row in query.rows],
        }
        events_path = ROOT / ".cache" / "smoke_ingest.jsonl"
        events_path.parent.mkdir(exist_ok=True)
        events_path.write_text(
            json.dumps({"op": "add", "name": "smoke_stream", "table": streamed})
            + "\n"
        )
        try:
            ingest = subprocess.run(
                [
                    sys.executable, "-m", "repro", "ingest",
                    "--url", url, "--events", str(events_path),
                ],
                env=env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            )
        finally:
            events_path.unlink(missing_ok=True)
        print(f"ingest: {ingest.stdout.strip()}")
        if "1 micro-batch(es) applied" not in ingest.stdout:
            return _fail(f"ingest CLI did not apply a batch: {ingest.stdout!r}")
        request = urllib.request.Request(
            url + "/v1/search",
            data=json.dumps({"query_index": 0, "k": K}).encode(),
            method="POST",
        )
        hits = json.loads(urllib.request.urlopen(request).read())
        hit_tables = {hit["table"] for hit in hits["search_results"]}
        if "smoke_stream" not in hit_tables:
            return _fail(f"ingested table not served back, got {hit_tables}")
        metrics = json.load(urllib.request.urlopen(url + "/v1/metrics"))
        if metrics["lake"]["version"] <= version_before:
            return _fail(f"lake version did not advance: {metrics['lake']}")
        if metrics["ingest"]["batches_applied"] < 1:
            return _fail(f"ingest stats missing the batch: {metrics['ingest']}")
        print(
            "ingest round-trip: CLI JSONL -> /v1/ingest -> searchable "
            f"(lake version {version_before} -> {metrics['lake']['version']})"
        )
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return _fail("server did not exit within 30s of SIGTERM")
        # Surface whatever the server printed while shutting down.
        if proc.stdout is not None:
            tail = proc.stdout.read()
            if tail:
                print(f"serve: {tail.rstrip()}")

    if code != 0:
        return _fail(f"server exited with code {code} after SIGTERM")
    print("clean SIGTERM shutdown (exit 0)")
    failure = _busy_port_failure(env, extra_args)
    if failure is not None:
        return _fail(failure)
    print("PASS")
    return 0


if __name__ == "__main__":
    # Give the whole smoke a hard ceiling so a wedged server cannot hang CI.
    signal.signal(signal.SIGALRM, lambda *_: sys.exit("FAIL: smoke timed out"))
    signal.alarm(270)
    sys.exit(main(sys.argv[1:]))
