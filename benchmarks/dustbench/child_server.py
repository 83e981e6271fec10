"""Entry point of the server-under-test child process.

``python child_server.py <spec.json>`` rebuilds the lake and the registered
query tables from the harness-generated spec (the child never sees the seed,
only the inputs), builds ``DiscoveryServer.from_config`` on an ephemeral
port, prints the ``SERVING http://host:port`` readiness line and serves until
SIGTERM — or until its stdin closes, which is how it notices a dead harness.  Running in its own process keeps the load generator and the server
from sharing one GIL.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading


def _exit_with_parent() -> None:
    """Terminate when stdin reaches EOF, i.e. when the harness is gone.

    The launcher holds the write end of this process's stdin and never
    writes to it, so EOF means the harness exited — however it died — and a
    server nobody will stop must stop itself.
    """
    sys.stdin.buffer.read()
    os.kill(os.getpid(), signal.SIGTERM)


def main(argv: list[str]) -> int:
    from repro.datalake.io import table_from_payload
    from repro.datalake.lake import DataLake
    from repro.serving.server import DiscoveryServer, run_server

    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    lake = DataLake(
        [table_from_payload(payload) for payload in spec["lake"]["tables"]],
        name=spec["lake"]["name"],
    )
    queries = [table_from_payload(payload) for payload in spec["queries"]]
    server = DiscoveryServer.from_config(
        spec["config"], lake, queries=queries, port=0, event_log=spec["event_log"]
    )
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    return run_server(server)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
