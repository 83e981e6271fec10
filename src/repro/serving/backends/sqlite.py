"""Single-file SQLite store backend: shared storage for multi-process serving.

One ``index-store.sqlite3`` file replaces the directory tree, which gives
resident servers a storage story the filesystem layout cannot: a single
artifact to ship/mount, WAL journaling so many reader processes load entries
while a writer persists a refresh, and transactional saves (payloads and
manifest commit together, the exact analogue of the directory backend's
manifest-written-last rule).

Payload bytes are identical to the directory backend — the same
``state.json`` text and the same uncompressed ``arrays.npz`` serialization,
checksummed with the same sha256 — so a lake warmed through either backend
produces entries with identical manifests and ``tests/test_store_backends.py``
compares them bit for bit.

Reliability mirrors ``load_or_build``'s self-healing philosophy:

* every ``sqlite3.DatabaseError`` on the read path surfaces as
  :class:`ServingError`, which callers heal with a rebuild;
* a database file that no longer opens (truncated, overwritten, wrong
  format) is quarantined aside as ``<name>.corrupt`` and a fresh schema is
  initialized, so the healing rebuild's save succeeds instead of failing
  forever;
* the schema carries its version in a ``schema_version`` table and is
  migrated forward on open (v1 → v2 adds the ``last_access`` column backing
  recency-ordered eviction), so old store files keep working.

Connections are pooled per process (``_POOL_SIZE``) and invalidated on
``fork``, since SQLite connections must never cross process boundaries.
"""

from __future__ import annotations

import io
import json
import os
import sqlite3
import threading
import time
from collections.abc import Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.api.registry import register_store_backend
from repro.serving.backends.base import (
    ARRAYS_PAYLOAD,
    STATE_PAYLOAD,
    StoreBackend,
    checksum_bytes,
    serialize_arrays,
)
from repro.utils.errors import ServingError

#: Current schema version; bump alongside a migration step in ``_migrate``.
SCHEMA_VERSION = 2

#: Idle connections kept per process.
_POOL_SIZE = 4
#: numpy parses npy headers with ``ast.literal_eval``, which CPython 3.11 does
#: not make thread-safe: concurrent readers decode their blobs one at a time.
_DECODE_LOCK = threading.Lock()

#: Version 1 never shipped a ``last_access`` column; kept as executable
#: documentation and as the fixture for the forward-migration test.
SCHEMA_V1_STATEMENTS = (
    "CREATE TABLE schema_version (version INTEGER NOT NULL)",
    """CREATE TABLE entries (
        backend_key TEXT NOT NULL,
        entry_key TEXT NOT NULL,
        manifest TEXT NOT NULL,
        created REAL NOT NULL,
        PRIMARY KEY (backend_key, entry_key))""",
    """CREATE TABLE payloads (
        backend_key TEXT NOT NULL,
        entry_key TEXT NOT NULL,
        name TEXT NOT NULL,
        data BLOB NOT NULL,
        PRIMARY KEY (backend_key, entry_key, name))""",
    "INSERT INTO schema_version (version) VALUES (1)",
)


@register_store_backend("sqlite")
class SQLiteStoreBackend(StoreBackend):
    """Entries as rows in one WAL-mode SQLite database."""

    name = "sqlite"

    def __init__(
        self,
        root: str | Path,
        *,
        path: str | Path | None = None,
    ) -> None:
        self.root = Path(root)
        self.path = Path(path) if path is not None else self.root / "index-store.sqlite3"
        self._pool: list[sqlite3.Connection] = []
        self._pool_pid: int | None = None
        self._lock = threading.Lock()
        self._connections_opened = 0  # observability for pooling tests/stats

    # ------------------------------------------------------------ connections
    def _new_connection(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        self._connections_opened += 1
        try:
            self._initialize(connection)
        except sqlite3.DatabaseError:
            connection.close()
            self._quarantine()
            connection = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
            self._connections_opened += 1
            self._initialize(connection)
        return connection

    def _quarantine(self) -> None:
        """Move an unopenable database aside so a fresh schema can heal it."""
        try:
            os.replace(self.path, self.path.with_name(self.path.name + ".corrupt"))
        except OSError:
            try:
                self.path.unlink()
            except OSError:
                pass

    def _initialize(self, connection: sqlite3.Connection) -> None:
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        row = connection.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='schema_version'"
        ).fetchone()
        with connection:  # one transaction for create-or-migrate
            if row is None:
                self._create_schema(connection)
            else:
                self._migrate(connection)

    def _create_schema(self, connection: sqlite3.Connection) -> None:
        connection.execute("CREATE TABLE schema_version (version INTEGER NOT NULL)")
        connection.execute(
            """CREATE TABLE entries (
                backend_key TEXT NOT NULL,
                entry_key TEXT NOT NULL,
                manifest TEXT NOT NULL,
                created REAL NOT NULL,
                last_access REAL NOT NULL,
                PRIMARY KEY (backend_key, entry_key))"""
        )
        connection.execute(
            """CREATE TABLE payloads (
                backend_key TEXT NOT NULL,
                entry_key TEXT NOT NULL,
                name TEXT NOT NULL,
                data BLOB NOT NULL,
                PRIMARY KEY (backend_key, entry_key, name))"""
        )
        connection.execute(
            "INSERT INTO schema_version (version) VALUES (?)", (SCHEMA_VERSION,)
        )

    def _migrate(self, connection: sqlite3.Connection) -> None:
        row = connection.execute("SELECT MAX(version) FROM schema_version").fetchone()
        version = int(row[0]) if row and row[0] is not None else 0
        if version > SCHEMA_VERSION:
            raise ServingError(
                f"store database {self.path} uses schema version {version}, "
                f"newer than this build's {SCHEMA_VERSION}"
            )
        if version == SCHEMA_VERSION:
            return
        if version <= 1:
            # v1 -> v2: recency-ordered eviction needs a last-access stamp.
            connection.execute(
                "ALTER TABLE entries ADD COLUMN last_access REAL NOT NULL DEFAULT 0"
            )
            connection.execute("UPDATE entries SET last_access = created")
        connection.execute("DELETE FROM schema_version")
        connection.execute(
            "INSERT INTO schema_version (version) VALUES (?)", (SCHEMA_VERSION,)
        )

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """Borrow a pooled connection; forked children never inherit one."""
        with self._lock:
            if self._pool_pid != os.getpid():
                # Post-fork: inherited connections share file descriptors
                # with the parent and must not be used *or* closed here.
                self._pool = []
                self._pool_pid = os.getpid()
            connection = self._pool.pop() if self._pool else None
        if connection is None:
            connection = self._new_connection()
        try:
            yield connection
        except sqlite3.DatabaseError:
            connection.close()  # do not return a possibly-wedged connection
            raise
        else:
            with self._lock:
                if self._pool_pid == os.getpid() and len(self._pool) < _POOL_SIZE:
                    self._pool.append(connection)
                    connection = None
            if connection is not None:
                connection.close()

    def close(self) -> None:
        """Close pooled connections (tests and orderly shutdown)."""
        with self._lock:
            pool, self._pool = self._pool, []
        for connection in pool:
            connection.close()

    # ------------------------------------------------------------------ write
    def write_entry(
        self,
        backend_key: str,
        entry_key: str,
        *,
        state: dict,
        arrays: Mapping[str, np.ndarray],
        manifest: dict,
    ) -> None:
        state_bytes = json.dumps(state, sort_keys=True).encode("utf-8")
        arrays_bytes = serialize_arrays(arrays)
        manifest = dict(manifest)
        manifest["checksums"] = {
            STATE_PAYLOAD: checksum_bytes(state_bytes),
            ARRAYS_PAYLOAD: checksum_bytes(arrays_bytes),
        }
        now = time.time()
        try:
            with self._connection() as connection:
                with connection:  # payloads + manifest commit atomically
                    connection.execute(
                        "DELETE FROM payloads WHERE backend_key = ? AND entry_key = ?",
                        (backend_key, entry_key),
                    )
                    connection.executemany(
                        "INSERT INTO payloads (backend_key, entry_key, name, data) "
                        "VALUES (?, ?, ?, ?)",
                        [
                            (backend_key, entry_key, STATE_PAYLOAD, state_bytes),
                            (backend_key, entry_key, ARRAYS_PAYLOAD, arrays_bytes),
                        ],
                    )
                    connection.execute(
                        "INSERT OR REPLACE INTO entries "
                        "(backend_key, entry_key, manifest, created, last_access) "
                        "VALUES (?, ?, ?, ?, ?)",
                        (backend_key, entry_key, json.dumps(manifest, sort_keys=True), now, now),
                    )
        except sqlite3.DatabaseError as exc:
            raise ServingError(
                f"failed to persist index entry {backend_key}/{entry_key} "
                f"into store database {self.path}: {exc}"
            ) from exc

    # ------------------------------------------------------------------- read
    def read_manifest(self, backend_key: str, entry_key: str) -> dict | None:
        if not self.path.is_file():
            return None
        try:
            with self._connection() as connection:
                row = connection.execute(
                    "SELECT manifest FROM entries WHERE backend_key = ? AND entry_key = ?",
                    (backend_key, entry_key),
                ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise ServingError(
                f"unreadable index manifest for {backend_key}/{entry_key} "
                f"in store database {self.path}: {exc}"
            ) from exc
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError as exc:
            raise ServingError(
                f"unreadable index manifest for {backend_key}/{entry_key} "
                f"in store database {self.path}"
            ) from exc

    def read_payloads(
        self, backend_key: str, entry_key: str, manifest: dict
    ) -> tuple[dict, Mapping]:
        location = f"{self.path}::{backend_key}/{entry_key}"
        try:
            with self._connection() as connection:
                rows = connection.execute(
                    "SELECT name, data FROM payloads "
                    "WHERE backend_key = ? AND entry_key = ?",
                    (backend_key, entry_key),
                ).fetchall()
        except sqlite3.DatabaseError as exc:
            raise ServingError(
                f"persisted index entry {location} became unreadable mid-load "
                f"(concurrent eviction?): {exc}"
            ) from exc
        payloads = {name: bytes(data) for name, data in rows}
        for name, expected in manifest.get("checksums", {}).items():
            data = payloads.get(name)
            if data is None or checksum_bytes(data) != expected:
                raise ServingError(
                    f"persisted index payload {location}/{name} is missing or "
                    "corrupt (checksum mismatch)"
                )
        try:
            state = json.loads(payloads[STATE_PAYLOAD].decode("utf-8"))
            with _DECODE_LOCK, np.load(io.BytesIO(payloads[ARRAYS_PAYLOAD])) as npz:
                arrays = dict(npz.items())
        except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
            raise ServingError(
                f"persisted index entry {location} became unreadable mid-load "
                f"(concurrent eviction?): {exc}"
            ) from exc
        return state, arrays

    def has_entry(self, backend_key: str, entry_key: str) -> bool:
        if not self.path.is_file():
            return False
        try:
            with self._connection() as connection:
                row = connection.execute(
                    "SELECT 1 FROM entries WHERE backend_key = ? AND entry_key = ?",
                    (backend_key, entry_key),
                ).fetchone()
        except sqlite3.DatabaseError:
            return False
        return row is not None

    # -------------------------------------------------------------- inventory
    def iter_manifests(self, backend_key: str) -> Iterator[tuple[str, dict]]:
        if not self.path.is_file():
            return
        try:
            with self._connection() as connection:
                rows = connection.execute(
                    "SELECT entry_key, manifest FROM entries WHERE backend_key = ?",
                    (backend_key,),
                ).fetchall()
        except sqlite3.DatabaseError:
            return
        for entry_key, manifest_text in rows:
            try:
                yield entry_key, json.loads(manifest_text)
            except json.JSONDecodeError:
                continue

    def list_entries(self, backend_key: str) -> list[tuple[float, str]]:
        if not self.path.is_file():
            return []
        try:
            with self._connection() as connection:
                rows = connection.execute(
                    "SELECT last_access, entry_key FROM entries WHERE backend_key = ?",
                    (backend_key,),
                ).fetchall()
        except sqlite3.DatabaseError:
            return []
        return [(float(stamp), entry_key) for stamp, entry_key in rows]

    def list_backend_keys(self) -> list[str]:
        if not self.path.is_file():
            return []
        try:
            with self._connection() as connection:
                rows = connection.execute(
                    "SELECT DISTINCT backend_key FROM entries ORDER BY backend_key"
                ).fetchall()
        except sqlite3.DatabaseError:
            return []
        return [row[0] for row in rows]

    # ------------------------------------------------------------ maintenance
    def delete_entry(self, backend_key: str, entry_key: str) -> bool:
        if not self.path.is_file():
            return False
        try:
            with self._connection() as connection:
                with connection:
                    removed = connection.execute(
                        "DELETE FROM entries WHERE backend_key = ? AND entry_key = ?",
                        (backend_key, entry_key),
                    ).rowcount
                    connection.execute(
                        "DELETE FROM payloads WHERE backend_key = ? AND entry_key = ?",
                        (backend_key, entry_key),
                    )
        except sqlite3.DatabaseError:
            return False
        return removed > 0

    def touch(self, backend_key: str, entry_key: str) -> None:
        if not self.path.is_file():
            return
        try:
            with self._connection() as connection:
                with connection:
                    connection.execute(
                        "UPDATE entries SET last_access = ? "
                        "WHERE backend_key = ? AND entry_key = ?",
                        (time.time(), backend_key, entry_key),
                    )
        except sqlite3.DatabaseError:
            pass

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        backends = entries = payload_bytes = 0
        if self.path.is_file():
            try:
                with self._connection() as connection:
                    backends = connection.execute(
                        "SELECT COUNT(DISTINCT backend_key) FROM entries"
                    ).fetchone()[0]
                    entries = connection.execute(
                        "SELECT COUNT(*) FROM entries"
                    ).fetchone()[0]
                    payload_bytes = connection.execute(
                        "SELECT COALESCE(SUM(LENGTH(data)), 0) FROM payloads"
                    ).fetchone()[0]
            except sqlite3.DatabaseError:
                pass
        return {
            "backend": self.name,
            "location": str(self.path),
            "backends": int(backends),
            "entries": int(entries),
            "payload_bytes": int(payload_bytes),
        }
