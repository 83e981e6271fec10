"""The original one-directory-per-entry store backend.

Behavior-preserving extraction of the filesystem layout :class:`IndexStore`
has written since it existed::

    <root>/<backend_key>/<entry_key>/{state.json, arrays.npz, manifest.json}

Payloads are written first and the manifest last via an atomic rename, so a
crashed save never leaves a loadable entry; checksums and content keys are
unchanged, so entries written by older versions load bit-identically.  The
one read-path difference is *how* arrays come back: ``arrays.npz`` is served
as a :class:`MappedArrayPayload` of lazy ``np.memmap`` views instead of an
eager ``np.load`` copy of every member.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zipfile
from collections.abc import Mapping
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.api.registry import register_store_backend
from repro.serving.backends.base import (
    ARRAYS_PAYLOAD,
    STATE_PAYLOAD,
    MappedArrayPayload,
    StoreBackend,
)
from repro.utils.errors import ServingError

_MANIFEST = "manifest.json"


def _checksum(path: Path) -> str:
    # Late-bound so tests (and operators) can intercept the store module's
    # canonical streaming checksum in one place for both save and load.
    from repro.serving import store

    return store._file_checksum(path)


@register_store_backend("directory")
class DirectoryStoreBackend(StoreBackend):
    """Entries as plain directories under the store root."""

    name = "directory"

    def __init__(
        self,
        root: str | Path,
        *,
        path: str | Path | None = None,
    ) -> None:
        # ``path`` is accepted for constructor uniformity across backends;
        # the directory layout has no use for it.
        self.root = Path(root)

    def _entry_path(self, backend_key: str, entry_key: str) -> Path:
        return self.root / backend_key / entry_key

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
        entry = self._entry_path(backend_key, entry_key)
        entry.mkdir(parents=True, exist_ok=True)

        manifest_path = entry / _MANIFEST
        if manifest_path.exists():  # invalidate the old entry while replacing
            manifest_path.unlink()

        state_path, arrays_path = entry / STATE_PAYLOAD, entry / ARRAYS_PAYLOAD
        state_path.write_text(json.dumps(state, sort_keys=True))
        with arrays_path.open("wb") as handle:
            np.savez(handle, **arrays)

        manifest = dict(manifest)
        manifest["checksums"] = {
            STATE_PAYLOAD: _checksum(state_path),
            ARRAYS_PAYLOAD: _checksum(arrays_path),
        }
        tmp_path = entry / f"{_MANIFEST}.tmp"
        tmp_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(tmp_path, manifest_path)

    # ------------------------------------------------------------------- read
    def read_manifest(self, backend_key: str, entry_key: str) -> dict | None:
        manifest_path = self._entry_path(backend_key, entry_key) / _MANIFEST
        if not manifest_path.is_file():
            return None
        try:
            return json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServingError(f"unreadable index manifest {manifest_path}") from exc

    def read_payloads(
        self, backend_key: str, entry_key: str, manifest: dict
    ) -> tuple[dict, Mapping]:
        entry = self._entry_path(backend_key, entry_key)
        for filename, expected in manifest.get("checksums", {}).items():
            payload = entry / filename
            if not payload.is_file() or _checksum(payload) != expected:
                raise ServingError(
                    f"persisted index payload {payload} is missing or corrupt "
                    "(checksum mismatch)"
                )
        try:
            state = json.loads((entry / STATE_PAYLOAD).read_text())
            arrays = MappedArrayPayload(entry / ARRAYS_PAYLOAD)
        except (OSError, json.JSONDecodeError, ValueError, zipfile.BadZipFile) as exc:
            # The entry can vanish between checksum validation and these
            # reads — a concurrent evict_cold/_evict_superseded rmtree.
            # Surface it as corruption so load_or_build heals with a build.
            raise ServingError(
                f"persisted index entry {entry} became unreadable mid-load "
                f"(concurrent eviction?): {exc}"
            ) from exc
        return state, arrays

    def has_entry(self, backend_key: str, entry_key: str) -> bool:
        return (self._entry_path(backend_key, entry_key) / _MANIFEST).is_file()

    # -------------------------------------------------------------- inventory
    def iter_manifests(self, backend_key: str) -> Iterator[tuple[str, dict]]:
        for manifest_path in (self.root / backend_key).glob(f"*/{_MANIFEST}"):
            try:
                yield manifest_path.parent.name, json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue

    def list_entries(self, backend_key: str) -> list[tuple[float, str]]:
        stamped: list[tuple[float, str]] = []
        for manifest_path in (self.root / backend_key).glob(f"*/{_MANIFEST}"):
            try:
                stamp = manifest_path.stat().st_mtime
                recorded = json.loads(manifest_path.read_text()).get("last_access")
                if isinstance(recorded, (int, float)):
                    stamp = float(recorded)
            except (OSError, json.JSONDecodeError):
                continue
            stamped.append((stamp, manifest_path.parent.name))
        return stamped

    def list_backend_keys(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(child.name for child in self.root.iterdir() if child.is_dir())

    # ------------------------------------------------------------ maintenance
    def delete_entry(self, backend_key: str, entry_key: str) -> bool:
        entry = self._entry_path(backend_key, entry_key)
        existed = (entry / _MANIFEST).is_file()
        shutil.rmtree(entry, ignore_errors=True)
        return existed

    def touch(self, backend_key: str, entry_key: str) -> None:
        """Record last access by atomically rewriting the manifest.

        Best-effort: a concurrent eviction racing the rewrite loses nothing
        but the access stamp, so every failure is swallowed.
        """
        entry = self._entry_path(backend_key, entry_key)
        manifest_path = entry / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text())
            manifest["last_access"] = time.time()
            tmp_path = entry / f"{_MANIFEST}.touch.tmp"
            tmp_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
            os.replace(tmp_path, manifest_path)
        except (OSError, json.JSONDecodeError):
            pass

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        entries = 0
        payload_bytes = 0
        backend_keys = self.list_backend_keys()
        for backend_key in backend_keys:
            for manifest_path in (self.root / backend_key).glob(f"*/{_MANIFEST}"):
                entries += 1
                for name in (STATE_PAYLOAD, ARRAYS_PAYLOAD):
                    try:
                        payload_bytes += (manifest_path.parent / name).stat().st_size
                    except OSError:
                        continue
        return {
            "backend": self.name,
            "location": str(self.root),
            "backends": len(backend_keys),
            "entries": entries,
            "payload_bytes": payload_bytes,
        }
