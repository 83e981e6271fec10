"""Persistent, checksum-validated storage for built search indexes.

Every :class:`~repro.search.base.TableUnionSearcher` can dump its built index
as a JSON metadata dict plus named numpy arrays (``index_state()``) and
restore it without touching the lake's cell values (``load_index_state()``).
:class:`IndexStore` persists those dumps so a data lake is indexed once and
reused across runs *and* processes, one directory per entry::

    <root>/
      <Backend>-<config_fp12>/      one namespace per (class, config, format)
        <lake_fp16>/                one entry per lake content fingerprint
          state.json                JSON metadata payload
          arrays.npz                numpy payloads (uncompressed)
          manifest.json             versions, fingerprints, payload checksums

Payloads are written first and the manifest last, by atomic rename, so a
crashed save never produces a loadable entry; both payloads are
checksum-validated on load and any mismatch is reported as corruption rather
than silently served.  On the read path arrays come back as lazy
memory-mapped views (:class:`~repro.serving.payload.MappedArrayPayload`), so
restoring an index only faults in the bytes its ``load_index_state``
actually decodes.

Each manifest also records the lake's per-table content fingerprints, which
makes the store **delta-aware**: when a mutated lake misses every entry,
:meth:`IndexStore.load_or_build` finds the prior snapshot with the smallest
table diff, loads it, applies the diff through
:meth:`~repro.search.base.TableUnionSearcher.update_index` and persists the
result as a new entry — bit-identical to a rebuild, at the cost of indexing
only the changed tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zipfile
from collections.abc import Mapping
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.datalake.lake import DataLake
from repro.search.base import TableUnionSearcher
from repro.serving.payload import MappedArrayPayload
from repro.utils.errors import IndexStoreMiss, SearchError, ServingError

#: Bump when the on-disk layout of store entries changes.  (The
#: ``table_fingerprints`` and ``last_access`` manifest fields are additive:
#: entries written without them still load exactly, they just cannot anchor
#: delta updates / recency-ordered eviction.)
STORE_FORMAT_VERSION = 1

#: The three files of one entry; manifests checksum the two payloads.
_STATE = "state.json"
_ARRAYS = "arrays.npz"
_MANIFEST = "manifest.json"

#: :meth:`IndexStore.load_or_build` delta-updates a prior snapshot only when
#: the diff touches at most this fraction of the lake's tables; beyond it a
#: rebuild tends to be as cheap and keeps delta lineages short.
MAX_DELTA_FRACTION = 0.5
#: Default per-backend entry bound (see ``IndexStore.max_entries_per_backend``).
MAX_ENTRIES_PER_BACKEND = 8


def _file_checksum(path: Path) -> str:
    """Streaming sha256 of one payload file, in fixed 1 MiB chunks.

    Large npz payloads hash at constant memory instead of being read whole.
    """
    hasher = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


class IndexStore:
    """Persisted search indexes keyed by backend config and lake content.

    ``root`` is the store directory.  The attribute
    ``max_entries_per_backend`` (initially :data:`MAX_ENTRIES_PER_BACKEND`)
    bounds disk growth under continuous lake mutation: every refresh
    persists a full entry for the new lake content, so without a bound a
    long-lived deployment would accumulate one snapshot per content version
    forever.  :meth:`save` evicts the least-recently-accessed superseded
    entries of the same backend beyond the bound; a sharded executor raises
    it to fit its live shard entries.  :data:`MAX_DELTA_FRACTION` bounds
    when :meth:`load_or_build` prefers updating a prior snapshot over
    rebuilding.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.max_entries_per_backend = MAX_ENTRIES_PER_BACKEND

    # ------------------------------------------------------------- addressing
    def backend_dir(self, searcher: TableUnionSearcher) -> Path:
        """Directory holding every persisted lake entry of one config."""
        return self.root / f"{type(searcher).__name__}-{searcher.config_fingerprint()[:12]}"

    def entry_dir(self, searcher: TableUnionSearcher, lake: DataLake) -> Path:
        """Directory of the persisted index of ``searcher`` over ``lake``."""
        return self.backend_dir(searcher) / lake.fingerprint()[:16]

    def contains(self, searcher: TableUnionSearcher, lake: DataLake) -> bool:
        """Whether a completed entry exists (no payload validation)."""
        return (self.entry_dir(searcher, lake) / _MANIFEST).is_file()

    def stats(self) -> dict:
        """Occupancy of the store, for ``info`` surfaces.

        Keys: ``location`` (the root), ``backends`` (config namespaces),
        ``entries`` and ``payload_bytes`` — what a cold start would have to
        touch if it loaded everything eagerly.
        """
        namespaces = self._namespaces()
        entries = payload_bytes = 0
        for namespace in namespaces:
            for manifest_path in namespace.glob(f"*/{_MANIFEST}"):
                entries += 1
                for name in (_STATE, _ARRAYS):
                    try:
                        payload_bytes += (manifest_path.parent / name).stat().st_size
                    except OSError:
                        continue
        return {
            "location": str(self.root),
            "backends": len(namespaces),
            "entries": entries,
            "payload_bytes": payload_bytes,
        }

    # ------------------------------------------------------------------- save
    def save(
        self, searcher: TableUnionSearcher, lake: DataLake | None = None
    ) -> Path:
        """Persist ``searcher``'s built index; returns the entry directory.

        Payloads are committed before the manifest becomes visible, so
        concurrent or crashed writers can never leave a manifest pointing at
        missing payloads.  Saving over an existing entry replaces it.
        """
        lake = lake if lake is not None else searcher.lake
        state, arrays = searcher.index_state()
        manifest = {
            "store_format": STORE_FORMAT_VERSION,
            "backend_class": type(searcher).__name__,
            "backend_config": searcher.config_state(),
            "config_fingerprint": searcher.config_fingerprint(),
            "index_format": searcher.INDEX_FORMAT_VERSION,
            "lake_fingerprint": lake.fingerprint(),
            "table_fingerprints": lake.table_fingerprints(),
            "num_tables": lake.num_tables,
            "last_access": time.time(),
        }
        entry = self.entry_dir(searcher, lake)
        self._write_entry(entry, state=state, arrays=arrays, manifest=manifest)
        self._evict_superseded(entry)
        return entry

    def try_save(
        self, searcher: TableUnionSearcher, lake: DataLake | None = None
    ) -> None:
        """:meth:`save`, tolerating backends that cannot serialize their index.

        Persistence is an optimization: a backend without ``index_state()``
        still serves in-process, so every best-effort persist (a build's
        first save, a refresh's re-save) goes through here.  An ``OSError``
        is a failed save too: a concurrent :meth:`evict_cold` can remove the
        entry directory while its payloads are written, and the searcher is
        already built in memory.  Without a manifest the partial entry is a
        miss, so the next :meth:`load_or_build` writes it again.
        """
        try:
            self.save(searcher, lake)
        except (SearchError, OSError):
            pass

    def touch(self, searcher: TableUnionSearcher, lake: DataLake) -> None:
        """Record an access to one entry by atomically rewriting its manifest.

        Eviction orders entries by this ``last_access`` stamp, so an entry
        still in use must be touched to outrank superseded snapshots.
        Best-effort: a missing entry, or a concurrent eviction racing the
        rewrite, loses nothing but the stamp, so every failure is swallowed.
        """
        entry = self.entry_dir(searcher, lake)
        manifest_path = entry / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text())
            manifest["last_access"] = time.time()
            tmp_path = entry / f"{_MANIFEST}.touch.tmp"
            tmp_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
            os.replace(tmp_path, manifest_path)
        except (OSError, json.JSONDecodeError):
            pass

    def _write_entry(
        self,
        entry: Path,
        *,
        state: dict,
        arrays: Mapping[str, np.ndarray],
        manifest: dict,
    ) -> None:
        """Write both payloads, then their checksums in the manifest, last."""
        entry.mkdir(parents=True, exist_ok=True)
        manifest_path = entry / _MANIFEST
        if manifest_path.exists():  # invalidate the old entry while replacing
            manifest_path.unlink()

        state_path, arrays_path = entry / _STATE, entry / _ARRAYS
        state_path.write_text(json.dumps(state, sort_keys=True))
        with arrays_path.open("wb") as handle:
            np.savez(handle, **arrays)

        manifest = dict(manifest)
        manifest["checksums"] = {
            _STATE: _file_checksum(state_path),
            _ARRAYS: _file_checksum(arrays_path),
        }
        tmp_path = entry / f"{_MANIFEST}.tmp"
        tmp_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(tmp_path, manifest_path)

    # -------------------------------------------------------------- eviction
    def _namespaces(self) -> list[Path]:
        """Every config namespace directory under the root."""
        if not self.root.is_dir():
            return []
        return sorted(child for child in self.root.iterdir() if child.is_dir())

    def _manifests(self, namespace: Path) -> Iterator[tuple[Path, dict]]:
        """``(entry_dir, manifest)`` per readable entry; unreadable ones skip."""
        for manifest_path in namespace.glob(f"*/{_MANIFEST}"):
            try:
                yield manifest_path.parent, json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue

    def _stamped_entries(self, namespace: Path) -> list[tuple[float, str]]:
        """``(last_access, entry name)`` per entry, for eviction ordering.

        Entries written before the ``last_access`` field existed fall back to
        the manifest's mtime.
        """
        stamped: list[tuple[float, str]] = []
        for entry, manifest in self._manifests(namespace):
            stamp = manifest.get("last_access")
            if not isinstance(stamp, (int, float)):
                try:
                    stamp = (entry / _MANIFEST).stat().st_mtime
                except OSError:
                    continue
            stamped.append((float(stamp), entry.name))
        return stamped

    @staticmethod
    def _delete_entry(entry: Path) -> bool:
        """Best-effort removal; ``True`` when a committed entry was removed."""
        existed = (entry / _MANIFEST).is_file()
        shutil.rmtree(entry, ignore_errors=True)
        return existed

    def _evict_superseded(self, entry: Path) -> None:
        """Keep the freshest ``max_entries_per_backend`` entries of one backend.

        Called after every save so a continuously mutating lake cannot grow
        the store without bound — superseded lake-content snapshots beyond
        the bound are removed least-recently-accessed first, never the entry
        just written.  Best-effort: eviction failures are ignored so a
        read-only race never breaks a save.
        """
        namespace = entry.parent
        aged = [
            stamped
            for stamped in self._stamped_entries(namespace)
            if stamped[1] != entry.name
        ]
        excess = len(aged) + 1 - self.max_entries_per_backend
        for _, stale in sorted(aged)[:excess] if excess > 0 else []:
            self._delete_entry(namespace / stale)

    def evict_cold(self) -> int:
        """Trim every backend namespace to its ``max_entries_per_backend`` freshest.

        The maintenance-loop complement of the per-save eviction: a
        long-lived server accumulates superseded lake-content snapshots
        (every refresh persists a full entry), and this sweeps *all* backend
        namespaces in one pass — including those whose searchers are no
        longer being saved to at all.  Ordering uses the manifest-recorded
        ``last_access`` stamp where present (loads refresh it even when the
        payload bytes are only ever memory-mapped), falling back to the
        manifest mtime for pre-stamp entries.  Returns the number of entries
        removed.  Best-effort like :meth:`_evict_superseded`: removal
        failures are skipped, never raised.
        """
        removed = 0
        for namespace in self._namespaces():
            aged = self._stamped_entries(namespace)
            excess = max(0, len(aged) - self.max_entries_per_backend)
            # Freshest entries survive; stamp ties keep every tied entry.
            for _, stale in sorted(aged)[:excess]:
                if self._delete_entry(namespace / stale):
                    removed += 1
        return removed

    # ------------------------------------------------------------------- load
    @staticmethod
    def _read_manifest(entry: Path) -> dict | None:
        """The entry's manifest, ``None`` when absent, ServingError when unreadable."""
        manifest_path = entry / _MANIFEST
        if not manifest_path.is_file():
            return None
        try:
            return json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServingError(f"unreadable index manifest {manifest_path}") from exc

    @staticmethod
    def _read_payloads(entry: Path, manifest: dict) -> tuple[dict, Mapping]:
        """Checksum-validate and return ``(state, lazy arrays)`` for one entry.

        Raises ServingError on a checksum mismatch or an entry vanishing
        mid-read.
        """
        for filename, expected in manifest.get("checksums", {}).items():
            payload = entry / filename
            if not payload.is_file() or _file_checksum(payload) != expected:
                raise ServingError(
                    f"persisted index payload {payload} is missing or corrupt "
                    "(checksum mismatch)"
                )
        try:
            state = json.loads((entry / _STATE).read_text())
            arrays = MappedArrayPayload(entry / _ARRAYS)
        except (OSError, json.JSONDecodeError, ValueError, zipfile.BadZipFile) as exc:
            # The entry can vanish between checksum validation and these
            # reads — a concurrent evict_cold/_evict_superseded rmtree.
            # Surface it as corruption so load_or_build heals with a build.
            raise ServingError(
                f"persisted index entry {entry} became unreadable mid-load "
                f"(concurrent eviction?): {exc}"
            ) from exc
        return state, arrays

    def load(
        self, searcher: TableUnionSearcher, lake: DataLake
    ) -> TableUnionSearcher:
        """Restore ``searcher``'s index over ``lake`` from the store.

        Raises :class:`IndexStoreMiss` when no entry exists (or the entry was
        written for a different format/config/lake) and :class:`ServingError`
        when an entry exists but fails checksum validation.
        """
        entry = self.entry_dir(searcher, lake)
        manifest = self._read_manifest(entry)
        if manifest is None:
            raise IndexStoreMiss(
                f"no persisted {type(searcher).__name__} index for lake "
                f"{lake.name!r} under {self.root}"
            )

        if manifest.get("store_format") != STORE_FORMAT_VERSION:
            raise IndexStoreMiss(
                f"index entry {entry} uses store format "
                f"{manifest.get('store_format')}, expected {STORE_FORMAT_VERSION}"
            )
        if manifest.get("config_fingerprint") != searcher.config_fingerprint():
            raise IndexStoreMiss(
                f"index entry {entry} was built with a different "
                f"{type(searcher).__name__} configuration"
            )
        if manifest.get("lake_fingerprint") != lake.fingerprint():
            raise IndexStoreMiss(
                f"index entry {entry} was built for different lake contents"
            )

        state, arrays = self._read_payloads(entry, manifest)
        try:
            searcher.load_index_state(lake, state, arrays)
        except Exception as exc:
            # Checksums passed but the payloads are mutually inconsistent
            # (e.g. a layout change without an INDEX_FORMAT_VERSION bump).
            # Surface it as corruption so load_or_build rebuilds the entry.
            raise ServingError(
                f"persisted index entry {entry} failed to deserialize: {exc}"
            ) from exc
        self.touch(searcher, lake)
        return searcher

    # ------------------------------------------------------------ delta update
    def _update_from_prior(self, searcher: TableUnionSearcher, lake: DataLake) -> bool:
        """Serve a store miss by delta-updating the closest prior snapshot.

        Scans the backend's persisted entries for the manifest whose recorded
        per-table fingerprints differ least from ``lake``, loads that
        snapshot and applies the difference through
        :meth:`~repro.search.base.TableUnionSearcher.update_index` (which
        itself falls back to rebuilding when the backend cannot apply it
        incrementally).  Returns ``False`` when no prior snapshot qualifies
        — :meth:`load_or_build` then builds from scratch; either way it
        persists the result as a regular full entry for ``lake``, so delta
        chains never accumulate on disk.
        """
        current = lake.table_fingerprints()
        config_fingerprint = searcher.config_fingerprint()
        best: tuple[int, Path, dict, list[str], list[str]] | None = None
        for entry, manifest in self._manifests(self.backend_dir(searcher)):
            if manifest.get("store_format") != STORE_FORMAT_VERSION:
                continue
            if manifest.get("config_fingerprint") != config_fingerprint:
                continue
            base = manifest.get("table_fingerprints")
            if not isinstance(base, dict):
                continue  # entry predates delta-aware manifests
            added = [name for name, fp in current.items() if base.get(name) != fp]
            removed = [name for name, fp in base.items() if current.get(name) != fp]
            changes = len(added) + len(removed)
            if changes == 0:
                continue  # identical content would have been an exact hit
            if best is None or changes < best[0]:
                best = (changes, entry, manifest, added, removed)
        if best is None:
            return False
        changes, entry, manifest, added, removed = best
        if changes > MAX_DELTA_FRACTION * max(lake.num_tables, 1):
            return False
        try:
            state, arrays = self._read_payloads(entry, manifest)
            searcher.load_index_state(lake, state, arrays)
            searcher.update_index(
                added=[lake.get(name) for name in added], removed=removed
            )
        except Exception:
            # Anything can go wrong with a snapshot we merely hope is usable:
            # checksum/corruption failures, a concurrent save evicting the
            # entry mid-read (FileNotFoundError), or layout drift surfacing
            # from load_index_state.  A fresh build always heals, so this
            # fallback mirrors load()'s treat-as-corruption philosophy.
            return False
        return True

    def load_or_build(
        self, searcher: TableUnionSearcher, lake: DataLake
    ) -> TableUnionSearcher:
        """Restore from the store when possible, otherwise update or build.

        Resolution order: exact entry for the lake's content → delta update
        of the closest prior snapshot (bit-identical, persisted as a new
        entry) → fresh build.  Misses *and* corrupt entries end in a build
        whose result overwrites the bad entry, so a damaged store heals on
        next use.
        """
        try:
            return self.load(searcher, lake)
        except IndexStoreMiss:
            healed = self._update_from_prior(searcher, lake)
        except ServingError:
            healed = False  # corruption: heal with a fresh build below
        if not healed:
            searcher.index(lake)
        self.try_save(searcher, lake)
        return searcher
