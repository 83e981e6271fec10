"""Persistent, checksum-validated storage for built search indexes.

Every :class:`~repro.search.base.TableUnionSearcher` can dump its built index
as a JSON metadata dict plus named numpy arrays (``index_state()``) and
restore it without touching the lake's cell values (``load_index_state()``).
:class:`IndexStore` persists those dumps so a data lake is indexed once and
reused across runs *and* processes.

The store owns the logical semantics — content keying, the manifest schema,
miss-vs-corruption error taxonomy, delta anchoring, eviction policy — and
delegates physical persistence to a pluggable
:class:`~repro.serving.backends.base.StoreBackend` selected by name:

* ``directory`` (default) — the original one-directory-per-entry layout::

      <root>/
        <Backend>-<config_fp12>/      one namespace per (class, config, format)
          <lake_fp16>/                one entry per lake content fingerprint
            state.json                JSON metadata payload
            arrays.npz                numpy payloads
            manifest.json             versions, fingerprints, payload checksums

* ``sqlite`` — the same entries as rows of one WAL-mode database file, for
  shared storage and concurrent multi-process readers.

Every backend commits the manifest last (directory: atomic rename; sqlite:
one transaction), so a crashed save never produces a loadable entry; both
payloads are checksum-validated on load and any mismatch is reported as
corruption rather than silently served.  On the read path arrays come back
as *lazy* views (memory-mapped npz members on the directory backend), so
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
import time
from pathlib import Path

from repro.datalake.lake import DataLake
from repro.search.base import TableUnionSearcher
from repro.utils.errors import IndexStoreMiss, SearchError, ServingError

#: Bump when the on-disk layout of store entries changes.  (The
#: ``table_fingerprints`` and ``last_access`` manifest fields are additive:
#: entries written without them still load exactly, they just cannot anchor
#: delta updates / recency-ordered eviction.)
STORE_FORMAT_VERSION = 1


def _file_checksum(path: Path) -> str:
    """Streaming sha256 of one payload file, in fixed 1 MiB chunks.

    The canonical checksum helper for file-based backends: large npz
    payloads hash at constant memory instead of being read whole.
    """
    hasher = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


class IndexStore:
    """Persisted search indexes keyed by backend config and lake content.

    ``backend`` names the physical storage implementation from the
    :data:`~repro.api.registry.STORE_BACKENDS` registry (``"directory"`` or
    ``"sqlite"``); ``path`` is forwarded to its constructor.

    ``max_delta_fraction`` bounds when :meth:`load_or_build` prefers updating
    a prior snapshot over rebuilding: a delta is applied only when it touches
    at most that fraction of the lake's tables (beyond it, a rebuild tends to
    be as cheap and keeps the store from chaining long delta lineages).

    ``max_entries_per_backend`` bounds disk growth under continuous lake
    mutation: every refresh persists a full entry for the new lake content,
    so without a bound a long-lived deployment would accumulate one snapshot
    per content version forever.  :meth:`save` evicts the
    least-recently-accessed superseded entries of the same backend beyond
    the bound (``None`` disables eviction).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        backend: str = "directory",
        path: str | Path | None = None,
        max_delta_fraction: float = 0.5,
        max_entries_per_backend: int | None = 8,
    ) -> None:
        if not 0.0 <= max_delta_fraction <= 1.0:
            raise ServingError(
                f"max_delta_fraction must be in [0, 1], got {max_delta_fraction}"
            )
        if max_entries_per_backend is not None and max_entries_per_backend < 1:
            raise ServingError(
                f"max_entries_per_backend must be >= 1 or None, "
                f"got {max_entries_per_backend}"
            )
        self.root = Path(root)
        self.max_delta_fraction = max_delta_fraction
        self.max_entries_per_backend = max_entries_per_backend
        # Imported lazily: repro.api's package __init__ pulls in modules that
        # import this one, so a module-level registry import could observe a
        # partially initialized repro.serving.store.
        from repro.api.registry import STORE_BACKENDS

        self._backend = STORE_BACKENDS.create(backend, root=self.root, path=path)

    @classmethod
    def from_config(
        cls, root: str | Path, section: dict | None = None, **overrides
    ) -> IndexStore:
        """Build a store from a validated ``store`` config section.

        ``section`` is the (already defaulted) ``DiscoveryConfig.store``
        dict; ``None`` means all defaults.  Shared by the facade and the
        ``warm`` CLI so both construct identically-behaving stores.
        """
        section = dict(section or {})
        return cls(
            root,
            backend=section.get("backend", "directory"),
            path=section.get("path"),
            **overrides,
        )

    # ------------------------------------------------------------- addressing
    @property
    def backend_name(self) -> str:
        """Registry name of the active physical backend."""
        return self._backend.name

    def _backend_key(self, searcher: TableUnionSearcher) -> str:
        return f"{type(searcher).__name__}-{searcher.config_fingerprint()[:12]}"

    def _entry_key(self, lake: DataLake) -> str:
        return lake.fingerprint()[:16]

    def backend_dir(self, searcher: TableUnionSearcher) -> Path:
        """Logical directory holding every persisted lake entry of one config.

        A real directory only on the ``directory`` backend; other backends
        use the same path as a virtual namespace.
        """
        return self.root / self._backend_key(searcher)

    def entry_dir(self, searcher: TableUnionSearcher, lake: DataLake) -> Path:
        """Logical directory of the persisted index of ``searcher`` over ``lake``."""
        return self.backend_dir(searcher) / self._entry_key(lake)

    def contains(self, searcher: TableUnionSearcher, lake: DataLake) -> bool:
        """Whether a completed entry exists (no payload validation)."""
        return self._backend.has_entry(
            self._backend_key(searcher), self._entry_key(lake)
        )

    def stats(self) -> dict:
        """Occupancy of the physical backend, for ``info`` surfaces.

        Keys: ``backend`` (registry name), ``location``, ``backends``
        (config namespaces), ``entries`` and ``payload_bytes`` — what a cold
        start would have to touch if it loaded everything eagerly.
        """
        return self._backend.stats()

    # ------------------------------------------------------------------- save
    def save(
        self, searcher: TableUnionSearcher, lake: DataLake | None = None
    ) -> Path:
        """Persist ``searcher``'s built index; returns the logical entry dir.

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
        self._backend.write_entry(
            self._backend_key(searcher),
            self._entry_key(lake),
            state=state,
            arrays=arrays,
            manifest=manifest,
        )
        self._evict_superseded(searcher, lake)
        return self.entry_dir(searcher, lake)

    def try_save(
        self, searcher: TableUnionSearcher, lake: DataLake | None = None
    ) -> None:
        """:meth:`save`, tolerating backends that cannot serialize their index.

        Persistence is an optimization: a backend without ``index_state()``
        still serves in-process, so every best-effort persist (a build's
        first save, a refresh's re-save) goes through here.
        """
        try:
            self.save(searcher, lake)
        except SearchError:
            pass

    def _evict_superseded(self, searcher: TableUnionSearcher, lake: DataLake) -> None:
        """Keep the freshest ``max_entries_per_backend`` entries of one backend.

        Called after every save so a continuously mutating lake cannot grow
        the store without bound — superseded lake-content snapshots beyond
        the bound are removed least-recently-accessed first, never the entry
        just written.  Best-effort: eviction failures are ignored so a
        read-only race never breaks a save.
        """
        if self.max_entries_per_backend is None:
            return
        backend_key = self._backend_key(searcher)
        keep = self._entry_key(lake)
        aged = [
            stamped
            for stamped in self._backend.list_entries(backend_key)
            if stamped[1] != keep
        ]
        excess = len(aged) + 1 - self.max_entries_per_backend
        for _, stale in sorted(aged)[:excess] if excess > 0 else []:
            self._backend.delete_entry(backend_key, stale)

    def evict_cold(self, max_entries: int | None = None) -> int:
        """Trim every backend namespace to its freshest ``max_entries`` entries.

        The maintenance-loop complement of the per-save eviction: a
        long-lived server accumulates superseded lake-content snapshots
        (every refresh persists a full entry), and this sweeps *all* backend
        namespaces in one pass — including those whose searchers are no
        longer being saved to at all.  Ordering uses the manifest-recorded
        ``last_access`` stamp where present (loads refresh it even when the
        payload bytes are only ever memory-mapped), falling back to the
        physical mtime for pre-stamp entries.  ``max_entries`` defaults to
        the store's ``max_entries_per_backend``; with both unset the sweep
        is a no-op (an unbounded store stays unbounded).  Returns the number
        of entries removed.  Best-effort like :meth:`_evict_superseded`:
        removal failures are skipped, never raised.
        """
        bound = max_entries if max_entries is not None else self.max_entries_per_backend
        if bound is None or bound < 1:
            return 0
        removed = 0
        for backend_key in self._backend.list_backend_keys():
            aged = self._backend.list_entries(backend_key)
            # Freshest entries survive; stamp ties keep every tied entry.
            for _, stale in sorted(aged)[: max(0, len(aged) - bound)]:
                if self._backend.delete_entry(backend_key, stale):
                    removed += 1
        return removed

    # ------------------------------------------------------------------- load
    def load(
        self, searcher: TableUnionSearcher, lake: DataLake
    ) -> TableUnionSearcher:
        """Restore ``searcher``'s index over ``lake`` from the store.

        Raises :class:`IndexStoreMiss` when no entry exists (or the entry was
        written for a different format/config/lake) and :class:`ServingError`
        when an entry exists but fails checksum validation.
        """
        backend_key = self._backend_key(searcher)
        entry_key = self._entry_key(lake)
        entry = self.entry_dir(searcher, lake)
        manifest = self._backend.read_manifest(backend_key, entry_key)
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

        state, arrays = self._backend.read_payloads(backend_key, entry_key, manifest)
        try:
            searcher.load_index_state(lake, state, arrays)
        except Exception as exc:
            # Checksums passed but the payloads are mutually inconsistent
            # (e.g. a layout change without an INDEX_FORMAT_VERSION bump).
            # Surface it as corruption so load_or_build rebuilds the entry.
            raise ServingError(
                f"persisted index entry {entry} failed to deserialize: {exc}"
            ) from exc
        self._backend.touch(backend_key, entry_key)
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
        backend_key = self._backend_key(searcher)
        best: tuple[int, str, dict, list[str], list[str]] | None = None
        for entry_key, manifest in self._backend.iter_manifests(backend_key):
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
                best = (changes, entry_key, manifest, added, removed)
        if best is None:
            return False
        changes, entry_key, manifest, added, removed = best
        if changes > self.max_delta_fraction * max(lake.num_tables, 1):
            return False
        try:
            state, arrays = self._backend.read_payloads(backend_key, entry_key, manifest)
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
