"""The :class:`StoreBackend` protocol behind :class:`~repro.serving.store.IndexStore`.

The store's public semantics — content-keyed entries, checksummed payloads,
manifest-written-last atomicity, miss-vs-corruption error taxonomy, delta
anchoring and cold eviction — are backend-independent.  A backend only
answers the physical questions: where does an entry live, how are its three
payloads (``state.json`` text, ``arrays.npz`` bytes, ``manifest.json``)
persisted atomically, and how are they streamed back.

Backends register under a short name through the same decorator registry as
every other pluggable component family::

    @register_store_backend("directory")
    class DirectoryStoreBackend(StoreBackend): ...

and are selected by the fingerprint-neutral ``store`` config section
(``{"store": {"backend": "sqlite"}}``) or ``--store-backend`` on the CLI.

Addressing is a pair of opaque keys chosen by the store:

* ``backend_key`` — ``<SearcherClass>-<config_fp12>``, one namespace per
  (class, config, index-format) triple;
* ``entry_key`` — ``<lake_fp16>``, one entry per lake content fingerprint.

This module also hosts :class:`MappedArrayPayload`, the lazy memory-mapped
view over an uncompressed ``.npz`` payload that both backends hand to
``load_index_state`` instead of an eagerly ``np.load``-ed dict: members are
located once by parsing the zip directory, then materialized as
``np.memmap`` views only when first accessed, so restoring an index touches
the bytes it actually decodes.
"""

from __future__ import annotations

import abc
import hashlib
import io
import zipfile
from collections.abc import Mapping
from typing import Iterator

import numpy as np

#: Payload names shared by every backend; manifests checksum exactly these.
STATE_PAYLOAD = "state.json"
ARRAYS_PAYLOAD = "arrays.npz"

#: Size of one zip *local* file header (the central directory's extra field
#: can differ from the local one, so member data offsets must be derived from
#: the local header, never from the central record alone).
_ZIP_LOCAL_HEADER_SIZE = 30


def checksum_bytes(data: bytes) -> str:
    """sha256 hex digest of an in-memory payload."""
    return hashlib.sha256(data).hexdigest()


def serialize_arrays(arrays: Mapping[str, np.ndarray]) -> bytes:
    """The canonical ``arrays.npz`` byte serialization shared by all backends.

    Uncompressed (``np.savez``), so directory entries stay memory-mappable
    and every backend produces byte-identical payloads — and therefore
    identical manifest checksums — for the same index state.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


class MappedArrayPayload(Mapping):
    """A lazy, memory-mapped ``Mapping[str, np.ndarray]`` over one npz file.

    Construction parses the zip member table and each member's npy header —
    a few hundred bytes per array — but maps no payload data.  Accessing a
    key returns a read-only ``np.memmap`` view built from the member's data
    offset inside the (uncompressed) archive; the OS pages array bytes in on
    first touch.  Members that cannot be mapped — compressed, object-dtyped,
    zero-sized or an unknown npy format version — fall back to an eager
    in-memory decode, so the view is always complete, just not always lazy.

    The file handle passed at construction stays open for the lifetime of
    the payload: on POSIX a concurrently evicted entry keeps its inode alive
    through the open handle, so views handed to a searcher never go dark
    mid-decode.
    """

    def __init__(self, path) -> None:
        self._handle = open(path, "rb")
        try:
            self._members: dict[str, tuple[int, np.dtype, tuple, bool] | None] = {}
            self._cache: dict[str, np.ndarray] = {}
            with zipfile.ZipFile(self._handle) as archive:
                for info in archive.infolist():
                    name = info.filename
                    key = name[:-4] if name.endswith(".npy") else name
                    self._members[key] = self._locate(info)
        except BaseException:
            self._handle.close()
            raise

    def _locate(self, info: zipfile.ZipInfo) -> tuple[int, np.dtype, tuple, bool] | None:
        """Resolve one member to ``(data_offset, dtype, shape, fortran)``.

        Returns ``None`` when the member cannot be memory-mapped; the
        accessor then decodes it eagerly through :mod:`zipfile`.
        """
        if info.compress_type != zipfile.ZIP_STORED:
            return None
        handle = self._handle
        handle.seek(info.header_offset)
        local = handle.read(_ZIP_LOCAL_HEADER_SIZE)
        if len(local) != _ZIP_LOCAL_HEADER_SIZE or local[:4] != b"PK\x03\x04":
            raise ValueError(
                f"malformed zip local header for npz member {info.filename!r}"
            )
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(info.header_offset + _ZIP_LOCAL_HEADER_SIZE + name_len + extra_len)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            return None
        if dtype.hasobject or not shape or int(np.prod(shape, dtype=np.int64)) == 0:
            return None  # pickled, scalar or empty members cannot be mapped
        return handle.tell(), dtype, shape, fortran

    def _decode_eager(self, key: str) -> np.ndarray:
        with zipfile.ZipFile(self._handle) as archive:
            with archive.open(f"{key}.npy") as member:
                return np.lib.format.read_array(member, allow_pickle=False)

    def __getitem__(self, key: str) -> np.ndarray:
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        spec = self._members[key]
        if spec is None:
            array = self._decode_eager(key)
        else:
            offset, dtype, shape, fortran = spec
            array = np.memmap(
                self._handle,
                dtype=dtype,
                mode="r",
                offset=offset,
                shape=shape,
                order="F" if fortran else "C",
            )
        self._cache[key] = array
        return array

    def __iter__(self) -> Iterator[str]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    @property
    def mapped_keys(self) -> list[str]:
        """Members served as ``np.memmap`` views (the rest decode eagerly)."""
        return [key for key, spec in self._members.items() if spec is not None]


class StoreBackend(abc.ABC):
    """Physical persistence for :class:`~repro.serving.store.IndexStore` entries.

    Every method takes the store's opaque ``(backend_key, entry_key)``
    address.  Read-side methods must never create storage; corruption is
    reported as :class:`~repro.utils.errors.ServingError` (the store's
    ``load_or_build`` then heals with a rebuild), absence as ``None`` /
    ``False`` / empty (the store raises :class:`IndexStoreMiss`).
    """

    #: Registry name; subclasses override.
    name = "abstract"

    @abc.abstractmethod
    def write_entry(
        self,
        backend_key: str,
        entry_key: str,
        *,
        state: dict,
        arrays: Mapping[str, np.ndarray],
        manifest: dict,
    ) -> None:
        """Persist one entry atomically.

        The backend serializes ``state``/``arrays``, completes
        ``manifest["checksums"]`` over the serialized payloads, and commits
        so that a crash mid-write never leaves a readable manifest pointing
        at missing or stale payloads.  Overwrites any existing entry.
        """

    @abc.abstractmethod
    def read_manifest(self, backend_key: str, entry_key: str) -> dict | None:
        """The entry's manifest, ``None`` when absent, ServingError when unreadable."""

    @abc.abstractmethod
    def read_payloads(
        self, backend_key: str, entry_key: str, manifest: dict
    ) -> tuple[dict, Mapping]:
        """Checksum-validate and return ``(state, arrays)`` for one entry.

        ``arrays`` is a lazy mapping where the backend supports it.  Raises
        ServingError on checksum mismatch or an entry vanishing mid-read.
        """

    @abc.abstractmethod
    def has_entry(self, backend_key: str, entry_key: str) -> bool:
        """Whether a committed entry exists (no payload validation)."""

    @abc.abstractmethod
    def iter_manifests(self, backend_key: str) -> Iterator[tuple[str, dict]]:
        """Yield ``(entry_key, manifest)`` per readable entry; skip corrupt ones."""

    @abc.abstractmethod
    def list_entries(self, backend_key: str) -> list[tuple[float, str]]:
        """``(last_access_stamp, entry_key)`` per entry, for eviction ordering.

        The stamp is the manifest-recorded ``last_access`` where available,
        falling back to the backend's physical timestamp for entries written
        before the field existed.
        """

    @abc.abstractmethod
    def list_backend_keys(self) -> list[str]:
        """Every backend namespace currently holding at least one entry."""

    @abc.abstractmethod
    def delete_entry(self, backend_key: str, entry_key: str) -> bool:
        """Best-effort removal; ``True`` when a committed entry was removed."""

    @abc.abstractmethod
    def touch(self, backend_key: str, entry_key: str) -> None:
        """Best-effort bump of the entry's recorded last-access stamp."""

    @abc.abstractmethod
    def stats(self) -> dict:
        """Occupancy summary: entry/backend counts, payload bytes, location."""
