"""Lazy, memory-mapped reads of one uncompressed ``.npz`` payload.

:class:`MappedArrayPayload` is what :class:`~repro.serving.store.IndexStore`
hands to ``load_index_state`` instead of an eagerly ``np.load``-ed dict:
members are located once by parsing the zip directory, then materialized as
``np.memmap`` views only when first accessed, so restoring an index touches
the bytes it actually decodes.
"""

from __future__ import annotations

import zipfile
from collections.abc import Mapping
from typing import Iterator

import numpy as np

#: Size of one zip *local* file header (the central directory's extra field
#: can differ from the local one, so member data offsets must be derived from
#: the local header, never from the central record alone).
_ZIP_LOCAL_HEADER_SIZE = 30


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
