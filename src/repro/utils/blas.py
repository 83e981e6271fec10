"""One OpenBLAS thread per search while two searches are in flight.

Every OpenBLAS library keeps one process-wide worker team, sized at load time
from ``OPENBLAS_NUM_THREADS`` or the core count.  A search alone gains from
that team, but two concurrent searches fight over it: on a 2-vCPU host two
threads of ``encode_many`` (75 short texts each, row-block forward pass) took
0.98-1.26x their sequential time at the default thread count (median 1.12
over six rounds) and 0.45-0.72x at one thread (median 0.57).  :class:`BlasCap`
therefore follows the number of searches actually in flight: while two or
more hold it, every found library runs one thread; at one holder or none the
startup count comes back.

The setters run only on the 1 -> 2 and 2 -> 1 transitions, under the cap's
lock, and never ask for more threads than the library started with, so
OpenBLAS creates no worker at run time and a user's ``OPENBLAS_NUM_THREADS``
stays the ceiling.  Libraries are found once, by scanning ``/proc/self/maps``
for loaded OpenBLAS builds; where none is found (MKL, macOS) the cap is a
no-op.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

#: ``(setter, getter)`` of one library's thread count.
Control = tuple[Callable[[int], Any], Callable[[], int]]

#: Symbol pairs probed in each loaded library: numpy's ILP64 build suffixes
#: its names with ``64_``, scipy's build does not.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def find_openblas(maps_path: str = "/proc/self/maps") -> list[Control]:
    """Thread-count controls of every OpenBLAS library loaded in this process."""
    try:
        with open(maps_path, encoding="utf-8", errors="replace") as maps:
            paths = {
                parts[5].strip()
                for parts in (line.split(maxsplit=5) for line in maps)
                if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()
            }
    except OSError:
        return []
    controls: list[Control] = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                setter, getter = library[set_name], library[get_name]
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


class BlasCap:
    """Counted holders; one BLAS thread per library while two or more hold it."""

    def __init__(self, controls: Sequence[Control]) -> None:
        self._getters = [getter for _, getter in controls]
        self._defaults = [getter() for getter in self._getters]
        # A library that started at one thread has nothing to give back.
        self._cappable = [
            (setter, default)
            for (setter, _), default in zip(controls, self._defaults)
            if default > 1
        ]
        self._lock = threading.Lock()
        self._holders = 0
        self._capped_entries = 0

    @property
    def available(self) -> bool:
        return bool(self._getters)

    @contextmanager
    def held(self) -> Iterator[None]:
        """Hold one slot for the duration of a search."""
        with self._lock:
            self._holders += 1
            if self._holders == 2 and self._cappable:
                for setter, _ in self._cappable:
                    setter(1)
                self._capped_entries += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 1:
                    for setter, default in self._cappable:
                        setter(default)

    def stats(self) -> dict[str, Any]:
        """The ``blas`` block of ``/v1/metrics``."""
        with self._lock:
            return {
                "available": self.available,
                "default_threads": max(self._defaults, default=None),
                "threads": max((getter() for getter in self._getters), default=None),
                "holders": self._holders,
                "capped_entries": self._capped_entries,
            }


_PROCESS_CAP: BlasCap | None = None
_PROCESS_CAP_LOCK = threading.Lock()


def process_cap() -> BlasCap:
    """The process-wide cap, built on first use: BLAS teams are per process,
    so every server in the process must count against the same holders."""
    global _PROCESS_CAP
    with _PROCESS_CAP_LOCK:
        if _PROCESS_CAP is None:
            _PROCESS_CAP = BlasCap(find_openblas())
        return _PROCESS_CAP
