"""Lake mutation deltas.

:class:`~repro.datalake.lake.DataLake` versions every mutation made through
``add_table``/``remove_table``/``replace_table``/``touch`` and can summarise
the net change between any two versions as a :class:`LakeDelta` — the cheap,
journal-backed answer to "what changed since version v?" for callers that
track versions (monitoring, change feeds, invalidation decisions).

The index-maintenance paths themselves — ``searcher.refresh()``, the
delta-aware :class:`~repro.serving.store.IndexStore` and the ``Discovery``
facade's re-sync — deliberately do *not* read the journal: they
diff per-table content fingerprints (:func:`diff_table_fingerprints`), which
works across processes against persisted snapshots and also catches in-place
``Table.append_rows`` mutations the journal cannot see, then feed the
resulting added/removed lists to
:meth:`~repro.search.base.TableUnionSearcher.update_index`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class LakeDelta:
    """The net difference between two versions of one data lake.

    A table that was replaced (or mutated in place and ``touch``-ed) appears
    in **both** ``added`` and ``removed``: index maintenance treats a replace
    as "drop the old entry, index the new one".  A table that was added and
    then removed between the two versions appears in neither.
    """

    #: Version the delta is relative to (the "before" state).
    base_version: int
    #: Version the delta leads to (the "after" state).
    version: int
    #: Names of tables present now that were absent (or different) at base.
    added: tuple[str, ...] = ()
    #: Names of tables present at base that are absent (or different) now.
    removed: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        """Whether the two versions hold identical table sets."""
        return not self.added and not self.removed

    @property
    def num_changes(self) -> int:
        """Number of index entries the delta touches (replace counts twice)."""
        return len(self.added) + len(self.removed)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"LakeDelta(v{self.base_version}->v{self.version}, "
            f"added={len(self.added)}, removed={len(self.removed)})"
        )


def diff_table_fingerprints(
    base: dict[str, str], current: dict[str, str]
) -> tuple[list[str], list[str]]:
    """Net ``(added, removed)`` table names between two fingerprint maps.

    ``base`` and ``current`` map table name to content fingerprint (see
    :meth:`~repro.datalake.lake.DataLake.table_fingerprints`).  A name whose
    fingerprint differs between the maps is reported in both lists (a
    replace).  This is the journal-free way to compute a delta — it works
    against a persisted snapshot from another process, and it also catches
    in-place ``Table.append_rows`` mutations that no journal entry records.
    """
    added = [name for name, fingerprint in current.items() if base.get(name) != fingerprint]
    removed = [name for name, fingerprint in base.items() if current.get(name) != fingerprint]
    return added, removed


def fingerprint_digest(fingerprints: Iterable[str]) -> str:
    """One digest over per-table content fingerprints, in order.

    :meth:`~repro.datalake.lake.DataLake.fingerprint` is this over the live
    tables; a searcher's indexed-lake digest is this over its snapshot.
    """
    hasher = hashlib.sha256()
    for fingerprint in fingerprints:
        hasher.update(fingerprint.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()
