"""MinHash signatures and LSH banding.

Value-overlap between columns is the classic unionability signal (Nargesian
et al. [37], Zhu et al. [58]).  Computing exact Jaccard overlap between every
column pair is quadratic in the number of columns of the lake, so — like the
original systems — the overlap searcher estimates Jaccard similarity with
MinHash signatures and prunes candidate pairs with an LSH banding index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.utils.errors import SearchError
from repro.utils.rng import stable_hash

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1

#: Seed of the default MinHash hash family.  Everything that must agree on
#: the family to share signatures — :class:`MinHasher`, :class:`MinHashLSHIndex`,
#: the cascade's LSH prefilter and the overlap searcher's signature hand-over —
#: reads this one name.
DEFAULT_MINHASH_SEED = 7


def _hash_token(token: str) -> int:
    """Stable 32-bit hash of a token."""
    return stable_hash(token) & _MAX_HASH


@dataclass(frozen=True)
class MinHashSignature:
    """A MinHash signature of a set of string tokens."""

    values: tuple[int, ...]

    def jaccard(self, other: "MinHashSignature") -> float:
        """Estimate Jaccard similarity from two signatures of equal length."""
        if len(self.values) != len(other.values):
            raise SearchError(
                f"cannot compare signatures of lengths {len(self.values)} and "
                f"{len(other.values)}"
            )
        if not self.values:
            return 0.0
        matches = sum(1 for a, b in zip(self.values, other.values) if a == b)
        return matches / len(self.values)


class MinHasher:
    """Generates MinHash signatures with a fixed family of hash functions."""

    def __init__(self, num_hashes: int = 64, *, seed: int = DEFAULT_MINHASH_SEED) -> None:
        if num_hashes <= 0:
            raise SearchError(f"num_hashes must be positive, got {num_hashes}")
        rng = np.random.default_rng(seed)
        self.num_hashes = num_hashes
        self._a = rng.integers(1, _MERSENNE_PRIME, size=num_hashes, dtype=np.int64)
        self._b = rng.integers(0, _MERSENNE_PRIME, size=num_hashes, dtype=np.int64)

    def signature(self, tokens: Iterable[str]) -> MinHashSignature:
        """Compute the signature of a token set (empty sets get all-max values)."""
        hashes = {_hash_token(token) for token in tokens}
        if not hashes:
            return MinHashSignature(values=tuple([_MAX_HASH] * self.num_hashes))
        token_array = np.fromiter(hashes, dtype=np.int64, count=len(hashes))
        # (num_hashes, num_tokens) permuted values, take min per hash function.
        permuted = (
            self._a[:, None] * token_array[None, :] + self._b[:, None]
        ) % _MERSENNE_PRIME % _MAX_HASH
        return MinHashSignature(values=tuple(int(v) for v in permuted.min(axis=1)))


class MinHashLSHIndex:
    """LSH banding index over MinHash signatures.

    Signatures are split into ``num_bands`` bands; two signatures are candidate
    matches when any band hashes identically.  ``query`` returns candidate keys
    only — the caller re-scores them with exact or estimated Jaccard.
    """

    def __init__(
        self, num_hashes: int = 64, num_bands: int = 16, *, seed: int = DEFAULT_MINHASH_SEED
    ) -> None:
        if num_hashes % num_bands != 0:
            raise SearchError(
                f"num_hashes ({num_hashes}) must be divisible by num_bands ({num_bands})"
            )
        self.hasher = MinHasher(num_hashes, seed=seed)
        self.num_bands = num_bands
        self.rows_per_band = num_hashes // num_bands
        self._buckets: list[dict[tuple[int, ...], set[str]]] = [
            {} for _ in range(num_bands)
        ]
        self._signatures: dict[str, MinHashSignature] = {}

    # ---------------------------------------------------------------- insert
    def _bands(self, signature: MinHashSignature) -> list[tuple[int, ...]]:
        values = signature.values
        return [
            tuple(values[band * self.rows_per_band : (band + 1) * self.rows_per_band])
            for band in range(self.num_bands)
        ]

    def add(self, key: str, tokens: Iterable[str]) -> MinHashSignature:
        """Add a keyed token set to the index and return its signature."""
        return self.add_signature(key, self.hasher.signature(tokens))

    def add_signature(self, key: str, signature: MinHashSignature) -> MinHashSignature:
        """Add a precomputed signature (used when restoring a persisted index)."""
        if key in self._signatures:
            raise SearchError(f"key {key!r} already present in the LSH index")
        if len(signature.values) != self.hasher.num_hashes:
            raise SearchError(
                f"signature length {len(signature.values)} does not match the "
                f"index's {self.hasher.num_hashes} hash functions"
            )
        self._signatures[key] = signature
        for band, band_values in enumerate(self._bands(signature)):
            self._buckets[band].setdefault(band_values, set()).add(key)
        return signature

    def remove(self, key: str) -> MinHashSignature:
        """Remove ``key`` from the index and return its signature.

        Empty band buckets are deleted so a long add/remove churn does not
        leak bucket entries.  Raises :class:`SearchError` for unknown keys.
        """
        try:
            signature = self._signatures.pop(key)
        except KeyError as exc:
            raise SearchError(f"key {key!r} not present in the LSH index") from exc
        for band, band_values in enumerate(self._bands(signature)):
            bucket = self._buckets[band].get(band_values)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._buckets[band][band_values]
        return signature

    def keys(self) -> list[str]:
        """Indexed keys in insertion order."""
        return list(self._signatures)

    def __contains__(self, key: str) -> bool:
        return key in self._signatures

    def __len__(self) -> int:
        return len(self._signatures)

    def signature_of(self, key: str) -> MinHashSignature:
        """Return the stored signature for ``key``."""
        try:
            return self._signatures[key]
        except KeyError as exc:
            raise SearchError(f"key {key!r} not present in the LSH index") from exc

    # ----------------------------------------------------------------- query
    def query(self, tokens: Iterable[str]) -> set[str]:
        """Return candidate keys sharing at least one LSH band with ``tokens``."""
        signature = self.hasher.signature(tokens)
        return self.query_signature(signature)

    def query_signature(self, signature: MinHashSignature) -> set[str]:
        """Candidate keys for a precomputed signature."""
        candidates: set[str] = set()
        for band, band_values in enumerate(self._bands(signature)):
            candidates |= self._buckets[band].get(band_values, set())
        return candidates

    def estimated_similarities(
        self, tokens: Iterable[str], candidates: Sequence[str] | None = None
    ) -> dict[str, float]:
        """Estimated Jaccard similarity of ``tokens`` to candidate keys."""
        signature = self.hasher.signature(tokens)
        keys = candidates if candidates is not None else self.query_signature(signature)
        return {key: signature.jaccard(self.signature_of(key)) for key in keys}
