"""Vector distance functions.

The paper uses cosine distance throughout (Sec. 4 and Sec. 6.4.1) and reports
that Manhattan and Euclidean distances give the same relative ordering of the
baselines; all three are provided here behind a common interface so the
benchmark harness can sweep them.

Every self-mode kernel also has a condensed form
(:func:`condensed_distance_matrix`), the strict upper triangle in scipy's
``pdist`` order, which Algorithm 2 hands to ``linkage``.  The BLAS kernels
finish their one ``(n, m)`` product buffer in place, row block by row block,
so a square costs one ``n * m`` float64 buffer and a condensed vector is
packed into (and shrunk out of) that same buffer.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist, pdist

#: Signature shared by all pairwise distance functions on single vectors.
DistanceFunction = Callable[[np.ndarray, np.ndarray], float]

#: Rows finished per step of the in-place kernels: bounds each step's
#: temporaries to ``FINISH_BLOCK_ROWS * m`` values, independent of ``n``.
FINISH_BLOCK_ROWS = 64


def _as_2d(matrix: np.ndarray) -> np.ndarray:
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim == 1:
        array = array[None, :]
    if array.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got shape {array.shape}")
    return array


# --------------------------------------------------------------------- cosine
def cosine_distance(first: np.ndarray, second: np.ndarray) -> float:
    """Cosine distance ``1 - cos(first, second)`` in ``[0, 2]``.

    Zero vectors are treated as maximally distant (distance 1.0) so that
    fully-null tuples never look identical to real tuples.
    """
    first = np.asarray(first, dtype=np.float64).ravel()
    second = np.asarray(second, dtype=np.float64).ravel()
    norm_first = float(np.linalg.norm(first))
    norm_second = float(np.linalg.norm(second))
    if norm_first == 0.0 or norm_second == 0.0:
        return 1.0
    similarity = float(first @ second) / (norm_first * norm_second)
    similarity = max(-1.0, min(1.0, similarity))
    return 1.0 - similarity


def cosine_distance_matrix(first: np.ndarray, second: np.ndarray | None = None) -> np.ndarray:
    """Pairwise cosine distance matrix between the rows of two matrices.

    Normalises the rows and delegates to
    :func:`cosine_distance_matrix_from_unit`, which holds the single
    implementation of the clipping / zero-vector / diagonal semantics.
    """
    left_unit, left_zero = _unit_rows(_as_2d(first))
    if second is None:
        return cosine_distance_matrix_from_unit(left_unit, left_zero=left_zero)
    right_unit, right_zero = _unit_rows(_as_2d(second))
    return cosine_distance_matrix_from_unit(
        left_unit, right_unit, left_zero=left_zero, right_zero=right_zero
    )


def _unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit L2 norm (zero rows stay zero) and the zero-row mask."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    zero = norms == 0.0
    return matrix / np.where(zero, 1.0, norms), zero.ravel()


def cosine_distance_matrix_from_unit(
    left_unit: np.ndarray,
    right_unit: np.ndarray | None = None,
    *,
    left_zero: np.ndarray | None = None,
    right_zero: np.ndarray | None = None,
) -> np.ndarray:
    """Cosine distance matrix from rows that are already unit-normalised.

    ``left_zero`` / ``right_zero`` are boolean masks of originally-zero rows
    (which stay all-zero after normalisation).  Given the normalisation that
    :func:`cosine_distance_matrix` performs internally, this produces the
    identical matrix — callers that normalise once (such as
    :class:`~repro.vectorops.EmbeddingMatrix`) skip the per-call norm
    computation.
    """
    right = left_unit if right_unit is None else right_unit
    distances = left_unit @ right.T
    _finish_cosine(distances)
    if right_unit is None:
        right_zero = left_zero
    _mark_zero_vectors(distances, left_zero, right_zero)
    if right_unit is None:
        np.fill_diagonal(distances, 0.0)
    return distances


def cosine_condensed_from_unit(
    unit: np.ndarray, *, zero: np.ndarray | None = None
) -> np.ndarray:
    """Condensed form of :func:`cosine_distance_matrix_from_unit` (self mode).

    Bit-identical to ``squareform(cosine_distance_matrix_from_unit(unit,
    left_zero=zero), checks=False)``, built inside the one similarity buffer.
    """

    def finish(block: np.ndarray, start: int, stop: int) -> None:
        _finish_cosine(block)
        if zero is not None:
            _mark_zero_vectors(block, zero[start:stop], zero[start + 1 :])

    return _condense_in_place(unit @ unit.T, finish)


def _finish_cosine(similarity: np.ndarray) -> None:
    """``1 - clip(similarity, -1, 1)`` in place."""
    np.clip(similarity, -1.0, 1.0, out=similarity)
    np.subtract(1.0, similarity, out=similarity)


def _mark_zero_vectors(
    distances: np.ndarray, row_zero: np.ndarray | None, col_zero: np.ndarray | None
) -> None:
    """Zero vectors are maximally distant (1.0) from everything."""
    if row_zero is not None and row_zero.any():
        distances[row_zero, :] = 1.0
    if col_zero is not None and col_zero.any():
        distances[:, col_zero] = 1.0


# ------------------------------------------------------------------ euclidean
def euclidean_distance(first: np.ndarray, second: np.ndarray) -> float:
    """Euclidean (L2) distance."""
    first = np.asarray(first, dtype=np.float64).ravel()
    second = np.asarray(second, dtype=np.float64).ravel()
    return float(np.linalg.norm(first - second))


def euclidean_distance_matrix(first: np.ndarray, second: np.ndarray | None = None) -> np.ndarray:
    """Pairwise Euclidean distance matrix (BLAS Gram trick, in-place finish).

    The Gram matrix is the only ``(n, m)`` buffer: it is finished in place in
    blocks of :data:`FINISH_BLOCK_ROWS` rows, whose association order matches
    the naive ``left_sq + right_sq - 2 * gram`` expression bit for bit.
    """
    left = _as_2d(first)
    right = left if second is None else _as_2d(second)
    left_sq = np.sum(left**2, axis=1)
    right_sq = np.sum(right**2, axis=1)
    distances = left @ right.T
    for start in range(0, distances.shape[0], FINISH_BLOCK_ROWS):
        stop = start + FINISH_BLOCK_ROWS
        _finish_euclidean(distances[start:stop], left_sq[start:stop], right_sq)
    if second is None:
        np.fill_diagonal(distances, 0.0)
    return distances


def _euclidean_condensed(matrix: np.ndarray) -> np.ndarray:
    """Condensed form of :func:`euclidean_distance_matrix` (self mode)."""
    squares = np.sum(matrix**2, axis=1)

    def finish(block: np.ndarray, start: int, stop: int) -> None:
        _finish_euclidean(block, squares[start:stop], squares[start + 1 :])

    return _condense_in_place(matrix @ matrix.T, finish)


def _finish_euclidean(gram: np.ndarray, left_sq: np.ndarray, right_sq: np.ndarray) -> None:
    """``sqrt(max(left_sq + right_sq - 2 * gram, 0))`` in place on a Gram block."""
    gram *= 2.0
    np.subtract(left_sq[:, None] + right_sq[None, :], gram, out=gram)
    np.maximum(gram, 0.0, out=gram)
    np.sqrt(gram, out=gram)


# ------------------------------------------------------------------ manhattan
def manhattan_distance(first: np.ndarray, second: np.ndarray) -> float:
    """Manhattan (L1) distance."""
    first = np.asarray(first, dtype=np.float64).ravel()
    second = np.asarray(second, dtype=np.float64).ravel()
    return float(np.sum(np.abs(first - second)))


def manhattan_distance_matrix(first: np.ndarray, second: np.ndarray | None = None) -> np.ndarray:
    """Pairwise Manhattan distance matrix (cdist-backed, no Python loop)."""
    left = _as_2d(first)
    right = left if second is None else _as_2d(second)
    distances = cdist(left, right, "cityblock")
    if second is None:
        np.fill_diagonal(distances, 0.0)
    return distances


#: Named registry used by configuration objects and the benchmark harness.
DISTANCE_FUNCTIONS: dict[str, DistanceFunction] = {
    "cosine": cosine_distance,
    "euclidean": euclidean_distance,
    "manhattan": manhattan_distance,
}

#: Matrix-form counterparts of :data:`DISTANCE_FUNCTIONS`.
DISTANCE_MATRIX_FUNCTIONS = {
    "cosine": cosine_distance_matrix,
    "euclidean": euclidean_distance_matrix,
    "manhattan": manhattan_distance_matrix,
}


def _condense_in_place(
    product: np.ndarray, finish: Callable[[np.ndarray, int, int], None]
) -> np.ndarray:
    """Finish and pack the strict upper triangle of a fresh ``(n, n)`` product.

    Rows are taken in blocks of :data:`FINISH_BLOCK_ROWS`.  ``finish(block,
    start, stop)`` turns ``product[start:stop, start + 1:]`` into distances in
    place; the block's upper-triangle entries are then copied, in ``pdist``
    order, to the front of the same buffer.  Row ``i``'s segment lands at
    ``i * n - i * (i + 1) / 2 <= i * n``, so the writes stay behind every row
    still to be read.  The buffer is finally shrunk to ``n * (n - 1) / 2``
    values in place, so only one ``n * n`` buffer ever exists.
    """
    n = product.shape[0]
    if n < 2:
        return np.zeros(0, dtype=np.float64)
    flat = product.reshape(-1)
    written = 0
    for start in range(0, n - 1, FINISH_BLOCK_ROWS):
        stop = min(start + FINISH_BLOCK_ROWS, n - 1)
        block = product[start:stop, start + 1 :]
        finish(block, start, stop)
        upper = np.arange(start + 1, n)[None, :] > np.arange(start, stop)[:, None]
        values = block[upper]
        flat[written : written + values.size] = values
        written += values.size
    del flat, block, values  # no view may outlive the resize below
    product.resize(n * (n - 1) // 2, refcheck=False)
    return product


def condensed_distance_matrix(matrix: np.ndarray, metric: str = "cosine") -> np.ndarray:
    """Condensed pairwise distances among the rows of ``matrix``.

    Equal bit for bit to ``squareform(pairwise_distance_matrix(matrix,
    metric=metric), checks=False)`` -- scipy's ``pdist`` layout, the input
    ``linkage`` takes -- without ever holding two ``(n, n)`` buffers.
    """
    array = _as_2d(matrix)
    if array.shape[0] < 2:
        return np.zeros(0, dtype=np.float64)
    if metric == "cosine":
        unit, zero = _unit_rows(array)
        return cosine_condensed_from_unit(unit, zero=zero)
    if metric == "euclidean":
        return _euclidean_condensed(array)
    if metric == "manhattan":
        return pdist(array, "cityblock")
    raise ValueError(
        f"unknown metric {metric!r}; available: {sorted(DISTANCE_MATRIX_FUNCTIONS)}"
    )


def condensed_entries(
    condensed: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Entries ``D[rows, cols]`` of the square a condensed vector stands for.

    ``rows`` and ``cols`` broadcast against each other (pass ``rows[:, None]``
    and ``cols[None, :]`` for a block).  Equal indices read the zero diagonal.
    """
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * condensed.size)) / 2.0))
    rows, cols = np.broadcast_arrays(
        np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    )
    low, high = np.minimum(rows, cols), np.maximum(rows, cols)
    off = low != high
    out = np.zeros(rows.shape, dtype=np.float64)
    low, high = low[off], high[off]
    out[off] = condensed[n * low - low * (low + 1) // 2 + high - low - 1]
    return out


def pairwise_distance_matrix(
    first: np.ndarray,
    second: np.ndarray | None = None,
    *,
    metric: str = "cosine",
) -> np.ndarray:
    """Pairwise distance matrix for a named metric (cosine/euclidean/manhattan)."""
    try:
        matrix_function = DISTANCE_MATRIX_FUNCTIONS[metric]
    except KeyError as exc:
        raise ValueError(
            f"unknown metric {metric!r}; available: {sorted(DISTANCE_MATRIX_FUNCTIONS)}"
        ) from exc
    return matrix_function(first, second)
