"""K-nearest-neighbors classifier with exact brute-force search.

Three metrics share one convention: smaller is closer. Cosine similarity is
converted to a distance (1 - similarity) so neighbor selection reads the
same for every metric. Ties are fully deterministic: equal distances prefer
the lower stored-row index, vote ties prefer the class with smaller total
neighbor distance, then the smaller label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    KTooLargeError,
    LengthMismatchError,
    ShapeMismatchError,
    ZeroVectorError,
)
from .settings import check_knn_params

@dataclass(frozen=True)
class KnnModel:
    """Stored training data; fitting is storage, no learning computation."""

    x: np.ndarray
    y: np.ndarray
    k: int
    metric: str


def knn_fit(x: np.ndarray, y: Sequence[int], k: int = 5, metric: str = "euclidean") -> KnnModel:
    x = np.array(x, dtype=np.float64)  # private copy, caller mutations invisible
    y = np.array(y, dtype=np.int64)
    check_knn_params(k, metric)
    if x.ndim != 2 or y.ndim != 1:
        raise ShapeMismatchError(f"knn needs 2-D rows and 1-D labels, got {x.ndim}-D and {y.ndim}-D")
    if x.shape[0] != y.shape[0]:
        raise LengthMismatchError(x.shape[0], y.shape[0], "row and label counts")
    if k > x.shape[0]:
        raise KTooLargeError(k, x.shape[0])
    if np.isnan(x).any():
        raise ConfigError("stored matrix must not contain absent values")
    x.setflags(write=False)
    y.setflags(write=False)
    return KnnModel(x=x, y=y, k=k, metric=metric)


def _distance_block(queries: np.ndarray, stored: np.ndarray, metric: str) -> np.ndarray:
    """Manhattan or cosine distances, (queries, stored rows); euclidean
    distances come from ``_euclidean_neighbors``."""
    if metric == "manhattan":
        diff = np.subtract(queries[:, None, :], stored[None, :, :])
        return np.abs(diff, out=diff).sum(axis=-1)
    nq = np.sqrt((queries * queries).sum(axis=1))
    ns = np.sqrt((stored * stored).sum(axis=1))
    if (nq == 0.0).any() or (ns == 0.0).any():
        raise ZeroVectorError()
    # In place: one (queries, stored rows) array besides the outer product.
    d = queries @ stored.T
    np.divide(d, np.outer(nq, ns), out=d)
    return np.subtract(1.0, d, out=d)


# A block of queries is sized so that its largest temporary stays near this
# many bytes (at least one row): the (rows, n_stored, d) float64 difference
# tensor for manhattan, the (rows, n_stored) float64 screen for euclidean.
# Each distance is computed on its own, so the block size does not change
# any bit of it. Cosine's temporaries are 2-D, and its block keeps a fixed
# row count so the matrix product always takes the same BLAS path.
_BLOCK_BYTES = 1 << 20
_COSINE_BLOCK_ROWS = 256


def _block_rows(metric: str, n_stored: int, d: int) -> int:
    if metric == "cosine":
        return _COSINE_BLOCK_ROWS
    width = d if metric == "manhattan" else 1
    return max(1, _BLOCK_BYTES // (8 * max(1, n_stored * width)))


def _first_k(rows: np.ndarray, dists: np.ndarray, k: int) -> np.ndarray:
    """Positions of each row's first k entries by distance, equal distances
    in the given order, as a (rows, k) array.

    ``rows`` is sorted and names every row from 0 up at least k times.
    lexsort is stable, so entries of one row with equal distances keep
    their order; NaN distances sort last, as in argsort.
    """
    order = np.lexsort((dists, rows))
    counts = np.bincount(rows)
    starts = np.cumsum(counts) - counts
    return order[starts[:, None] + np.arange(k)]


def _neighbors(dists: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k smallest distances, ties to the lower index.

    The same indices, in the same order, as the first k of a stable argsort
    of the row: only entries not above the k-th smallest value can be among
    them, so only those are sorted. When the k-th value is NaN (a query
    with an absent value), no entry is above it, so the whole row is
    sorted, and NaNs sort last in index order as in argsort.
    """
    # A copy of the (rows, 1) slice, so the partitioned block is freed at once.
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k].copy()
    flat = np.flatnonzero(~(dists > kth))
    rows, cols = np.divmod(flat, dists.shape[1])
    return cols[_first_k(rows, dists.ravel()[flat], k)]


def _scanned_neighbors(queries: np.ndarray, stored: np.ndarray, metric: str, k: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Manhattan or cosine: ``_neighbors`` of the full distance block, and
    their distances. The block is freed on return, before the next one."""
    dists = _distance_block(queries, stored, metric)
    nbr = _neighbors(dists, k)
    return nbr, np.take_along_axis(dists, nbr, axis=1)


def _pair_distances(queries: np.ndarray, rows: np.ndarray, stored: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``queries[rows[i]]`` to ``stored[cols[i]]``.

    The arithmetic of a full (queries, stored, d) block, pair by pair:
    subtract, square, sum over the contiguous feature axis, square root;
    so each value has the bits that block would give it. Pairs are taken
    in chunks whose (pairs, d) temporaries stay near ``_BLOCK_BYTES``.
    """
    out = np.empty(rows.size)
    step = max(1, _BLOCK_BYTES // (8 * max(1, stored.shape[1])))
    for start in range(0, rows.size, step):
        part = slice(start, start + step)
        diff = np.subtract(queries[rows[part]], stored[cols[part]])
        np.multiply(diff, diff, out=diff)
        np.sqrt(diff.sum(axis=-1), out=out[part])
    return out


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the float64 unit roundoff."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


def _euclidean_neighbors(
    queries: np.ndarray, stored: np.ndarray, stored_sq: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per query row, the indices and distances of the k nearest stored rows:
    what ``_neighbors`` gives on the full exact block, without building it.

    Screen: one matrix product gives S = |q|^2 + |s|^2 - 2 q.s for every
    stored row (``stored_sq`` holds the |s|^2). Let A = |q|^2 + max |s|^2,
    u = 2^-53 and g = gamma_(d+2). A dot product of d terms, summed in any
    order, is within gamma_d of exact relative to the sum of its terms'
    magnitudes (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1); so S is within 4 g A of the true squared distance, and the exact
    path's sum of squares T within 2 g A. A square root can round two
    different T to one distance, but not when one T exceeds the other by
    the factor 1 + 5u, a margin of at most 15 u A < 8 g A. So a row whose S
    exceeds another's by more than 20 g A is strictly farther. ``slack`` is
    16 g A, and the 12 g A the doubled slack has to spare covers the
    roundings of ``reach``, ``slack`` and ``bound``; d 2^-1070 covers
    products that underflow. A stored row with S above the k-th smallest S
    plus twice ``slack`` is thus strictly farther than each of the k rows
    with the smallest S, and cannot be a neighbour, whatever its index.

    Re-rank: every other row (the candidates) gets its exact distance from
    ``_pair_distances``, and the candidates, in stored order, are ranked as
    ``_neighbors`` ranks a full row. A row whose 4 A is not finite (a NaN
    or an infinite query, or magnitudes near the float64 range) keeps every
    stored row as a candidate: the full exact computation.
    """
    d = stored.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # such rows keep every candidate
        q_sq = (queries * queries).sum(axis=1)
        screen = queries @ stored.T
        screen *= -2.0
        screen += q_sq[:, None]
        screen += stored_sq
        reach = q_sq + stored_sq.max()
        slack = 16.0 * _gamma(d + 2) * reach + d * 2.0**-1070
        bound = np.partition(screen, k - 1, axis=1)[:, k - 1] + 2.0 * slack
        keep = screen <= bound[:, None]
        keep[~np.isfinite(4.0 * reach)] = True
    rows, cols = np.divmod(np.flatnonzero(keep), stored.shape[0])  # 2-D nonzero is ~10x slower
    dists = _pair_distances(queries, rows, stored, cols)
    pick = _first_k(rows, dists, k)
    return cols[pick], dists[pick]


def _break_tie(labs: np.ndarray, nd: np.ndarray) -> int:
    """The label among those sharing the top count with the smaller total
    neighbour distance, then the smaller label. A NaN total (a query with
    an absent value) counts as +inf, so the label rule still decides."""
    counts: dict[int, int] = {}
    for lab in labs:
        counts[int(lab)] = counts.get(int(lab), 0) + 1
    top = max(counts.values())
    tied = [lab for lab, c in counts.items() if c == top]
    totals = {lab: float(nd[labs == lab].sum()) for lab in tied}
    return min(tied, key=lambda lab: (math.inf if math.isnan(totals[lab]) else totals[lab], lab))


def knn_predict(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Majority label of the k nearest stored rows for each query."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    if q.shape[1] != model.x.shape[1]:
        raise DimensionMismatchError(model.x.shape[1], q.shape[1])
    classes, codes = np.unique(model.y, return_inverse=True)
    out = np.empty(q.shape[0], dtype=np.int64)
    step = _block_rows(model.metric, *model.x.shape)
    if model.metric == "euclidean":
        with np.errstate(over="ignore"):  # an infinite norm only widens the screen
            stored_sq = (model.x * model.x).sum(axis=1)
    for start in range(0, q.shape[0], step):
        block = q[start : start + step]
        if model.metric == "euclidean":
            nbr, nd = _euclidean_neighbors(block, model.x, stored_sq, model.k)
        else:
            nbr, nd = _scanned_neighbors(block, model.x, model.metric, model.k)
        rows = nbr.shape[0]
        # votes[r, c]: how many of row r's neighbours carry label classes[c]
        cells = codes[nbr] + classes.size * np.arange(rows)[:, None]
        votes = np.bincount(cells.ravel(), minlength=rows * classes.size).reshape(rows, -1)
        leading = votes == votes.max(axis=1, keepdims=True)
        out[start : start + rows] = classes[leading.argmax(axis=1)]
        for r in np.flatnonzero(leading.sum(axis=1) > 1):
            out[start + r] = _break_tie(model.y[nbr[r]], nd[r])
    return out
