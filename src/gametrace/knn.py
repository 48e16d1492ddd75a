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

METRICS = ("euclidean", "manhattan", "cosine")


@dataclass(frozen=True)
class KnnModel:
    """Stored training data; fitting is storage, no learning computation."""

    x: np.ndarray
    y: np.ndarray
    k: int
    metric: str


def check_knn_params(k: int, metric: str) -> None:
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    if k < 1:
        raise ConfigError("k must be >= 1")


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
    if metric == "euclidean":
        diff = queries[:, None, :] - stored[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    if metric == "manhattan":
        diff = queries[:, None, :] - stored[None, :, :]
        return np.abs(diff).sum(axis=-1)
    nq = np.sqrt((queries * queries).sum(axis=1))
    ns = np.sqrt((stored * stored).sum(axis=1))
    if (nq == 0.0).any() or (ns == 0.0).any():
        raise ZeroVectorError()
    return 1.0 - (queries @ stored.T) / np.outer(nq, ns)


# Euclidean and manhattan blocks hold a (rows, n_stored, d) float64
# difference tensor; rows are sized so it stays near this many bytes (at
# least one row). Each distance is a reduction over its own row of that
# tensor, so the block size does not change any bit of it. Cosine's
# temporaries are 2-D, and its block keeps a fixed row count so the matrix
# product always takes the same BLAS path.
_BLOCK_BYTES = 4 << 20
_COSINE_BLOCK_ROWS = 256


def _block_rows(metric: str, n_stored: int, d: int) -> int:
    if metric == "cosine":
        return _COSINE_BLOCK_ROWS
    return max(1, _BLOCK_BYTES // (8 * max(1, n_stored * d)))


def _neighbors(dists: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k smallest distances, ties to the lower index.

    The same indices, in the same order, as the first k of a stable argsort
    of the row: only entries not above the k-th smallest value can be among
    them, so only those are sorted (by row, then distance; lexsort is stable,
    so equal distances stay in index order). When the k-th value is NaN
    (a query with an absent value), no entry is above it, so the whole row
    is sorted, and NaNs sort last in index order as in argsort.
    """
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(~(dists > kth))
    order = np.lexsort((dists[rows, cols], rows))
    counts = np.bincount(rows, minlength=dists.shape[0])
    starts = np.cumsum(counts) - counts
    return cols[order][starts[:, None] + np.arange(k)]


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
    for start in range(0, q.shape[0], step):
        dists = _distance_block(q[start : start + step], model.x, model.metric)
        nbr = _neighbors(dists, model.k)
        rows = nbr.shape[0]
        # votes[r, c]: how many of row r's neighbours carry label classes[c]
        cells = codes[nbr] + classes.size * np.arange(rows)[:, None]
        votes = np.bincount(cells.ravel(), minlength=rows * classes.size).reshape(rows, -1)
        leading = votes == votes.max(axis=1, keepdims=True)
        out[start : start + rows] = classes[leading.argmax(axis=1)]
        for r in np.flatnonzero(leading.sum(axis=1) > 1):
            out[start + r] = _break_tie(model.y[nbr[r]], dists[r, nbr[r]])
    return out
