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
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(x.shape[0], y.shape[0])
    if k > x.shape[0]:
        raise KTooLargeError(k, x.shape[0])
    if np.isnan(x).any():
        raise ConfigError("stored matrix must not contain absent values")
    x.setflags(write=False)
    y.setflags(write=False)
    return KnnModel(x=x, y=y, k=k, metric=metric)


def distance(a: Sequence[float], b: Sequence[float], metric: str) -> float:
    """Distance between two vectors under the given metric."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise DimensionMismatchError(av.shape[-1], bv.shape[-1])
    if metric == "euclidean":
        d = av - bv
        return math.sqrt(float((d * d).sum()))
    if metric == "manhattan":
        return float(np.abs(av - bv).sum())
    if metric == "cosine":
        na = math.sqrt(float((av * av).sum()))
        nb = math.sqrt(float((bv * bv).sum()))
        if na == 0.0 or nb == 0.0:
            raise ZeroVectorError()
        return 1.0 - float((av * bv).sum()) / (na * nb)
    raise ConfigError(f"unknown metric {metric!r}")


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


def knn_predict(model: KnnModel, queries: np.ndarray, block_size: int = 256) -> np.ndarray:
    """Majority label of the k nearest stored rows for each query."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    if q.shape[1] != model.x.shape[1]:
        raise DimensionMismatchError(model.x.shape[1], q.shape[1])
    k = model.k
    y = model.y
    out = np.empty(q.shape[0], dtype=np.int64)
    for start in range(0, q.shape[0], block_size):
        dists = _distance_block(q[start : start + block_size], model.x, model.metric)
        for r in range(dists.shape[0]):
            row = dists[r]
            nbr = np.argsort(row, kind="stable")[:k]  # stable: distance ties -> lower index
            labs = y[nbr]
            nd = row[nbr]
            counts: dict[int, int] = {}
            for lab in labs:
                counts[int(lab)] = counts.get(int(lab), 0) + 1
            top = max(counts.values())
            tied = [lab for lab, c in counts.items() if c == top]
            if len(tied) == 1:
                out[start + r] = tied[0]
            else:
                totals = {lab: float(nd[labs == lab].sum()) for lab in tied}
                best = min(totals.values())
                out[start + r] = min(lab for lab, t in totals.items() if t == best)
    return out
