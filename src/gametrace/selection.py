"""Filter-style feature scoring and selection.

Features are ranked by absolute Pearson correlation with the label (ties
broken by mutual information, then name) and kept greedily while skipping
anything too correlated with an already-kept feature. Constant columns have
undefined correlation; they are marked NaN and rank as zero relevance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from .errors import DataError, LengthMismatchError, PolicyUnsatisfiableError
from .settings import SelectionPolicy, check_mi_params

def pearson(xcol: np.ndarray, ycol: np.ndarray) -> float:
    """Sample Pearson correlation; NaN when either column is constant."""
    x = np.asarray(xcol, dtype=np.float64)
    y = np.asarray(ycol, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatchError(x.shape[0] if x.ndim == 1 else -1, y.shape[0] if y.ndim == 1 else -1)
    if x.shape[0] < 2:
        raise DataError("pearson requires at least 2 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    den = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if den == 0.0:
        return float("nan")
    r = float((xc * yc).sum()) / den
    return min(1.0, max(-1.0, r))


def mutual_information(
    feature: np.ndarray,
    label: np.ndarray,
    bins: int = 10,
    categorical: bool = False,
) -> float:
    """Plug-in mutual information from the joint histogram, in nats.

    Continuous features are discretized by equal-width binning over the
    observed range; integer-coded categorical features use their codes
    directly. Result is >= 0 up to floating error.
    """
    f = np.asarray(feature, dtype=np.float64)
    y = np.asarray(label)
    if f.shape != y.shape or f.ndim != 1:
        raise LengthMismatchError(f.shape[0] if f.ndim == 1 else -1, y.shape[0] if y.ndim == 1 else -1)
    n = f.shape[0]
    if n == 0:
        raise DataError("mutual information requires at least 1 observation")
    check_mi_params(bins)

    if categorical:
        _, fx = np.unique(f, return_inverse=True)
        nx = int(fx.max()) + 1
    else:
        lo, hi = float(f.min()), float(f.max())
        if hi == lo:
            fx = np.zeros(n, dtype=np.int64)
            nx = 1
        else:
            fx = np.clip(((f - lo) / (hi - lo) * bins).astype(np.int64), 0, bins - 1)
            nx = bins
    _, yx = np.unique(y, return_inverse=True)
    ny = int(yx.max()) + 1

    joint = np.zeros((nx, ny), dtype=np.float64)
    np.add.at(joint, (fx, yx), 1.0)
    p = joint / n
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mask = p > 0.0
    ratio = p[mask] / np.outer(px, py)[mask]
    return float((p[mask] * np.log(ratio)).sum())


@dataclass
class FeatureScore:
    name: str
    pearson_vs_label: float  # NaN = undefined (constant column)
    mi: float
    kept: bool
    reason: str


@dataclass
class SelectionReport:
    scores: list[FeatureScore]
    policy: SelectionPolicy

    @property
    def selected(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.scores if s.kept)


def _is_dropped(name: str, drops: Sequence[str]) -> bool:
    return any(name == d or name.startswith(d + "_") for d in drops)


def select(
    x: np.ndarray,
    names: Sequence[str],
    label: np.ndarray,
    policy: SelectionPolicy,
    categorical_names: Sequence[str] = (),
) -> SelectionReport:
    """Rank, de-correlate, and keep the top-k features under the policy.

    Deterministic for any input column order: ranking is by
    (|pearson|, mi, name) and redundancy is judged in rank order.
    """
    x = np.asarray(x, dtype=np.float64)
    names = tuple(names)
    cat = set(categorical_names)
    col = {n: x[:, j] for j, n in enumerate(names)}

    r_label: dict[str, float] = {}
    mi_score: dict[str, float] = {}
    for n in names:
        r_label[n] = pearson(col[n], label)
        mi_score[n] = mutual_information(col[n], label, bins=policy.mi_bins, categorical=n in cat)

    dropped = [n for n in names if _is_dropped(n, policy.mandatory_drops)]
    candidates = [n for n in names if n not in dropped]

    def rank_key(n: str):
        r = r_label[n]
        rel = 0.0 if math.isnan(r) else abs(r)
        return (-rel, -mi_score[n], n)

    ranked = sorted(candidates, key=rank_key)
    kept: list[str] = []
    reasons: dict[str, str] = {}
    for n in ranked:
        if len(kept) >= policy.k:
            reasons[n] = "rank_limit"
            continue
        clash = None
        for g in kept:
            r = pearson(col[n], col[g])
            if not math.isnan(r) and abs(r) > policy.redundancy_threshold:
                clash = g
                break
        if clash is not None:
            reasons[n] = f"redundant_with:{clash}"
        else:
            kept.append(n)
            reasons[n] = "kept"
    if len(kept) < policy.k:
        raise PolicyUnsatisfiableError(len(kept), policy.k)

    scores = [
        FeatureScore(n, r_label[n], mi_score[n], reasons[n] == "kept", reasons[n])
        for n in ranked
    ]
    scores.extend(
        FeatureScore(n, r_label[n], mi_score[n], False, "mandatory_drop") for n in dropped
    )
    return SelectionReport(scores=scores, policy=policy)


def save_selection_report(
    report: SelectionReport,
    sink: IO[str],
    config_fingerprint: str = "",
    seed: Optional[int] = None,
) -> None:
    """Tab-separated score table; one row per feature in rank order."""
    sink.write(f"# config_fingerprint={config_fingerprint}\n")
    if seed is not None:
        sink.write(f"# seed={seed}\n")
    sink.write("feature\tpearson_vs_label\tmi\tkept\treason\n")
    for s in report.scores:
        r = "undefined" if math.isnan(s.pearson_vs_label) else repr(s.pearson_vs_label)
        sink.write(f"{s.name}\t{r}\t{repr(s.mi)}\t{int(s.kept)}\t{s.reason}\n")
