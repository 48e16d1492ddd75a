"""Filter-style feature scoring and selection.

Features are ranked by absolute Pearson correlation with the label (ties
broken by mutual information, then name) and kept greedily while skipping
anything too correlated with an already-kept feature. Constant columns have
undefined correlation; they are marked NaN and rank as zero relevance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import ConfigError, DataError, LengthMismatchError, ShapeMismatchError
from .settings import SelectionPolicy


def check_paired(a: np.ndarray, b: np.ndarray) -> None:
    """ShapeMismatchError unless both are 1-D, LengthMismatchError unless
    they are of one length."""
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeMismatchError(f"expected two 1-D vectors, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise LengthMismatchError(a.shape[0], b.shape[0])


def pearson(xcol: np.ndarray, ycol: np.ndarray, where: str = "pearson") -> float:
    """Sample Pearson correlation; NaN when either column is constant, and a
    DataError naming ``where`` when a sum it needs is past the float range."""
    x = np.asarray(xcol, dtype=np.float64)
    y = np.asarray(ycol, dtype=np.float64)
    check_paired(x, y)
    if x.shape[0] < 2:
        raise DataError("pearson requires at least 2 observations")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the column
        xc = x - x.mean()
        yc = y - y.mean()
        sxx, syy, sxy = float((xc * xc).sum()), float((yc * yc).sum()), float((xc * yc).sum())
    if not (math.isfinite(sxx) and math.isfinite(syy) and math.isfinite(sxy)):
        raise DataError(f"{where}: a centred sum of squares or products is not finite")
    prod = sxx * syy
    # The root of the product where that is a normal float, else the product
    # of the roots, which stays in the float range.
    den = math.sqrt(prod) if sys.float_info.min <= prod < math.inf else math.sqrt(sxx) * math.sqrt(syy)
    if den == 0.0:
        return float("nan")
    r = sxy / den
    return min(1.0, max(-1.0, r))


def mutual_information(
    feature: np.ndarray,
    label: np.ndarray,
    bins: int,
    categorical: bool = False,
) -> float:
    """Plug-in mutual information from the joint histogram, in nats.

    Continuous features are discretized by equal-width binning over the
    observed range; integer-coded categorical features use their codes
    directly. Result is >= 0 up to floating error.
    """
    f = np.asarray(feature, dtype=np.float64)
    y = np.asarray(label)
    check_paired(f, y)
    n = f.shape[0]
    if n == 0:
        raise DataError("mutual information requires at least 1 observation")

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
        r_label[n] = pearson(col[n], label, f"column {n!r}")
        mi_score[n] = mutual_information(col[n], label, policy.mi_bins, categorical=n in cat)

    def rank_key(n: str):
        r = r_label[n]
        rel = 0.0 if math.isnan(r) else abs(r)
        return (-rel, -mi_score[n], n)

    ranked = sorted(names, key=rank_key)
    kept: list[str] = []
    reasons: dict[str, str] = {}
    for n in ranked:
        if len(kept) >= policy.k:
            reasons[n] = "rank_limit"
            continue
        clash = None
        for g in kept:
            r = pearson(col[n], col[g], f"columns {n!r} and {g!r}")
            if not math.isnan(r) and abs(r) > policy.redundancy_threshold:
                clash = g
                break
        if clash is not None:
            reasons[n] = f"redundant_with:{clash}"
        else:
            kept.append(n)
            reasons[n] = "kept"
    if len(kept) < policy.k:
        raise ConfigError(f"only {len(kept)} features survive the policy, {policy.k} requested")

    scores = [
        FeatureScore(n, r_label[n], mi_score[n], reasons[n] == "kept", reasons[n])
        for n in ranked
    ]
    return SelectionReport(scores=scores, policy=policy)


def save_selection_report(report: SelectionReport, sink: IO[str], config_fingerprint: str, seed: int) -> None:
    """Tab-separated score table; one row per feature in rank order."""
    sink.write(f"# config_fingerprint={config_fingerprint}\n")
    sink.write(f"# seed={seed}\n")
    sink.write("feature\tpearson_vs_label\tmi\tkept\treason\n")
    for s in report.scores:
        r = "undefined" if math.isnan(s.pearson_vs_label) else repr(s.pearson_vs_label)
        sink.write(f"{s.name}\t{r}\t{repr(s.mi)}\t{int(s.kept)}\t{s.reason}\n")
