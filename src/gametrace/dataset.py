"""Join features with labels and prepare train/test and CV folds.

All transformations are pure: fitted parameters (imputation means, scaler
stats, one-hot categories) are computed from training rows only and reused
verbatim on held-out data, so no test statistic ever leaks into a fit.
Splits and folds are driven by the portable xoshiro shuffle, making fold
assignment a deterministic function of (data, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Optional, Sequence

import numpy as np

from .aggregation import FeatureMatrix
from .errors import (
    AllMissingColumnError,
    ConfigError,
    EmptyJoinError,
    TooFewRowsError,
)
from .events import LEVEL_GROUPS, LabelRecord
from .rng import Xoshiro256StarStar

# Question -> level_group convention used by the label join; overridable in
# the run config because the upstream export does not carry the mapping.
DEFAULT_QUESTION_GROUPS: dict[int, str] = {
    **{q: "0-4" for q in range(1, 4)},
    **{q: "5-12" for q in range(4, 14)},
    **{q: "13-22" for q in range(14, 19)},
}


@dataclass
class LabeledDataset:
    """Dense feature matrix with binary labels, one row per answered question."""

    feature_names: tuple[str, ...]
    x: np.ndarray  # float64, NaN = absent until imputation
    y: np.ndarray  # int64 in {0, 1}; 1 = answered correctly
    row_keys: list[tuple[str, int]]  # (session_id, question)
    categorical_names: tuple[str, ...] = ()

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0] or self.x.shape[0] != len(self.row_keys):
            raise ConfigError("x, y, and row_keys must have equal row counts")
        if len(set(self.row_keys)) != len(self.row_keys):
            raise ConfigError("row_keys must be unique")
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: Sequence[int]) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            feature_names=self.feature_names,
            x=self.x[idx].copy(),
            y=self.y[idx].copy(),
            row_keys=[self.row_keys[i] for i in idx],
            categorical_names=self.categorical_names,
        )


def join(
    features: FeatureMatrix,
    labels: Sequence[LabelRecord],
    q_map: Mapping[int, str] = DEFAULT_QUESTION_GROUPS,
) -> tuple[LabeledDataset, int]:
    """One example per label whose (session, q_map[question]) row exists.

    Returns the dataset and the count of labels dropped for lack of a
    feature row. Raises EmptyJoinError when nothing matches.
    """
    for q in range(1, 19):
        if q not in q_map:
            raise ConfigError(f"q_map does not cover question {q}")
        if q_map[q] not in LEVEL_GROUPS:
            raise ConfigError(f"q_map[{q}] = {q_map[q]!r} is not a level group")

    by_key = {(r.session_id, r.level_group): r for r in features.rows}
    xs: list[tuple] = []
    ys: list[int] = []
    keys: list[tuple[str, int]] = []
    dropped = 0
    for lab in labels:
        row = by_key.get((lab.session_id, q_map[lab.question]))
        if row is None:
            dropped += 1
            continue
        xs.append(tuple(np.nan if v is None else v for v in row.values))
        ys.append(int(lab.correct))
        keys.append((lab.session_id, lab.question))
    if not xs:
        raise EmptyJoinError()
    ds = LabeledDataset(
        feature_names=features.column_names,
        x=np.array(xs, dtype=np.float64),
        y=np.array(ys, dtype=np.int64),
        row_keys=keys,
        categorical_names=features.categorical_code_columns(),
    )
    return ds, dropped


def impute_mean(
    x: np.ndarray,
    means: Optional[np.ndarray] = None,
    feature_names: Optional[Sequence[str]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Replace NaNs by per-column means of present values.

    When ``means`` is given (test-time path) it is applied unchanged;
    otherwise means are computed from ``x`` and returned for reuse.
    """
    x = np.asarray(x, dtype=np.float64)
    if means is None:
        present = ~np.isnan(x)
        counts = present.sum(axis=0)
        if np.any(counts == 0):
            col = int(np.argmax(counts == 0))
            name = feature_names[col] if feature_names else f"column {col}"
            raise AllMissingColumnError(str(name))
        means = np.where(present, x, 0.0).sum(axis=0) / counts
    out = np.where(np.isnan(x), means, x)
    return out, np.asarray(means, dtype=np.float64)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column standardization constants (population convention)."""

    mean: np.ndarray
    std: np.ndarray  # 0.0 flags a constant column

    @property
    def constant_mask(self) -> np.ndarray:
        return self.std == 0.0


def standardize(
    x: np.ndarray, params: Optional[ScalerParams] = None
) -> tuple[np.ndarray, ScalerParams]:
    """Transform to zero mean, unit variance; constant columns map to 0.

    With ``params`` supplied the stored constants are applied unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    if params is None:
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # divide-by-n convention
        params = ScalerParams(mean=mean, std=std)
    safe = np.where(params.std == 0.0, 1.0, params.std)
    out = (x - params.mean) / safe
    out[:, params.constant_mask] = 0.0
    return out, params


@dataclass(frozen=True)
class OneHotParams:
    """Per-categorical-column category codes learned from training data."""

    columns: tuple[str, ...]
    categories: tuple[tuple[float, ...], ...]  # sorted codes per column


def one_hot(
    x: np.ndarray,
    feature_names: Sequence[str],
    categorical_names: Sequence[str],
    params: Optional[OneHotParams] = None,
) -> tuple[np.ndarray, tuple[str, ...], OneHotParams]:
    """Expand dictionary-coded columns into indicator columns.

    A no-op when no categorical columns are present. Absent cells and codes
    unseen at fit time produce an all-zero indicator block.
    """
    x = np.asarray(x, dtype=np.float64)
    names = tuple(feature_names)
    cat = tuple(c for c in categorical_names if c in names)
    if params is None:
        cats = []
        for col in cat:
            j = names.index(col)
            vals = x[:, j]
            cats.append(tuple(sorted(float(v) for v in np.unique(vals[~np.isnan(vals)]))))
        params = OneHotParams(columns=cat, categories=tuple(cats))
    if not params.columns:
        return x, names, params

    cat_idx = {c: names.index(c) for c in params.columns}
    keep = [j for j, n in enumerate(names) if n not in params.columns]
    blocks = [x[:, keep]]
    out_names = [names[j] for j in keep]
    for col, codes in zip(params.columns, params.categories):
        v = x[:, cat_idx[col]]
        for code in codes:
            blocks.append((v == code).astype(np.float64)[:, None])
            out_names.append(f"{col}={int(code)}")
    return np.hstack(blocks), tuple(out_names), params


@dataclass(frozen=True)
class Preprocessor:
    """Fitted one-hot + imputation + optional scaling, applied atomically."""

    onehot: OneHotParams
    means: np.ndarray
    scaler: Optional[ScalerParams]
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]

    def transform(self, x: np.ndarray) -> np.ndarray:
        x2, _, _ = one_hot(x, self.input_names, self.onehot.columns, self.onehot)
        x3, _ = impute_mean(x2, means=self.means)
        if self.scaler is not None:
            x3, _ = standardize(x3, self.scaler)
        return x3


def fit_preprocessor(
    x: np.ndarray,
    feature_names: Sequence[str],
    categorical_names: Sequence[str] = (),
    scale: bool = True,
) -> Preprocessor:
    """Fit all preprocessing constants on training rows only."""
    x2, out_names, oh = one_hot(x, feature_names, categorical_names)
    x3, means = impute_mean(x2, feature_names=out_names)
    scaler = standardize(x3)[1] if scale else None
    return Preprocessor(
        onehot=oh,
        means=means,
        scaler=scaler,
        input_names=tuple(feature_names),
        output_names=out_names,
    )


@dataclass(frozen=True)
class SplitPlan:
    """Seeded plan for the holdout split and k-fold assignment."""

    seed: int = 42
    test_fraction: float = 0.2
    fold_count: int = 5
    grouping: str = "by_session"  # or "by_row"

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.fold_count < 2:
            raise ConfigError("fold_count must be >= 2")
        if self.grouping not in ("by_row", "by_session"):
            raise ConfigError(f"unknown grouping {self.grouping!r}")


def _shuffled(items: list, seed: int) -> list:
    out = list(items)
    Xoshiro256StarStar(seed).shuffle(out)
    return out


def _session_rows(d: LabeledDataset) -> dict[str, list[int]]:
    rows: dict[str, list[int]] = {}
    for i, (sid, _) in enumerate(d.row_keys):
        rows.setdefault(sid, []).append(i)
    return rows


def holdout_indices(d: LabeledDataset, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) row indices of a disjoint, exhaustive split; by_session
    keeps a session on one side."""
    n = len(d)
    if n < 2:
        raise TooFewRowsError("need at least 2 rows to split")
    target = n * plan.test_fraction
    if plan.grouping == "by_row":
        order = _shuffled(list(range(n)), plan.seed)
        n_test = min(max(int(round(target)), 1), n - 1)
        test_idx = sorted(order[:n_test])
        train_idx = sorted(order[n_test:])
    else:
        rows = _session_rows(d)
        if len(rows) < 2:
            raise TooFewRowsError("by_session split needs at least 2 sessions")
        order = _shuffled(sorted(rows), plan.seed)
        test_sessions: list[str] = []
        n_test = 0
        for sid in order:
            if n_test >= target or len(test_sessions) == len(order) - 1:
                break
            test_sessions.append(sid)
            n_test += len(rows[sid])
        chosen = set(test_sessions)
        test_idx = sorted(i for sid in chosen for i in rows[sid])
        train_idx = sorted(i for sid, idxs in rows.items() if sid not in chosen for i in idxs)
    if not test_idx or not train_idx:
        raise TooFewRowsError("split left one side empty")
    return np.array(train_idx, dtype=np.int64), np.array(test_idx, dtype=np.int64)


def split_train_test(d: LabeledDataset, plan: SplitPlan) -> tuple[LabeledDataset, LabeledDataset]:
    """The holdout (train, test) datasets of ``holdout_indices``."""
    train, test = holdout_indices(d, plan)
    return d.subset(train), d.subset(test)


def kfold_indices(d: LabeledDataset, plan: SplitPlan) -> list[np.ndarray]:
    """Validation index arrays for each fold; folds partition all rows."""
    n = len(d)
    k = plan.fold_count
    if k > n:
        raise TooFewRowsError(f"fold_count {k} exceeds {n} rows")
    if plan.grouping == "by_row":
        order = _shuffled(list(range(n)), plan.seed)
        base, extra = divmod(n, k)
        folds = []
        start = 0
        for f in range(k):
            size = base + (1 if f < extra else 0)
            folds.append(np.array(sorted(order[start : start + size]), dtype=np.int64))
            start += size
        return folds
    rows = _session_rows(d)
    if k > len(rows):
        raise TooFewRowsError(f"fold_count {k} exceeds {len(rows)} sessions")
    order = _shuffled(sorted(rows), plan.seed)
    fold_rows: list[list[int]] = [[] for _ in range(k)]
    sizes = [0] * k
    for sid in order:
        # smallest fold so far; ties resolved by fold index
        f = min(range(k), key=lambda j: (sizes[j], j))
        fold_rows[f].extend(rows[sid])
        sizes[f] += len(rows[sid])
    return [np.array(sorted(fr), dtype=np.int64) for fr in fold_rows]


def kfold_index_pairs(d: LabeledDataset, plan: SplitPlan) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, validation) row indices of each fold; validations partition the rows."""
    all_idx = np.arange(len(d))
    pairs = []
    for val in kfold_indices(d, plan):
        mask = np.ones(len(d), dtype=bool)
        mask[val] = False
        pairs.append((all_idx[mask], val))
    return pairs


def kfold(
    d: LabeledDataset, plan: SplitPlan
) -> list[tuple[LabeledDataset, LabeledDataset]]:
    """(train, validation) dataset pairs of ``kfold_index_pairs``."""
    return [(d.subset(train), d.subset(val)) for train, val in kfold_index_pairs(d, plan)]


def export_fold_assignments(
    d: LabeledDataset, folds: Iterable[np.ndarray], sink: IO[str]
) -> None:
    """Audit file: fold index, session id, question per row."""
    sink.write("fold\tsession_id\tquestion\n")
    for f, idxs in enumerate(folds):
        for i in idxs:
            sid, q = d.row_keys[int(i)]
            sink.write(f"{f}\t{sid}\t{q}\n")
