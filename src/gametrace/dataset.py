"""Join features with labels and prepare train/test and CV folds.

All transformations are pure: fitted parameters (imputation means, scaler
stats, one-hot categories) are computed from training rows only and reused
verbatim on held-out data, so no test statistic ever leaks into a fit.
Splits and folds keep each session's rows on one side, so no session is
both fitted and scored; the portable xoshiro shuffle orders the sessions,
making fold assignment a deterministic function of (data, seed).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Optional, Sequence

import numpy as np

from .aggregation import FeatureMatrix
from .errors import (
    AllMissingColumnError,
    ConfigError,
    DataError,
    EmptyJoinError,
    TooFewRowsError,
)
from .events import LEVEL_GROUPS, LabelRecord
from .rng import Xoshiro256StarStar
from .settings import DEFAULT_QUESTION_GROUPS, SplitPlan, check_folds

@dataclass
class LabeledDataset:
    """Dense feature matrix with binary labels, one row per answered question."""

    feature_names: tuple[str, ...]
    x: np.ndarray  # float64, NaN = absent until imputation
    y: np.ndarray  # int64 in {0, 1}; 1 = answered correctly
    row_keys: list[tuple[str, int]]  # (session_id, question)
    categorical_names: tuple[str, ...] = ()

    def __post_init__(self):
        self._seal()
        if len(set(self.row_keys)) != len(self.row_keys):
            raise ConfigError("row_keys must be unique")

    def _seal(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0] or self.x.shape[0] != len(self.row_keys):
            raise ConfigError("x, y, and row_keys must have equal row counts")
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: Sequence[int]) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        sub = copy.copy(self)  # no __post_init__: the key set is not rebuilt
        sub.x, sub.y = self.x[idx], self.y[idx]  # fancy indexing already copies
        # Distinct rows of unique keys have unique keys.
        chosen = np.zeros(len(self), dtype=bool)
        chosen[idx] = True
        if np.count_nonzero(chosen) != idx.size:
            raise ConfigError("row_keys must be unique")
        sub.row_keys = [self.row_keys[i] for i in idx.tolist()]
        sub._seal()
        return sub


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

    # One float64 row per feature row (None becomes NaN); each label names
    # its row by index, and the examples are one gather from that table.
    at = {(r.session_id, r.level_group): i for i, r in enumerate(features.rows)}
    idx: list[int] = []
    ys: list[bool] = []
    keys: list[tuple[str, int]] = []
    for lab in labels:
        i = at.get((lab.session_id, q_map[lab.question]))
        if i is not None:
            idx.append(i)
            ys.append(lab.correct)
            keys.append((lab.session_id, lab.question))
    if not idx:
        raise EmptyJoinError()
    table = np.array([r.values for r in features.rows], dtype=np.float64)
    table = table.reshape(len(features.rows), len(features.column_names))
    ds = LabeledDataset(
        feature_names=features.column_names,
        x=table[np.array(idx)],
        y=np.array(ys, dtype=np.int64),
        row_keys=keys,
        categorical_names=features.categorical_code_columns(),
    )
    return ds, len(labels) - len(idx)


def _column_means(x: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Per-column means of the present values; every column needs one."""
    present = ~np.isnan(x)
    counts = present.sum(axis=0)
    if np.any(counts == 0):
        raise AllMissingColumnError(str(names[int(np.argmax(counts == 0))]))
    return np.where(present, x, 0.0).sum(axis=0) / counts


def impute_mean(x: np.ndarray, feature_names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``x`` with NaNs replaced by its per-column means of present values,
    and those means."""
    x = np.asarray(x, dtype=np.float64)
    means = _column_means(x, feature_names)
    return np.where(np.isnan(x), means, x), means


def _one_hot(x: np.ndarray, names: Sequence[str], columns: Sequence[str], categories) -> np.ndarray:
    """``x`` without ``columns``, then one indicator column per code of each."""
    if not columns:
        return x
    blocks = [x[:, [j for j, n in enumerate(names) if n not in columns]]]
    for col, codes in zip(columns, categories):
        v = x[:, names.index(col)]
        blocks += [(v == code).astype(np.float64)[:, None] for code in codes]
    return np.hstack(blocks)


@dataclass(frozen=True)
class Preprocessor:
    """One-hot expansion, mean imputation and optional scaling, fitted on
    training rows only and applied unchanged to any rows.

    The fields are the model container's ``preprocessor`` header keys and
    its ``pre_*`` arrays. Absent cells and codes unseen at fit time expand
    to an all-zero indicator block; a scaler std of 0.0 flags a constant
    column, which maps to 0. A transformed cell that is not finite (an
    infinite input cell, or an overflow past a tiny std) is a DataError.
    """

    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    onehot_columns: tuple[str, ...]
    onehot_categories: tuple[tuple[float, ...], ...]  # sorted codes per column
    means: np.ndarray
    scaler_mean: Optional[np.ndarray] = None  # both None when not scaled
    scaler_std: Optional[np.ndarray] = None

    def __post_init__(self):
        missing = [c for c in self.onehot_columns if c not in self.input_names]
        if missing:
            raise DataError(f"preprocessor one-hot column {missing[0]!r} is not an input name")
        if len(self.onehot_categories) != len(self.onehot_columns):
            raise DataError("preprocessor needs one category list per one-hot column")
        width = sum(n not in self.onehot_columns for n in self.input_names)
        width += sum(map(len, self.onehot_categories))
        if len(self.output_names) != width:
            raise DataError(f"preprocessor has {len(self.output_names)} output names for {width} columns")
        for name in ("means", "scaler_mean", "scaler_std"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != (width,):
                raise DataError(f"preprocessor {name} has shape {np.shape(value)}, not ({width},)")
            if value is not None and not np.isfinite(value).all():
                raise DataError(f"preprocessor {name} must be finite")
        if self.scaler_std is not None and (self.scaler_std < 0.0).any():
            raise DataError("preprocessor scaler_std must not be negative")

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        x = _one_hot(x, self.input_names, self.onehot_columns, self.onehot_categories)
        x = np.where(np.isnan(x), self.means, x)  # a new array: scaled in place
        if self.scaler_std is not None:
            constant = self.scaler_std == 0.0
            with np.errstate(over="ignore", invalid="ignore"):  # the check below names the column
                x -= self.scaler_mean
                x /= np.where(constant, 1.0, self.scaler_std)
            x[:, constant] = 0.0
        finite = np.isfinite(x).all(axis=0)
        if not finite.all():
            name = self.output_names[int(np.argmin(finite))]
            raise DataError(f"feature {name!r} is not finite after preprocessing")
        return x


def fit_preprocessor(
    x: np.ndarray,
    feature_names: Sequence[str],
    categorical_names: Sequence[str] = (),
    scale: bool = True,
) -> Preprocessor:
    """Fit all preprocessing constants on training rows only."""
    x = np.asarray(x, dtype=np.float64)
    names = tuple(feature_names)
    columns = tuple(c for c in categorical_names if c in names)
    categories = []
    for col in columns:
        v = x[:, names.index(col)]
        categories.append(tuple(sorted(float(c) for c in np.unique(v[~np.isnan(v)]))))
    output_names = tuple(n for n in names if n not in columns) + tuple(
        f"{col}={int(code)}" for col, codes in zip(columns, categories) for code in codes
    )
    x = _one_hot(x, names, columns, categories)
    means = _column_means(x, output_names)
    scaler_mean = scaler_std = None
    if scale:
        x = np.where(np.isnan(x), means, x)
        scaler_mean, scaler_std = x.mean(axis=0), x.std(axis=0)  # divide-by-n convention
    return Preprocessor(names, output_names, columns, tuple(categories), means, scaler_mean, scaler_std)


def _session_order(d: LabeledDataset, seed: int) -> tuple[list[str], dict[str, list[int]]]:
    """The session ids in seeded shuffled order, and each session's row indices."""
    rows: dict[str, list[int]] = {}
    for i, (sid, _) in enumerate(d.row_keys):
        rows.setdefault(sid, []).append(i)
    order = sorted(rows)
    Xoshiro256StarStar(seed).shuffle(order)
    return order, rows


def holdout_indices(d: LabeledDataset, plan: SplitPlan, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) row indices of a disjoint, exhaustive split that keeps
    each session on one side: sessions join the test side in shuffled order
    until it holds ``test_fraction`` of the rows or one session is left."""
    order, rows = _session_order(d, seed)
    if len(order) < 2:
        raise TooFewRowsError("a split needs at least 2 sessions")
    target = len(d) * plan.test_fraction
    cut = n_test = 0
    while cut < len(order) - 1 and n_test < target:
        n_test += len(rows[order[cut]])
        cut += 1
    test_idx = sorted(i for sid in order[:cut] for i in rows[sid])
    train_idx = sorted(i for sid in order[cut:] for i in rows[sid])
    return np.array(train_idx, dtype=np.int64), np.array(test_idx, dtype=np.int64)


def split_train_test(d: LabeledDataset, plan: SplitPlan, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """The holdout (train, test) datasets of ``holdout_indices``."""
    train, test = holdout_indices(d, plan, seed)
    return d.subset(train), d.subset(test)


def kfold_indices(d: LabeledDataset, folds: int, seed: int) -> list[np.ndarray]:
    """Validation index arrays for each of ``folds`` folds; folds partition
    all rows and keep each session in one fold."""
    check_folds(folds)
    order, rows = _session_order(d, seed)
    if folds > len(order):
        raise TooFewRowsError(f"{folds} folds exceed {len(order)} sessions")
    fold_rows: list[list[int]] = [[] for _ in range(folds)]
    sizes = [0] * folds
    for sid in order:
        # smallest fold so far; ties resolved by fold index
        f = min(range(folds), key=lambda j: (sizes[j], j))
        fold_rows[f].extend(rows[sid])
        sizes[f] += len(rows[sid])
    return [np.array(sorted(fr), dtype=np.int64) for fr in fold_rows]


def kfold_index_pairs(d: LabeledDataset, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, validation) row indices of each fold; validations partition the rows."""
    all_idx = np.arange(len(d))
    pairs = []
    for val in kfold_indices(d, folds, seed):
        mask = np.ones(len(d), dtype=bool)
        mask[val] = False
        pairs.append((all_idx[mask], val))
    return pairs


def kfold(d: LabeledDataset, folds: int, seed: int) -> list[tuple[LabeledDataset, LabeledDataset]]:
    """(train, validation) dataset pairs of ``kfold_index_pairs``."""
    return [(d.subset(train), d.subset(val)) for train, val in kfold_index_pairs(d, folds, seed)]


def export_fold_assignments(
    d: LabeledDataset, folds: Iterable[np.ndarray], sink: IO[str]
) -> None:
    """Audit file: fold index, session id, question per row."""
    sink.write("fold\tsession_id\tquestion\n")
    for f, idxs in enumerate(folds):
        for i in idxs:
            sid, q = d.row_keys[int(i)]
            sink.write(f"{f}\t{sid}\t{q}\n")
