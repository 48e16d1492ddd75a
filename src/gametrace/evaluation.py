"""Classification metrics, cross-validation and the model benchmark.

The positive class is "answered correctly" (label 1). Preprocessing (mean
imputation, optional standardization, one-hot) is re-fit inside every
training fold so no validation statistic leaks into a fit. Every fold fit of
one call runs as a task in one fork process pool sized from the CPUs this
process may use; results are assembled by task index, so reports do not
depend on the worker count or the evaluation order.

``cross_validate`` and ``benchmark`` return ``EvalReport`` objects; the CLI
turns them into report files, stamps each with the config fingerprint and
seed, and renders the benchmark table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Mapping, Optional, Sequence

import numpy as np

from .dataset import LabeledDataset, fit_preprocessor, holdout_indices, kfold_index_pairs
from .errors import ConfigError, LengthMismatchError
from .pool import fork_map
from .settings import MODELS, Classifier, SplitPlan, check_protocol

# The model sections are declared in ``settings``, which runs no numpy;
# perfbench/traced_cli.py wraps their ``fit`` under these names.
KnnClassifier, MlpClassifier, ForestClassifier = MODELS.values()


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total

    @property
    def f1(self) -> float:
        """Positive-class F1; an undefined precision or recall counts as 0."""
        precision = self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0
        recall = self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else 0.0
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )


def confusion_counts(pred, truth) -> ConfusionCounts:
    p = np.asarray(pred, dtype=np.int64)
    t = np.asarray(truth, dtype=np.int64)
    if p.shape != t.shape or p.ndim != 1:
        raise LengthMismatchError(p.shape[0] if p.ndim == 1 else -1, t.shape[0] if t.ndim == 1 else -1)
    if p.shape[0] == 0:
        raise LengthMismatchError(0, 0)
    pos_p = p == 1
    pos_t = t == 1
    return ConfusionCounts(
        tp=int((pos_p & pos_t).sum()),
        fp=int((pos_p & ~pos_t).sum()),
        tn=int((~pos_p & ~pos_t).sum()),
        fn=int((~pos_p & pos_t).sum()),
    )


def majority_baseline_f1(y: Sequence[int]) -> float:
    """Positive-class F1 of the constant majority-class predictor."""
    yv = np.asarray(y, dtype=np.int64)
    n1 = int(yv.sum())
    n0 = yv.shape[0] - n1
    if n1 <= n0:
        return 0.0  # majority predictor emits 0: no true positives
    p = n1 / yv.shape[0]
    return 2.0 * p / (1.0 + p)


@dataclass(frozen=True)
class FoldResult:
    fold: int
    f1: float
    accuracy: float
    confusion: ConfusionCounts

    @classmethod
    def of(cls, fold: int, pred, truth) -> "FoldResult":
        confusion = confusion_counts(pred, truth)
        return cls(fold, confusion.f1, confusion.accuracy, confusion)


@dataclass
class EvalReport:
    model_name: str
    protocol: str  # e.g. "cv-5", "holdout-0.2"
    folds: list[FoldResult]
    mean_f1: float
    mean_accuracy: float
    confusion_total: ConfusionCounts
    # Each fold's test row indices, in fold order: what the folds were
    # planned as. Not part of the payload.
    test_rows: list[np.ndarray] = field(default_factory=list, compare=False, repr=False)

    def to_dict(self) -> dict:
        """Deterministic payload: reruns with the same seeds serialize
        byte-identically (run times go in the CLI's ``*.run.json`` sidecars)."""
        return {
            "model": self.model_name,
            "protocol": self.protocol,
            "folds": [asdict(f) for f in self.folds],
            "mean_f1": self.mean_f1,
            "mean_accuracy": self.mean_accuracy,
            "confusion_total": asdict(self.confusion_total),
        }


@dataclass(frozen=True)
class _Job:
    """One model's evaluation: its classifier and the row indices of its folds."""

    classifier: Classifier
    dataset: LabeledDataset
    seed: int
    model_name: str
    protocol: str
    folds: list[tuple[np.ndarray, np.ndarray]]  # (train, test) row indices


def _plan(classifier: Classifier, dataset: LabeledDataset, seed: int, model_name: str,
          holdout: Optional[SplitPlan] = None) -> _Job:
    """The job over the classifier's ``folds`` folds, or over ``holdout``'s split."""
    if holdout is None:
        folds, protocol = kfold_index_pairs(dataset, classifier.folds, seed), f"cv-{classifier.folds}"
    else:
        folds, protocol = [holdout_indices(dataset, holdout, seed)], f"holdout-{holdout.test_fraction:g}"
    return _Job(classifier, dataset, seed, model_name, protocol, folds)


def _fit_fold(job: _Job, i: int) -> FoldResult:
    """Fit on fold ``i``'s train side, preprocessing re-fit there, and score
    on its test side."""
    train_idx, test_idx = job.folds[i]
    train, test = job.dataset.subset(train_idx), job.dataset.subset(test_idx)
    classifier = job.classifier
    pre = fit_preprocessor(train.x, train.feature_names, train.categorical_names, scale=classifier.scale)
    model = classifier.fit(pre.transform(train.x), train.y, job.seed)
    return FoldResult.of(i, model.predict(pre.transform(test.x)), test.y)


def _fold_task(jobs: list[_Job], task: tuple[int, int]) -> FoldResult:
    """Task (j, i): fold ``i`` of job ``j``; its error keeps its class, with
    ``fold i: `` prefixed to its message."""
    j, i = task
    try:
        return _fit_fold(jobs[j], i)
    except Exception as exc:
        exc.args = (f"fold {i}: {exc}",)
        raise


def _run(jobs: list[_Job]) -> list[EvalReport]:
    """One EvalReport per job, its folds in fold order.

    The tasks run in one fork pool (``pool.fork_map``), each worker a fork of
    this process, so it inherits the datasets, classifiers and fold indices
    and only FoldResults travel back. A fold that fails raises here as in a
    serial run: the first failing fold's own exception.
    """
    tasks = [(j, i) for j, job in enumerate(jobs) for i in range(len(job.folds))]
    results = list(fork_map(partial(_fold_task, jobs), tasks))
    by_job: list[list[FoldResult]] = [[] for _ in jobs]
    for (j, _), result in zip(tasks, results):
        by_job[j].append(result)
    return [
        EvalReport(
            model_name=job.model_name,
            protocol=job.protocol,
            folds=folds,
            mean_f1=float(np.mean([fr.f1 for fr in folds])),
            mean_accuracy=float(np.mean([fr.accuracy for fr in folds])),
            confusion_total=sum((fr.confusion for fr in folds[1:]), folds[0].confusion),
            test_rows=[test for _, test in job.folds],
        )
        for job, folds in zip(jobs, by_job)
    ]


def cross_validate(
    classifier: Classifier,
    dataset: LabeledDataset,
    seed: int,
    model_name: str = "model",
) -> EvalReport:
    """Evaluation on the classifier's ``folds`` folds, preprocessing re-fit in each."""
    return _run([_plan(classifier, dataset, seed, model_name)])[0]


def benchmark(
    models: Mapping[str, Classifier],
    dataset: LabeledDataset,
    plan: SplitPlan,
    seed: int,
    protocol: str = "cv",
) -> list[EvalReport]:
    """One EvalReport per model, in ``models`` order, each under the model's
    own fold count.

    ``models`` maps a kind in ``MODELS`` to that kind's classifier. The folds
    of every model are planned first, so a model whose folds outnumber the
    sessions raises before any fit; then all run as the tasks of one pool.
    """
    if not models:
        raise ConfigError("benchmark requires at least one model spec")
    check_protocol(protocol)
    holdout = plan if protocol == "holdout" else None
    return _run([_plan(classifier, dataset, seed, name, holdout) for name, classifier in models.items()])
