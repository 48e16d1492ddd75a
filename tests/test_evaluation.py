import json
import multiprocessing
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gametrace import evaluation, pool
from gametrace.cli import REFERENCE_ROW, _benchmark_rows, _table
from gametrace.dataset import LabeledDataset, kfold_indices
from gametrace.errors import ConfigError, DataError, LengthMismatchError, ShapeMismatchError
from gametrace.evaluation import (
    ConfusionCounts,
    benchmark,
    confusion_counts,
    cross_validate,
    majority_baseline_f1,
)
from gametrace.settings import ForestClassifier, KnnClassifier, MlpClassifier, SplitPlan


def test_accuracy_all_correct():
    assert confusion_counts([1, 0, 1], [1, 0, 1]).accuracy == 1.0


def test_accuracy_all_wrong():
    assert confusion_counts([1, 1, 1], [0, 0, 0]).accuracy == 0.0


def test_accuracy_three_of_four():
    assert confusion_counts([1, 1, 0, 0], [1, 1, 1, 0]).accuracy == 0.75


def test_accuracy_length_mismatch():
    with pytest.raises(LengthMismatchError, match="^vector lengths differ: 1 vs 2$"):
        confusion_counts([1], [1, 0])
    with pytest.raises(ShapeMismatchError, match=r"^shape mismatch: expected two 1-D vectors, got \(2, 2\) and \(4,\)"):
        confusion_counts([[1, 0], [0, 1]], [1, 0, 0, 1])
    with pytest.raises(DataError, match="^confusion counts need at least one prediction$"):
        confusion_counts([], [])


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def test_accuracy_is_bit_equal_to_the_mean_of_matches(pairs):
    # The mean of the match vector, as the accuracy was computed before it
    # was read off the confusion counts, is the oracle.
    pred, truth = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    oracle = float((pred == truth).mean())
    assert confusion_counts(pred, truth).accuracy.hex() == oracle.hex()


def test_f1_perfect():
    assert confusion_counts([1, 0, 1], [1, 0, 1]).f1 == 1.0


def test_f1_no_positive_predictions_is_zero():
    assert confusion_counts([0, 0, 0], [1, 1, 0]).f1 == 0.0


def test_f1_formula_case():
    # tp=3, fp=1, fn=2: precision 0.75, recall 0.6
    pred = [1, 1, 1, 1, 0, 0, 0]
    truth = [1, 1, 1, 0, 1, 1, 0]
    assert confusion_counts(pred, truth).f1 == pytest.approx(0.6667, abs=1e-4)


def test_confusion_counts_sum_to_total():
    pred = [1, 0, 1, 1, 0]
    truth = [1, 1, 0, 1, 0]
    c = confusion_counts(pred, truth)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)
    assert c.total == 5


def test_accuracy_complement_property():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 2, size=50)
    truth = rng.integers(0, 2, size=50)
    accuracy = confusion_counts(pred, truth).accuracy
    assert accuracy == pytest.approx(1.0 - confusion_counts(1 - pred, truth).accuracy)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_f1_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pred = rng.integers(0, 2, size=n)
    truth = rng.integers(0, 2, size=n)
    order = rng.permutation(n)
    assert confusion_counts(pred, truth).f1 == confusion_counts(pred[order], truth[order]).f1


def test_majority_baseline_f1_analytic():
    y = np.array([1] * 70 + [0] * 30)
    p = 0.7
    assert majority_baseline_f1(y) == pytest.approx(2 * p / (1 + p), abs=1e-12)
    assert majority_baseline_f1(np.array([0] * 60 + [1] * 40)) == 0.0


class ConstantLabels:
    """A fitted fake model: one label for every row."""

    def __init__(self, label):
        self.label = label

    def predict(self, x):
        return np.full(x.shape[0], self.label, dtype=np.int64)


class ConstantModel:
    scale = False
    folds = 5

    def __init__(self, label=1):
        self.label = label

    def fit(self, x, y, seed):
        return ConstantLabels(self.label)


def balanced_dataset(n=100, seed=0):
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n // 2))
    x = rng.normal(size=(n, 3)) + y[:, None] * 3.0
    keys = [(f"s{i}", 1 + i % 18) for i in range(n)]
    return LabeledDataset(feature_names=("a", "b", "c"), x=x, y=y, row_keys=keys)


def test_cross_validate_constant_model_on_balanced_data():
    ds = balanced_dataset(100)
    report = cross_validate(ConstantModel(1), ds, 1, model_name="const")
    assert report.mean_accuracy == pytest.approx(0.5, abs=0.1)
    assert report.protocol == "cv-5"
    assert len(report.folds) == 5


def test_mean_metrics_equal_fold_average():
    ds = balanced_dataset(60, seed=3)
    report = cross_validate(KnnClassifier(k=3, folds=5), ds, 2, model_name="knn")
    assert report.mean_f1 == pytest.approx(np.mean([fr.f1 for fr in report.folds]), abs=1e-12)
    assert report.mean_accuracy == pytest.approx(
        np.mean([fr.accuracy for fr in report.folds]), abs=1e-12
    )
    assert report.confusion_total.total == len(ds)


def test_cross_validate_reports_the_test_rows_it_scored():
    ds = balanced_dataset(60, seed=3)
    report = cross_validate(KnnClassifier(k=3, folds=4), ds, 2, model_name="knn")
    planned = kfold_indices(ds, 4, 2)
    assert len(report.test_rows) == len(report.folds) == 4
    for rows, expected, fold in zip(report.test_rows, planned, report.folds):
        np.testing.assert_array_equal(rows, expected)
        assert fold.confusion.total == len(rows)
    assert "test_rows" not in report.to_dict()


def test_cross_validate_knn_on_separable_data():
    ds = balanced_dataset(120, seed=4)  # class-shifted blobs, duplicate-free
    report = cross_validate(KnnClassifier(k=1, folds=5), ds, 3, model_name="knn")
    assert report.mean_accuracy >= 0.9


def test_cross_validate_annotates_fold_errors():
    ds = balanced_dataset(20)

    class Exploding:
        scale = True
        folds = 4

        def fit(self, x, y, seed):
            raise ValueError("boom")

    with pytest.raises(ValueError, match="fold 0"):
        cross_validate(Exploding(), ds, 1)


def test_holdout_evaluate_reports_single_fold():
    ds = balanced_dataset(100, seed=5)
    (report,) = benchmark(
        {"knn": KnnClassifier(k=3, folds=5)}, ds, SplitPlan(test_fraction=0.2), 4,
        protocol="holdout",
    )
    assert report.protocol == "holdout-0.2"
    assert len(report.folds) == 1
    assert report.confusion_total.total == 20


def test_benchmark_empty_model_list_rejected():
    ds = balanced_dataset(30)
    with pytest.raises(ConfigError):
        benchmark([], ds, SplitPlan(), 42)


def test_benchmark_table_has_reference_row():
    ds = balanced_dataset(80, seed=6)
    specs = {"knn": KnnClassifier(k=3, folds=5), "forest": ForestClassifier(trees=5)}
    rows = _benchmark_rows(benchmark(specs, ds, SplitPlan(), 1))
    assert len(rows) == len(specs) + 1
    assert [r["model"] for r in rows[:-1]] == list(specs)
    ref = rows[-1]
    assert ref is REFERENCE_ROW
    assert ref["model"] == "french_touch"
    assert ref["f1"] == 0.72
    assert ref["accuracy"] is None
    assert ref["source"] == "literature"


def test_benchmark_models_learn_signal_above_baseline():
    ds = balanced_dataset(160, seed=7)
    specs = {
        "knn": KnnClassifier(k=3, folds=5),
        "mlp": MlpClassifier(hidden_sizes=(16,), epochs=30, batch_size=32),
        "forest": ForestClassifier(trees=20),
    }
    reports = benchmark(specs, ds, SplitPlan(), 2)
    assert [r.model_name for r in reports] == list(specs)
    base = majority_baseline_f1(ds.y)
    for report in reports:
        assert report.mean_f1 > base + 0.05


def test_benchmark_respects_per_model_protocols():
    ds = balanced_dataset(100, seed=8)
    specs = {"knn": KnnClassifier(k=3, folds=10), "forest": ForestClassifier(trees=3)}
    knn, forest = benchmark(specs, ds, SplitPlan(), 3)
    assert knn.protocol == "cv-10"
    assert forest.protocol == "cv-5"
    assert len(knn.folds) == 10
    assert len(forest.folds) == 5


def test_benchmark_holdout_protocol():
    ds = balanced_dataset(100, seed=9)
    specs = {"knn": KnnClassifier(k=3, folds=5)}
    (report,) = benchmark(specs, ds, SplitPlan(), 4, protocol="holdout")
    assert report.protocol == "holdout-0.2"


def test_benchmark_render_and_dict():
    ds = balanced_dataset(50, seed=10)
    specs = {"knn": KnnClassifier(k=3, folds=5)}
    reports = benchmark(specs, ds, SplitPlan(), 5)
    rows = _benchmark_rows(reports)
    text = _table(rows)
    assert "french_touch" in text and "knn" in text
    assert len(rows) == 2
    assert len(text.splitlines()) == 2 + len(rows)
    payload = reports[0].to_dict()
    assert payload["model"] == "knn"
    assert "runtime" not in str(payload.keys())


def test_eval_report_runtime_excluded_from_payload():
    ds = balanced_dataset(40, seed=11)
    report = cross_validate(KnnClassifier(k=1, folds=4), ds, 1, model_name="knn")
    again = cross_validate(KnnClassifier(k=1, folds=4), ds, 1, model_name="knn")
    assert "runtime" not in str(report.to_dict())
    assert report.to_dict() == again.to_dict()


def test_confusion_counts_addition():
    a = ConfusionCounts(1, 2, 3, 4)
    b = ConfusionCounts(10, 20, 30, 40)
    c = a + b
    assert (c.tp, c.fp, c.tn, c.fn) == (11, 22, 33, 44)


def test_cross_validate_one_hot_encodes_code_columns():
    # dictionary-coded column drives the label; per-fold preprocessing must
    # expand it into indicators for the distance model
    rng = np.random.default_rng(12)
    codes = rng.integers(0, 3, size=90).astype(float)
    noise = rng.normal(size=90)
    y = (codes == 1).astype(np.int64)
    ds = LabeledDataset(
        feature_names=("kind_first", "jitter"),
        x=np.column_stack([codes, noise]),
        y=y,
        row_keys=[(f"s{i}", 1 + i % 18) for i in range(90)],
        categorical_names=("kind_first",),
    )
    report = cross_validate(KnnClassifier(k=3, folds=5), ds, 2, model_name="knn")
    assert report.mean_accuracy >= 0.9


# The pool needs the fork start method. The tests force the worker count,
# so the pool runs even on a one-CPU machine, and with more workers than
# CPUs on a small one.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


def _with_workers(monkeypatch, n, run):
    monkeypatch.setattr(pool, "usable_cpus", lambda: n)
    return run()


def _serialized(payload) -> bytes:
    return json.dumps(payload, indent=2, sort_keys=True).encode()


POOL_MODELS = {
    "knn": KnnClassifier(k=3, folds=4),
    "mlp": MlpClassifier(hidden_sizes=(8,), epochs=5, batch_size=16, folds=3),
    "forest": ForestClassifier(trees=4, folds=3),
}


@needs_fork
@pytest.mark.parametrize("protocol", ["cv", "holdout"])
def test_benchmark_from_the_pool_equals_the_serial_report(monkeypatch, protocol):
    ds = balanced_dataset(90, seed=13)

    def run():
        reports = benchmark(POOL_MODELS, ds, SplitPlan(), 6, protocol=protocol)
        return [report.to_dict() for report in reports]

    pooled = _with_workers(monkeypatch, 4, run)
    serial = _with_workers(monkeypatch, 1, run)
    assert pooled == serial
    assert _serialized(pooled) == _serialized(serial)


@needs_fork
def test_cross_validate_from_the_pool_equals_the_serial_report(monkeypatch):
    ds = balanced_dataset(60, seed=14)

    def run():
        return cross_validate(ForestClassifier(trees=3), ds, 3, model_name="forest").to_dict()

    pooled = _with_workers(monkeypatch, 2, run)
    serial = _with_workers(monkeypatch, 1, run)
    assert pooled == serial
    assert _serialized(pooled) == _serialized(serial)


TEST_PROCESS = os.getpid()


class PidModel:
    """Predicts 1 when it was fitted in another process than the test's."""

    scale = False
    folds = 4

    def fit(self, x, y, seed):
        return ConstantLabels(int(os.getpid() != TEST_PROCESS))


@needs_fork
def test_folds_are_fitted_in_worker_processes(monkeypatch):
    ds = balanced_dataset(40, seed=15)
    ds_ones = LabeledDataset(ds.feature_names, ds.x, np.ones(len(ds), dtype=np.int64), ds.row_keys)
    pooled = _with_workers(monkeypatch, 2, lambda: cross_validate(PidModel(), ds_ones, 1))
    serial = _with_workers(monkeypatch, 1, lambda: cross_validate(PidModel(), ds_ones, 1))
    assert pooled.mean_accuracy == 1.0
    assert serial.mean_accuracy == 0.0


class TwoArgumentError(Exception):
    # pickles as (cls, args) but cannot be rebuilt from its one message argument
    def __init__(self, row, reason):
        super().__init__(f"row {row}: {reason}")


class ExplodesOnHeldOutRow:
    """Raises ``error()`` in the fold whose test side holds row ``row``
    (feature a is the row index)."""

    scale = False

    def __init__(self, error, row, folds):
        self.error = error
        self.row = row
        self.folds = folds

    def fit(self, x, y, seed):
        if self.row not in x[:, 0]:
            raise self.error()
        return ConstantLabels(1)


def indexed_dataset(n=24):
    x = np.column_stack([np.arange(n, dtype=np.float64), np.zeros(n)])
    return LabeledDataset(("a", "b"), x, np.array([0, 1] * (n // 2)), [(f"s{i}", 1) for i in range(n)])


def _failure(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


FOLD_ERRORS = {
    "ValueError": (lambda: ValueError("boom"), ValueError, "boom"),
    "unpicklable": (lambda: TwoArgumentError(7, "held out"), TwoArgumentError, "row 7: held out"),
}


@needs_fork
@pytest.mark.parametrize("case", list(FOLD_ERRORS))
def test_failing_fold_raises_the_same_error_from_the_pool(monkeypatch, case):
    error, error_type, message = FOLD_ERRORS[case]
    ds = indexed_dataset()
    models = {"knn": KnnClassifier(k=1, folds=3), "bad": ExplodesOnHeldOutRow(error, row=7, folds=4)}

    def run():
        return benchmark(models, ds, SplitPlan(), 1)

    pooled = _failure(lambda: _with_workers(monkeypatch, 2, run))
    serial = _failure(lambda: _with_workers(monkeypatch, 1, run))
    assert pooled == serial
    assert pooled[0] is error_type
    assert re.fullmatch(rf"fold [0-3]: {message}", pooled[1])


def test_a_later_models_planning_error_comes_before_any_fold(monkeypatch):
    def no_pool(*args):
        raise AssertionError("fork_map entered")

    monkeypatch.setattr(evaluation, "fork_map", no_pool)
    ds = indexed_dataset()
    bad = ExplodesOnHeldOutRow(lambda: ValueError("boom"), row=0, folds=3)
    models = {"bad": bad, "knn": KnnClassifier(k=1, folds=50)}  # 50 folds > 24 rows
    with pytest.raises(DataError, match="^too few rows: 50 folds exceed 24 sessions$"):
        benchmark(models, ds, SplitPlan(), 1)
