import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gametrace.aggregation import DEFAULT_SPECS, AggregatorSpec, FeatureMatrix, FeatureRow, aggregate
from gametrace.dataset import (
    LabeledDataset,
    export_fold_assignments,
    fit_preprocessor,
    impute_mean,
    join,
    kfold,
    kfold_indices,
    split_train_test,
)
from gametrace.errors import ConfigError, DataError
from gametrace.events import DEFAULT_QUESTION_GROUPS, LEVEL_GROUPS, LabelRecord, read_labels
from gametrace.settings import SplitPlan
from conftest import make_event, random_events

from oracles import naive_impute, naive_standardize, nested_loop_join

SPECS = [AggregatorSpec("level", "mean"), AggregatorSpec("elapsed_time", "sum")]


def full_matrix(session="s1"):
    evs = [make_event(session_id=session, index=i, level=lv, elapsed_time=i * 10)
           for i, lv in enumerate((1, 3, 8, 11, 14, 20))]
    return aggregate(evs, SPECS)


def labels_for(session="s1", questions=range(1, 19), correct=True):
    return [LabelRecord(session, q, correct) for q in questions]


def test_join_full_session_gives_18_examples():
    ds, dropped = join(full_matrix(), labels_for())
    assert len(ds) == 18
    assert dropped == 0
    assert ds.feature_names == ("level_mean", "elapsed_time_sum")
    assert set(ds.row_keys) == {("s1", q) for q in range(1, 19)}


def test_join_drops_labels_without_feature_rows():
    labels = labels_for() + [LabelRecord("ghost", 1, True)]
    ds, dropped = join(full_matrix(), labels)
    assert len(ds) == 18
    assert dropped == 1


def test_subset_keeps_rows_and_keys_and_rejects_a_row_taken_twice():
    ds, _ = join(full_matrix(), labels_for())
    sub = ds.subset([5, 0, -1])
    assert sub.row_keys == [ds.row_keys[5], ds.row_keys[0], ds.row_keys[-1]]
    assert np.array_equal(sub.x, ds.x[[5, 0, -1]]) and np.array_equal(sub.y, ds.y[[5, 0, -1]])
    assert not sub.x.flags.writeable and not sub.y.flags.writeable
    for twice in ([3, 4, 3], [17, -1]):
        with pytest.raises(ConfigError, match="^row_keys must be unique$"):
            ds.subset(twice)


def test_join_empty_raises():
    with pytest.raises(DataError, match="^no label matched any feature row$"):
        join(full_matrix(), [LabelRecord("ghost", 1, True)])


def test_join_matches_nested_loop_oracle():
    rng = np.random.default_rng(21)
    evs = random_events(rng, 300, sessions=("a", "b", "c", "d"))
    matrix = aggregate(evs, SPECS)
    labels = [
        LabelRecord(s, q, bool(rng.integers(0, 2)))
        for s in ("a", "b", "c", "d", "ghost")
        for q in range(1, 19)
        if rng.random() < 0.7
    ]
    ds, dropped = join(matrix, labels)
    expected = nested_loop_join(matrix.rows, labels)
    assert ds.row_keys == expected
    assert dropped == len(labels) - len(expected)


def test_join_gathers_absent_values_as_nan_rows_of_the_feature_table():
    matrix = FeatureMatrix(
        tuple(SPECS),
        [FeatureRow("s1", "0-4", (1.5, None)), FeatureRow("s1", "5-12", (None, -0.0)),
         FeatureRow("s2", "0-4", (3, 4.25))],
        {},
    )
    labels = [LabelRecord("s2", 2, True), LabelRecord("s1", 5, False), LabelRecord("s1", 1, True),
              LabelRecord("s3", 1, True)]
    ds, dropped = join(matrix, labels)
    assert dropped == 1
    assert ds.row_keys == [("s2", 2), ("s1", 5), ("s1", 1)]
    assert ds.y.tolist() == [1, 0, 1]
    assert ds.x.dtype == np.float64 and ds.x.shape == (3, 2)
    want = np.array([[3.0, 4.25], [np.nan, -0.0], [1.5, np.nan]])
    assert ds.x.tobytes() == want.tobytes()


def _holdout_large_shape():
    """A 400-session feature matrix of 11 columns (5% absent) and the label
    file of its 7,200 labels: the ``holdout-large`` benchmark's shape."""
    rng = np.random.default_rng(3)
    sessions = [str(2_000_000_000 + 7919 * s) for s in range(400)]
    rows = [
        FeatureRow(sid, group, tuple(None if v < 0.05 else float(v) for v in rng.random(11)))
        for sid in sessions for group in LEVEL_GROUPS
    ]
    text = "session_id,question,correct\n" + "".join(
        f"{sid},{q},{(q + s) % 2}\n" for s, sid in enumerate(sessions) for q in range(1, 19))
    return FeatureMatrix(DEFAULT_SPECS, rows, {}), io.StringIO(text)


def test_read_labels_and_join_memory_on_the_holdout_large_shape():
    # Each traced peak is bounded against a baseline measured here, so the
    # bounds follow the interpreter's object sizes. read_labels shares one
    # str per session and keeps one int of question bits per session: its
    # peak is about 1.1x that of the bare list of records, and was 3.4x with
    # a str per cell and a set of (session, question) tuples. join gathers
    # from one float64 table: what it allocates beyond the dataset it returns
    # is about 1.5x the example matrix, and was 2.3x with a tuple of floats
    # per label.
    matrix, source = _holdout_large_shape()
    sessions = list(dict.fromkeys(r.session_id for r in matrix.rows))
    tracemalloc.start()
    try:
        records = [LabelRecord(sid, q, True) for sid in sessions for q in range(1, 19)]
        records_peak = tracemalloc.get_traced_memory()[1]
        del records
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        labels = read_labels(source)
        labels_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ds, dropped = join(matrix, labels)
        held, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert (len(ds), dropped) == (7200, 0)
    assert labels_peak < 1.5 * records_peak
    assert peak - held < 2.0 * ds.x.nbytes


def names(x):
    return tuple(f"c{j}" for j in range(np.shape(x)[1]))


def imputer(x):
    return fit_preprocessor(x, names(x), (), scale=False)


def scaler(x):
    return fit_preprocessor(x, names(x), (), scale=True)


def test_impute_simple_column():
    x = np.array([[1.0], [np.nan], [3.0]])
    pre = imputer(x)
    assert pre.transform(x)[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert pre.means.tolist() == [2.0]


def test_impute_no_absents_is_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    pre = imputer(x)
    assert np.array_equal(pre.transform(x), x)
    assert pre.means.tolist() == [2.0, 3.0]


def test_impute_with_train_means_on_test():
    train = np.array([[0.0], [4.0]])
    pre = imputer(train)
    test = np.array([[np.nan], [10.0]])
    out = pre.transform(test)
    assert out[:, 0].tolist() == [2.0, 10.0]  # train mean, not test mean


def test_impute_random_matches_oracle():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(20, 5))
    mask = rng.random(x.shape) < 0.3
    x[mask] = np.nan
    x[0, :] = 1.0  # ensure every column has a present value
    out = imputer(x).transform(x)
    assert np.allclose(out, naive_impute(x), atol=1e-12)
    assert np.array_equal(impute_mean(x, names(x))[0], out)


def test_impute_all_missing_column_raises():
    x = np.array([[np.nan], [np.nan]])
    with pytest.raises(DataError, match="^column 'broken' has no present values; mean undefined$"):
        fit_preprocessor(x, ["broken"], (), scale=True)
    with pytest.raises(DataError, match="^column 'broken' has no present values; mean undefined$"):
        impute_mean(x, feature_names=["broken"])


def test_standardize_two_point_column():
    x = np.array([[0.0], [10.0]])
    pre = scaler(x)
    assert pre.transform(x)[:, 0].tolist() == [-1.0, 1.0]  # population std = 5
    assert pre.scaler_std.tolist() == [5.0]


def test_standardize_constant_column_maps_to_zero():
    x = np.array([[7.0], [7.0], [7.0]])
    pre = scaler(x)
    assert pre.transform(x)[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert (pre.scaler_std == 0.0).tolist() == [True]


def test_standardize_train_params_on_heldout_matches_oracle():
    rng = np.random.default_rng(8)
    train = rng.normal(2.0, 3.0, size=(50, 4))
    test = rng.normal(2.0, 3.0, size=(20, 4))
    got = scaler(train).transform(test)
    _, mean, std = naive_standardize(train)
    want, _, _ = naive_standardize(test, mean, std)
    assert np.allclose(got, want, atol=1e-12)


def test_impute_then_standardize_normalizes_training_data():
    rng = np.random.default_rng(13)
    x = rng.normal(5.0, 2.0, size=(200, 6))
    x[rng.random(x.shape) < 0.2] = np.nan
    x[0, :] = 0.5
    pre = scaler(x)
    out = pre.transform(x)
    nonconst = pre.scaler_std != 0.0
    assert np.all(np.abs(out.mean(axis=0)[nonconst]) < 1e-9)
    assert np.all(np.abs(out.std(axis=0)[nonconst] - 1.0) < 1e-9)


def make_dataset(n_rows=10, n_sessions=None, seed=0):
    rng = np.random.default_rng(seed)
    if n_sessions is None:
        keys = [(f"r{i}", 1 + i % 18) for i in range(n_rows)]
    else:
        per = n_rows // n_sessions
        keys = [(f"s{s}", q + 1) for s in range(n_sessions) for q in range(per)]
    return LabeledDataset(
        feature_names=("a", "b"),
        x=rng.normal(size=(len(keys), 2)),
        y=rng.integers(0, 2, size=len(keys)),
        row_keys=keys,
    )


def test_split_one_row_sessions_80_20():
    ds = make_dataset(10)
    train, test = split_train_test(ds, SplitPlan(), 1)
    assert len(train) == 8 and len(test) == 2
    assert set(train.row_keys) | set(test.row_keys) == set(ds.row_keys)
    assert not set(train.row_keys) & set(test.row_keys)


def test_split_deterministic_same_seed():
    ds = make_dataset(40)
    a = split_train_test(ds, SplitPlan(), 9)
    b = split_train_test(ds, SplitPlan(), 9)
    assert a[0].row_keys == b[0].row_keys
    assert a[1].row_keys == b[1].row_keys


def test_split_keeps_sessions_whole():
    ds = make_dataset(n_rows=90, n_sessions=5)
    train, test = split_train_test(ds, SplitPlan(), 4)
    train_sessions = {sid for sid, _ in train.row_keys}
    test_sessions = {sid for sid, _ in test.row_keys}
    assert not train_sessions & test_sessions
    assert len(train) + len(test) == 90


def test_split_too_few_rows():
    ds = make_dataset(1)
    with pytest.raises(DataError, match="^too few rows: a split needs at least 2 sessions$"):
        split_train_test(ds, SplitPlan(), 1)


def test_kfold_sizes_10_rows_k5():
    ds = make_dataset(10)
    folds = kfold(ds, 5, 2)
    assert [len(val) for _, val in folds] == [2, 2, 2, 2, 2]
    for train, val in folds:
        assert len(train) == 8


def test_kfold_sizes_3_rows_k2():
    ds = make_dataset(3)
    folds = kfold_indices(ds, 2, 2)
    assert sorted(len(f) for f in folds) == [1, 2]


def test_kfold_partitions_rows_exactly_once():
    ds = make_dataset(47)
    folds = kfold_indices(ds, 5, 3)
    seen = np.concatenate(folds)
    assert sorted(seen.tolist()) == list(range(47))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


def test_kfold_keeps_sessions_whole():
    ds = make_dataset(n_rows=90, n_sessions=6)
    folds = kfold_indices(ds, 3, 3)
    for f in folds:
        sessions = {ds.row_keys[i][0] for i in f.tolist()}
        for other in folds:
            if other is f:
                continue
            assert not sessions & {ds.row_keys[i][0] for i in other.tolist()}


def test_kfold_too_few_rows():
    ds = make_dataset(3)
    with pytest.raises(DataError, match="^too few rows: 4 folds exceed 3 sessions$"):
        kfold(ds, 4, 1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kfold_determinism_property(seed):
    ds = make_dataset(23)
    a = kfold_indices(ds, 4, seed)
    b = kfold_indices(ds, 4, seed)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert sorted(np.concatenate(a).tolist()) == list(range(23))


def test_one_hot_noop_without_categoricals():
    x = np.array([[1.0, 2.0]])
    pre = fit_preprocessor(x, ("a", "b"), (), scale=False)
    assert np.array_equal(pre.transform(x), x)
    assert pre.output_names == ("a", "b")
    assert pre.onehot_columns == ()


def test_one_hot_expands_dictionary_codes():
    x = np.array([[0.0, 5.0], [1.0, 6.0], [2.0, 7.0], [0.0, 8.0]])
    pre = fit_preprocessor(x, ("code", "val"), ("code",), scale=False)
    out = pre.transform(x)
    assert pre.output_names == ("val", "code=0", "code=1", "code=2")
    assert out[:, 0].tolist() == [5.0, 6.0, 7.0, 8.0]
    assert out[:, 1].tolist() == [1.0, 0.0, 0.0, 1.0]
    assert out[:, 2].tolist() == [0.0, 1.0, 0.0, 0.0]


def test_one_hot_unknown_test_code_is_all_zeros():
    train = np.array([[0.0], [1.0]])
    pre = fit_preprocessor(train, ("code",), ("code",), scale=False)
    test = np.array([[9.0]])
    out = pre.transform(test)
    assert out[0].tolist() == [0.0, 0.0]
    assert pre.output_names == ("code=0", "code=1")


def test_preprocessor_never_uses_test_statistics():
    rng = np.random.default_rng(17)
    train_x = rng.normal(0.0, 1.0, size=(30, 3))
    pre = fit_preprocessor(train_x, ("a", "b", "c"), (), scale=True)
    test_x = rng.normal(50.0, 10.0, size=(10, 3))  # wildly different stats
    out = pre.transform(test_x)
    # transformed with train constants: values stay far from zero mean
    assert out.mean() > 5.0


def test_fold_isolation_no_leakage():
    ds = make_dataset(30, seed=5)
    folds = kfold(ds, 5, 6)
    params = [
        fit_preprocessor(tr.x, tr.feature_names, tr.categorical_names, scale=True)
        for tr, _ in folds
    ]
    # deleting one validation fold's rows must not change the other folds'
    # fitted constants, because each fit only sees its own training rows
    victim_keys = set(folds[0][1].row_keys)
    for i in range(1, len(folds)):
        tr = folds[i][0]
        keep = [j for j, key in enumerate(tr.row_keys) if key not in victim_keys]
        reduced = tr.subset(keep)
        assert set(reduced.row_keys) == set(tr.row_keys) - victim_keys or victim_keys <= set(tr.row_keys)
        refit = fit_preprocessor(tr.x, tr.feature_names, tr.categorical_names, scale=True)
        assert np.array_equal(refit.means, params[i].means)
        assert np.array_equal(refit.scaler_mean, params[i].scaler_mean)


def test_export_fold_assignments():
    ds = make_dataset(6)
    folds = kfold_indices(ds, 3, 1)
    sink = io.StringIO()
    export_fold_assignments(ds, folds, sink)
    lines = sink.getvalue().strip().splitlines()
    assert lines[0] == "fold\tsession_id\tquestion"
    assert len(lines) == 7


def test_default_question_groups_cover_1_to_18():
    assert set(DEFAULT_QUESTION_GROUPS) == set(range(1, 19))
    assert DEFAULT_QUESTION_GROUPS[1] == "0-4"
    assert DEFAULT_QUESTION_GROUPS[4] == "5-12"
    assert DEFAULT_QUESTION_GROUPS[13] == "5-12"
    assert DEFAULT_QUESTION_GROUPS[14] == "13-22"
    assert DEFAULT_QUESTION_GROUPS[18] == "13-22"
    assert set(DEFAULT_QUESTION_GROUPS.values()) == set(LEVEL_GROUPS)


def test_dataset_arrays_are_immutable():
    ds = make_dataset(5)
    with pytest.raises(ValueError):
        ds.x[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.y[0] = 1
