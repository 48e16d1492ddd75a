"""The vectorized model kernels give the same bytes as their straightforward
references in ``oracles.py``, on inputs rich in ties, duplicates and NaN."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gametrace.forest as forest
import gametrace.knn as knn
from gametrace.errors import ConfigError
from gametrace.forest import flatten_trees, forest_fit
from gametrace.knn import knn_fit, knn_predict
from gametrace.mlp import _logistic
from gametrace.settings import METRICS, TreeConfig

from oracles import reference_knn_predict, reference_logistic, reference_scan_split


def _duplicated_rows(seed, n, d, levels):
    """Small-integer features (many equal values) with whole rows repeated."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, levels, size=(n // 2, d)).astype(np.float64)
    x = np.concatenate([base, base[rng.integers(0, base.shape[0], size=n - base.shape[0])]])
    x = x[rng.permutation(n)]
    y = ((x[:, 0] + x[:, 1] + rng.integers(0, 3, size=n)) > levels).astype(np.int64)
    return x, y


def _split_bytes(found):
    if found is None:
        return None
    f, thr, gain = found
    return f, struct.pack("<d", thr), struct.pack("<d", gain)


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("subsample", ["sqrt", "all"])
def test_forest_arrays_match_reference_scan(monkeypatch, criterion, subsample):
    x, y = _duplicated_rows(3, 240, 9, levels=4)
    config = TreeConfig(criterion=criterion, feature_subsample=subsample, max_depth=None)
    fast = flatten_trees(forest_fit(x, y, tree_count=6, config=config, seed=5).trees)
    monkeypatch.setattr(forest, "_scan_split", reference_scan_split)
    slow = flatten_trees(forest_fit(x, y, tree_count=6, config=config, seed=5).trees)
    assert fast.keys() == slow.keys()
    for name in fast:
        assert fast[name].dtype == slow[name].dtype, name
        assert fast[name].tobytes() == slow[name].tobytes(), name
    assert fast["tree_features"].shape[0] > 6 * 15  # the trees are not stumps


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_scan_split_matches_reference_per_node(criterion):
    rng = np.random.default_rng(11)
    config = TreeConfig(criterion=criterion)
    for trial in range(200):
        n = int(rng.integers(2, 40 if trial % 4 else 600))
        d = int(rng.integers(1, 6))
        x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        if trial % 7 == 0:
            x[rng.integers(0, n, size=3), rng.integers(0, d)] = [np.inf, -np.inf, np.inf]
        if trial % 5 == 0:  # zeros of both signs: equal values with different bits
            zeros = x == 0.0
            x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        if trial % 11 == 0:
            x[:, 0] = 1.0  # a constant column
        y = rng.integers(0, 2, size=n).astype(np.int64)
        candidates = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        for cand in (np.arange(d), candidates):
            cols = x.T[cand]
            assert _split_bytes(forest._scan_split(cols, y, config, cand)) == _split_bytes(
                reference_scan_split(cols, y, config, cand)
            )


def test_forest_entry_points_reject_absent_values():
    x = np.arange(12, dtype=np.float64).reshape(6, 2)
    x[4, 1] = np.nan
    y = np.array([0, 1, 0, 1, 0, 1])
    for fit in (forest.best_split, forest.tree_fit):
        with pytest.raises(ConfigError, match="absent"):
            fit(x, y, TreeConfig())
    with pytest.raises(ConfigError, match="absent"):  # also when no bootstrap draws the row
        forest_fit(x, y, tree_count=3, seed=1)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_knn_labels_match_reference(metric, k):
    rng = np.random.default_rng(k)
    for n_stored, d, n_queries in ((300, 4, 700), (2000, 11, 60)):
        stored, _ = _duplicated_rows(k + n_stored, n_stored, d, levels=3)
        stored += 1.0  # no zero vectors under cosine
        y = rng.integers(0, 3, size=n_stored)
        queries = rng.integers(0, 4, size=(n_queries, d)).astype(np.float64) + 0.5
        queries[::3] = stored[rng.integers(0, n_stored, size=queries[::3].shape[0])]
        queries[7] = np.nan
        queries[8, 1] = np.nan
        model = knn_fit(stored, y, k=k, metric=metric)
        got = knn_predict(model, queries)
        finite = np.isfinite(queries).all(axis=1)
        assert got[finite].tolist() == reference_knn_predict(model, queries[finite]).tolist()
        # NaN rows: every distance is NaN, so the neighbours are the first k
        # stored rows. The reference agrees unless their vote ties, where its
        # min() over NaN totals found no label and raised.
        first_k = y[:k]
        counts = np.bincount(first_k)
        expected = int(np.flatnonzero(counts == counts.max())[0])
        for r in np.flatnonzero(~finite):
            assert got[r] == expected
            try:
                assert reference_knn_predict(model, queries[r]).tolist() == [expected]
            except ValueError:
                assert (counts == counts.max()).sum() > 1


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_neighbors_match_stable_argsort(k):
    rng = np.random.default_rng(k)
    dists = rng.integers(0, 4, size=(60, 40)).astype(np.float64)  # many ties
    dists[1] = np.nan  # every distance absent
    dists[2, ::3] = np.nan  # some absent: NaNs sort last, in index order
    dists[3, : 40 - k + 1] = np.nan  # fewer than k finite distances
    dists[4, ::2] = np.inf
    dists[5, 1::2] = -0.0
    expected = np.argsort(dists, axis=1, kind="stable")[:, :k]
    nbr, nd = knn._nearest(dists, 0.0, k, lambda flat, rows, cols: dists.ravel()[flat])
    assert nbr.tolist() == expected.tolist()
    assert nd.tobytes() == np.take_along_axis(dists, expected, axis=1).tobytes()


_SPECIAL = st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf])
_ENTRY = st.one_of(_SPECIAL, st.integers(0, 3).map(float), st.floats(-4.0, 4.0))


@st.composite
def screened_blocks(draw):
    """An exact distance block rich in ties, NaN, signed zeros and
    infinities; per row a slack of 0, a finite value or infinity; and a
    screen within the slack of the exact block (equal to it where the exact
    value is not finite; arbitrary where the slack is infinite)."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    k = draw(st.integers(1, cols))
    cells = st.lists(_ENTRY, min_size=rows * cols, max_size=rows * cols)
    exact = np.array(draw(cells)).reshape(rows, cols)
    slack = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, np.inf]), min_size=rows, max_size=rows)))
    noise = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=rows * cols, max_size=rows * cols)))
    noise = noise.reshape(rows, cols)
    unbounded = np.isinf(slack)
    screen = np.where(np.isfinite(exact), exact + noise * np.where(unbounded, 0.0, slack)[:, None], exact)
    screen[unbounded] = 1e6 * noise[unbounded]
    return exact, screen, slack, k


@given(screened_blocks())
@settings(max_examples=300, deadline=None)
def test_nearest_is_the_stable_argsort_of_the_exact_block(case):
    exact, screen, slack, k = case
    nbr, nd = knn._nearest(screen, slack, k, lambda flat, rows, cols: exact[rows, cols])
    expected = np.argsort(exact, axis=1, kind="stable")[:, :k]
    assert nbr.tolist() == expected.tolist()
    assert nd.tobytes() == np.take_along_axis(exact, expected, axis=1).tobytes()


def test_knn_predict_takes_no_block_size():
    model = knn_fit(np.eye(3), [0, 1, 0], k=1)
    with pytest.raises(TypeError):
        knn_predict(model, np.eye(3), block_size=2)


def test_knn_predict_memory_is_bounded_by_the_block_budget():
    rng = np.random.default_rng(0)
    model = knn_fit(rng.normal(size=(5760, 11)), rng.integers(0, 2, size=5760), k=5)
    queries = rng.normal(size=(1440, 11))
    tracemalloc.start()
    try:
        knn_predict(model, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # one 256-row block of differences alone is 130 MB


def test_logistic_matches_reference_bytes():
    special = np.array(
        [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan,
         709.8, -709.8, 36.8, -36.8, 5e-324, -5e-324]
    )
    rng = np.random.default_rng(4)
    grids = [
        special,
        np.concatenate([special, rng.normal(scale=40.0, size=1000)]).reshape(8, -1),
        rng.normal(scale=3.0, size=(256, 128)),
    ]
    for z in grids:
        assert _logistic(z).tobytes() == reference_logistic(z).tobytes()
