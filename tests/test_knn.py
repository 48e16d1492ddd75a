import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gametrace.knn as knn
from gametrace.errors import ConfigError, DataError, DimensionMismatchError, LengthMismatchError
from gametrace.knn import knn_fit, knn_predict
from gametrace.settings import METRICS

from oracles import _reference_distance_block, knn_oracle, reference_knn_predict


def test_fit_with_k_equal_rows_is_valid():
    x = np.eye(3)
    model = knn_fit(x, [0, 1, 0], k=3)
    assert model.k == 3


def test_fit_with_k_above_rows_raises():
    with pytest.raises(ConfigError, match=r"^k=4 exceeds number of stored rows \(3\)$"):
        knn_fit(np.eye(3), [0, 1, 0], k=4)


def test_fit_rejects_bad_k_and_metric():
    with pytest.raises(ConfigError):
        knn_fit(np.eye(2), [0, 1], k=0)
    with pytest.raises(ConfigError):
        knn_fit(np.eye(2), [0, 1], k=1, metric="chebyshev")


def test_fit_stores_immutable_copy():
    x = np.array([[0.0, 0.0], [10.0, 10.0]])
    y = np.array([0, 1])
    model = knn_fit(x, y, k=1)
    before = knn_predict(model, np.array([[0.1, 0.1]]))
    x[0] = [100.0, 100.0]  # caller mutates after fit
    y[0] = 1
    after = knn_predict(model, np.array([[0.1, 0.1]]))
    assert before.tolist() == after.tolist() == [0]
    with pytest.raises(ValueError):
        model.x[0, 0] = 5.0


def nearest(stored, query, metric):
    """Index of the stored row ``knn_predict`` finds closest to ``query``."""
    model = knn_fit(np.array(stored, dtype=float), np.arange(len(stored)), k=1, metric=metric)
    return int(knn_predict(model, np.array([query], dtype=float))[0])


def test_euclidean_3_4_5():
    # (3, 4) is 5 away from the origin, nearer than 5.1 along one axis but
    # farther than 4.9: the distance is the root of the summed squares
    assert nearest([[5.1, 0.0], [3.0, 4.0]], [0.0, 0.0], "euclidean") == 1
    assert nearest([[4.9, 0.0], [3.0, 4.0]], [0.0, 0.0], "euclidean") == 0


def test_manhattan():
    # (4, 5) is 7 from (1, 1): nearer than 7.1 on one axis, farther than 6.9
    assert nearest([[8.1, 1.0], [4.0, 5.0]], [1.0, 1.0], "manhattan") == 1
    assert nearest([[7.9, 1.0], [4.0, 5.0]], [1.0, 1.0], "manhattan") == 0


def test_cosine_parallel_vectors_have_zero_distance():
    # direction, not length: the far parallel row beats a near slanted one
    assert nearest([[2.0, 2.1], [50.0, 50.0]], [2.0, 2.0], "cosine") == 1


def test_cosine_orthogonal_vectors():
    # orthogonal (distance 1) is nearer than opposite (distance 2)
    assert nearest([[-1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], "cosine") == 1


def test_cosine_zero_vector_raises():
    model = knn_fit(np.array([[1.0, 1.0], [2.0, 0.5]]), [0, 1], k=1, metric="cosine")
    with pytest.raises(DataError, match="^cosine distance undefined for zero-norm vector$"):
        knn_predict(model, np.array([[0.0, 0.0]]))
    stored_zero = knn_fit(np.array([[0.0, 0.0], [2.0, 0.5]]), [0, 1], k=1, metric="cosine")
    with pytest.raises(DataError, match="^cosine distance undefined for zero-norm vector$"):
        knn_predict(stored_zero, np.array([[1.0, 1.0]]))


def test_distance_dimension_mismatch():
    model = knn_fit(np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 1], k=1)
    with pytest.raises(DimensionMismatchError):
        knn_predict(model, np.array([[1.0]]))


def test_fit_names_rows_against_labels():
    with pytest.raises(LengthMismatchError, match="row and label counts differ: 3 vs 2"):
        knn_fit(np.eye(3), [0, 1], k=1)


def test_predict_k1_on_training_row_returns_its_label():
    x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    y = [1, 0, 1]
    model = knn_fit(x, y, k=1)
    assert knn_predict(model, x).tolist() == y


def test_predict_majority_vote():
    x = np.array([[0.0], [0.1], [0.2], [50.0]])
    y = [1, 1, 0, 0]
    model = knn_fit(x, y, k=3)
    assert knn_predict(model, np.array([[0.0]])).tolist() == [1]


def test_predict_dimension_mismatch():
    model = knn_fit(np.eye(2), [0, 1], k=1)
    with pytest.raises(DimensionMismatchError):
        knn_predict(model, np.array([[1.0, 2.0, 3.0]]))


@pytest.mark.parametrize("metric", METRICS)
def test_200_random_points_match_bruteforce_oracle(metric):
    rng = np.random.default_rng(1729)
    x = rng.normal(size=(200, 5)) + 1.0  # offset keeps cosine norms nonzero
    y = rng.integers(0, 2, size=200)
    queries = rng.normal(size=(60, 5)) + 1.0
    model = knn_fit(x, y, k=5, metric=metric)
    got = knn_predict(model, queries)
    want = knn_oracle(x.tolist(), y.tolist(), queries.tolist(), 5, metric)
    assert got.tolist() == want


def test_distance_ties_break_by_lower_stored_index():
    # two stored rows equidistant from the query with different labels
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [8.0, 8.0]])
    y = [1, 0, 0]
    model = knn_fit(x, y, k=1)
    assert knn_predict(model, np.array([[0.0, 0.0]])).tolist() == [1]


def test_vote_tie_breaks_by_smaller_total_distance():
    # k=2: one neighbor per class; class of the nearer neighbor wins
    x = np.array([[1.0], [-2.0], [50.0]])
    y = [1, 0, 0]
    model = knn_fit(x, y, k=2)
    assert knn_predict(model, np.array([[0.0]])).tolist() == [1]


def test_vote_tie_with_equal_totals_prefers_label_zero():
    x = np.array([[1.0], [-1.0]])
    y = [1, 0]
    model = knn_fit(x, y, k=2)
    assert knn_predict(model, np.array([[0.0]])).tolist() == [0]


def test_predictions_invariant_under_training_permutation():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 4))
    y = rng.integers(0, 2, size=80)
    queries = rng.normal(size=(25, 4))
    a = knn_predict(knn_fit(x, y, k=5), queries)
    order = rng.permutation(80)
    b = knn_predict(knn_fit(x[order], y[order], k=5), queries)
    assert a.tolist() == b.tolist()


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_uniform_feature_scaling_preserves_predictions(metric):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 3))
    y = rng.integers(0, 2, size=60)
    queries = rng.normal(size=(20, 3))
    a = knn_predict(knn_fit(x, y, k=5, metric=metric), queries)
    c = 37.5
    b = knn_predict(knn_fit(x * c, y, k=5, metric=metric), queries * c)
    assert a.tolist() == b.tolist()


def test_predict_rejects_nan_training_data():
    x = np.array([[np.nan, 1.0], [0.0, 2.0]])
    with pytest.raises(ConfigError):
        knn_fit(x, [0, 1], k=1)


@st.composite
def euclidean_cases(draw):
    """Stored rows and queries for the screened euclidean search: few
    levels (duplicate rows, exact distance ties) or continuous values,
    scaled from 1e-162 (squares underflow) to 1e160 (squares overflow, so
    every row falls back), optionally on a large common offset (the
    screen's expansion cancels heavily), with k up to n and NaN queries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, n) | st.integers(max(1, n - 2), n))
    levels = draw(st.sampled_from([None, None, 2, 3, 50]))
    offset = draw(st.sampled_from([0.0, 0.0, 1e6, 1e15]))
    scale = draw(st.sampled_from([1e-162, 1e-160, 1e-150, 1e-75, 1.0, 1e75, 1e150, 1e160]))

    def draw_rows(count):
        if levels is None:
            return rng.normal(size=(count, d))
        return rng.integers(0, levels, size=(count, d)).astype(np.float64)

    stored = draw_rows(n)
    stored[rng.integers(0, n, size=n // 3)] = stored[rng.integers(0, n, size=n // 3)]
    queries = draw_rows(int(rng.integers(1, 12)))
    queries[::3] = stored[rng.integers(0, n, size=queries[::3].shape[0])]
    queries[rng.random(queries.shape) < 0.05] = np.nan
    y = rng.integers(0, 3, size=n)
    return (stored + offset) * scale, y, (queries + offset) * scale, k


@given(euclidean_cases())
@settings(max_examples=200, deadline=None)
def test_screened_euclidean_search_matches_brute_force(case):
    stored, y, queries, k = case
    with np.errstate(over="ignore", invalid="ignore"):  # squares past the float64 range
        full = _reference_distance_block(queries, stored, "euclidean")
        want = np.argsort(full, axis=1, kind="stable")[:, :k]
        nbr, nd = knn._euclidean_neighbors(queries, stored, (stored * stored).sum(axis=1), k)
        assert nbr.tolist() == want.tolist()
        assert nd.tobytes() == np.take_along_axis(full, want, axis=1).tobytes()

        model = knn_fit(stored, y, k=k)
        got = knn_predict(model, queries)
        finite = ~np.isnan(queries).any(axis=1)
        assert got[finite].tolist() == reference_knn_predict(model, queries[finite]).tolist()
    # NaN rows: every distance is NaN, so the neighbours are the first k
    # stored rows, and a vote tie goes to the smaller label
    counts = np.bincount(y[:k])
    assert (got[~finite] == np.flatnonzero(counts == counts.max())[0]).all()


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 11, 16, 17, 128, 129, 300])
def test_pair_distances_are_the_block_distances_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for scale in (1e-160, 1.0, 1e150):
        queries = rng.normal(size=(9, d)) * scale
        stored = rng.normal(size=(31, d)) * scale
        stored[3] += 1e9 * scale  # one far row: large and small squares in one sum
        rows = rng.integers(0, 9, size=200)
        cols = rng.integers(0, 31, size=200)
        with np.errstate(over="ignore"):  # that row's squares overflow at 1e150
            got = knn._pair_distances(queries, rows, stored, cols)
            full = _reference_distance_block(queries, stored, "euclidean")
        assert got.tobytes() == full[rows, cols].tobytes()


def test_screen_keeps_few_candidates_on_scaled_features(monkeypatch):
    # standardized features: the rounding bound is far below the gap
    # between neighbours, so about k rows per query reach the exact re-rank
    rng = np.random.default_rng(5)
    model = knn_fit(rng.normal(size=(3000, 11)), rng.integers(0, 2, size=3000), k=5)
    queries = rng.normal(size=(200, 11))
    reranked = []
    exact = knn._pair_distances

    def counting(q, rows, stored, cols):
        reranked.append(rows.size)
        return exact(q, rows, stored, cols)

    monkeypatch.setattr(knn, "_pair_distances", counting)
    knn_predict(model, queries)
    assert sum(reranked) < 6 * queries.shape[0]


def test_euclidean_predict_memory_stays_under_4_mib():
    # the holdout-large shape: 5,760 stored rows of 11 features, 1,440 queries
    rng = np.random.default_rng(0)
    model = knn_fit(rng.normal(size=(5760, 11)), rng.integers(0, 2, size=5760), k=5)
    queries = rng.normal(size=(1440, 11))
    tracemalloc.start()
    try:
        knn_predict(model, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_cosine_predict_memory_stays_near_two_distance_blocks():
    # one cosine block of 256 queries against the holdout-large shape's 5,760
    # stored rows: the distances and one temporary of their size, not a third
    rng = np.random.default_rng(0)
    model = knn_fit(rng.normal(size=(5760, 11)), rng.integers(0, 2, size=5760), k=5, metric="cosine")
    queries = rng.normal(size=(256, 11))
    block = queries.shape[0] * 5760 * 8
    tracemalloc.start()
    try:
        knn_predict(model, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.01 * block
