import numpy as np
import pytest

from gametrace.errors import (
    ConfigError,
    DimensionMismatchError,
    KTooLargeError,
    LengthMismatchError,
    ZeroVectorError,
)
from gametrace.knn import METRICS, knn_fit, knn_predict

from oracles import knn_oracle


def test_fit_with_k_equal_rows_is_valid():
    x = np.eye(3)
    model = knn_fit(x, [0, 1, 0], k=3)
    assert model.k == 3


def test_fit_with_k_above_rows_raises():
    with pytest.raises(KTooLargeError):
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
    with pytest.raises(ZeroVectorError):
        knn_predict(model, np.array([[0.0, 0.0]]))
    stored_zero = knn_fit(np.array([[0.0, 0.0], [2.0, 0.5]]), [0, 1], k=1, metric="cosine")
    with pytest.raises(ZeroVectorError):
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
