import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gametrace.errors import ConfigError, DataError, DimensionMismatchError
from gametrace.forest import (
    ForestModel,
    Internal,
    Leaf,
    best_split,
    entropy,
    flatten_trees,
    forest_fit,
    forest_predict,
    gini,
    tree_fit,
    tree_predict,
)
from gametrace.rng import derive_seed
from gametrace.settings import ForestClassifier, TreeConfig

from oracles import best_split_oracle


def tree_depth(node) -> int:
    """Edges on the longest root-to-leaf path."""
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def test_entropy_pure_node_is_zero():
    assert entropy((4, 0)) == 0.0


def test_entropy_balanced_binary_is_one_bit():
    assert entropy((5, 5)) == 1.0


def test_entropy_3_1():
    assert entropy((3, 1)) == pytest.approx(0.8113, abs=1e-4)


def test_entropy_empty_raises():
    for impurity in (entropy, gini):
        with pytest.raises(DataError, match="^impurity undefined for an empty sample set$"):
            impurity((0, 0))


def test_gini_pure_and_balanced():
    assert gini((7, 0)) == 0.0
    assert gini((5, 5)) == 0.5


def test_gini_3_1_exact_fraction():
    assert gini((3, 1)) == pytest.approx(0.375, abs=1e-12)


def test_best_split_no_distinct_values_returns_none():
    x = np.ones((6, 3))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert best_split(x, y, TreeConfig()) is None


def test_best_split_forced_geometry():
    x = np.array([[1.0], [2.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    for crit in ("gini", "entropy"):
        f, thr, gain = best_split(x, y, TreeConfig(criterion=crit))
        assert f == 0
        assert thr == 6.0
        parent = entropy((2, 2)) if crit == "entropy" else gini((2, 2))
        assert gain == pytest.approx(parent)  # children are pure


def test_best_split_pure_node_returns_none():
    x = np.array([[1.0], [2.0]])
    y = np.array([1, 1])
    assert best_split(x, y, TreeConfig()) is None


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_best_split_matches_exhaustive_oracle(criterion):
    rng = np.random.default_rng(77)
    for trial in range(30):
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30)
        if y.min() == y.max():
            continue
        got = best_split(x, y, TreeConfig(criterion=criterion))
        want = best_split_oracle(x, y, criterion)
        if want is None:
            assert got is None
            continue
        assert got[0] == want[0], trial
        assert got[1] == pytest.approx(want[1], abs=1e-12)
        assert got[2] == pytest.approx(want[2], rel=1e-9)


def test_tree_fit_pure_input_is_single_leaf():
    x = np.array([[1.0], [2.0], [3.0]])
    tree = tree_fit(x, np.array([1, 1, 1]))
    assert isinstance(tree, Leaf)
    assert tree.label == 1
    assert tree.counts == (0, 3)


def test_tree_fit_xor_reaches_training_accuracy_one():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 4)
    y = np.array([0, 1, 1, 0] * 4)
    tree = tree_fit(x, y, TreeConfig())
    assert np.array_equal(tree_predict(tree, x), y)
    assert tree_depth(tree) == 2


def test_tree_max_depth_one_is_a_stump():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    tree = tree_fit(x, y, TreeConfig(max_depth=1))
    assert tree_depth(tree) <= 1
    if isinstance(tree, Internal):
        assert isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)


def test_tree_depth_never_exceeds_max_depth():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 4))
    y = rng.integers(0, 2, size=200)
    for depth in (1, 2, 3, 5):
        tree = tree_fit(x, y, TreeConfig(max_depth=depth))
        assert tree_depth(tree) <= depth


def test_tree_leaf_majority_tie_prefers_zero():
    x = np.array([[1.0], [1.0]])
    y = np.array([0, 1])
    tree = tree_fit(x, y)
    assert isinstance(tree, Leaf)
    assert tree.label == 0


def test_tree_invariant_under_row_permutation_with_duplicates():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(20, 3))
    x = np.vstack([base, base[:10]])
    y = np.concatenate([rng.integers(0, 2, size=20), np.zeros(10, dtype=int)])
    t1 = tree_fit(x, y, TreeConfig())
    order = rng.permutation(len(y))
    t2 = tree_fit(x[order], y[order], TreeConfig())
    assert t1 == t2  # frozen dataclasses compare structurally


@st.composite
def _training_rows(draw):
    """Small-integer features (ties everywhere) and row indices with repeats."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 5))
    cells = st.integers(0, 3).map(float)
    x = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    return x, y, rows


@given(
    data=_training_rows(),
    criterion=st.sampled_from(["gini", "entropy"]),
    max_depth=st.one_of(st.none(), st.integers(1, 4)),
    subsample=st.sampled_from(["all", "sqrt"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_tree_grown_from_row_indices_equals_tree_of_those_rows(data, criterion, max_depth, subsample, seed):
    x, y, rows = data
    cfg = TreeConfig(criterion=criterion, max_depth=max_depth, feature_subsample=subsample)
    by_index = tree_fit(x, y, cfg, rng=np.random.default_rng(seed), rows=rows)
    copied = tree_fit(x[rows], y[rows], cfg, rng=np.random.default_rng(seed))
    assert by_index == copied
    got, want = flatten_trees([by_index]), flatten_trees([copied])
    assert all(got[name].tobytes() == want[name].tobytes() for name in want)


@pytest.mark.parametrize(
    "rows",
    [
        np.array([], dtype=np.int64),
        np.array([0, 4]),
        np.array([-1]),
        np.array([[0, 1]]),
        np.array([True, False, True, True]),  # a mask, not indices
        np.array([0.7, 1.0, 2.0]),
    ],
)
def test_tree_fit_rejects_rows_that_are_not_row_indices(rows):
    x = np.arange(8.0).reshape(4, 2)
    with pytest.raises(DataError, match="row indices"):
        tree_fit(x, np.array([0, 1, 0, 1]), rows=rows)


def test_tree_nodes_have_no_instance_dict():
    leaf = Leaf((0, 2))
    node = Internal(0, 0.5, 0.1, leaf, leaf)
    assert not hasattr(leaf, "__dict__") and not hasattr(node, "__dict__")
    assert node == Internal(0, 0.5, 0.1, Leaf((0, 2)), Leaf((0, 2)))


def test_min_samples_split_stops_growth():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 1, 0, 1])
    tree = tree_fit(x, y, TreeConfig(min_samples_split=5))
    assert isinstance(tree, Leaf)


@pytest.mark.parametrize(
    "a, b",
    [
        (1.0000000000000002, 1.0000000000000004),  # the midpoint rounds up to b
        (1.5e308, 1.7e308),  # the midpoint overflows to inf
        (-1.7e308, -1.5e308),  # the midpoint overflows to -inf
    ],
)
def test_split_of_two_values_separates_them(a, b):
    # A threshold outside [a, b) sends both rows to one side, and the same
    # node splits again until the depth limit; unlimited, it never ends.
    tree = tree_fit(np.array([[a], [b]]), np.array([0, 1]), TreeConfig(max_depth=5))
    assert isinstance(tree, Internal)
    assert a <= tree.threshold < b
    assert tree.left == Leaf((1, 0))
    assert tree.right == Leaf((0, 1))


def _blobs(seed, n, gap=5.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.uniform(-2.0, 2.0, size=(half, 2)) + [-gap / 2, 0.0]
    x1 = rng.uniform(-2.0, 2.0, size=(n - half, 2)) + [gap / 2, 0.0]
    x = np.vstack([x0, x1])
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return x[order], y[order]


def test_forest_of_one_equals_single_tree_on_its_bootstrap_rows():
    x, y = _blobs(4, 60)
    cfg = ForestClassifier(trees=1, feature_subsample="all")
    forest = forest_fit(x, y, cfg, 9)
    rng = np.random.default_rng(derive_seed(9, 0))
    rows = rng.integers(0, len(x), len(x))
    lone = tree_fit(x, y, cfg, rng=rng, rows=rows)
    assert forest.trees[0] == lone
    queries = x[:20]
    assert np.array_equal(forest_predict(forest, queries), tree_predict(lone, queries))


def test_forest_same_seed_identical_structures():
    x, y = _blobs(5, 80)
    a = forest_fit(x, y, ForestClassifier(trees=12), 42)
    b = forest_fit(x, y, ForestClassifier(trees=12), 42)
    assert a.trees == b.trees


def test_forest_different_seed_differs():
    x, y = _blobs(5, 80)
    a = forest_fit(x, y, ForestClassifier(trees=5), 1)
    b = forest_fit(x, y, ForestClassifier(trees=5), 2)
    assert a.trees != b.trees


def test_forest_separable_blobs_test_accuracy():
    x_train, y_train = _blobs(6, 300)
    x_test, y_test = _blobs(7, 200)
    forest = forest_fit(x_train, y_train, ForestClassifier(trees=100), 42)
    acc = float((forest_predict(forest, x_test) == y_test).mean())
    assert acc >= 0.95


def test_forest_votes_match_per_tree_traversal():
    x, y = _blobs(8, 100)
    forest = forest_fit(x, y, ForestClassifier(trees=7), 3)
    queries = x[:30]
    votes = np.zeros(len(queries), dtype=int)
    for tree in forest.trees:
        votes += tree_predict(tree, queries)
    want = (votes * 2 > len(forest.trees)).astype(int)
    assert np.array_equal(forest_predict(forest, queries), want)


def test_forest_majority_three_votes():
    t_one = Leaf((0, 1))
    t_zero = Leaf((1, 0))
    model = ForestModel(trees=[t_one, t_one, t_zero], config=TreeConfig(), n_features=2)
    assert forest_predict(model, np.zeros((1, 2))).tolist() == [1]


def test_forest_vote_tie_prefers_zero():
    model = ForestModel(trees=[Leaf((0, 1)), Leaf((1, 0))], config=TreeConfig(), n_features=2)
    assert forest_predict(model, np.zeros((1, 2))).tolist() == [0]


def test_forest_beats_or_matches_single_tree_on_blobs():
    x_train, y_train = _blobs(10, 240)
    x_test, y_test = _blobs(11, 160)
    forest = forest_fit(x_train, y_train, ForestClassifier(trees=50), 42)
    tree = tree_fit(x_train, y_train, TreeConfig(feature_subsample="all"))
    train_forest = float((forest_predict(forest, x_train) == y_train).mean())
    train_tree = float((tree_predict(tree, x_train) == y_train).mean())
    assert train_forest >= train_tree - 0.05  # generous sanity margin
    acc_forest = float((forest_predict(forest, x_test) == y_test).mean())
    acc_tree = float((tree_predict(tree, x_test) == y_test).mean())
    assert acc_forest >= acc_tree - 0.05


def test_forest_dimension_mismatch():
    x, y = _blobs(12, 40)
    forest = forest_fit(x, y, ForestClassifier(trees=3), 1)
    with pytest.raises(DimensionMismatchError):
        forest_predict(forest, np.zeros((2, 5)))


def test_forest_rejects_bad_config():
    with pytest.raises(ConfigError):
        TreeConfig(criterion="variance")
    with pytest.raises(ConfigError):
        TreeConfig(max_depth=0)
    with pytest.raises(ConfigError, match="^trees must be >= 1$"):
        ForestClassifier(trees=0)
