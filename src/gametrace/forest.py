"""Decision trees with entropy/Gini splits and a bagged forest ensemble.

Split thresholds sit at midpoints between consecutive distinct sorted
values a < b, or at a where the midpoint is not below b, so every split
separates its rows and trees are exact and deterministic; ties prefer the
lower feature index, then the lower threshold. The forest draws one
bootstrap resample per tree from a per-tree seed derived from the master
seed by tree index, making the ensemble independent of training order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, ContainerFormatError, DataError, DimensionMismatchError
from .rng import derive_seed
from .settings import TreeConfig, check_tree_count


@dataclass(frozen=True, slots=True)
class Leaf:
    label: int
    counts: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Internal:
    feature: int
    threshold: float  # value <= threshold routes left
    gain: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Internal]


def _checked_counts(class_counts: Sequence[int]) -> tuple[list[int], int]:
    """The counts as ints and their total; none may be negative, and the
    total must not be 0."""
    counts = [int(c) for c in class_counts]
    if any(c < 0 for c in counts):
        raise DataError("negative class count")
    total = sum(counts)
    if total == 0:
        raise DataError("impurity undefined for an empty sample set")
    return counts, total


def entropy(class_counts: Sequence[int]) -> float:
    """Shannon entropy in bits; 0*log0 taken as 0."""
    counts, total = _checked_counts(class_counts)
    out = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            out -= p * math.log2(p)
    return out


def gini(class_counts: Sequence[int]) -> float:
    """Gini impurity: 1 - sum of squared class probabilities."""
    counts, total = _checked_counts(class_counts)
    return 1.0 - sum((c / total) ** 2 for c in counts)


def _impurity(counts: Sequence[int], criterion: str) -> float:
    return entropy(counts) if criterion == "entropy" else gini(counts)


def best_split(
    x: np.ndarray,
    y: np.ndarray,
    config: TreeConfig,
    candidate_features: Optional[Sequence[int]] = None,
) -> Optional[tuple[int, float, float]]:
    """Exhaustive midpoint-threshold scan; None when no split gains.

    Binary labels. Returns (feature, threshold, gain) maximizing gain with
    ties broken by lower feature index then lower threshold.
    """
    x, y = _training_arrays(x, y, "best_split")
    features = range(x.shape[1]) if candidate_features is None else candidate_features
    found = _scan_split(x.T[features], y, config, features)
    if found is None or found[2] <= 0.0:
        return None
    return found


def _scan_split(
    cols: np.ndarray,
    y: np.ndarray,
    config: TreeConfig,
    features: Sequence[int],
) -> Optional[tuple[int, float, float]]:
    """Best (feature, threshold, gain) over all midpoints, zero gain allowed.

    ``cols`` is the (c, n) block of the candidate features' values, row i
    holding feature ``features[i]`` of the node's n rows.

    None only when the node is pure or no candidate feature has two
    distinct values. Tree growth uses this directly: impurity criteria are
    concave, so gain is never negative, and splitting through a zero-gain
    plateau (the XOR pattern) is required to reach the pure leaves below.
    """
    n = cols.shape[1]
    n1 = int(y.sum())
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        return None
    parent = _impurity((n0, n1), config.criterion)
    # All candidate features at once. A cut at flat position p of the
    # (c, n - 1) neighbour comparison splits feature p // (n - 1) after
    # sorted position p % (n - 1); the first maximum in this feature-major
    # order is the lower feature, then the lower threshold. Each gain takes
    # the same float operations as in a per-feature scan.
    #
    # The sort need not be stable: the counts at a cut do not depend on the
    # order within a run of equal values, and those values differ at most in
    # the sign of a zero, which a midpoint with a nonzero neighbour drops.
    # NaN, never equal to itself, is rejected by ``_training_arrays``.
    order = cols.argsort(axis=1)
    sv = cols.ravel()[order + np.arange(0, cols.size, n)[:, None]]
    flat = (sv[:, 1:] != sv[:, :-1]).ravel().nonzero()[0]
    if flat.shape[0] == 0:
        return None
    feat, cuts = np.divmod(flat, n - 1)
    nl = cuts + 1
    nl1 = y[order].cumsum(axis=1).ravel()[flat + feat]
    side = np.array([nl, n - nl])  # rows left of each cut, right of it
    ones = np.array([nl1, n1 - nl1])
    share = np.array([side - ones, ones]) / side  # [class, side, cut]
    if config.criterion == "gini":
        impurity = 1.0 - (share[0] ** 2 + share[1] ** 2)
    else:
        plog = _plog2(share)
        impurity = -(plog[0] + plog[1])
    weighted = side / n * impurity
    gains = parent - (weighted[0] + weighted[1])
    j = int(gains.argmax())
    lo = flat[j] + feat[j]  # sorted value just left of the cut, in sv.ravel()
    a, b = float(sv.flat[lo]), float(sv.flat[lo + 1])
    thr = (a + b) / 2.0
    if not a <= thr < b:  # adjacent doubles round up to b; huge ones overflow
        thr = a
    return int(features[feat[j]]), thr, float(gains[j])


def _plog2(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def _majority(n0: int, n1: int) -> int:
    return 1 if n1 > n0 else 0  # tie -> label 0


def _training_arrays(x, y, who: str) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise DataError(f"{who} needs a nonempty matrix with matching labels")
    if np.isnan(x).any():
        raise ConfigError("training matrix contains absent values; impute first")
    return x, y


def tree_fit(
    x: np.ndarray,
    y: np.ndarray,
    config: TreeConfig = TreeConfig(),
    rng: Optional[np.random.Generator] = None,
    rows: Optional[np.ndarray] = None,
) -> TreeNode:
    """Grow one tree; stops at purity, depth, node size, or zero gain.
    Feature subsets are drawn from ``rng``, by default ``default_rng(0)``.

    The tree is grown on the rows ``x[rows]``, repeats allowed, by default
    every row; it equals the tree of ``tree_fit(x[rows], y[rows])`` without
    copying them: a node holds only its row indices, and gathers only its
    candidate columns of those rows for the split scan.
    """
    x, y = _training_arrays(x, y, "tree_fit")
    if rng is None:
        rng = np.random.default_rng(0)
    if rows is None:
        rows = np.arange(x.shape[0])
    else:
        rows = np.asarray(rows)
        if (
            not np.issubdtype(rows.dtype, np.integer)
            or rows.ndim != 1
            or rows.shape[0] == 0
            or rows.min() < 0
            or rows.max() >= x.shape[0]
        ):
            raise DataError("tree_fit rows must be a nonempty vector of row indices")
    d = x.shape[1]
    if config.feature_subsample == "sqrt":
        n_candidates = max(1, int(math.isqrt(d)))
    else:
        n_candidates = d

    # Explicit stack (deep chains would blow Python's recursion limit).
    # Expansion happens in preorder, so feature-candidate draws are
    # reproducible for a given seed regardless of tree shape.
    tasks: list[tuple] = [("expand", rows, 0)]
    done: list[TreeNode] = []
    while tasks:
        task = tasks.pop()
        if task[0] == "combine":
            _, f, thr, gain = task
            right = done.pop()
            left = done.pop()
            done.append(Internal(f, thr, gain, left, right))
            continue
        _, node_rows, depth = task
        ys = y[node_rows]
        n1 = int(ys.sum())
        n0 = ys.shape[0] - n1
        if (
            n0 == 0
            or n1 == 0
            or ys.shape[0] < config.min_samples_split
            or (config.max_depth is not None and depth >= config.max_depth)
        ):
            done.append(Leaf(_majority(n0, n1), (n0, n1)))
            continue
        if n_candidates < d:
            candidates = np.sort(rng.choice(d, size=n_candidates, replace=False))
        else:
            candidates = np.arange(d)
        block = x.T[candidates[:, None], node_rows]  # (c, n): one row per candidate
        found = _scan_split(block, ys, config, candidates)
        if found is None:
            done.append(Leaf(_majority(n0, n1), (n0, n1)))
            continue
        f, thr, gain = found
        mask = x[node_rows, f] <= thr
        tasks.append(("combine", f, thr, gain))
        tasks.append(("expand", node_rows[~mask], depth + 1))
        tasks.append(("expand", node_rows[mask], depth + 1))
    return done[0]


def tree_predict(node: TreeNode, queries: np.ndarray) -> np.ndarray:
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    out = np.empty(q.shape[0], dtype=np.int64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(node, np.arange(q.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.shape[0] == 0:
            continue
        if isinstance(nd, Leaf):
            out[idx] = nd.label
            continue
        go_left = q[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[go_left]))
        stack.append((nd.right, idx[~go_left]))
    return out


@dataclass
class ForestModel:
    trees: list[TreeNode]  # tree t grew from derive_seed(seed, t)
    config: TreeConfig
    seed: int
    n_features: int = 0

    def predict(self, queries: np.ndarray) -> np.ndarray:
        return forest_predict(self, queries)


def forest_fit(
    x: np.ndarray,
    y: np.ndarray,
    tree_count: int = 100,
    config: TreeConfig = TreeConfig(feature_subsample="sqrt"),
    seed: int = 42,
) -> ForestModel:
    """Bagged ensemble; per-tree seeds derive from (seed, tree index)."""
    check_tree_count(tree_count)
    x, y = _training_arrays(x, y, "forest_fit")
    n = x.shape[0]
    trees: list[TreeNode] = []
    for t in range(tree_count):
        rng = np.random.default_rng(derive_seed(seed, t))
        rows = rng.integers(0, n, size=n)
        trees.append(tree_fit(x, y, config, rng=rng, rows=rows))
    return ForestModel(trees=trees, config=config, seed=seed, n_features=x.shape[1])


def forest_predict(model: ForestModel, queries: np.ndarray) -> np.ndarray:
    """Majority vote over trees; ties go to label 0."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    if model.n_features and q.shape[1] != model.n_features:
        raise DimensionMismatchError(model.n_features, q.shape[1])
    votes = np.zeros(q.shape[0], dtype=np.int64)
    for tree in model.trees:
        votes += tree_predict(tree, q)
    return (votes * 2 > len(model.trees)).astype(np.int64)


# Flat-array encoding of a list of trees, in preorder: the model container layout.

_KIND_LEAF = 0
_KIND_INTERNAL = 1
_NODE_ARRAYS = (
    "tree_kinds", "tree_features", "tree_thresholds", "tree_gains",
    "tree_labels", "tree_count0", "tree_count1",
)


def flatten_trees(trees: list[TreeNode]) -> dict[str, np.ndarray]:
    kinds: list[int] = []
    features: list[int] = []
    thresholds: list[float] = []
    gains: list[float] = []
    labels: list[int] = []
    c0: list[int] = []
    c1: list[int] = []
    offsets: list[int] = []
    for root in trees:
        offsets.append(len(kinds))
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                kinds.append(_KIND_LEAF)
                features.append(-1)
                thresholds.append(0.0)
                gains.append(0.0)
                labels.append(node.label)
                c0.append(node.counts[0])
                c1.append(node.counts[1])
            else:
                kinds.append(_KIND_INTERNAL)
                features.append(node.feature)
                thresholds.append(node.threshold)
                gains.append(node.gain)
                labels.append(-1)
                c0.append(0)
                c1.append(0)
                stack.append(node.right)  # preorder: left subtree first
                stack.append(node.left)
    return {
        "tree_kinds": np.array(kinds, dtype=np.int8),
        "tree_features": np.array(features, dtype=np.int64),
        "tree_thresholds": np.array(thresholds, dtype=np.float64),
        "tree_gains": np.array(gains, dtype=np.float64),
        "tree_labels": np.array(labels, dtype=np.int64),
        "tree_count0": np.array(c0, dtype=np.int64),
        "tree_count1": np.array(c1, dtype=np.int64),
        "tree_offsets": np.array(offsets, dtype=np.int64),
    }


def unflatten_trees(arrays: dict[str, np.ndarray], n_features: int) -> list[TreeNode]:
    """The trees ``flatten_trees`` encoded. ContainerFormatError unless each
    offset range holds exactly one preorder tree whose splits read features
    in [0, n_features)."""
    kinds = arrays["tree_kinds"]
    if kinds.ndim != 1 or arrays["tree_offsets"].ndim != 1 or any(
        arrays[name].shape != kinds.shape for name in _NODE_ARRAYS
    ):
        raise ContainerFormatError("tree arrays differ in shape")
    # Infinite thresholds are legal: containers from before the [a, b) rule can hold them.
    if np.isnan(arrays["tree_thresholds"]).any() or np.isnan(arrays["tree_gains"]).any():
        raise ContainerFormatError("tree thresholds and gains must not be NaN")
    leaves = kinds != _KIND_INTERNAL
    if not np.isin(arrays["tree_labels"][leaves], (0, 1)).all():
        raise ContainerFormatError("tree leaf labels must be 0 or 1")
    if (arrays["tree_count0"] < 0).any() or (arrays["tree_count1"] < 0).any():
        raise ContainerFormatError("tree class counts must not be negative")
    kinds, features, thresholds, gains, labels, c0, c1 = (arrays[a].tolist() for a in _NODE_ARRAYS)
    starts = arrays["tree_offsets"].tolist()
    trees: list[TreeNode] = []
    for t, (start, end) in enumerate(zip(starts, starts[1:] + [len(kinds)])):
        if not 0 <= start < end <= len(kinds):
            raise ContainerFormatError(f"tree {t} offsets out of range")
        # Preorder read backwards: when a node is reached, both its subtrees
        # are on the stack, the left one on top.
        stack: list[TreeNode] = []
        for i in range(end - 1, start - 1, -1):
            if kinds[i] != _KIND_INTERNAL:
                stack.append(Leaf(int(labels[i]), (int(c0[i]), int(c1[i]))))
            elif not 0 <= features[i] < n_features:
                raise ContainerFormatError(f"tree {t} splits on feature {features[i]}")
            elif len(stack) < 2:
                raise ContainerFormatError(f"tree {t} encoding ends mid-node")
            else:
                left, right = stack.pop(), stack.pop()
                stack.append(Internal(int(features[i]), float(thresholds[i]), float(gains[i]), left, right))
        if len(stack) != 1:
            raise ContainerFormatError(f"tree {t} encoding is not one tree")
        trees.append(stack[0])
    return trees
