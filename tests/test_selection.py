import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gametrace.errors import ConfigError, DataError, LengthMismatchError, ShapeMismatchError
from gametrace.selection import (
    mutual_information,
    pearson,
    save_selection_report,
    select,
)
from gametrace.settings import SelectionPolicy

from oracles import mi_from_counts, pearson_formula


def test_pearson_self_correlation():
    assert pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 1.0


def test_pearson_perfect_negative():
    assert pearson(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])) == -1.0


def test_pearson_matches_formula_oracle():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [1.0, 3.0, 2.0, 5.0]
    assert pearson(np.array(x), np.array(y)) == pytest.approx(pearson_formula(x, y), abs=1e-12)


def test_pearson_constant_is_undefined():
    assert math.isnan(pearson(np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0])))


def test_pearson_length_mismatch():
    with pytest.raises(LengthMismatchError, match="^vector lengths differ: 2 vs 3$"):
        pearson(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeMismatchError, match=r"^shape mismatch: expected two 1-D vectors, got \(2, 2\) and \(2,\)"):
        pearson(np.ones((2, 2)), np.ones(2))
    with pytest.raises(DataError):
        pearson(np.array([1.0]), np.array([1.0]))


def test_pearson_past_the_float_range_raises_naming_where():
    big = np.where(np.arange(200) % 2 == 1, 1e200, -1e200)
    message = ": a centred sum of squares or products is not finite$"
    with pytest.raises(DataError, match="^pearson" + message):
        pearson(big, big)  # each sum of squares overflows
    with pytest.raises(DataError, match="^columns 'a' and 'b'" + message):
        pearson(big, -big, "columns 'a' and 'b'")
    y = (np.arange(200) % 2).astype(np.int64)
    with pytest.raises(DataError, match="^column 'big'" + message):
        select(np.column_stack([big, y]), ("big", "y"), y, SelectionPolicy(k=1))


@pytest.mark.parametrize("scale", [1e80, 1e-90])
def test_pearson_whose_product_of_sums_leaves_the_float_range(scale):
    # Each sum of squares is finite and nonzero; their product overflows at
    # 1e80 and underflows to 0 at 1e-90.
    x, z = np.random.default_rng(0).normal(size=(2, 200)) * scale
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)
    assert pearson(x, z) == pytest.approx(pearson(x / scale, z / scale))
    y = (x > 0).astype(np.int64)
    report = select(np.column_stack([x, x, z]), ("a", "b", "z"), y, SelectionPolicy(k=2))
    assert report.selected == ("a", "z")  # b duplicates a


@given(
    st.lists(st.floats(-100, 100), min_size=3, max_size=30),
    st.floats(0.1, 50),
    st.floats(-20, 20),
)
@settings(max_examples=100, deadline=None)
def test_pearson_affine_invariance(xs, a, b):
    assume(max(xs) - min(xs) > 0.5)  # degenerate spreads lose float precision
    rng = np.random.default_rng(len(xs))
    y = rng.normal(size=len(xs))
    x = np.array(xs)
    r = pearson(x, y)
    r_pos = pearson(a * x + b, y)
    r_neg = pearson(-a * x + b, y)
    assert abs(r_pos - r) < 1e-12
    assert abs(r_neg + r) < 1e-12


def test_mi_constant_feature_is_zero():
    f = np.zeros(100)
    y = np.arange(100) % 2
    assert mutual_information(f, y, bins=4) == pytest.approx(0.0, abs=1e-12)


def test_mi_identical_binary_variables():
    y = np.array([0, 1] * 500)
    f = y.astype(float)
    nats = mutual_information(f, y, bins=2)
    assert nats == pytest.approx(math.log(2.0), abs=1e-12)


def test_mi_matches_exhaustive_histogram_oracle():
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 3, size=400)
    y = ((codes == 2) | (rng.random(400) < 0.2)).astype(int)
    got = mutual_information(codes.astype(float), y, 10, categorical=True)
    want = mi_from_counts(list(zip(codes.tolist(), y.tolist())))
    assert got == pytest.approx(want, abs=1e-12)


def test_mi_binned_matches_oracle_on_same_bins():
    rng = np.random.default_rng(12)
    f = rng.normal(size=300)
    y = (f + rng.normal(scale=0.5, size=300) > 0).astype(int)
    bins = 5
    lo, hi = f.min(), f.max()
    binned = np.clip(((f - lo) / (hi - lo) * bins).astype(int), 0, bins - 1)
    got = mutual_information(f, y, bins=bins)
    want = mi_from_counts(list(zip(binned.tolist(), y.tolist())))
    assert got == pytest.approx(want, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_mi_nonnegative(seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=60)
    y = rng.integers(0, 2, size=60)
    assert mutual_information(f, y, bins=6) >= -1e-12


def test_mi_invariant_under_monotone_code_relabeling():
    rng = np.random.default_rng(13)
    codes = rng.integers(0, 4, size=500).astype(float)
    y = (codes >= 2).astype(int)
    relabeled = codes * 10.0 + 3.0  # strictly monotone map of the categories
    a = mutual_information(codes, y, 10, categorical=True)
    b = mutual_information(relabeled, y, 10, categorical=True)
    assert a == pytest.approx(b, abs=1e-12)


def test_mi_length_mismatch():
    with pytest.raises(LengthMismatchError, match="^vector lengths differ: 3 vs 4$"):
        mutual_information(np.zeros(3), np.zeros(4), 10)
    with pytest.raises(ShapeMismatchError, match=r"^shape mismatch: expected two 1-D vectors, got \(2,\) and \(2, 2\)"):
        mutual_information(np.zeros(2), np.zeros((2, 2)), 10)


# select -----------------------------------------------------------------


def planted_matrix(n=400, seed=0):
    rng = np.random.default_rng(seed)
    driver = rng.normal(size=n)
    noise1 = rng.normal(size=n)
    noise2 = rng.normal(size=n)
    dup = driver * 2.0 + 1.0  # affine duplicate of the driver
    y = (driver > 0).astype(int)
    x = np.column_stack([noise1, driver, dup, noise2])
    return x, ("noise1", "driver", "driver_copy", "noise2"), y


def test_select_keeps_one_of_two_duplicates():
    x, names, y = planted_matrix()
    policy = SelectionPolicy(k=1, redundancy_threshold=0.9)
    report = select(x, names, y, policy)
    assert len(report.selected) == 1
    assert report.selected[0] in ("driver", "driver_copy")
    reasons = {s.name: s.reason for s in report.scores}
    dropped_dup = "driver_copy" if report.selected[0] == "driver" else "driver"
    assert reasons[dropped_dup].startswith(("redundant_with:", "rank_limit"))


def test_select_k_all_threshold_one_keeps_everything():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(100, 4))
    y = rng.integers(0, 2, size=100)
    names = ("a", "b", "c", "d")
    policy = SelectionPolicy(k=4, redundancy_threshold=1.0)
    report = select(x, names, y, policy)
    assert len(report.selected) == 4
    ranked = [s.name for s in report.scores]
    assert list(report.selected) == ranked  # kept in rank order


def test_select_ranks_planted_driver_first():
    x, names, y = planted_matrix(seed=3)
    policy = SelectionPolicy(k=3, redundancy_threshold=0.9)
    report = select(x, names, y, policy)
    assert report.scores[0].name in ("driver", "driver_copy")
    assert report.selected[0] in ("driver", "driver_copy")


def test_select_never_keeps_correlated_pair():
    x, names, y = planted_matrix(seed=9)
    policy = SelectionPolicy(k=3, redundancy_threshold=0.9)
    report = select(x, names, y, policy)
    kept = report.selected
    assert not ({"driver", "driver_copy"} <= set(kept))
    for i, a in enumerate(kept):
        for b in kept[i + 1 :]:
            ra = x[:, names.index(a)]
            rb = x[:, names.index(b)]
            assert abs(pearson(ra, rb)) <= 0.9


def test_select_unsatisfiable_policy_raises():
    x, names, y = planted_matrix()
    policy = SelectionPolicy(k=4, redundancy_threshold=0.9)
    with pytest.raises(ConfigError, match="^only 3 features survive the policy, 4 requested$"):
        select(x, names, y, policy)  # duplicates leave only 3 keepable


def test_select_deterministic_under_column_permutation():
    x, names, y = planted_matrix(seed=21)
    policy = SelectionPolicy(k=2, redundancy_threshold=0.9)
    a = select(x, names, y, policy)
    order = [2, 0, 3, 1]
    b = select(x[:, order], tuple(names[i] for i in order), y, policy)
    assert a.selected == b.selected
    assert [s.name for s in a.scores] == [s.name for s in b.scores]


def test_selection_report_file_format():
    x, names, y = planted_matrix()
    policy = SelectionPolicy(k=2, redundancy_threshold=0.9)
    report = select(x, names, y, policy)
    sink = io.StringIO()
    save_selection_report(report, sink, config_fingerprint="fp123", seed=7)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "# config_fingerprint=fp123"
    assert lines[1] == "# seed=7"
    assert lines[2] == "feature\tpearson_vs_label\tmi\tkept\treason"
    assert len(lines) == 3 + len(names)
    for line in lines[3:]:
        cells = line.split("\t")
        assert len(cells) == 5
        float(cells[2])  # mi parses
