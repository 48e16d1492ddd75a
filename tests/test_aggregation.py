import io
import json
from math import copysign, inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gametrace.aggregation import (
    DEFAULT_SPECS,
    AggregatorSpec,
    StreamingAggregator,
    _BUFFER,
    _assemble,
    aggregate,
    load_feature_matrix,
    save_feature_matrix,
    validate_specs,
)
from gametrace.errors import ConfigError, DataError
from conftest import make_event, random_events

from oracles import brute_force_aggregate

FULL_SPECS = validate_specs(
    [AggregatorSpec(col, kind) for col in
     ("elapsed_time", "level", "room_coor_x", "hover_duration", "music", "page")
     for kind in ("mean", "sum", "min", "max")]
    + [AggregatorSpec(col, kind) for col in ("event_name", "name", "fqid", "text_fqid")
       for kind in ("first", "last", "count", "nunique")]
)


def matrix_as_dict(m):
    return {
        (r.session_id, r.level_group): dict(zip(m.column_names, r.values)) for r in m.rows
    }


def test_sum_of_elapsed_time():
    evs = [make_event(index=i, elapsed_time=t) for i, t in enumerate((10, 20, 30))]
    m = aggregate(evs, [AggregatorSpec("elapsed_time", "sum")])
    assert matrix_as_dict(m)[("s1", "0-4")]["elapsed_time_sum"] == 60.0


def test_level_mean():
    evs = [make_event(index=i, level=lv) for i, lv in enumerate((1, 1, 4))]
    m = aggregate(evs, [AggregatorSpec("level", "mean")])
    assert matrix_as_dict(m)[("s1", "0-4")]["level_mean"] == 2.0


def test_random_events_match_brute_force_oracle():
    rng = np.random.default_rng(1234)
    evs = random_events(rng, 100)
    m = aggregate(evs, FULL_SPECS)
    expected, expected_codes = brute_force_aggregate(evs, FULL_SPECS)
    got = matrix_as_dict(m)
    assert set(got) == set(expected)
    for key in expected:
        for name, want in expected[key].items():
            have = got[key][name]
            if want is None:
                assert have is None, (key, name)
            else:
                assert have == pytest.approx(want, abs=1e-9), (key, name)
    assert m.code_tables == expected_codes


def test_spec_type_mismatch():
    # one accepted and one rejected kind per type class: real, integer,
    # optional integer, categorical
    accepted = [("room_coor_x", "sum"), ("elapsed_time", "min"), ("hover_duration", "max"),
                ("fqid", "nunique")]
    assert len(validate_specs(AggregatorSpec(c, k) for c, k in accepted)) == len(accepted)
    for column, kind in [("room_coor_x", "count"), ("elapsed_time", "nunique"),
                         ("hover_duration", "first"), ("fqid", "mean")]:
        message = f"^aggregator kind '{kind}' does not match type class of column '{column}'$"
        with pytest.raises(ConfigError, match=message):
            validate_specs([AggregatorSpec(column, kind)])
    with pytest.raises(ConfigError):
        validate_specs([AggregatorSpec("no_such_column", "mean")])
    with pytest.raises(ConfigError):
        validate_specs([])


def test_duplicate_output_names_rejected():
    with pytest.raises(ConfigError, match="^duplicate output feature name: 'level_mean'$"):
        validate_specs([AggregatorSpec("level", "mean"), AggregatorSpec("level", "mean")])


def test_all_absent_column_yields_absent_cell():
    evs = [make_event(index=i, room_coor_x=None) for i in range(3)]
    m = aggregate(evs, [AggregatorSpec("room_coor_x", "mean")])
    assert m.rows[0].values == (None,)


def test_count_and_nunique_ignore_absent():
    evs = [
        make_event(index=0, fqid="a"),
        make_event(index=1, fqid=None),
        make_event(index=2, fqid="a"),
        make_event(index=3, fqid="b"),
    ]
    m = aggregate(evs, [AggregatorSpec("fqid", "count"), AggregatorSpec("fqid", "nunique")])
    row = matrix_as_dict(m)[("s1", "0-4")]
    assert row["fqid_count"] == 3.0
    assert row["fqid_nunique"] == 2.0


def test_first_last_follow_event_index_not_arrival_order():
    evs = [
        make_event(index=5, fqid="late"),
        make_event(index=1, fqid="early"),
        make_event(index=3, fqid="middle"),
    ]
    specs = [AggregatorSpec("fqid", "first"), AggregatorSpec("fqid", "last")]
    m = aggregate(evs, specs)
    row = matrix_as_dict(m)[("s1", "0-4")]
    codes = m.code_tables["fqid"]
    assert row["fqid_first"] == float(codes["early"])
    assert row["fqid_last"] == float(codes["late"])


def test_permutation_invariance_full_output():
    rng = np.random.default_rng(99)
    evs = random_events(rng, 120)
    m1 = aggregate(evs, FULL_SPECS)
    order = rng.permutation(len(evs))
    m2 = aggregate([evs[i] for i in order], FULL_SPECS)
    assert m1.column_names == m2.column_names
    assert m1.rows == m2.rows
    assert m1.code_tables == m2.code_tables


def owner_shards(evs, shards):
    """The matrix ``aggregate_file`` builds from ``shards`` session owners:
    each event goes to its session's owner, and the owners' reduced groups
    are assembled together."""
    parts = [StreamingAggregator(FULL_SPECS) for _ in range(shards)]
    for ev in evs:
        parts[hash(ev.session_id) % shards].update_all([ev])
    return _assemble(FULL_SPECS, [group for part in parts for group in part._reduced()])


def cells(m):
    return [(r.session_id, r.level_group, [repr(v) for v in r.values]) for r in m.rows]


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_partition_independence_owner_shards(seed, shards):
    rng = np.random.default_rng(seed)
    evs = random_events(rng, 60, sessions=("a", "b", "c"))
    single = aggregate(evs, FULL_SPECS)
    sharded = owner_shards(evs, shards)
    assert cells(sharded) == cells(single)
    assert sharded.code_tables == single.code_tables


REALS = st.one_of(
    st.floats(-1e300, 1e300),  # zeros and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
)
INTS = st.integers(-(2**53), 2**53)  # fsum of these is the exact integer sum, rounded


def _events(session, level, real):
    vocab = st.sampled_from(("p", "q", "r"))
    return st.builds(
        make_event, session_id=session, index=st.integers(0, 40), level=level,
        elapsed_time=INTS, page=st.none() | st.integers(0, 6), room_coor_x=real,
        hover_duration=st.none() | INTS, event_name=vocab, name=vocab,
        fqid=st.none() | vocab, text_fqid=st.none() | vocab, music=st.integers(0, 1),
    )


@st.composite
def exact_streams(draw):
    """One group with more real values than a buffer holds, plus a few more
    groups; the values repeat from a small pool. Some pools put both zeros
    at the bottom (or top) of one sign's values, so min (or max) ties."""
    pool = draw(st.lists(REALS, min_size=1, max_size=8))
    sign = draw(st.sampled_from((None, 1.0, -1.0)))
    if sign is not None:
        pool = [copysign(v, sign) for v in pool] + [0.0, -0.0]
    real = st.sampled_from(pool)
    long = st.lists(_events(st.just("a"), st.just(0), real), min_size=_BUFFER + 1, max_size=2 * _BUFFER)
    rest = st.lists(_events(st.sampled_from("ab"), st.sampled_from((0, 8)), st.none() | real), max_size=_BUFFER)
    return draw(long) + draw(rest)


@given(exact_streams(), st.randoms(use_true_random=False), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_every_reduction_is_exact_and_order_independent(evs, rnd, shards):
    m = aggregate(evs, FULL_SPECS)
    expected, codes = brute_force_aggregate(evs, FULL_SPECS)
    assert cells(m) == [(sid, g, [repr(v) for v in row.values()]) for (sid, g), row in expected.items()]
    assert m.code_tables == codes
    shuffled = rnd.sample(evs, len(evs))
    assert cells(aggregate(shuffled, FULL_SPECS)) == cells(m)
    assert cells(owner_shards(shuffled, shards)) == cells(m)


def test_real_sum_past_the_float_range_stays_exact():
    values = [1e308] * 100 + [-1e308] * 100 + [0.5]
    specs = [AggregatorSpec("room_coor_x", "sum"), AggregatorSpec("room_coor_x", "mean")]
    for order in (values, values[::-1], values[::2] + values[1::2]):
        evs = [make_event(index=i, room_coor_x=v) for i, v in enumerate(order)]
        assert aggregate(evs, specs).rows[0].values == (0.5, 0.5 / 201)


@pytest.mark.parametrize("bad", [[nan], [inf], [inf, -inf], [-inf, 1e308, 1e308]], ids=repr)
def test_non_finite_real_sum_ends_in_data_error(bad):
    evs = [make_event(index=i, room_coor_x=v) for i, v in enumerate(bad + [1.0] * 2 * _BUFFER)]
    agg = StreamingAggregator([AggregatorSpec("room_coor_x", "sum")])
    agg.update_all(evs)  # compacts non-finite buffers without looping
    with pytest.raises(DataError, match="room_coor_x_sum of session 's1', level group '0-4'"):
        agg.finalize()


def test_mean_count_sum_consistency_and_bounds():
    rng = np.random.default_rng(5)
    evs = random_events(rng, 200)
    m = aggregate(evs, FULL_SPECS)
    got = matrix_as_dict(m)
    num_cols = {s.column for s in FULL_SPECS if s.kind in ("mean", "sum", "min", "max")}
    cat_cols = {s.column for s in FULL_SPECS if s.kind in ("first", "last", "count", "nunique")}
    for (sid, group), row in got.items():
        group_evs = [e for e in evs if (e.session_id, e.level_group) == (sid, group)]
        for col in num_cols:
            count = sum(getattr(e, col) is not None for e in group_evs)
            if count == 0:
                continue
            mean = row.get(f"{col}_mean")
            if mean is not None and f"{col}_sum" in row:
                assert mean * count == pytest.approx(row[f"{col}_sum"], rel=1e-9)
            if f"{col}_min" in row and f"{col}_max" in row and mean is not None:
                assert row[f"{col}_min"] <= mean <= row[f"{col}_max"]
        for col in cat_cols:
            if f"{col}_nunique" in row and f"{col}_count" in row:
                assert row[f"{col}_nunique"] <= row[f"{col}_count"]


def test_one_row_per_group_sorted():
    evs = [
        make_event(session_id="b", index=0, level=20),
        make_event(session_id="a", index=0, level=0),
        make_event(session_id="a", index=1, level=8),
        make_event(session_id="b", index=1, level=0),
    ]
    m = aggregate(evs, [AggregatorSpec("level", "max")])
    keys = [(r.session_id, r.level_group) for r in m.rows]
    assert keys == [("a", "0-4"), ("a", "5-12"), ("b", "0-4"), ("b", "13-22")]


def test_music_max_means_music_ever_on():
    evs = [make_event(index=0, music=0), make_event(index=1, music=1)]
    m = aggregate(evs, [AggregatorSpec("music", "max")])
    assert m.rows[0].values == (1.0,)


def test_compression_report_ratio(tmp_path):
    from gametrace.cli import main

    wd = str(tmp_path)
    assert main(["gen-synthetic", "--workdir", wd, "--sessions", "3", "--events-per-session", "100"]) == 0
    assert main(["aggregate", "--workdir", wd]) == 0
    report = json.loads((tmp_path / "aggregate_report.json").read_text())
    assert report["input_bytes"] == (tmp_path / "events.csv").stat().st_size
    assert report["output_bytes"] == sum(
        (tmp_path / name).stat().st_size for name in ("features.csv", "features.meta.json")
    )
    assert report["byte_ratio"] == pytest.approx(report["output_bytes"] / report["input_bytes"])
    assert 0.0 < report["byte_ratio"] < 1.0


def test_default_specs_are_the_selected_eleven():
    assert [s.output_name for s in DEFAULT_SPECS] == [
        "room_coor_x_mean", "room_coor_y_mean", "screen_coor_x_mean",
        "screen_coor_y_mean", "elapsed_time_sum", "level_mean", "music_max",
        "name_nunique", "room_fqid_nunique", "event_name_nunique", "fqid_count",
    ]


def test_feature_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    evs = random_events(rng, 80)
    m = aggregate(evs, FULL_SPECS)
    csv_path = tmp_path / "f.csv"
    meta_path = tmp_path / "f.meta.json"
    with open(csv_path, "w", newline="") as c, open(meta_path, "w") as s:
        save_feature_matrix(m, c, s, config_fingerprint="abc123", seed=5)
    back = load_feature_matrix(csv_path, meta_path)
    assert back.column_names == m.column_names
    assert back.rows == m.rows
    assert back.code_tables == m.code_tables
    assert json.loads(meta_path.read_text())["config_fingerprint"] == "abc123"
