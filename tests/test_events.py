import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gametrace.errors import DataError
from gametrace.events import (
    EVENT_COLUMNS,
    MAX_CELL_ERRORS,
    IngestReport,
    LabelRecord,
    RawEvent,
    _diagnose_row,
    level_group_for,
    read_events,
    read_labels,
    write_events,
    write_labels,
)
from conftest import events_csv, make_event


def parse(rows, report=None):
    return list(read_events(events_csv(rows), report=report))


def test_header_only_file_is_empty_stream():
    rep = IngestReport()
    assert parse([], report=rep) == []
    assert rep.rows_read == 0
    assert rep.rows_skipped == 0
    assert not rep.cell_errors


def test_single_well_formed_row():
    rep = IngestReport()
    rows = [
        {
            "session_id": "20090312431273200",
            "index": "0",
            "elapsed_time": "17",
            "event_name": "cutscene_click",
            "name": "basic",
            "level": "3",
            "room_coor_x": "-413.991405",
            "room_coor_y": "-159.314686",
            "fullscreen": "0",
            "hq": "0",
            "music": "1",
            "level_group": "0-4",
        }
    ]
    (ev,) = parse(rows, report=rep)
    assert ev.session_id == "20090312431273200"
    assert ev.index == 0
    assert ev.elapsed_time == 17
    assert ev.level == 3
    assert ev.level_group == "0-4"
    assert ev.room_coor_x == pytest.approx(-413.991405)
    assert ev.page is None and ev.text is None and ev.hover_duration is None
    assert ev.music == 1
    assert rep.consistency_violations == 0


def test_level_group_mismatch_is_counted_not_fatal():
    rep = IngestReport()
    rows = [
        {"session_id": "s", "index": "0", "elapsed_time": "1", "event_name": "e",
         "name": "n", "level": "7", "fullscreen": "0", "hq": "0", "music": "0",
         "level_group": "0-4"}
    ]
    events = parse(rows, report=rep)
    assert len(events) == 1
    assert events[0].level == 7
    assert rep.consistency_violations == 1


def test_level_to_group_rule_table():
    for level in range(23):
        expected = "0-4" if level <= 4 else ("5-12" if level <= 12 else "13-22")
        assert level_group_for(level) == expected


def test_missing_column_raises():
    source = io.StringIO("session_id,index\n")
    with pytest.raises(DataError, match="required column missing from header: 'elapsed_time'"):
        list(read_events(source))


def test_empty_source_raises_missing_column():
    with pytest.raises(DataError, match="required column missing from header: 'session_id'"):
        list(read_events(io.StringIO("")))


def test_malformed_rows_skipped_and_accounted():
    rep = IngestReport()
    good = {"session_id": "s", "index": "1", "elapsed_time": "5", "event_name": "e",
            "name": "n", "level": "2", "fullscreen": "0", "hq": "0", "music": "0",
            "level_group": "0-4"}
    bad_level = dict(good, level="99")
    bad_int = dict(good, elapsed_time="soon")
    bad_flag = dict(good, music="2")
    events = parse([good, bad_level, bad_int, bad_flag], report=rep)
    assert len(events) == 1
    assert rep.rows_read == 4
    assert rep.rows_skipped == 3
    assert rep.events_emitted + rep.rows_skipped == rep.rows_read
    assert [e.column for e in rep.cell_errors] == ["level", "elapsed_time", "music"]
    assert [e.row for e in rep.cell_errors] == [3, 4, 5]  # header is line 1


def test_cell_error_row_is_the_physical_line_where_the_record_starts():
    good = {"session_id": "s", "index": "1", "elapsed_time": "5", "event_name": "e",
            "name": "n", "level": "2", "fullscreen": "0", "hq": "0", "music": "0",
            "level_group": "0-4"}
    two_lines = dict(good, text='"a\nb"')  # one record on physical lines 2 and 3
    bad = dict(good, level="99")
    bad_two_lines = dict(bad, text='"c\r\nd"')
    rep = IngestReport()
    events = parse([two_lines, bad, bad_two_lines, bad], report=rep)
    assert [e.text for e in events] == ["a\nb"]
    assert rep.rows_read == 4
    # lines: header 1, first record 2-3, bad 4, bad 5-6, bad 7
    assert [e.row for e in rep.cell_errors] == [4, 5, 7]


def test_cell_errors_keep_the_first_rows_and_count_every_column():
    good = {"session_id": "s", "index": "1", "elapsed_time": "5", "event_name": "e",
            "name": "n", "level": "2", "fullscreen": "0", "hq": "0", "music": "0",
            "level_group": "0-4"}
    bad = [dict(good, level="99"), dict(good, music="2"), dict(good, elapsed_time="x")]
    rows = [bad[i % 3] for i in range(3 * MAX_CELL_ERRORS + 1)]
    rep = IngestReport()
    assert parse(rows + [good], report=rep) and rep.events_emitted == 1
    assert rep.rows_skipped == len(rows)
    assert len(rep.cell_errors) == MAX_CELL_ERRORS
    assert [e.row for e in rep.cell_errors] == list(range(2, MAX_CELL_ERRORS + 2))
    assert rep.errors_by_column == {
        "level": MAX_CELL_ERRORS + 1, "music": MAX_CELL_ERRORS, "elapsed_time": MAX_CELL_ERRORS,
    }


def test_column_order_is_not_significant():
    header = list(reversed(EVENT_COLUMNS))
    values = {c: "" for c in EVENT_COLUMNS}
    values.update(session_id="s", index="0", elapsed_time="1", event_name="e",
                  name="n", level="13", fullscreen="1", hq="0", music="0",
                  level_group="13-22")
    body = ",".join(values[c] for c in header)
    source = io.StringIO(",".join(header) + "\n" + body + "\n")
    (ev,) = list(read_events(source))
    assert ev.level == 13 and ev.fullscreen == 1


def test_unknown_extra_columns_ignored_with_warning():
    rep = IngestReport()
    header = ",".join(EVENT_COLUMNS + ("mystery",))
    row = ",".join(["s", "0", "1", "e", "n", "2", "", "", "", "", "", "", "", "", "",
                    "", "0", "0", "0", "0-4", "whatever"])
    events = list(read_events(io.StringIO(header + "\n" + row + "\n"), report=rep))
    assert len(events) == 1
    assert rep.unknown_columns == ("mystery",)


def test_row_with_more_fields_than_the_header_is_skipped_under_row():
    rep = IngestReport()
    header = ",".join(EVENT_COLUMNS)
    row = "s,0,1,e,n,2,,,,,,,,,,,0,0,0,0-4,extra,cells"
    assert list(read_events(io.StringIO(header + "\n" + row + "\n"), report=rep)) == []
    assert rep.rows_skipped == 1
    assert rep.errors_by_column == {"row": 1}
    assert [(e.row, e.column, e.value) for e in rep.cell_errors] == [(2, "row", row)]


def test_row_with_extra_fields_that_breaks_a_rule_keeps_that_rule():
    rep = IngestReport()
    header = ",".join(EVENT_COLUMNS + ("mystery",))
    rows = ["s,0,1,e,n,2,,,,,,,,,,,0,0,0,0-4",  # one field short: only `mystery` is missing
            "s,0,1,e,n,2,,,,,,,,,,,0,0,7,0-4,m,extra"]
    assert list(read_events(io.StringIO("\n".join([header, *rows]) + "\n"), report=rep)) == []
    assert rep.errors_by_column == {"row": 1, "music": 1}


optional_float = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32))
optional_int = st.one_of(st.none(), st.integers(0, 10**6))
opt_text = st.one_of(st.none(), st.text(alphabet="abcdefg._", min_size=1, max_size=12))


@given(
    index=st.integers(0, 10**9),
    elapsed=st.integers(0, 10**12),
    level=st.integers(0, 22),
    page=optional_int,
    rx=optional_float,
    hover=optional_int,
    text=opt_text,
    fqid=opt_text,
    flags=st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
)
@settings(max_examples=60)
def test_round_trip_parse_identity(index, elapsed, level, page, rx, hover, text, fqid, flags):
    ev = make_event(
        session_id="123456789", index=index, elapsed_time=elapsed, level=level,
        page=page, room_coor_x=rx, hover_duration=hover, text=text, fqid=fqid,
        fullscreen=flags[0], hq=flags[1], music=flags[2],
    )
    buf = io.StringIO()
    write_events(buf, [ev])
    buf.seek(0)
    (back,) = list(read_events(buf))
    assert back == ev


# labels ---------------------------------------------------------------


def labels_csv(rows: list[str]) -> io.StringIO:
    return io.StringIO("\n".join(["session_id,question,correct"] + rows) + "\n")


def test_labels_empty_body():
    assert read_labels(labels_csv([])) == []


def test_labels_duplicate_rejected():
    with pytest.raises(DataError, match="duplicate label for session 's1' question 3"):
        read_labels(labels_csv(["s1,3,1", "s1,3,0"]))


def test_labels_duplicate_far_from_its_first_row_in_interleaved_sessions():
    # Sessions interleave question by question, so the first (s7, 3) is
    # hundreds of rows before its duplicate.
    rows = [f"s{s},{q},{(s * q) % 2}" for q in range(1, 19) for s in range(40)]
    records = read_labels(labels_csv(rows))
    assert len(records) == 720
    with pytest.raises(DataError) as caught:
        read_labels(labels_csv(rows[:500] + ["s7,3,1"] + rows[500:]))
    assert str(caught.value) == "duplicate label for session 's7' question 3"


def test_labels_of_one_session_share_one_session_id_string():
    rows = [f"s{s},{q},1" for q in range(1, 19) for s in range(3)]
    records = read_labels(labels_csv(rows))
    for sid in ("s0", "s1", "s2"):
        ids = {id(r.session_id) for r in records if r.session_id == sid}
        assert len(ids) == 1


def test_labels_synthetic_counts():
    rows = [f"s{s},{q},{(s + q) % 2}" for s in range(3) for q in range(1, 19)]
    records = read_labels(labels_csv(rows))
    assert len(records) == 54
    assert records[0] == LabelRecord("s0", 1, True)  # (0+1) % 2 == 1
    assert all(1 <= r.question <= 18 for r in records)


def test_labels_question_out_of_range():
    with pytest.raises(DataError, match=r"question number 19 outside \[1, 18\]"):
        read_labels(labels_csv(["s1,19,1"]))
    with pytest.raises(DataError, match=r"question number 0 outside \[1, 18\]"):
        read_labels(labels_csv(["s1,0,1"]))


def test_labels_bad_correct_value():
    with pytest.raises(DataError):
        read_labels(labels_csv(["s1,3,yes"]))


def test_label_errors_name_the_physical_line():
    source = io.StringIO('session_id,question,correct\n"s\n1",3,1\ns2,3,yes\n')
    with pytest.raises(DataError, match="at line 4"):
        read_labels(source)


def test_labels_round_trip():
    records = [LabelRecord("a", 1, True), LabelRecord("a", 2, False)]
    buf = io.StringIO()
    write_labels(buf, records)
    buf.seek(0)
    assert read_labels(buf) == records


def test_write_events_cells_are_empty_or_repr_and_parse_back():
    values = (None, -0.0, 0.1, 1e16, 5e-324)
    events = [make_event(index=i, room_coor_x=v, page=None) for i, v in enumerate(values)]
    buf = io.StringIO()
    write_events(buf, events)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(EVENT_COLUMNS)
    at = EVENT_COLUMNS.index("room_coor_x")
    for line, v in zip(lines[1:], values):
        cells = line.split(",")
        assert cells[at] == ("" if v is None else repr(v))
        assert cells[EVENT_COLUMNS.index("page")] == ""
        assert cells[EVENT_COLUMNS.index("session_id")] == "s1"
    buf.seek(0)
    back = list(read_events(buf))
    assert back == events
    assert [repr(ev.room_coor_x) for ev in back] == [repr(v) for v in values]


class _CountingSource:
    """File-like text source that tracks how many lines were pulled."""

    def __init__(self, total_rows: int):
        self.lines_read = 0
        self._rows = total_rows

    def __iter__(self):
        return self

    def __next__(self):
        if self.lines_read > self._rows:
            raise StopIteration
        self.lines_read += 1
        if self.lines_read == 1:
            return ",".join(EVENT_COLUMNS) + "\n"
        i = self.lines_read - 2
        return f"s,{i},{i},e,n,2,,,,,,,,,,,0,0,0,0-4\n"


def test_read_events_consumes_lazily():
    source = _CountingSource(total_rows=1_000_000)
    stream = read_events(source)
    for _ in range(3):
        next(stream)
    # only the header plus a handful of rows were pulled, not the whole file
    assert source.lines_read <= 10


def test_rejects_non_finite_coordinates():
    rep = IngestReport()
    rows = [
        {"session_id": "s", "index": "0", "elapsed_time": "1", "event_name": "e",
         "name": "n", "level": "2", "room_coor_x": "nan", "fullscreen": "0",
         "hq": "0", "music": "0", "level_group": "0-4"}
    ]
    assert parse(rows, report=rep) == []
    assert rep.rows_skipped == 1
    assert rep.cell_errors[0].column == "room_coor_x"


# Cells valid in some column and invalid in others; ``1_0`` and `` 3 `` are
# int/float syntax, ``23-99`` a level group that does not exist.
CELLS = ("", "0", "1", "-1", "2", "22", "23", "99", "1_0", " 3 ", "3.5", "-0.0", "1e3",
         "nan", "inf", "-inf", "1e309", "x", "s", "0-4", "5-12", "13-22", "23-99")
GOOD = {"session_id": "s", "index": "1", "elapsed_time": "5", "event_name": "e",
        "name": "n", "level": "2", "fullscreen": "0", "hq": "0", "music": "0",
        "level_group": "0-4"}


@given(
    header=st.permutations(EVENT_COLUMNS),
    rows=st.lists(
        st.lists(st.tuples(st.sampled_from(EVENT_COLUMNS), st.sampled_from(CELLS)), max_size=4),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_read_events_rejects_exactly_the_rows_diagnose_names(header, rows):
    pos = {c: i for i, c in enumerate(header)}
    full = []
    for edits in rows:
        values = dict.fromkeys(EVENT_COLUMNS, "") | GOOD | dict(edits)
        full.append([values[c] for c in header])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(full)
    buf.seek(0)
    rep = IngestReport()
    events = list(read_events(buf, report=rep))
    diagnosed = [_diagnose_row(row, pos) for row in full]
    rejected = [
        (line, col, row[pos[col]])
        for line, (col, row) in enumerate(zip(diagnosed, full), start=2) if col != "row"
    ]
    assert len(events) == len(full) - len(rejected) == rep.events_emitted
    assert [(e.row, e.column, e.value) for e in rep.cell_errors] == rejected


def test_a_row_breaking_several_rules_is_counted_under_the_first():
    # The diagnosis order README states; each row breaks the rules of a
    # shorter suffix of it.
    broken = {"index": "-1", "elapsed_time": "x", "level": "23", "fullscreen": "2", "hq": "2",
              "music": "-1", "page": "-1", "hover_duration": "1.5", "room_coor_x": "nan",
              "room_coor_y": "inf", "screen_coor_x": "-inf", "screen_coor_y": "1e309",
              "session_id": "", "event_name": "", "name": "", "level_group": "23-99"}
    order = list(broken)
    rows = [dict(GOOD, **{c: broken[c] for c in order[i:]}) for i in range(len(order))]
    rep = IngestReport()
    assert parse(rows, report=rep) == []
    assert [e.column for e in rep.cell_errors] == order
