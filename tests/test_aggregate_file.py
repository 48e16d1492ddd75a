"""``aggregate_file`` gives the same matrix, count and report from any number
of tasks: each task reads the whole file but keeps only the sessions it
owns, so the parts are disjoint and nothing is merged.

The tests set the size floor to 0 and force the worker count, so the pool
runs on a one-CPU machine too, as ``test_evaluation.py`` does.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import events_csv, random_events
from gametrace import aggregation, pool
from gametrace.aggregation import aggregate_file
from gametrace.errors import DataError
from gametrace.events import EVENT_COLUMNS, MAX_CELL_ERRORS, write_events

SRC = Path(__file__).resolve().parent.parent / "src"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)

GOOD = {"session_id": "s", "index": "1", "elapsed_time": "5", "event_name": "e", "name": "n",
        "level": "2", "fullscreen": "0", "hq": "0", "music": "0", "level_group": "0-4"}

# One malformed row of each kind the reader skips: each rule broken once,
# a row one field short and a row one field long.
MALFORMED = [
    {"index": "-1"}, {"elapsed_time": "soon"}, {"level": "3.5"}, {"fullscreen": "2"}, {"hq": "x"},
    {"music": "7"}, {"page": "-2"}, {"hover_duration": "-1"}, {"room_coor_x": "inf"},
    {"room_coor_y": "nan"}, {"screen_coor_x": "1e999"}, {"screen_coor_y": "?"}, {"session_id": ""},
    {"event_name": ""}, {"name": ""}, {"level_group": "23-99"},
]


def _owner(sid: str, parts: int = 2) -> int:
    return hash(sid) % parts


def _sessions_of_both_owners(n: int) -> list[str]:
    """``n`` session ids, about half owned by each of two tasks."""
    picked: dict[int, list[str]] = {0: [], 1: []}
    i = 0
    while min(len(v) for v in picked.values()) < n // 2 + 1:
        sid = f"sess{i}"
        picked[_owner(sid)].append(sid)
        i += 1
    return picked[0][: n // 2] + picked[1][: n - n // 2]


def _line(cells: dict) -> str:
    return ",".join(str(cells.get(c, "")) for c in EVENT_COLUMNS)


def _run(monkeypatch, path, cpus):
    monkeypatch.setattr(aggregation, "_SHARD_FLOOR", 0)
    monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
    return aggregate_file(path)


@needs_fork
def test_two_parts_equal_one_part_on_interleaved_rows_with_every_malformed_kind(monkeypatch, tmp_path):
    sessions = _sessions_of_both_owners(12)
    rng = np.random.default_rng(5)
    events = random_events(rng, 600, sessions=sessions)
    with open(tmp_path / "good.csv", "w", newline="") as sink:
        write_events(sink, events)
    lines = (tmp_path / "good.csv").read_text().splitlines()
    header, body = lines[0], lines[1:]
    bad = []
    for i in range(2 * MAX_CELL_ERRORS + 40):  # more than each task keeps, spread over both
        sid = sessions[i % len(sessions)]
        bad.append(_line({**GOOD, "session_id": sid, **MALFORMED[i % len(MALFORMED)]}))
    bad.append(_line({**GOOD, "session_id": sessions[0]}).rsplit(",", 1)[0])  # one field short
    bad.append(_line({**GOOD, "session_id": sessions[1]}) + ",extra")  # one field long
    # A quoted field over two lines, so later rows start past their record count.
    body.insert(3, _line({**GOOD, "session_id": sessions[2], "text": '"two\nlines"'}))
    for j, row in enumerate(bad):
        body.insert((j * 7919) % len(body), row)
    path = tmp_path / "events.csv"
    path.write_text("\n".join([header, *body]) + "\n")

    owners = {_owner(row.split(",", 1)[0]) for row in bad}
    assert owners == {0, 1}
    (matrix2, report2, n2), (matrix1, report1, n1) = (_run(monkeypatch, path, c) for c in (2, 1))
    assert report1.rows_skipped == len(bad) > 2 * MAX_CELL_ERRORS
    assert len(report1.cell_errors) == MAX_CELL_ERRORS
    assert matrix2 == matrix1
    assert n2 == n1 == len(events) + 1
    assert report2 == report1
    assert [(e.row, e.column, e.value) for e in report2.cell_errors] == [
        (e.row, e.column, e.value) for e in report1.cell_errors
    ]
    assert set(report1.errors_by_column) == {
        "index", "elapsed_time", "level", "fullscreen", "hq", "music", "page", "hover_duration",
        "room_coor_x", "room_coor_y", "screen_coor_x", "screen_coor_y", "session_id",
        "event_name", "name", "level_group", "row",
    }


@needs_fork
@pytest.mark.parametrize("kind", ["not UTF-8", "field over the size limit"])
def test_unreadable_text_raises_the_serial_message(monkeypatch, tmp_path, kind):
    sessions = _sessions_of_both_owners(4)
    lines = [",".join(EVENT_COLUMNS).encode()]
    lines += [_line({**GOOD, "session_id": sid, "index": str(i)}).encode()
              for i, sid in enumerate(sessions * 50)]
    if kind == "not UTF-8":
        lines.insert(120, _line({**GOOD, "name": "caf\xe9"}).encode("latin-1"))
    else:
        lines.insert(120, _line({**GOOD, "text": "x" * 200_000}).encode())
    path = tmp_path / "events.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    messages = []
    for cpus in (2, 1):
        with pytest.raises(DataError) as err:
            _run(monkeypatch, path, cpus)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "line 121" in messages[0]


@needs_fork
def test_two_overflowing_groups_of_different_tasks_raise_for_the_first_sorted(monkeypatch, tmp_path):
    first = next(s for s in (f"a{i}" for i in range(100)) if _owner(s) == 1)
    second = next(s for s in (f"b{i}" for i in range(100)) if _owner(s) == 0)
    rows = [{**GOOD, "session_id": sid, "index": str(i), "room_coor_x": "1e308"}
            for sid in (second, first) for i in (1, 2)]
    path = tmp_path / "events.csv"
    path.write_text(events_csv(rows).getvalue())
    for cpus in (2, 1):
        with pytest.raises(DataError, match=f"room_coor_x_mean of session '{first}', level group"):
            _run(monkeypatch, path, cpus)


# The CLI in a child process, with the floor at 0 and two workers: the
# workers' own stderr is the child's, so a warning logged in each shows.
_TWO_TASKS = """
import sys
from gametrace import aggregation, pool
from gametrace.cli import main
aggregation._SHARD_FLOOR = 0
pool.usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


@needs_fork
def test_an_extra_column_is_logged_once(tmp_path):
    sessions = _sessions_of_both_owners(4)
    (tmp_path / "events.csv").write_text(
        "\n".join([",".join(EVENT_COLUMNS + ("mystery",))]
                  + [_line({**GOOD, "session_id": sid}) + ",m" for sid in sessions]) + "\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_TASKS, "aggregate", "--workdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("unknown column") == 1
    assert f"rows {len(sessions)} -> {len(sessions)}" in proc.stdout


@needs_fork
def test_a_row_too_short_to_have_a_session_id_is_counted_once(monkeypatch, tmp_path):
    header = tuple(reversed(EVENT_COLUMNS))  # session_id is the last field
    good = [",".join(str({**GOOD, "session_id": sid}.get(c, "")) for c in header)
            for sid in _sessions_of_both_owners(4)]
    path = tmp_path / "events.csv"
    path.write_text("\n".join([",".join(header), *good[:2], "0-4,0", *good[2:]]) + "\n")
    for cpus in (2, 1):
        _, report, n = _run(monkeypatch, path, cpus)
        assert (report.rows_read, report.rows_skipped, n) == (5, 1, 4)
        assert report.errors_by_column == {"row": 1}
        assert [(e.row, e.value) for e in report.cell_errors] == [(4, "0-4,0")]


@pytest.mark.parametrize("cpus, floor", [(1, 0), (2, 10**12)])
def test_one_cpu_or_a_file_below_the_floor_starts_no_pool(monkeypatch, tmp_path, cpus, floor):
    def no_pool(*args):
        raise AssertionError("fork_map entered")

    path = tmp_path / "events.csv"
    path.write_text(events_csv([GOOD]).getvalue())
    monkeypatch.setattr(aggregation, "fork_map", no_pool)
    monkeypatch.setattr(aggregation, "_SHARD_FLOOR", floor)
    monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
    matrix, report, n = aggregate_file(path)
    assert (len(matrix.rows), report.rows_read, n) == (1, 1, 1)
