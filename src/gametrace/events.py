"""Raw gameplay event schema and streaming ingestion.

Event files are UTF-8 CSV with a header row; columns are matched by name,
not position, and empty cells mean "absent". Ingestion is a generator and
never materializes the file: memory stays bounded by one row regardless of
file size.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from math import isfinite
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence, get_args, get_type_hints

from .errors import DataError

logger = logging.getLogger(__name__)

LABEL_COLUMNS = ("session_id", "question", "correct")

LEVEL_GROUPS = ("0-4", "5-12", "13-22")

MIN_LEVEL = 0
MAX_LEVEL = 22
QUESTION_RANGE = range(1, 19)


class RawEvent(NamedTuple):
    """One time-stamped user interaction. Immutable and thread-safe.

    The one declaration of the event schema: the fields are the columns, and
    each annotation is the type a cell parses to, ``Optional`` where the cell
    may be empty (absent).
    """

    session_id: str
    index: int
    elapsed_time: int
    event_name: str
    name: str
    level: int
    page: Optional[int]
    room_coor_x: Optional[float]
    room_coor_y: Optional[float]
    screen_coor_x: Optional[float]
    screen_coor_y: Optional[float]
    hover_duration: Optional[int]
    text: Optional[str]
    fqid: Optional[str]
    room_fqid: Optional[str]
    text_fqid: Optional[str]
    fullscreen: int
    hq: int
    music: int
    level_group: str


EVENT_COLUMNS = RawEvent._fields
_HINTS = get_type_hints(RawEvent)
OPTIONAL_COLUMNS = frozenset(c for c, hint in _HINTS.items() if type(None) in get_args(hint))
# The type each column's cells parse to, Optional stripped.
_TYPES = {c: (get_args(hint) or (hint,))[0] for c, hint in _HINTS.items()}

# Type classes drive which aggregator kinds a column accepts.
REAL_COLUMNS = frozenset(c for c, t in _TYPES.items() if t is float)
NUMERIC_COLUMNS = frozenset(c for c, t in _TYPES.items() if t in (int, float))
CATEGORICAL_COLUMNS = frozenset(c for c, t in _TYPES.items() if t is str)


# The rule each column's parsed, present value must meet, in the order a
# rejected row is diagnosed: a row that breaks several is counted under the
# first. Columns not listed only need to parse.
_RULES = (
    ("index", lambda v: v >= 0),
    ("elapsed_time", lambda v: v >= 0),
    ("level", lambda v: MIN_LEVEL <= v <= MAX_LEVEL),
    *((c, lambda v: v in (0, 1)) for c in ("fullscreen", "hq", "music")),
    *((c, lambda v: v >= 0) for c in ("page", "hover_duration")),
    *((c, isfinite) for c in EVENT_COLUMNS if c in REAL_COLUMNS),
    *((c, bool) for c in ("session_id", "event_name", "name")),
    ("level_group", lambda v: v in LEVEL_GROUPS),
)


class LabelRecord(NamedTuple):
    """Outcome of one in-game assessment question for one session."""

    session_id: str
    question: int
    correct: bool


def level_group_for(level: int) -> str:
    """Map a level in [0, 22] to its level-group bin."""
    if level <= 4:
        return "0-4"
    if level <= 12:
        return "5-12"
    return "13-22"


# ``level_group_for`` of each level, indexed by level (MIN_LEVEL is 0).
_GROUP_OF_LEVEL = tuple(level_group_for(level) for level in range(MAX_LEVEL + 1))


@dataclass
class CellError:
    row: int  # 1-based physical line where the record starts (header is row 1)
    column: str
    value: str


# How many skipped rows ``IngestReport.cell_errors`` keeps in full; past it,
# only the per-column counts grow, so memory stays bounded on any input.
MAX_CELL_ERRORS = 100


@dataclass
class IngestReport:
    """Accounting for one ingestion run: emitted + skipped = data rows.

    ``cell_errors`` holds the first ``MAX_CELL_ERRORS`` skipped rows;
    ``errors_by_column`` counts every skipped row by the column that failed.
    """

    rows_read: int = 0
    events_emitted: int = 0
    rows_skipped: int = 0
    consistency_violations: int = 0
    cell_errors: list[CellError] = field(default_factory=list)
    errors_by_column: dict[str, int] = field(default_factory=dict)
    unknown_columns: tuple[str, ...] = ()

    def record_error(self, row: int, column: str, value: str) -> None:
        self.rows_skipped += 1
        self.errors_by_column[column] = self.errors_by_column.get(column, 0) + 1
        if len(self.cell_errors) < MAX_CELL_ERRORS:
            self.cell_errors.append(CellError(row, column, value))

    def add(self, other: "IngestReport") -> None:
        """Count the rows of ``other``, a report on rows disjoint from this
        one's (another part of the same text; see ``read_events``). Each
        keeps its first ``MAX_CELL_ERRORS`` skipped rows, so the first of
        both, by row, are exactly those of one report on all the rows."""
        self.rows_read += other.rows_read
        self.events_emitted += other.events_emitted
        self.rows_skipped += other.rows_skipped
        self.consistency_violations += other.consistency_violations
        for column, n in other.errors_by_column.items():
            self.errors_by_column[column] = self.errors_by_column.get(column, 0) + n
        kept = sorted(self.cell_errors + other.cell_errors, key=lambda e: e.row)
        self.cell_errors = kept[:MAX_CELL_ERRORS]


def _diagnose_row(row: Sequence[str], pos: dict[str, int]) -> str:
    """Slow path: name the first column of a rejected row that fails its rule."""
    for column, ok in _RULES:
        cell = row[pos[column]]
        if not cell and column in OPTIONAL_COLUMNS:
            continue
        try:
            if not ok(_TYPES[column](cell)):
                return column
        except ValueError:
            return column
    return "row"  # wrong field count or another structural defect


def _positions(reader, columns: Sequence[str]) -> tuple[list[str], dict[str, int]]:
    """The header row, and the position in it of each of ``columns``."""
    header = next(reader, [])
    for name in columns:
        if name not in header:
            raise DataError(f"required column missing from header: {name!r}")
    return header, {name: header.index(name) for name in columns}


def _record_start(reader, row: Sequence[str]) -> int:
    """The physical line where the record just read starts: the reader's
    line count less the line breaks (universal newlines, as a file opened
    with ``newline=""`` splits them) inside its quoted fields."""
    text = ",".join(row)
    return reader.line_num - (text.count("\n") + text.count("\r") - text.count("\r\n"))


def _unreadable(source: IO[str], reader, exc: Exception) -> DataError:
    """A csv.Error or UnicodeDecodeError as a DataError naming file and line."""
    where = getattr(source, "name", "input")
    if isinstance(exc, UnicodeDecodeError):
        # The text layer decodes a whole chunk ahead of the csv reader; the
        # bad line is the next one, plus the lines before the bad byte.
        line = reader.line_num + 1 + exc.object[: exc.start].count(b"\n")
        return DataError(f"{where}: line {line} is not UTF-8")
    return DataError(f"{where}: line {reader.line_num}: {exc}")


def _event_header(reader, warn: bool) -> tuple[list[str], dict[str, int], tuple[str, ...]]:
    """The header, the position of each event column in it, and its unknown
    columns, logged when ``warn``. DataError if it lacks a column."""
    header, pos = _positions(reader, EVENT_COLUMNS)
    extras = tuple(c for c in header if c not in EVENT_COLUMNS)
    if extras and warn:
        logger.warning("ignoring %d unknown column(s): %s", len(extras), ", ".join(extras))
    return header, pos, extras


def check_event_header(source: IO[str]) -> tuple[str, ...]:
    """Read only the header of an event file: its unknown columns, logged
    once. Raises as ``read_events`` does on a missing column or bad text."""
    reader = csv.reader(source)
    try:
        return _event_header(reader, warn=True)[2]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(source, reader, exc) from None


def read_events(
    source: IO[str], report: IngestReport | None = None, part: tuple[int, int] | None = None
) -> Iterator[RawEvent]:
    """Stream RawEvents from a CSV text source.

    Malformed rows are skipped and recorded in ``report`` with their line
    number (a row whose cells all pass but whose field count is not the
    header's under ``row``); level/level_group inconsistencies are counted
    but the event is still emitted. Raises DataError if the header lacks
    one of ``EVENT_COLUMNS``, and, naming the line, on text that is not
    UTF-8 or that the csv module cannot split (such as a field over its
    size limit).

    ``part = (k, parts)`` reads the whole text the same way but parses,
    emits and counts only the rows task ``k`` of ``parts`` owns: those whose
    ``session_id`` cell hashes to ``k`` modulo ``parts`` (a row too short to
    have one belongs to task 0). The parts of one text are disjoint, cover
    it, and keep each session whole. With ``part`` given, the caller has
    read the header (``check_event_header``), so no warning is logged.
    """
    rep = report if report is not None else IngestReport()
    reader = csv.reader(source)
    k, parts = part or (0, 1)
    # Counted in locals, and added to ``rep`` when the loop ends, raises or
    # is closed.
    rows = emitted = inconsistent = 0
    try:
        header, pos, extras = _event_header(reader, warn=part is None)
        if extras:
            rep.unknown_columns = extras

        # Hot loop: one itemgetter unpacks a row, conversions and checks are
        # inline (a second statement of _RULES, kept for speed), one
        # try/except per row with diagnosis deferred to the slow path.
        cells = itemgetter(*(pos[c] for c in EVENT_COLUMNS))
        groups = LEVEL_GROUPS
        width = len(header)
        new = tuple.__new__
        at = pos["session_id"]
        shard = parts > 1

        for row in reader:
            if shard and (hash(row[at]) % parts if len(row) > at else 0) != k:
                continue
            rows += 1
            try:
                (sid, index, elapsed, event_name, name, level, page, rx, ry, sx, sy,
                 hover, text, fqid, room_fqid, text_fqid, fullscreen, hq, music, group) = cells(row)
                index = int(index)
                elapsed = int(elapsed)
                level = int(level)
                page = int(page) if page else None
                rx = float(rx) if rx else None
                ry = float(ry) if ry else None
                sx = float(sx) if sx else None
                sy = float(sy) if sy else None
                hover = int(hover) if hover else None
                text = text or None
                fqid = fqid or None
                room_fqid = room_fqid or None
                text_fqid = text_fqid or None
                fullscreen = int(fullscreen)
                hq = int(hq)
                music = int(music)
                if (
                    not sid
                    or not event_name
                    or not name
                    or index < 0
                    or elapsed < 0
                    or not MIN_LEVEL <= level <= MAX_LEVEL
                    or fullscreen not in (0, 1)
                    or hq not in (0, 1)
                    or music not in (0, 1)
                    or group not in groups
                    or (page is not None and page < 0)
                    or (hover is not None and hover < 0)
                    or (rx is not None and not isfinite(rx))
                    or (ry is not None and not isfinite(ry))
                    or (sx is not None and not isfinite(sx))
                    or (sy is not None and not isfinite(sy))
                    or len(row) != width
                ):
                    raise ValueError
            except (ValueError, IndexError):
                try:
                    column = _diagnose_row(row, pos)
                    value = row[pos[column]] if column in pos else ",".join(row)
                except (IndexError, KeyError):
                    column, value = "row", ",".join(row)
                rep.record_error(_record_start(reader, row), column, value)
                continue

            if group != _GROUP_OF_LEVEL[level]:
                inconsistent += 1
            emitted += 1
            yield new(RawEvent, (
                sid, index, elapsed, event_name, name, level, page, rx, ry, sx, sy,
                hover, text, fqid, room_fqid, text_fqid, fullscreen, hq, music, group,
            ))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(source, reader, exc) from None
    finally:
        rep.rows_read += rows
        rep.events_emitted += emitted
        rep.consistency_violations += inconsistent


def write_events(sink: IO[str], events: Iterable[RawEvent]) -> None:
    """Write a header plus one row per event. The csv module writes None as
    an empty cell and a float as its repr, so parsing yields equal events."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(EVENT_COLUMNS)
    writer.writerows(events)


def read_labels(source: IO[str]) -> list[LabelRecord]:
    """Read the label file: columns session_id, question, correct (0/1).

    Strict: any malformed row raises, as does text that is not UTF-8.
    Duplicate (session, question) pairs and questions outside [1, 18] are
    errors.
    """
    reader = csv.reader(source)
    records: list[LabelRecord] = []
    # Per session id: its one shared str, and bit q set for each question
    # read so far.
    seen: dict[str, tuple[str, int]] = {}
    try:
        _, pos = _positions(reader, LABEL_COLUMNS)
        i_sid, i_q, i_c = pos["session_id"], pos["question"], pos["correct"]
        for row in reader:
            try:
                sid = row[i_sid]
                question = int(row[i_q])
                correct = row[i_c]
            except (ValueError, IndexError):
                raise DataError(f"malformed label row at line {_record_start(reader, row)}") from None
            if not sid:
                raise DataError(f"empty session_id in label row at line {_record_start(reader, row)}")
            if question not in QUESTION_RANGE:
                raise DataError(f"question number {question} outside [1, 18]")
            if correct not in ("0", "1"):
                raise DataError(
                    f"correct must be 0 or 1, got {correct!r} at line {_record_start(reader, row)}"
                )
            sid, questions = seen.get(sid) or (sid, 0)
            if questions >> question & 1:
                raise DataError(f"duplicate label for session {sid!r} question {question}")
            seen[sid] = (sid, questions | 1 << question)
            records.append(LabelRecord(sid, question, correct == "1"))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(source, reader, exc) from None
    return records


def write_labels(sink: IO[str], labels: Iterable[LabelRecord]) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(LABEL_COLUMNS)
    for rec in labels:
        writer.writerow([rec.session_id, rec.question, int(rec.correct)])
