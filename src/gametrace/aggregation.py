"""Streaming aggregation of the event stream into per-(session, level_group) rows.

One pass, per-group accumulators only, holding just the statistics the specs
read: counts, exact sums, min/max, hash sets for nunique and index-tracked
first/last. A real-column sum buffers at most ``_BUFFER`` values per group
before math.fsum compacts them exactly, so state is bounded by the number of
groups, not events.

``aggregate_file`` shards a file by session owner: each pool task reads the
whole file but accumulates only the sessions it owns, and reduces its own
groups, so no two tasks share a group and nothing is merged; the calling
process sorts the reduced groups and codes first/last cells.
"""

from __future__ import annotations

import csv
import json
from array import array
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import IO, Iterable, Optional

from math import copysign, fsum, inf, isfinite, nan

from .errors import ConfigError, DataError
from .events import (
    CATEGORICAL_COLUMNS,
    LEVEL_GROUPS,
    NUMERIC_COLUMNS,
    REAL_COLUMNS,
    IngestReport,
    RawEvent,
    check_event_header,
    read_events,
    unreadable,
)
from .pool import fork_map, fork_workers
from .schema import check

NUMERIC_KINDS = ("mean", "sum", "min", "max")
CATEGORICAL_KINDS = ("first", "last", "count", "nunique")

_FIELD_INDEX = {name: i for i, name in enumerate(RawEvent._fields)}
_GROUP_RANK = {g: i for i, g in enumerate(LEVEL_GROUPS)}


@dataclass(frozen=True)
class AggregatorSpec:
    """One reduction: a source column plus an aggregation kind."""

    column: str
    kind: str

    @property
    def output_name(self) -> str:
        """The feature's column name in ``features.csv``."""
        return f"{self.column}_{self.kind}"

    @property
    def is_categorical_code(self) -> bool:
        """True when the output cell is a dictionary code, not a quantity."""
        return self.kind in ("first", "last")


def validate_specs(specs: Iterable[AggregatorSpec]) -> tuple[AggregatorSpec, ...]:
    """Check kind/type-class agreement; returns the specs as a tuple."""
    out = tuple(specs)
    if not out:
        raise ConfigError("aggregation requires at least one spec")
    seen: set[str] = set()
    for spec in out:
        if spec.column in NUMERIC_COLUMNS:
            kinds = NUMERIC_KINDS
        elif spec.column in CATEGORICAL_COLUMNS:
            kinds = CATEGORICAL_KINDS
        else:
            raise ConfigError(f"unknown event column in spec: {spec.column!r}")
        if spec.kind not in kinds:
            raise ConfigError(
                f"aggregator kind {spec.kind!r} does not match type class of column {spec.column!r}"
            )
        if spec.output_name in seen:
            raise ConfigError(f"duplicate output feature name: {spec.output_name!r}")
        seen.add(spec.output_name)
    return out


# Production default: the selected per-group feature set.
DEFAULT_SPECS = validate_specs(
    [
        AggregatorSpec("room_coor_x", "mean"),
        AggregatorSpec("room_coor_y", "mean"),
        AggregatorSpec("screen_coor_x", "mean"),
        AggregatorSpec("screen_coor_y", "mean"),
        AggregatorSpec("elapsed_time", "sum"),
        AggregatorSpec("level", "mean"),
        AggregatorSpec("music", "max"),
        AggregatorSpec("name", "nunique"),
        AggregatorSpec("room_fqid", "nunique"),
        AggregatorSpec("event_name", "nunique"),
        AggregatorSpec("fqid", "count"),
    ]
)


@dataclass(slots=True)
class FeatureRow:
    """One aggregated row; values align with the owning matrix's columns."""

    session_id: str
    level_group: str
    values: tuple


@dataclass
class FeatureMatrix:
    """Rectangular named-column matrix of aggregated features.

    code_tables maps each first/last source column to its value -> integer
    code dictionary, assigned in first-appearance order over the finalized
    row ordering (sorted by session then group), so the encoding does not
    depend on event arrival order.
    """

    column_names: tuple[str, ...]
    rows: list[FeatureRow]
    code_tables: dict[str, dict[str, int]] = field(default_factory=dict)
    specs: tuple[AggregatorSpec, ...] = ()

    def categorical_code_columns(self) -> tuple[str, ...]:
        return tuple(s.output_name for s in self.specs if s.is_categorical_code)


# Values a real-sum slot buffers before math.fsum compacts them.
_BUFFER = 64


def _exact_sum(buf):
    """The exact sum of a real-sum buffer, as a Fraction."""
    from fractions import Fraction  # rare path: a partial sum past the float range

    return sum(map(Fraction, buf), Fraction(0))


def _compact(buf):
    """A short buffer with the exact sum of ``buf``: its rounded sum, then the
    rounded remainder, until none is left. One exact Fraction when a partial
    sum passes the float range; nan for non-finite values."""
    if type(buf) is array:
        try:
            s = fsum(buf)
            if not isfinite(s):
                return array("d", [s])
            vals, out = list(buf), array("d")
            while s:
                out.append(s)
                vals.append(-s)
                s = fsum(vals)
            return out
        except ValueError:  # inf - inf
            return array("d", [nan])
        except OverflowError:
            pass
    try:
        return [_exact_sum(buf)]
    except (OverflowError, ValueError):  # inf or nan among the values
        return array("d", [nan])


def _real_sum(buf) -> float:
    """The correctly rounded exact sum of a real-sum buffer."""
    if type(buf) is array:
        try:
            return fsum(buf)
        except OverflowError:
            pass
    return float(_exact_sum(buf))


def _reduce(spec: AggregatorSpec, count: int, stat, key: tuple[str, str]) -> float:
    """The spec's reduction of a group with ``count`` values; DataError unless
    it is a finite float (a sum past the float range, or a huge integer)."""
    try:
        if spec.kind in ("min", "max"):
            value = float(stat)
        else:
            value = _real_sum(stat) if spec.column in REAL_COLUMNS else float(stat)
            if spec.kind == "mean":
                value /= count
    except (OverflowError, ValueError):  # int too large for a float; inf - inf; nan
        value = nan
    if not isfinite(value):
        raise DataError(
            f"{spec.output_name} of session {key[0]!r}, level group {key[1]!r} "
            "is not a finite float"
        )
    return value


# The statistic a kind reads; other kinds name their own.
_STATISTIC = {"mean": "sum", "nunique": "set"}
_INITIAL = {"count": 0, "sum": 0, "min": inf, "max": -inf}
_FRESH = {"real": lambda: array("d"), "set": set}
_PLANS = ("count", "sum", "real", "min", "max", "set", "first", "last")


class StreamingAggregator:
    """Single-pass accumulator; update per event, finalize to a matrix.

    Each group is one flat list of slots, laid out once from the specs: a
    count per numeric column (and per categorical ``count``), a sum (an exact
    int, or for real columns a buffer of at most ``_BUFFER`` values that
    math.fsum compacts without rounding), a min, a max, a nunique set, and
    an (index, value) pair per first/last. An event touches only the slots
    some spec reads.

    ``aggregate_file`` builds one instance per session owner and reduces
    each on its own (``_reduced``); ``finalize`` is that reduction plus the
    assembly those share, so the output does not depend on arrival order or
    on the number of owners.
    """

    def __init__(self, specs: Iterable[AggregatorSpec] = DEFAULT_SPECS):
        self.specs = validate_specs(specs)
        slots: dict[tuple[str, str], int] = {}  # (column, statistic) -> slot
        self._cells = []  # per spec: (spec, slot of its numeric column's count, slot it reads)
        for s in self.specs:
            count = None
            if s.column in NUMERIC_COLUMNS:  # the count says whether any value came
                count = slots.setdefault((s.column, "count"), len(slots))
            stat = slots.setdefault((s.column, _STATISTIC.get(s.kind, s.kind)), len(slots))
            self._cells.append((s, count, stat))
        kinds = ["real" if stat == "sum" and column in REAL_COLUMNS else stat for column, stat in slots]
        plans: dict[str, list[tuple]] = {kind: [] for kind in _PLANS}
        for (column, stat), i in slots.items():
            kind, pos = kinds[i], _FIELD_INDEX[column]
            if kind in ("sum", "real"):
                plans[kind].append((pos, slots[(column, "count")], i))
            elif stat != "count" or (column, "sum") not in slots:  # a sum plan counts too
                plans[kind].append((pos, i))
        self._plans = tuple(plans.values())
        self._template = [_INITIAL.get(kind) for kind in kinds]
        self._fresh = [(i, _FRESH[kind]) for i, kind in enumerate(kinds) if kind in _FRESH]
        self._groups: dict[tuple[str, str], list] = {}

    def update_all(self, events: Iterable[RawEvent]) -> None:
        groups, template, fresh = self._groups, self._template, self._fresh
        counts, sums, reals, mins, maxs, sets, firsts, lasts = self._plans
        sid_at, group_at, index_at = (_FIELD_INDEX[c] for c in ("session_id", "level_group", "index"))
        for ev in events:
            key = (ev[sid_at], ev[group_at])
            g = groups.get(key)
            if g is None:
                g = groups[key] = template.copy()
                for i, make in fresh:
                    g[i] = make()
            for pos, c, i in reals:
                v = ev[pos]
                if v is not None:
                    g[c] += 1
                    buf = g[i]
                    buf.append(v)
                    if len(buf) >= _BUFFER:
                        g[i] = _compact(buf)
            for pos, c, i in sums:
                v = ev[pos]
                if v is not None:
                    g[c] += 1
                    g[i] += v
            for pos, i in counts:
                if ev[pos] is not None:
                    g[i] += 1
            for pos, i in mins:
                v = ev[pos]
                if v is not None:
                    m = g[i]
                    if v < m or (v == m and not v and copysign(1.0, v) < 0):  # -0.0 wins
                        g[i] = v
            for pos, i in maxs:
                v = ev[pos]
                if v is not None:
                    m = g[i]
                    if v > m or (v == m and not v and copysign(1.0, m) < 0):  # 0.0 wins
                        g[i] = v
            for pos, i in sets:
                v = ev[pos]
                if v is not None:
                    g[i].add(v)
            for pos, i in firsts:
                v = ev[pos]
                if v is not None:
                    end = (ev[index_at], v)
                    if g[i] is None or end < g[i]:
                        g[i] = end
            for pos, i in lasts:
                v = ev[pos]
                if v is not None:
                    end = (ev[index_at], v)
                    if g[i] is None or end > g[i]:
                        g[i] = end

    def finalize(self) -> FeatureMatrix:
        """Emit one row per group, sorted by (session_id, level_group rank)."""
        return _assemble(self.specs, self._reduced())

    def _reduced(self) -> list[tuple[tuple[str, str], list | DataError]]:
        """Each group's key with its values in spec order, a first/last cell
        still its (index, value) pair; or, for a group with a reduction that
        is not a finite float, the DataError of its first such spec."""
        out = []
        for key, group in self._groups.items():
            values: list = []
            try:
                for spec, count, i in self._cells:
                    stat = group[i]
                    if count is not None:
                        values.append(_reduce(spec, group[count], stat, key) if group[count] else None)
                    elif spec.kind == "count":
                        values.append(float(stat))
                    elif spec.kind == "nunique":
                        values.append(float(len(stat)))
                    else:
                        values.append(stat)
            except DataError as exc:
                values = exc
            out.append((key, values))
        return out


def _assemble(
    specs: tuple[AggregatorSpec, ...], reduced: list[tuple[tuple[str, str], list | DataError]]
) -> FeatureMatrix:
    """The matrix of reduced groups (``StreamingAggregator._reduced``; one
    list, or disjoint lists joined): rows sorted by (session_id, level_group
    rank), the first failed group's error raised, and first/last cells coded
    in that row order."""
    reduced.sort(key=lambda item: (item[0][0], _GROUP_RANK[item[0][1]]))
    code_tables: dict[str, dict[str, int]] = {s.column: {} for s in specs if s.is_categorical_code}
    coded = [(j, code_tables[s.column]) for j, s in enumerate(specs) if s.is_categorical_code]
    rows: list[FeatureRow] = []
    for (session_id, level_group), values in reduced:
        if isinstance(values, DataError):
            raise values
        for j, table in coded:
            if values[j] is not None:
                values[j] = float(table.setdefault(values[j][1], len(table)))
        rows.append(FeatureRow(session_id, level_group, tuple(values)))
    return FeatureMatrix(
        column_names=tuple(s.output_name for s in specs),
        rows=rows,
        code_tables=code_tables,
        specs=specs,
    )


def aggregate(
    events: Iterable[RawEvent], specs: Iterable[AggregatorSpec] = DEFAULT_SPECS
) -> FeatureMatrix:
    """Aggregate an event stream into one feature row per (session, level_group)."""
    agg = StreamingAggregator(specs)
    agg.update_all(events)
    return agg.finalize()


# Event files smaller than this aggregate in this process: below it, the
# pool's start costs more than the other CPUs save.
_SHARD_FLOOR = 2_000_000


def _aggregate_part(path: Path, specs: tuple[AggregatorSpec, ...], parts: int, k: int):
    """Task ``k`` of ``parts``: the reduced groups of the sessions it owns
    (see ``read_events``) and its ingest report."""
    report = IngestReport()
    agg = StreamingAggregator(specs)
    with open(path, newline="") as source:
        agg.update_all(read_events(source, report=report, part=(k, parts)))
    return agg._reduced(), report


def aggregate_file(
    path: Path, specs: Iterable[AggregatorSpec] = DEFAULT_SPECS
) -> tuple[FeatureMatrix, IngestReport]:
    """Aggregate an event CSV file: the matrix and the ingest report, whose
    ``events_emitted`` counts the events aggregated.

    A file of at least ``_SHARD_FLOOR`` bytes is aggregated by one task per
    pool worker (``pool.fork_map``); each reads the whole file but keeps
    only the sessions it owns, so no two tasks share a group and the output
    does not depend on the number of tasks. A smaller file, or a machine
    with one worker, runs the one task here.
    """
    specs = validate_specs(specs)
    with open(path, newline="") as source:
        check_event_header(source)
    report = IngestReport()
    parts = fork_workers() if Path(path).stat().st_size >= _SHARD_FLOOR else 1
    task = partial(_aggregate_part, path, specs, parts)
    reduced: list = []
    for groups, part_report in fork_map(task, range(parts)):
        reduced += groups
        report.add(part_report)
    return _assemble(specs, reduced), report


def _format_cell(v: Optional[float]) -> str:
    return "" if v is None else repr(v)


def save_feature_matrix(
    matrix: FeatureMatrix,
    csv_sink: IO[str],
    meta_sink: IO[str],
    config_fingerprint: str = "",
    seed: Optional[int] = None,
) -> None:
    """Write the matrix CSV plus its JSON sidecar (types, codes, specs)."""
    writer = csv.writer(csv_sink, lineterminator="\n")
    writer.writerow(("session_id", "level_group") + matrix.column_names)
    for row in matrix.rows:
        writer.writerow([row.session_id, row.level_group] + [_format_cell(v) for v in row.values])
    meta = {
        "format": "gametrace-feature-matrix",
        "version": 1,
        "config_fingerprint": config_fingerprint,
        "seed": seed,
        "columns": [
            {
                "name": s.output_name,
                "source": s.column,
                "kind": s.kind,
                "categorical_code": s.is_categorical_code,
            }
            for s in matrix.specs
        ],
        "code_tables": matrix.code_tables,
        "row_count": len(matrix.rows),
    }
    json.dump(meta, meta_sink, indent=2, sort_keys=True)
    meta_sink.write("\n")


def _read_sidecar(meta_path: Path) -> tuple[tuple[AggregatorSpec, ...], dict[str, dict[str, int]], int]:
    """The column specs, code tables and row count a feature matrix sidecar records."""
    try:
        meta = json.loads(Path(meta_path).read_text())
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise DataError(f"cannot read {meta_path}: {exc}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: not a JSON object")
    if meta.get("format") != "gametrace-feature-matrix":
        raise DataError(f"not a feature matrix sidecar: {meta_path}")
    try:
        specs = []
        for i, entry in enumerate(check(meta.get("columns"), list, "columns")):
            entry = check(entry, dict, f"columns[{i}]")
            source, kind, name = (
                check(entry.get(key), str, f"columns[{i}].{key}") for key in ("source", "kind", "name")
            )
            specs.append(AggregatorSpec(source, kind))
            if name != specs[-1].output_name:
                raise ConfigError(f"columns[{i}].name must be {specs[-1].output_name!r}, got {name!r}")
        code_tables = check(meta.get("code_tables"), dict[str, dict[str, int]], "code_tables")
        row_count = check(meta.get("row_count"), int, "row_count")
    except ConfigError as exc:
        raise DataError(f"{meta_path}: {exc}") from None
    return tuple(specs), code_tables, row_count


def _parse_cell(text: str) -> Optional[float]:
    """``_format_cell`` inverted: an empty cell is absent; any other must be
    a finite float, as ``_reduce`` writes only finite values."""
    if not text:
        return None
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"feature value {text!r} is not finite")
    return value


def load_feature_matrix(csv_path: Path, meta_path: Path) -> FeatureMatrix:
    specs, code_tables, row_count = _read_sidecar(meta_path)
    rows: list[FeatureRow] = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        expected = ["session_id", "level_group"] + [s.output_name for s in specs]
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{csv_path}: empty file, no header row")
            if header != expected:
                raise DataError(f"feature CSV header does not match sidecar: {csv_path}")
            for row in reader:
                if len(row) != len(expected):
                    raise ValueError(f"{len(row)} fields, the header has {len(expected)}")
                values = tuple(_parse_cell(v) for v in row[2:])
                rows.append(FeatureRow(row[0], row[1], values))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise unreadable(fh, reader, exc) from None
        except ValueError as exc:
            raise DataError(f"{csv_path}: line {reader.line_num}: {exc}") from None
    if len(rows) != row_count:
        raise DataError(f"{csv_path} holds {len(rows)} rows, {meta_path} records {row_count}")
    return FeatureMatrix(
        column_names=tuple(s.output_name for s in specs),
        rows=rows,
        code_tables=code_tables,
        specs=specs,
    )
