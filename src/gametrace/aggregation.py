"""Streaming aggregation of the event stream into per-(session, level_group) rows.

One pass, per-group accumulators only: running sum/count/min/max for numeric
columns, hash sets for nunique, index-tracked first/last for categoricals.
The raw stream is never buffered, so output size is proportional to the
number of groups, not events. Accumulators merge associatively, which allows
sharding by session and combining shard results.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Optional

from math import fsum, isfinite

from .errors import ConfigError, DataError, SpecTypeMismatchError
from .events import (
    CATEGORICAL_COLUMNS,
    EVENT_COLUMNS,
    LEVEL_GROUPS,
    NUMERIC_COLUMNS,
    REAL_COLUMNS,
    RawEvent,
)
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
    output_name: str = ""

    def __post_init__(self):
        if not self.output_name:
            object.__setattr__(self, "output_name", f"{self.column}_{self.kind}")

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
            if spec.kind not in NUMERIC_KINDS:
                raise SpecTypeMismatchError(spec.column, spec.kind)
        elif spec.column in CATEGORICAL_COLUMNS:
            if spec.kind not in CATEGORICAL_KINDS:
                raise SpecTypeMismatchError(spec.column, spec.kind)
        else:
            raise ConfigError(f"unknown event column in spec: {spec.column!r}")
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


class FeatureRow:
    """One aggregated row; values align with the owning matrix's columns."""

    __slots__ = ("session_id", "level_group", "values")

    def __init__(self, session_id: str, level_group: str, values: tuple):
        self.session_id = session_id
        self.level_group = level_group
        self.values = values

    def __eq__(self, other):
        return (
            isinstance(other, FeatureRow)
            and self.session_id == other.session_id
            and self.level_group == other.level_group
            and self.values == other.values
        )

    def __repr__(self):
        return f"FeatureRow({self.session_id!r}, {self.level_group!r}, {self.values!r})"


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


def _add_partial(partials: list[float], x: float) -> None:
    """Shewchuk exact accumulation: partials stay non-overlapping, so the
    represented sum is exact and therefore independent of addition order."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class _NumAcc:
    """Integer columns keep an exact int total; real columns keep exact
    float partials. Either way the sum is order-independent."""

    __slots__ = ("count", "total", "partials", "mn", "mx")

    def __init__(self, is_real: bool):
        self.count = 0
        self.total = 0
        self.partials: Optional[list[float]] = [] if is_real else None
        self.mn = None
        self.mx = None

    def sum_value(self) -> float:
        if self.partials is None:
            return float(self.total)
        return fsum(self.partials)


def _reduce(acc: _NumAcc, spec: AggregatorSpec, key: tuple[str, str]) -> float:
    """The spec's reduction of a non-empty accumulator; DataError unless it
    is a finite float (a sum past the float range, or a huge integer)."""
    try:
        if spec.kind == "mean":
            value = acc.sum_value() / acc.count
        elif spec.kind == "sum":
            value = acc.sum_value()
        else:
            value = float(acc.mn if spec.kind == "min" else acc.mx)
    except (OverflowError, ValueError):  # int too large for a float; inf - inf in fsum
        value = float("nan")
    if not isfinite(value):
        raise DataError(
            f"{spec.output_name} of session {key[0]!r}, level group {key[1]!r} "
            "is not a finite float"
        )
    return value


class _CatAcc:
    __slots__ = ("count", "values", "first_idx", "first_val", "last_idx", "last_val")

    def __init__(self):
        self.count = 0
        self.values = None  # set, allocated only when nunique is needed
        self.first_idx = None
        self.first_val = None
        self.last_idx = None
        self.last_val = None


class StreamingAggregator:
    """Single-pass accumulator; update per event, finalize to a matrix.

    Instances may be built on disjoint shards of the stream (grouped by
    session) and merged; merge is associative and commutative, so the
    finalized output is independent of sharding and arrival order.
    """

    def __init__(self, specs: Iterable[AggregatorSpec] = DEFAULT_SPECS):
        self.specs = validate_specs(specs)
        num_cols: list[str] = []
        cat_cols: list[str] = []
        for s in self.specs:
            if s.column in NUMERIC_COLUMNS and s.column not in num_cols:
                num_cols.append(s.column)
            if s.column in CATEGORICAL_COLUMNS and s.column not in cat_cols:
                cat_cols.append(s.column)
        self._num_cols = num_cols
        self._cat_cols = cat_cols
        self._num_pos = [_FIELD_INDEX[c] for c in num_cols]
        self._num_real = [c in REAL_COLUMNS for c in num_cols]
        self._cat_pos = [_FIELD_INDEX[c] for c in cat_cols]
        cat_kinds = {c: {s.kind for s in self.specs if s.column == c} for c in cat_cols}
        self._cat_need_set = [bool(cat_kinds[c] & {"nunique"}) for c in cat_cols]
        self._cat_need_ends = [bool(cat_kinds[c] & {"first", "last"}) for c in cat_cols]
        self._groups: dict[tuple[str, str], tuple[list[_NumAcc], list[_CatAcc]]] = {}
        self.events_in = 0

    def _new_group(self) -> tuple[list[_NumAcc], list[_CatAcc]]:
        return [_NumAcc(is_real) for is_real in self._num_real], [_CatAcc() for _ in self._cat_pos]

    def update(self, ev: RawEvent) -> None:
        self.events_in += 1
        key = (ev[0], ev[19])
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = self._new_group()
        nums, cats = group
        for pos, acc in zip(self._num_pos, nums):
            v = ev[pos]
            if v is None:
                continue
            if acc.count == 0:
                acc.mn = v
                acc.mx = v
            else:
                if v < acc.mn:
                    acc.mn = v
                if v > acc.mx:
                    acc.mx = v
            acc.count += 1
            if acc.partials is None:
                acc.total += v
            else:
                _add_partial(acc.partials, v)
        if not self._cat_pos:
            return
        idx = ev[1]
        for pos, acc, need_set, need_ends in zip(
            self._cat_pos, cats, self._cat_need_set, self._cat_need_ends
        ):
            v = ev[pos]
            if v is None:
                continue
            acc.count += 1
            if need_set:
                if acc.values is None:
                    acc.values = {v}
                else:
                    acc.values.add(v)
            if need_ends:
                if acc.first_idx is None or idx < acc.first_idx or (
                    idx == acc.first_idx and v < acc.first_val
                ):
                    acc.first_idx = idx
                    acc.first_val = v
                if acc.last_idx is None or idx > acc.last_idx or (
                    idx == acc.last_idx and v > acc.last_val
                ):
                    acc.last_idx = idx
                    acc.last_val = v

    def update_all(self, events: Iterable[RawEvent]) -> None:
        for ev in events:
            self.update(ev)

    def merge(self, other: "StreamingAggregator") -> None:
        """Fold another aggregator (same specs) into this one. Its state is
        copied, never shared: later changes to either side stay there."""
        if other.specs != self.specs:
            raise ConfigError("cannot merge aggregators with different specs")
        self.events_in += other.events_in
        for key, (onums, ocats) in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                mine = self._groups[key] = self._new_group()
            nums, cats = mine
            for a, b in zip(nums, onums):
                if b.count == 0:
                    continue
                if a.count == 0:
                    a.mn, a.mx = b.mn, b.mx
                else:
                    if b.mn < a.mn:
                        a.mn = b.mn
                    if b.mx > a.mx:
                        a.mx = b.mx
                a.count += b.count
                if a.partials is None:
                    a.total += b.total
                else:
                    for p in b.partials:
                        _add_partial(a.partials, p)
            for a, b in zip(cats, ocats):
                if b.count == 0:
                    continue
                a.count += b.count
                if b.values is not None:
                    a.values = set(b.values) if a.values is None else a.values | b.values
                if b.first_idx is not None and (
                    a.first_idx is None
                    or b.first_idx < a.first_idx
                    or (b.first_idx == a.first_idx and b.first_val < a.first_val)
                ):
                    a.first_idx, a.first_val = b.first_idx, b.first_val
                if b.last_idx is not None and (
                    a.last_idx is None
                    or b.last_idx > a.last_idx
                    or (b.last_idx == a.last_idx and b.last_val > a.last_val)
                ):
                    a.last_idx, a.last_val = b.last_idx, b.last_val

    def compression_report(self, input_bytes: int, output_bytes: int) -> "CompressionReport":
        """Size accounting for the finished run; call after the stream ends."""
        return CompressionReport(
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            rows_in=self.events_in,
            rows_out=len(self._groups),
        )

    def finalize(self) -> FeatureMatrix:
        """Emit one row per group, sorted by (session_id, level_group rank)."""
        num_slot = {c: i for i, c in enumerate(self._num_cols)}
        cat_slot = {c: i for i, c in enumerate(self._cat_cols)}
        keys = sorted(self._groups, key=lambda k: (k[0], _GROUP_RANK[k[1]]))
        code_tables: dict[str, dict[str, int]] = {
            s.column: {} for s in self.specs if s.is_categorical_code
        }
        rows: list[FeatureRow] = []
        for key in keys:
            nums, cats = self._groups[key]
            values: list[Optional[float]] = []
            for s in self.specs:
                if s.column in NUMERIC_COLUMNS:
                    acc = nums[num_slot[s.column]]
                    values.append(None if acc.count == 0 else _reduce(acc, s, key))
                else:
                    acc = cats[cat_slot[s.column]]
                    if s.kind == "count":
                        values.append(float(acc.count))
                    elif s.kind == "nunique":
                        values.append(float(len(acc.values)) if acc.values else 0.0)
                    else:
                        val = acc.first_val if s.kind == "first" else acc.last_val
                        if val is None:
                            values.append(None)
                        else:
                            table = code_tables[s.column]
                            code = table.get(val)
                            if code is None:
                                code = len(table)
                                table[val] = code
                            values.append(float(code))
            rows.append(FeatureRow(key[0], key[1], tuple(values)))
        return FeatureMatrix(
            column_names=tuple(s.output_name for s in self.specs),
            rows=rows,
            code_tables=code_tables,
            specs=self.specs,
        )


def aggregate(
    events: Iterable[RawEvent], specs: Iterable[AggregatorSpec] = DEFAULT_SPECS
) -> FeatureMatrix:
    """Aggregate an event stream into one feature row per (session, level_group)."""
    agg = StreamingAggregator(specs)
    agg.update_all(events)
    return agg.finalize()


@dataclass(frozen=True)
class CompressionReport:
    """Size accounting for one aggregation run."""

    input_bytes: int
    output_bytes: int
    rows_in: int
    rows_out: int

    @property
    def byte_ratio(self) -> Optional[float]:
        if self.input_bytes <= 0:
            return None
        return self.output_bytes / self.input_bytes

    def describe(self) -> str:
        if self.byte_ratio is None:
            ratio = "n/a (no input)"
        else:
            ratio = f"{100.0 * self.byte_ratio:.2f}%"
        return (
            f"rows {self.rows_in} -> {self.rows_out}; "
            f"bytes {self.input_bytes} -> {self.output_bytes} ({ratio})"
        )


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


def _read_sidecar(meta_path: Path) -> tuple[tuple[AggregatorSpec, ...], dict[str, dict[str, int]]]:
    """The column specs and code tables a feature matrix sidecar records."""
    try:
        meta = json.loads(Path(meta_path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
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
            specs.append(AggregatorSpec(source, kind, name))
        code_tables = check(meta.get("code_tables"), dict[str, dict[str, int]], "code_tables")
    except ConfigError as exc:
        raise DataError(f"{meta_path}: {exc}") from None
    return tuple(specs), code_tables


def load_feature_matrix(csv_path: Path, meta_path: Path) -> FeatureMatrix:
    specs, code_tables = _read_sidecar(meta_path)
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
                values = tuple(float(v) if v else None for v in row[2:])
                rows.append(FeatureRow(row[0], row[1], values))
        except (ValueError, csv.Error) as exc:  # also text that is not UTF-8
            raise DataError(f"{csv_path}: line {reader.line_num}: {exc}") from None
    return FeatureMatrix(
        column_names=tuple(s.output_name for s in specs),
        rows=rows,
        code_tables=code_tables,
        specs=specs,
    )
