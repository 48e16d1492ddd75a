"""Seeded synthetic event-log generator with planted feature-label signal.

Each session's events cover all 23 levels (hence all three level groups);
correctness of each question is drawn from a logistic model over the
session/group's true aggregate features, computed here independently of the
aggregation module and recorded in a manifest together with every
probability draw. The manifest is the ground truth that desk-scale tests
check the pipeline against. Statistical shape only, no behavioral realism.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset import DEFAULT_QUESTION_GROUPS
from .errors import ConfigError
from .events import LEVEL_GROUPS, LabelRecord, level_group_for, write_events, write_labels
from .pool import fork_map
from .rng import derive_seed

FEATURE_NAMES = (
    "room_coor_x_mean",
    "room_coor_y_mean",
    "screen_coor_x_mean",
    "screen_coor_y_mean",
    "elapsed_time_sum",
    "level_mean",
    "music_max",
    "name_nunique",
    "room_fqid_nunique",
    "event_name_nunique",
    "fqid_count",
)

# Weights act on corpus-standardized aggregates; tuned so the default corpus
# lands near a 70/30 class split with a clearly learnable boundary.
DEFAULT_WEIGHTS = (1.17, 0.91, 0.78, 0.65, 1.3, 0.91, 0.78, 1.17, 0.91, 0.78, 1.56)
DEFAULT_BIAS = 2.4
DEFAULT_NOISE = 0.4

DEFAULT_NULL_RATES: dict[str, float] = {
    "page": 0.85,
    "room_coor_x": 0.05,
    "room_coor_y": 0.05,
    "screen_coor_x": 0.05,
    "screen_coor_y": 0.05,
    "hover_duration": 0.9,
    "text": 0.4,
    "fqid": 0.15,
    "room_fqid": 0.02,
    "text_fqid": 0.7,
}

_EVENT_VOCAB = (
    "navigate_click",
    "person_click",
    "object_click",
    "cutscene_click",
    "notebook_click",
    "map_hover",
    "object_hover",
    "checkpoint",
)
_NAME_VOCAB = ("basic", "undefined", "open", "close", "prev", "next")
_TEXT_VOCAB = tuple(f"line_{i:02d}" for i in range(24))
_FQID_VOCAB = tuple(f"obj.item_{i:02d}" for i in range(30))
_TEXT_FQID_VOCAB = tuple(f"dialog.node_{i:02d}" for i in range(20))


@dataclass(frozen=True)
class SynthConfig:
    sessions: int = 120
    events_per_session: int = 1000
    null_rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_NULL_RATES))
    weights: tuple[float, ...] = DEFAULT_WEIGHTS
    bias: float = DEFAULT_BIAS
    noise: float = DEFAULT_NOISE

    def __post_init__(self):
        if self.sessions < 1:
            raise ConfigError("sessions must be >= 1")
        if self.events_per_session < 46:
            raise ConfigError("events_per_session must be >= 46 (2 per level)")
        if self.noise < 0:
            raise ConfigError("noise must be >= 0")
        if len(self.weights) != len(FEATURE_NAMES):
            raise ConfigError(f"weights must have {len(FEATURE_NAMES)} entries")
        for col, rate in self.null_rates.items():
            if col not in DEFAULT_NULL_RATES:
                raise ConfigError(f"unknown optional column in null_rates: {col!r}")
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"null rate for {col!r} must be in [0, 1)")


@dataclass
class SynthResult:
    events_path: Path
    labels_path: Path
    manifest_path: Path
    events_written: int
    labels_written: int
    positive_labels: int


# Columns whose absent cells the manifest counts, in ``null_draws`` order.
_NULL_COLUMNS = tuple(DEFAULT_NULL_RATES)
# Each level group's levels. The groups are consecutive ranges, so walking
# them in order walks the levels 0 to 22 in order.
_GROUP_LEVELS = {g: [lvl for lvl in range(23) if level_group_for(lvl) == g] for g in LEVEL_GROUPS}


def _session_rows(sid: str, rng: np.random.Generator, cfg: SynthConfig,
                  truth: dict[str, list[Optional[float]]], absent: list[int]) -> list[tuple]:
    """One session's event rows, as tuples in ``EVENT_COLUMNS`` order.

    Adds the session's three ``truth`` entries (the 11 planted aggregates of
    each (session, level_group) slice, accumulated from the drawn values
    themselves, independent of the streaming aggregator, so they can serve
    as its oracle) and counts absent cells into ``absent``, one entry per
    ``_NULL_COLUMNS`` name. An optional cell draws its value, then, when its
    null rate is not 0, one ``random()`` that makes it absent below the rate.
    """
    rates = {**DEFAULT_NULL_RATES, **cfg.null_rates}
    mean = cfg.events_per_session
    n = max(46, int(rng.normal(mean, 0.1 * mean)))
    # every level gets at least one event; the rest spread by random weights
    counts = np.ones(23, dtype=np.int64)
    w = rng.random(23) + 0.25
    extra = np.floor((n - 23) * w / w.sum()).astype(np.int64)
    counts += extra
    short = n - int(counts.sum())
    for i in range(short):
        counts[int(rng.integers(0, 23))] += 1

    music = int(rng.random() < 0.75)
    fullscreen = int(rng.random() < 0.3)
    hq = int(rng.random() < 0.2)
    n_names = int(rng.integers(3, len(_NAME_VOCAB) + 1))
    n_eventnames = int(rng.integers(4, len(_EVENT_VOCAB) + 1))
    room_cx = float(rng.normal(0.0, 150.0))
    room_cy = float(rng.normal(0.0, 150.0))
    screen_cx = float(rng.normal(480.0, 120.0))
    screen_cy = float(rng.normal(300.0, 80.0))
    # per-session pace decouples total elapsed time from the event count
    pace = float(rng.uniform(0.4, 2.5))

    integers, normal, random = rng.integers, rng.normal, rng.random
    (r_page, r_rx, r_ry, r_sx, r_sy, r_hover, r_text, r_fqid, r_room, r_tfqid) = (
        rates[col] for col in _NULL_COLUMNS
    )
    rows: list[tuple] = []
    elapsed = 0
    index = 0
    for group, levels in _GROUP_LEVELS.items():
        rx: list[float] = []
        ry: list[float] = []
        sx: list[float] = []
        sy: list[float] = []
        names: set[str] = set()
        room_ids: set[str] = set()
        event_names: set[str] = set()
        first = len(rows)
        elapsed_sum = level_sum = fqid_count = 0
        for level in levels:
            rooms = [f"tunic.level{level}.room{j}" for j in range(int(integers(1, 4)))]
            for _ in range(int(counts[level])):
                elapsed += 1 + int(pace * float(integers(30, 1500)))
                event_name = _EVENT_VOCAB[int(integers(0, n_eventnames))]
                name = _NAME_VOCAB[int(integers(0, n_names))]
                page = int(integers(0, 7))
                if r_page and random() < r_page:
                    page = None
                    absent[0] += 1
                room_x = float(normal(room_cx, 100.0))
                if r_rx and random() < r_rx:
                    room_x = None
                    absent[1] += 1
                else:
                    rx.append(room_x)
                room_y = float(normal(room_cy, 100.0))
                if r_ry and random() < r_ry:
                    room_y = None
                    absent[2] += 1
                else:
                    ry.append(room_y)
                screen_x = float(normal(screen_cx, 90.0))
                if r_sx and random() < r_sx:
                    screen_x = None
                    absent[3] += 1
                else:
                    sx.append(screen_x)
                screen_y = float(normal(screen_cy, 60.0))
                if r_sy and random() < r_sy:
                    screen_y = None
                    absent[4] += 1
                else:
                    sy.append(screen_y)
                hover = int(integers(0, 3000))
                if r_hover and random() < r_hover:
                    hover = None
                    absent[5] += 1
                text = _TEXT_VOCAB[int(integers(0, len(_TEXT_VOCAB)))]
                if r_text and random() < r_text:
                    text = None
                    absent[6] += 1
                fqid = _FQID_VOCAB[int(integers(0, len(_FQID_VOCAB)))]
                if r_fqid and random() < r_fqid:
                    fqid = None
                    absent[7] += 1
                else:
                    fqid_count += 1
                room = rooms[int(integers(0, len(rooms)))]
                if r_room and random() < r_room:
                    room = None
                    absent[8] += 1
                else:
                    room_ids.add(room)
                text_fqid = _TEXT_FQID_VOCAB[int(integers(0, len(_TEXT_FQID_VOCAB)))]
                if r_tfqid and random() < r_tfqid:
                    text_fqid = None
                    absent[9] += 1
                rows.append((
                    sid, index, elapsed, event_name, name, level, page, room_x, room_y,
                    screen_x, screen_y, hover, text, fqid, room, text_fqid, fullscreen, hq,
                    music, group,
                ))
                names.add(name)
                event_names.add(event_name)
                elapsed_sum += elapsed
                level_sum += level
                index += 1
        events = len(rows) - first
        truth[f"{sid}|{group}"] = [
            _mean(rx),
            _mean(ry),
            _mean(sx),
            _mean(sy),
            float(elapsed_sum),
            level_sum / events,
            float(music),
            float(len(names)),
            float(len(room_ids)),
            float(len(event_names)),
            float(fqid_count),
        ]
    return rows


def _mean(values: list[float]) -> Optional[float]:
    return math.fsum(values) / len(values) if values else None


# Sessions per pool task. Each task's text is formatted by its own
# csv.writer, which writes a row the same way wherever it runs.
_BLOCK = 8


def _session_id(i: int) -> str:
    return str(1_000_000_000 + i)


def _session_block(config: SynthConfig, seed: int, start: int) -> tuple[str, dict, list[int], int]:
    """Sessions ``start`` up to ``start + _BLOCK``: their CSV rows as text,
    their truth entries, their absent-cell counts and their event count."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    truth: dict[str, list[Optional[float]]] = {}
    absent = [0] * len(_NULL_COLUMNS)
    events = 0
    for i in range(start, min(start + _BLOCK, config.sessions)):
        rows = _session_rows(_session_id(i), np.random.default_rng(derive_seed(seed, i)), config, truth, absent)
        writer.writerows(rows)
        events += len(rows)
    return text.getvalue(), truth, absent, events


def generate(config: SynthConfig, outdir: Path, seed: int) -> SynthResult:
    """Write events.csv, labels.csv, and manifest.json under outdir.

    Byte-identical for a fixed config and seed: each session draws from its
    own rng, seeded by its index (``derive_seed(seed, i)``), so a session's
    rows do not depend on where or in which order it is generated. Blocks of
    ``_BLOCK`` sessions run in a fork pool with one worker per usable CPU
    (``pool.fork_map``; no setting), and their text is written in session
    order as it arrives. Labels, standardization and the manifest are
    computed here from the blocks' truth entries.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    events_path = outdir / "events.csv"
    labels_path = outdir / "labels.csv"
    manifest_path = outdir / "manifest.json"

    sids = [_session_id(i) for i in range(config.sessions)]
    truth: dict[str, list[Optional[float]]] = {}
    absent = [0] * len(_NULL_COLUMNS)
    events_written = 0
    blocks = fork_map(partial(_session_block, config, seed), range(0, config.sessions, _BLOCK))
    with closing(blocks), open(events_path, "w", newline="") as sink:
        write_events(sink, ())
        for text, block_truth, block_absent, events in blocks:
            sink.write(text)
            truth.update(block_truth)
            absent = [a + b for a, b in zip(absent, block_absent)]
            events_written += events

    # Standardize the true aggregates so the planted weights act on
    # comparable scales; absent cells contribute 0 (the column mean).
    z = np.array(
        [
            [np.nan if v is None else v for v in truth[f"{sid}|{g}"]]
            for sid in sids
            for g in LEVEL_GROUPS
        ],
        dtype=np.float64,
    )
    col_mean = np.nanmean(z, axis=0)
    col_std = np.nanstd(z, axis=0)
    safe_std = np.where(col_std == 0.0, 1.0, col_std)
    zs = (z - col_mean) / safe_std
    zs = np.nan_to_num(zs, nan=0.0)
    row_of = {f"{sid}|{g}": i for i, (sid, g) in enumerate((s, g) for s in sids for g in LEVEL_GROUPS)}

    weights = np.asarray(config.weights, dtype=np.float64)
    labels: list[LabelRecord] = []
    draws: list[dict] = []
    positives = 0
    for i, sid in enumerate(sids):
        rng = np.random.default_rng(derive_seed(seed, config.sessions + i))
        for q in range(1, 19):
            g = DEFAULT_QUESTION_GROUPS[q]
            zrow = zs[row_of[f"{sid}|{g}"]]
            logit = float(weights @ zrow + config.bias)
            if config.noise > 0.0:
                logit += config.noise * float(rng.normal())
            if logit >= 0.0:
                p = 1.0 / (1.0 + math.exp(-logit))
            else:
                e = math.exp(logit)
                p = e / (1.0 + e)
            correct = bool(rng.random() < p)
            positives += int(correct)
            labels.append(LabelRecord(sid, q, correct))
            draws.append({"session_id": sid, "question": q, "p": p, "correct": correct})

    with open(labels_path, "w", newline="") as sink:
        write_labels(sink, labels)

    manifest = {
        "format": "gametrace-synth-manifest",
        "version": 1,
        "config": {
            "sessions": config.sessions,
            "events_per_session": config.events_per_session,
            "seed": seed,
            "null_rates": {**DEFAULT_NULL_RATES, **config.null_rates},
            "weights": list(config.weights),
            "bias": config.bias,
            "noise": config.noise,
        },
        "feature_names": list(FEATURE_NAMES),
        "standardization": {"mean": col_mean.tolist(), "std": col_std.tolist()},
        "true_aggregates": truth,
        "label_draws": draws,
        "null_draws": {col: {"absent": a, "total": events_written} for col, a in zip(_NULL_COLUMNS, absent)},
        "events_written": events_written,
        "sessions_written": config.sessions,
        "class_balance": {"positive": positives, "negative": len(labels) - positives},
    }
    with open(manifest_path, "w") as sink:
        json.dump(manifest, sink, indent=2, sort_keys=True)
        sink.write("\n")

    return SynthResult(
        events_path=events_path,
        labels_path=labels_path,
        manifest_path=manifest_path,
        events_written=events_written,
        labels_written=len(labels),
        positive_labels=positives,
    )
