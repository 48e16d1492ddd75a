"""Seeded synthetic event-log generator with planted feature-label signal.

Each session's events cover all 23 levels (hence all three level groups).
The generator draws the rows first, then summarizes them: the 11 true
aggregate features of each session/group and the absent-cell counts are
computed from the drawn rows, independently of the aggregation module.
Correctness of each question is drawn from a logistic model over those
aggregates, and a manifest records them together with every probability
draw. The manifest is the ground truth that desk-scale tests check the
pipeline against. Statistical shape only, no behavioral realism.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .events import DEFAULT_QUESTION_GROUPS, EVENT_COLUMNS, LEVEL_GROUPS, LabelRecord, level_group_for
from .events import write_events, write_labels
from .pool import fork_map
from .rng import derive_seed
from .settings import DEFAULT_NULL_RATES, FEATURE_NAMES, SynthConfig

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
_LEVEL_GROUP_AT = EVENT_COLUMNS.index("level_group")


def _session_rows(sid: str, rng: np.random.Generator, cfg: SynthConfig) -> list[tuple]:
    """One session's event rows, as tuples in ``EVENT_COLUMNS`` order.

    Only draws: the truth and the absent-cell counts are computed from the
    rows afterwards (``_truth``, ``_session_block``). An optional cell draws
    its value, then, when its null rate is not 0, one ``random()`` that
    makes it absent below the rate.
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
    for group, levels in _GROUP_LEVELS.items():
        for level in levels:
            rooms = [f"tunic.level{level}.room{j}" for j in range(int(integers(1, 4)))]
            for _ in range(int(counts[level])):
                elapsed += 1 + int(pace * float(integers(30, 1500)))
                event_name = _EVENT_VOCAB[int(integers(0, n_eventnames))]
                name = _NAME_VOCAB[int(integers(0, n_names))]
                page = int(integers(0, 7))
                if r_page and random() < r_page:
                    page = None
                room_x = float(normal(room_cx, 100.0))
                if r_rx and random() < r_rx:
                    room_x = None
                room_y = float(normal(room_cy, 100.0))
                if r_ry and random() < r_ry:
                    room_y = None
                screen_x = float(normal(screen_cx, 90.0))
                if r_sx and random() < r_sx:
                    screen_x = None
                screen_y = float(normal(screen_cy, 60.0))
                if r_sy and random() < r_sy:
                    screen_y = None
                hover = int(integers(0, 3000))
                if r_hover and random() < r_hover:
                    hover = None
                text = _TEXT_VOCAB[int(integers(0, len(_TEXT_VOCAB)))]
                if r_text and random() < r_text:
                    text = None
                fqid = _FQID_VOCAB[int(integers(0, len(_FQID_VOCAB)))]
                if r_fqid and random() < r_fqid:
                    fqid = None
                room = rooms[int(integers(0, len(rooms)))]
                if r_room and random() < r_room:
                    room = None
                text_fqid = _TEXT_FQID_VOCAB[int(integers(0, len(_TEXT_FQID_VOCAB)))]
                if r_tfqid and random() < r_tfqid:
                    text_fqid = None
                rows.append((
                    sid, len(rows), elapsed, event_name, name, level, page, room_x, room_y,
                    screen_x, screen_y, hover, text, fqid, room, text_fqid, fullscreen, hq,
                    music, group,
                ))
    return rows


def _truth(cells: dict[str, tuple]) -> list[Optional[float]]:
    """The 11 planted aggregates (``FEATURE_NAMES``) of one (session,
    level_group) slice, from its drawn cells by column. Computed here,
    independent of the aggregation module, so they can serve as its oracle."""
    def present(col: str) -> list:
        return [v for v in cells[col] if v is not None]

    return [
        _mean(present("room_coor_x")),
        _mean(present("room_coor_y")),
        _mean(present("screen_coor_x")),
        _mean(present("screen_coor_y")),
        float(sum(cells["elapsed_time"])),
        sum(cells["level"]) / len(cells["level"]),
        float(max(cells["music"])),
        float(len(set(cells["name"]))),
        float(len(set(present("room_fqid")))),
        float(len(set(cells["event_name"]))),
        float(len(present("fqid"))),
    ]


def _mean(values: list[float]) -> Optional[float]:
    return math.fsum(values) / len(values) if values else None


# Sessions per pool task. Each task's text is formatted by its own
# csv.writer, which writes a row the same way wherever it runs.
_BLOCK = 8


def _session_id(i: int) -> str:
    return str(1_000_000_000 + i)


def _session_block(config: SynthConfig, seed: int, start: int) -> tuple[str, dict, list[int], int]:
    """Sessions ``start`` up to ``start + _BLOCK``: their CSV rows as text,
    their truth entries, their absent-cell counts and their event count,
    all summarized from the drawn rows."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    truth: dict[str, list[Optional[float]]] = {}
    absent = [0] * len(_NULL_COLUMNS)
    events = 0
    for i in range(start, min(start + _BLOCK, config.sessions)):
        sid = _session_id(i)
        rows = _session_rows(sid, np.random.default_rng(derive_seed(seed, i)), config)
        writer.writerows(rows)
        events += len(rows)
        for group, group_rows in groupby(rows, key=itemgetter(_LEVEL_GROUP_AT)):
            cells = dict(zip(EVENT_COLUMNS, zip(*group_rows)))
            truth[f"{sid}|{group}"] = _truth(cells)
            absent = [a + cells[col].count(None) for a, col in zip(absent, _NULL_COLUMNS)]
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
    # ``truth`` holds the slices in session order, each session's level
    # groups in ``LEVEL_GROUPS`` order, so ``zs[i, j]`` is session i's group j.
    z = np.array([[np.nan if v is None else v for v in t] for t in truth.values()], dtype=np.float64)
    col_mean = np.nanmean(z, axis=0)
    col_std = np.nanstd(z, axis=0)
    safe_std = np.where(col_std == 0.0, 1.0, col_std)
    zs = (z - col_mean) / safe_std
    zs = np.nan_to_num(zs, nan=0.0).reshape(config.sessions, len(LEVEL_GROUPS), -1)

    weights = np.asarray(config.weights, dtype=np.float64)
    labels: list[LabelRecord] = []
    draws: list[dict] = []
    positives = 0
    for i, sid in enumerate(sids):
        rng = np.random.default_rng(derive_seed(seed, config.sessions + i))
        for q in range(1, 19):
            zrow = zs[i, LEVEL_GROUPS.index(DEFAULT_QUESTION_GROUPS[q])]
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
