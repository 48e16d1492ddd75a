"""Seeded synthetic event-log generator with planted feature-label signal.

Each session's events cover all 23 levels (hence all three level groups);
correctness of each question is drawn from a logistic model over the
session/group's true aggregate features, computed here independently of the
aggregation module and recorded in a manifest together with every
probability draw. The manifest is the ground truth that desk-scale tests
check the pipeline against. Statistical shape only, no behavioral realism.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import DEFAULT_QUESTION_GROUPS
from .errors import ConfigError
from .events import LEVEL_GROUPS, RawEvent, level_group_for, write_events, write_labels, LabelRecord
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


def _maybe(rng: np.random.Generator, rate: float, value):
    return None if rate > 0.0 and rng.random() < rate else value


def _session_events(sid: str, rng: np.random.Generator, cfg: SynthConfig) -> list[RawEvent]:
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

    events: list[RawEvent] = []
    elapsed = 0
    index = 0
    for level in range(23):
        rooms = [f"tunic.level{level}.room{j}" for j in range(int(rng.integers(1, 4)))]
        group = level_group_for(level)
        for _ in range(int(counts[level])):
            elapsed += 1 + int(pace * float(rng.integers(30, 1500)))
            events.append(
                RawEvent(
                    session_id=sid,
                    index=index,
                    elapsed_time=elapsed,
                    event_name=_EVENT_VOCAB[int(rng.integers(0, n_eventnames))],
                    name=_NAME_VOCAB[int(rng.integers(0, n_names))],
                    level=level,
                    page=_maybe(rng, rates["page"], int(rng.integers(0, 7))),
                    room_coor_x=_maybe(rng, rates["room_coor_x"], float(rng.normal(room_cx, 100.0))),
                    room_coor_y=_maybe(rng, rates["room_coor_y"], float(rng.normal(room_cy, 100.0))),
                    screen_coor_x=_maybe(rng, rates["screen_coor_x"], float(rng.normal(screen_cx, 90.0))),
                    screen_coor_y=_maybe(rng, rates["screen_coor_y"], float(rng.normal(screen_cy, 60.0))),
                    hover_duration=_maybe(rng, rates["hover_duration"], int(rng.integers(0, 3000))),
                    text=_maybe(rng, rates["text"], _TEXT_VOCAB[int(rng.integers(0, len(_TEXT_VOCAB)))]),
                    fqid=_maybe(rng, rates["fqid"], _FQID_VOCAB[int(rng.integers(0, len(_FQID_VOCAB)))]),
                    room_fqid=_maybe(rng, rates["room_fqid"], rooms[int(rng.integers(0, len(rooms)))]),
                    text_fqid=_maybe(
                        rng, rates["text_fqid"], _TEXT_FQID_VOCAB[int(rng.integers(0, len(_TEXT_FQID_VOCAB)))]
                    ),
                    fullscreen=fullscreen,
                    hq=hq,
                    music=music,
                    level_group=group,
                )
            )
            index += 1
    return events


def _group_truth(events: Sequence[RawEvent]) -> list[Optional[float]]:
    """The 11 planted aggregates for one (session, level_group) slice.

    Computed directly from the event list, independent of the streaming
    aggregator, so it can serve as an oracle for it.
    """

    def mean_of(attr: str) -> Optional[float]:
        vals = [getattr(e, attr) for e in events if getattr(e, attr) is not None]
        return math.fsum(vals) / len(vals) if vals else None

    elapsed_sum = sum(e.elapsed_time for e in events)
    levels = [e.level for e in events]
    return [
        mean_of("room_coor_x"),
        mean_of("room_coor_y"),
        mean_of("screen_coor_x"),
        mean_of("screen_coor_y"),
        float(elapsed_sum),
        sum(levels) / len(levels),
        float(max(e.music for e in events)),
        float(len({e.name for e in events})),
        float(len({e.room_fqid for e in events if e.room_fqid is not None})),
        float(len({e.event_name for e in events})),
        float(sum(1 for e in events if e.fqid is not None)),
    ]


def generate(config: SynthConfig, outdir: Path, seed: int) -> SynthResult:
    """Write events.csv, labels.csv, and manifest.json under outdir.

    Byte-identical for a fixed config and seed; sessions are generated from
    seeds derived by session index, so output does not depend on iteration
    order.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    events_path = outdir / "events.csv"
    labels_path = outdir / "labels.csv"
    manifest_path = outdir / "manifest.json"

    sids = [str(1_000_000_000 + i) for i in range(config.sessions)]
    truth: dict[str, list[Optional[float]]] = {}
    null_draws = {col: [0, 0] for col in DEFAULT_NULL_RATES}  # [absent, total]
    events_written = 0

    with open(events_path, "w", newline="") as sink:
        def stream():
            nonlocal events_written
            for i, sid in enumerate(sids):
                rng = np.random.default_rng(derive_seed(seed, i))
                session = _session_events(sid, rng, config)
                by_group: dict[str, list[RawEvent]] = {g: [] for g in LEVEL_GROUPS}
                for ev in session:
                    by_group[ev.level_group].append(ev)
                    for col in null_draws:
                        null_draws[col][1] += 1
                        if getattr(ev, col) is None:
                            null_draws[col][0] += 1
                for g in LEVEL_GROUPS:
                    truth[f"{sid}|{g}"] = _group_truth(by_group[g])
                events_written += len(session)
                yield from session

        write_events(sink, stream())

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
        "null_draws": {col: {"absent": a, "total": t} for col, (a, t) in null_draws.items()},
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
