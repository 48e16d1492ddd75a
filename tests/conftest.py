import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make tests/oracles.py importable

from gametrace.events import EVENT_COLUMNS, RawEvent, level_group_for


def make_event(**overrides) -> RawEvent:
    """A well-formed event with sensible defaults, override what you need."""
    base = dict(
        session_id="s1",
        index=0,
        elapsed_time=0,
        event_name="navigate_click",
        name="basic",
        level=0,
        page=None,
        room_coor_x=None,
        room_coor_y=None,
        screen_coor_x=None,
        screen_coor_y=None,
        hover_duration=None,
        text=None,
        fqid=None,
        room_fqid=None,
        text_fqid=None,
        fullscreen=0,
        hq=0,
        music=0,
        level_group="0-4",
    )
    base.update(overrides)
    if "level" in overrides and "level_group" not in overrides:
        base["level_group"] = level_group_for(base["level"])
    return RawEvent(**base)


def events_csv(rows: list[dict]) -> io.StringIO:
    """Build an event CSV source from per-row cell dicts (strings)."""
    lines = [",".join(EVENT_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in EVENT_COLUMNS))
    return io.StringIO("\n".join(lines) + "\n")


def random_events(rng: np.random.Generator, n: int, sessions=("s1", "s2"), null_rate=0.25):
    """Random schema-conformant events with absent optional cells."""
    out = []
    vocab_a = ["alpha", "beta", "gamma", "delta"]
    vocab_b = ["x", "y", "z"]
    for i in range(n):
        level = int(rng.integers(0, 23))

        def opt(value):
            return None if rng.random() < null_rate else value

        out.append(
            make_event(
                session_id=str(sessions[int(rng.integers(0, len(sessions)))]),
                index=int(rng.integers(0, 10_000)),
                elapsed_time=int(rng.integers(0, 1_000_000)),
                event_name=vocab_a[int(rng.integers(0, len(vocab_a)))],
                name=vocab_b[int(rng.integers(0, len(vocab_b)))],
                level=level,
                page=opt(int(rng.integers(0, 7))),
                room_coor_x=opt(float(rng.normal(0, 100))),
                room_coor_y=opt(float(rng.normal(0, 100))),
                screen_coor_x=opt(float(rng.normal(480, 90))),
                screen_coor_y=opt(float(rng.normal(300, 60))),
                hover_duration=opt(int(rng.integers(0, 5000))),
                text=opt(vocab_a[int(rng.integers(0, len(vocab_a)))]),
                fqid=opt(f"fq{int(rng.integers(0, 9))}"),
                room_fqid=opt(f"room{int(rng.integers(0, 5))}"),
                text_fqid=opt(f"tx{int(rng.integers(0, 6))}"),
                fullscreen=int(rng.integers(0, 2)),
                hq=int(rng.integers(0, 2)),
                music=int(rng.integers(0, 2)),
            )
        )
    return out


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """One shared small synthetic corpus for cross-module tests."""
    from gametrace.settings import SynthConfig
    from gametrace.synth import generate

    outdir = tmp_path_factory.mktemp("corpus")
    cfg = SynthConfig(sessions=12, events_per_session=120)
    result = generate(cfg, outdir, seed=7)
    return cfg, result
