#!/usr/bin/env python3
"""Run every CLI command under each config and print the sha256 of each artifact.

The configs are the defaults, ``perfbench/config.json``,
``scripts/onehot_config.json``, ``scripts/allkinds_config.json``,
``scripts/manhattan_config.json``, ``scripts/cosine_config.json`` and
``scripts/entropy_config.json``. The onehot one adds a ``first`` and a
``last`` spec to the default specs, so selection and every model see
dictionary-coded columns and go through one-hot expansion, which the first
two do not reach. The allkinds one takes mean, sum, min and max of a real,
an integer and an optional-integer column, and first, last, count and
nunique of an optional categorical column, so aggregation's min/max,
real-sum and absent-value paths run too; it drops no column by name, so the
optional ones reach the models. The manhattan and cosine ones keep the
default specs and set KNN's metric to manhattan and to cosine; the others
all use euclidean. The entropy one sets the forest's split criterion to
entropy; the others all use gini. Each config runs in its own subdirectory
of ``--workdir`` (``default``, ``perfbench``, ``onehot``, ``allkinds``,
``manhattan``, ``cosine``, ``entropy``), with these steps,
all with that subdirectory as --workdir, the config and --seed:

    gametrace gen-synthetic --sessions N --events-per-session M
    gametrace aggregate
    gametrace select
    gametrace benchmark --protocol holdout   (report kept as benchmark_report.holdout.json)
    gametrace benchmark --protocol cv
    gametrace cv / train / evaluate --model KIND   (for each kind in MODELS)
    gametrace verify

Prints ``config/name sha256`` for every artifact, sorted by name within
each config, except the run sidecars, which hold timings. Two checkouts
produced the same artifacts when their outputs are equal:

    PYTHONPATH=src python3 scripts/artifact_digests.py --workdir a > a.txt
    diff a.txt b.txt

The CLI's own output goes to stderr. Exits with the first failing step's
exit code.
"""

import argparse
import contextlib
import hashlib
import shutil
import sys
from pathlib import Path

from gametrace.cli import main as cli
from gametrace.settings import MODELS

REPO = Path(__file__).resolve().parent.parent
CONFIGS = {
    "default": None,
    "perfbench": REPO / "perfbench" / "config.json",
    "onehot": REPO / "scripts" / "onehot_config.json",
    "allkinds": REPO / "scripts" / "allkinds_config.json",
    "manhattan": REPO / "scripts" / "manhattan_config.json",
    "cosine": REPO / "scripts" / "cosine_config.json",
    "entropy": REPO / "scripts" / "entropy_config.json",
}


def steps(args) -> list[list[str]]:
    out = [
        ["gen-synthetic", "--sessions", str(args.sessions),
         "--events-per-session", str(args.events_per_session)],
        ["aggregate"],
        ["select"],
        ["benchmark", "--protocol", "holdout"],
        ["benchmark", "--protocol", "cv"],
    ]
    for kind in MODELS:
        out += [[command, "--model", kind] for command in ("cv", "train", "evaluate")]
    return out + [["verify"]]


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workdir", type=Path, default=Path("digests_out"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sessions", type=int, default=60)
    parser.add_argument("--events-per-session", type=int, default=600)
    args = parser.parse_args(argv)

    for name, config in CONFIGS.items():
        workdir = args.workdir / name
        common = ["--workdir", str(workdir), "--seed", str(args.seed)]
        if config is not None:
            common += ["--config", str(config)]
        for step in steps(args):
            with contextlib.redirect_stdout(sys.stderr):
                code = cli(step + common)
            if code != 0:
                print(f"{name}: step {' '.join(step)} failed with exit code {code}", file=sys.stderr)
                return code
            if step[0] == "benchmark" and step[-1] == "holdout":
                shutil.copy(workdir / "benchmark_report.json", workdir / "benchmark_report.holdout.json")
        for path in sorted(workdir.iterdir()):
            if path.is_file() and not path.name.endswith("run.json"):
                print(f"{name}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
