#!/usr/bin/env python3
"""Run every CLI command once and print the sha256 of each artifact it wrote.

Steps, all with the same --workdir, --config and --seed:

    gametrace gen-synthetic --sessions N --events-per-session M
    gametrace aggregate
    gametrace select
    gametrace benchmark --protocol holdout   (report kept as benchmark_report.holdout.json)
    gametrace benchmark --protocol cv
    gametrace cv / train / evaluate --model KIND   (for each kind in MODELS)
    gametrace verify

Prints ``sha256  name`` for every artifact in the workdir, sorted by name,
except the run sidecars, which hold timings. Two checkouts produced the
same artifacts when their outputs are equal:

    PYTHONPATH=src python3 scripts/artifact_digests.py --workdir a > a.txt
    diff a.txt b.txt

Run it under the default config, under ``--config perfbench/config.json``
and under ``--config scripts/onehot_config.json``. The last one adds a
``first`` and a ``last`` spec to the default specs, so selection and every
model see dictionary-coded columns and go through one-hot expansion, which
neither of the other two configs reaches.

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
from gametrace.evaluation import MODELS


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
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sessions", type=int, default=60)
    parser.add_argument("--events-per-session", type=int, default=600)
    args = parser.parse_args(argv)

    common = ["--workdir", str(args.workdir), "--seed", str(args.seed)]
    if args.config is not None:
        common += ["--config", str(args.config)]
    for step in steps(args):
        with contextlib.redirect_stdout(sys.stderr):
            code = cli(step + common)
        if code != 0:
            print(f"step {' '.join(step)} failed with exit code {code}", file=sys.stderr)
            return code
        if step[0] == "benchmark" and step[-1] == "holdout":
            shutil.copy(args.workdir / "benchmark_report.json",
                        args.workdir / "benchmark_report.holdout.json")
    for path in sorted(args.workdir.iterdir()):
        if path.is_file() and not path.name.endswith("run.json"):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
