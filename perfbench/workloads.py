"""The benchmark's workloads: seeded inputs, one operation each, and its gate.

A workload turns ``--seed`` into input files (``setup``), names the CLI
commands of one operation (``commands``) and checks that operation's
outputs (``check``). The program only ever sees the generated files.

Sizes are smaller than the README quick start so that one run (three
set-ups plus several operations) stays under a minute on a 2-vCPU machine,
and dozens of runs per workload fit in an hour. The "tiny" sizes are for
``smoke.py``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

# Models shared by every workload: the production protocol's fold counts
# and model shapes with fewer forest trees and MLP epochs, so one operation
# takes seconds rather than minutes.
CONFIG = Path(__file__).resolve().parent / "config.json"

MODELS = ("knn", "mlp", "forest")

SIZES = {
    "full": {
        "pipeline-default": {"sessions": 120, "events_per_session": 200},
        "ingest-interleaved": {"sessions": 800, "events_per_session": 46},
        "holdout-large": {"sessions": 400, "events_per_session": 46},
    },
    "tiny": {
        "pipeline-default": {"sessions": 60, "events_per_session": 46},
        "ingest-interleaved": {"sessions": 40, "events_per_session": 46},
        "holdout-large": {"sessions": 120, "events_per_session": 46},
    },
}

# Share of extra malformed rows the interleaved workload inserts.
JUNK_SHARE = 0.02


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as source:
        for block in iter(lambda: source.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def data_rows(path: Path) -> int:
    with open(path, newline="") as source:
        return sum(1 for _ in csv.reader(source)) - 1


def _label_counts(path: Path) -> tuple[int, int]:
    ones = zeros = 0
    with open(path, newline="") as source:
        for row in csv.DictReader(source):
            if row["correct"] == "1":
                ones += 1
            else:
                zeros += 1
    return zeros, ones


def majority_f1(zeros: int, ones: int) -> float:
    """Positive-class F1 of always predicting the majority class."""
    if ones <= zeros:
        return 0.0
    p = ones / (zeros + ones)
    return 2.0 * p / (1.0 + p)


def _gen(cli, workdir: Path, size: dict, seed: int):
    return cli(
        "gen-synthetic", "--workdir", str(workdir), "--seed", str(seed),
        "--sessions", str(size["sessions"]),
        "--events-per-session", str(size["events_per_session"]),
    )


class Workload:
    """Base: subclasses define ``setup``, ``commands`` and ``check``."""

    name = ""

    def __init__(self, size: dict):
        self.size = size

    def setup(self, cli, workdir: Path, seed: int) -> dict:
        raise NotImplementedError

    def commands(self, opdir: Path, inputs: dict) -> list[list[str]]:
        raise NotImplementedError

    def check(self, opdir: Path, inputs: dict) -> list[str]:
        raise NotImplementedError

    @staticmethod
    def input_files(inputs: dict) -> dict[str, Path]:
        return {"events": inputs["events"], "labels": inputs["labels"]}


class PipelineDefault(Workload):
    name = "pipeline-default"

    def setup(self, cli, workdir, seed):
        _gen(cli, workdir, self.size, seed)
        return {"events": workdir / "events.csv", "labels": workdir / "labels.csv"}

    def commands(self, opdir, inputs):
        common = ["--workdir", str(opdir), "--config", str(CONFIG)]
        return [
            ["aggregate", *common, "--events", str(inputs["events"])],
            ["select", *common, "--labels", str(inputs["labels"])],
            ["benchmark", *common, "--labels", str(inputs["labels"])],
            ["verify", *common],
        ]

    def check(self, opdir, inputs):
        report = json.loads((opdir / "benchmark_report.json").read_text())
        baseline = majority_f1(*_label_counts(inputs["labels"]))
        failures = []
        computed = [row for row in report["rows"] if row["source"] == "computed"]
        if sorted(row["model"] for row in computed) != sorted(MODELS):
            failures.append(f"benchmark rows {[row['model'] for row in computed]}")
        for row in computed:
            if not row["f1"] > baseline:
                failures.append(f"{row['model']} mean f1 {row['f1']:.4f} <= majority {baseline:.4f}")
        return failures


def _junk(row: list[str], kind: int, columns: dict[str, int]) -> list[str]:
    """A malformed copy of a real row; the reader must skip every kind."""
    bad = list(row)
    if kind == 0:
        bad[columns["index"]] = "-1"
    elif kind == 1:
        bad[columns["level"]] = "3.5"
    elif kind == 2:
        bad[columns["level_group"]] = "23-99"
    elif kind == 3:
        bad = bad[:-1]
    else:
        bad[columns["room_coor_x"]] = "inf"
    return bad


def interleave(source: Path, sink: Path, seed: int) -> int:
    """Shuffle rows across sessions and insert malformed rows; returns how many."""
    with open(source, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    columns = {name: i for i, name in enumerate(header)}
    rng = random.Random(seed)
    rng.shuffle(rows)
    junk = max(5, round(JUNK_SHARE * len(rows)))
    bad_rows = [_junk(rows[rng.randrange(len(rows))], i % 5, columns) for i in range(junk)]
    for bad in bad_rows:
        rows.insert(rng.randrange(len(rows) + 1), bad)
    with open(sink, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return junk


class IngestInterleaved(Workload):
    name = "ingest-interleaved"

    def setup(self, cli, workdir, seed):
        _gen(cli, workdir, self.size, seed)
        events = workdir / "events_interleaved.csv"
        injected = interleave(workdir / "events.csv", events, seed)
        (workdir / "events.csv").unlink()
        return {
            "events": events, "labels": workdir / "labels.csv",
            "manifest": workdir / "manifest.json", "injected": injected,
        }

    def commands(self, opdir, inputs):
        return [[
            "aggregate", "--workdir", str(opdir), "--config", str(CONFIG),
            "--events", str(inputs["events"]),
        ]]

    def check(self, opdir, inputs):
        failures = []
        report = json.loads((opdir / "aggregate_report.json").read_text())
        if report["rows_skipped"] != inputs["injected"]:
            failures.append(f"rows_skipped {report['rows_skipped']} != injected {inputs['injected']}")
        if "truth" not in inputs:
            manifest = json.loads(Path(inputs["manifest"]).read_text())
            inputs["truth"] = (manifest["feature_names"], manifest["true_aggregates"])
        names, truth = inputs["truth"]
        seen = 0
        with open(opdir / "features.csv", newline="") as source:
            reader = csv.reader(source)
            header = next(reader)
            where = [header.index(name) for name in names]
            for row in reader:
                seen += 1
                want = truth.get(f"{row[0]}|{row[1]}")
                if want is None:
                    failures.append(f"unexpected group {row[0]}|{row[1]}")
                    break
                for name, i, expected in zip(names, where, want):
                    if not _close(row[i], expected):
                        failures.append(f"{row[0]}|{row[1]} {name}: {row[i]!r} != {expected!r}")
                        break
                if len(failures) > 5:
                    break
        if not failures and seen != len(truth):
            failures.append(f"{seen} feature rows, manifest has {len(truth)} groups")
        return failures


def _close(cell: str, expected) -> bool:
    if expected is None:
        return cell == ""
    try:
        return cell != "" and abs(float(cell) - expected) <= 1e-9
    except ValueError:
        return False


class HoldoutLarge(Workload):
    """Train then evaluate each model once; the operation starts with the
    ``aggregate`` its models depend on, so every operation also gives an
    ``events_per_s`` sample (three set-ups alone gave too few to be steady).
    """

    name = "holdout-large"

    def setup(self, cli, workdir, seed):
        _gen(cli, workdir, self.size, seed)
        return {"events": workdir / "events.csv", "labels": workdir / "labels.csv"}

    def commands(self, opdir, inputs):
        common = ["--workdir", str(opdir), "--config", str(CONFIG), "--labels", str(inputs["labels"])]
        return [
            ["aggregate", "--workdir", str(opdir), "--config", str(CONFIG), "--events", str(inputs["events"])],
            *(["train", *common, "--model", m] for m in MODELS),
            *(["evaluate", *common, "--model", m] for m in MODELS),
        ]

    def check(self, opdir, inputs):
        failures = []
        for model in MODELS:
            result = json.loads((opdir / f"eval_{model}.json").read_text())
            c = result["confusion"]
            baseline = majority_f1(c["tn"] + c["fp"], c["tp"] + c["fn"])
            if not (math.isfinite(result["f1"]) and result["f1"] > baseline):
                failures.append(f"{model} holdout f1 {result['f1']:.4f} <= majority {baseline:.4f}")
        return failures


WORKLOADS = {w.name: w for w in (PipelineDefault, IngestInterleaved, HoldoutLarge)}

# Deterministic artifacts whose bytes must repeat across operations.
ARTIFACTS = (
    "features.csv", "features.meta.json", "aggregate_report.json", "selection_report.tsv",
    "benchmark_report.json", "eval_knn.json", "eval_mlp.json", "eval_forest.json",
    "model_knn.bin", "model_mlp.bin", "model_forest.bin",
)


def artifact_digests(opdir: Path) -> dict[str, str]:
    return {name: sha256(opdir / name) for name in ARTIFACTS if (opdir / name).exists()}
