"""Smoke check of the benchmark itself, at tiny sizes (about two minutes).

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it makes one untraced and one traced run with the same
seed and checks that each metric BENCHMARK.json names is emitted with its
unit, that no operation fails, and that both runs produced the same
artifact digests. It then damages artifacts on purpose and checks that the
gate counts each damaged operation as failed: features.csv changed after
the first operation (every workload), and a wrong rows_skipped in
aggregate_report.json (ingest-interleaved). Last, it checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files. Exits 0 when every
check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class CorruptAfterFirst:
    """Changes one byte of features.csv in every operation but the first."""

    def __init__(self):
        self.calls = 0

    def __call__(self, opdir: Path, inputs: dict) -> None:
        self.calls += 1
        if self.calls > 1:
            path = opdir / "features.csv"
            path.write_text(path.read_text().replace("1", "2", 1))


def _wrong_skip_count(opdir: Path, inputs: dict) -> None:
    path = opdir / "aggregate_report.json"
    report = json.loads(path.read_text())
    report["rows_skipped"] += 1
    path.write_text(json.dumps(report))


def check_metrics(problems: list[str]) -> None:
    for name in run.WORKLOADS:
        digests = []
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run(name, SEED, 1.0, trace, scale="tiny")
            result = record["result"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != _units(kind):
                problems.append(f"{name} trace={int(trace)}: metrics/units differ from BENCHMARK.json {kind}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {record['errors']} "
                                f"{[op['failures'] for op in record['operations']]}")
            digests.append({json.dumps(op["digests"], sort_keys=True) for op in record["operations"]})
            print(f"{name} trace={int(trace)}: {result['attempted']} operations, {result['failed']} failed")
        if len(digests[0] | digests[1]) != 1:
            problems.append(f"{name}: traced and untraced artifact digests differ")


def check_gate(problems: list[str]) -> None:
    cases = [(name, CorruptAfterFirst()) for name in run.WORKLOADS]
    cases.append(("ingest-interleaved", _wrong_skip_count))
    for name, fault in cases:
        record = run.run(name, SEED, 1.0, False, scale="tiny", fault=fault)
        result = record["result"]
        label = type(fault).__name__ if isinstance(fault, CorruptAfterFirst) else fault.__name__
        expected = result["attempted"] - (1 if isinstance(fault, CorruptAfterFirst) else 0)
        print(f"{name} with {label}: {result['failed']} of {result['attempted']} failed")
        if result["correct"] or result["failed"] != expected:
            problems.append(f"{name}: {label} made {result['failed']} failures, expected {expected}")


def check_refuses_without_sources(problems: list[str]) -> None:
    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("benchmark ran without the program's sources")


def main() -> int:
    problems: list[str] = []
    check_metrics(problems)
    check_gate(problems)
    check_refuses_without_sources(problems)
    for p in problems:
        print(f"PROBLEM: {p}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
