"""gametrace benchmark: seeded workloads driven through the real CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: closed loop, one client. Operations run one after another;
each CLI command of an operation is a fresh child process started the way
the installed ``gametrace`` entry point starts it, so interpreter start and
``import gametrace`` are paid as a user pays them. Only one child runs at a
time, with BLAS limited to ``BLAS_THREADS`` threads.

A run sets up ``SETUPS`` times (setup_s is the median), then repeats the
workload's operation until ``--seconds`` have passed and at least
``MIN_OPS`` operations ran. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced operations
(see ``traced_cli.py``) and reports the per-layer metrics. Every operation
is gated: each command exits 0, the workload's check passes and its
deterministic artifacts have the same sha256 as the run's first operation.
The last line of standard output is the JSON result; a fuller record is
written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SIZES, WORKLOADS, Workload, artifact_digests, data_rows, sha256

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUPS = 3
MIN_OPS = 3
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150.0
ENTRY_POINT = "import sys; from gametrace.cli import main; sys.exit(main())"
CLI_COMMANDS = ("aggregate", "select", "benchmark", "verify", "train", "evaluate")

_clock = time.perf_counter


class SetupFailed(Exception):
    pass


@dataclass
class Command:
    args: list[str]
    rc: int
    start: float
    end: float
    rss_mb: float
    trace: dict | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Operation:
    index: int
    traced: bool
    commands: list[Command] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    byte_ratio: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Runner:
    """Starts CLI children one at a time and records wall time and peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.started = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def cli(self, args: list[str], op: str, traced: bool) -> Command:
        self.started += 1
        log = self.work / "logs" / f"{self.started:04d}-{args[0]}.log"
        env = self.env
        if traced:
            spans = log.with_suffix(".spans.json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), *args]
            env = dict(env, PERFBENCH_SPANS=str(spans), PERFBENCH_OP=op)
        else:
            argv = [sys.executable, "-c", ENTRY_POINT, *args]
        with open(log, "w") as out:
            start = _clock()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # be a running maximum over every child so far.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = _clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if traced and proc.returncode == 0:
            trace = json.loads(spans.read_text())
        return Command(args, proc.returncode, start, end, usage.ru_maxrss / 1024.0, trace)


def run_setups(workload: Workload, runner: Runner, seed: int, traced: bool):
    """Set up SETUPS times; returns (inputs of the last, per-setup records)."""
    records = []
    inputs = None
    for i in range(SETUPS):
        workdir = runner.work / f"setup{i}"
        if inputs is not None:
            shutil.rmtree(inputs["events"].parent)
        commands: list[Command] = []

        def cli(*args):
            command = runner.cli(list(args), f"setup{i}", traced)
            commands.append(command)
            if command.rc != 0:
                raise SetupFailed(f"setup command {args[0]} exited {command.rc}")
            return command

        start = _clock()
        inputs = workload.setup(cli, workdir, seed)
        elapsed = _clock() - start
        digests = {name: sha256(path) for name, path in workload.input_files(inputs).items()}
        records.append({"seconds": elapsed, "commands": commands, "inputs": digests})
    return inputs, records


def run_operation(workload: Workload, runner: Runner, inputs: dict, index: int, traced: bool,
                  fault=None) -> Operation:
    op = Operation(index, traced)
    opdir = runner.work / f"op{index}"
    opdir.mkdir()
    op.start = _clock()
    for args in workload.commands(opdir, inputs):
        command = runner.cli(args, f"op{index}", traced)
        op.commands.append(command)
        if command.rc != 0:
            op.failures.append(f"{args[0]} exited {command.rc}")
            break
    op.end = _clock()
    if not op.failures:
        try:
            if fault is not None:
                fault(opdir, inputs)
            op.failures.extend(workload.check(opdir, inputs))
        except (OSError, ValueError, KeyError) as exc:
            op.failures.append(f"check failed: {exc!r}")
    op.digests = artifact_digests(opdir)
    report = opdir / "aggregate_report.json"
    if report.exists():
        op.byte_ratio = json.loads(report.read_text())["byte_ratio"]
    shutil.rmtree(opdir)
    return op


def measure(workload: Workload, runner: Runner, inputs: dict, seconds: float, trace: bool,
            fault=None) -> list[Operation]:
    ops: list[Operation] = []
    deadline = _clock() + seconds
    minimum = MIN_OPS + 1 if trace else MIN_OPS
    # Start another operation only if it should end less than half an
    # operation past the deadline, so a run overshoots --seconds by little.
    while len(ops) < minimum or _clock() + median(op.wall_s for op in ops) / 2 < deadline:
        traced = trace and len(ops) % 2 == 1
        ops.append(run_operation(workload, runner, inputs, len(ops), traced, fault))
    reference = ops[0].digests
    for op in ops:
        if op.digests != reference:
            changed = sorted(k for k in reference.keys() | op.digests.keys()
                             if reference.get(k) != op.digests.get(k))
            op.failures.append(f"artifact digests differ from operation 0: {changed}")
    return ops


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def aggregate_walls(ops: list[Operation]) -> list[float]:
    return [c.wall_s for op in ops for c in op.commands if c.args[0] == "aggregate"]


def end_to_end(inputs: dict, setups: list, ops: list[Operation]) -> dict:
    walls = aggregate_walls(ops)
    # Rows over the summed wall time of every aggregate command of the run:
    # short commands on a noisy machine make a pooled rate steadier than a
    # median of per-command rates.
    return {
        "op_s": median(op.wall_s for op in ops),
        "events_per_s": data_rows(inputs["events"]) * len(walls) / sum(walls),
        "peak_rss_mb": median(max(c.rss_mb for c in op.commands) for op in ops),
        "setup_s": median(s["seconds"] for s in setups),
    }


def _spans(commands) -> list[dict]:
    return [s for c in commands if c.trace for s in c.trace["spans"]]


def _span_s(spans: list[dict], *names: str, tag=None) -> float:
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] in names and (tag is None or s["tag"] == tag))


def _counts(commands) -> dict[str, float]:
    total: dict[str, float] = {}
    for c in commands:
        for name, value in (c.trace or {}).get("counts", {}).items():
            if name == "dataset.rows":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def _coverage_errors(op: Operation) -> list[str]:
    """Top-level spans must sit inside the interval of the command that made them."""
    errors = []
    for c in op.commands:
        tops = [s for s in _spans([c]) if s["parent"] is None]
        if [s["name"] for s in tops] != ["cli.import", "cli.main"]:
            errors.append(f"op{op.index} {c.args[0]}: top-level spans {[s['name'] for s in tops]}")
        for s in tops:
            if not c.start <= s["start"] <= s["end"] <= c.end:
                errors.append(f"op{op.index} {c.args[0]}: span {s['name']} outside its command")
    return errors


def layer_metrics(op: Operation) -> dict[str, float]:
    """Per-layer figures of one traced operation (sums over its commands)."""
    spans = _spans(op.commands)
    counts = _counts(op.commands)

    def span_s(*names, tag=None) -> float:
        return _span_s(spans, *names, tag=tag)

    def n(name) -> int:
        return sum(1 for s in spans if s["name"] == name)

    rows_read = counts.get("events.rows_read", 0)
    m = {f"cli.{cmd}_s": sum(c.wall_s for c in op.commands if c.args[0] == cmd) for cmd in CLI_COMMANDS}
    m.update({
        "cli.import_s": span_s("cli.import"),
        "cli.other_s": op.wall_s - span_s("cli.import", "cli.main"),
        "events.read_s": counts.get("events.read_s", 0.0),
        "events.rows_read": rows_read,
        "events.rows_skipped": counts.get("events.rows_skipped", 0),
        "events.emitted_ratio": counts.get("events.events_emitted", 0) / rows_read if rows_read else 0.0,
        "events.cell_errors_kept": counts.get("events.cell_errors_kept", 0),
        "aggregation.update_self_s": sum(
            s["self"] for s in spans if s["name"] == "aggregation.StreamingAggregator.update_all"
        ),
        "aggregation.finalize_s": span_s("aggregation.StreamingAggregator.finalize"),
        "aggregation.write_s": span_s("aggregation.save_feature_matrix"),
        "aggregation.groups": counts.get("aggregation.groups", 0),
        "aggregation.byte_ratio": op.byte_ratio,
        "dataset.load_join_s": span_s("aggregation.load_feature_matrix", "events.read_labels", "dataset.join"),
        "dataset.preprocess_s": span_s("dataset.fit_preprocessor", "dataset.Preprocessor.transform"),
        "dataset.split_s": span_s("dataset.split_train_test", "dataset.kfold"),
        "dataset.rows": counts.get("dataset.rows", 0),
        "selection.select_s": span_s("selection.select"),
        "evaluation.cv_knn_s": span_s("evaluation.cross_validate", tag="knn"),
        "evaluation.cv_mlp_s": span_s("evaluation.cross_validate", tag="mlp"),
        "evaluation.cv_forest_s": span_s("evaluation.cross_validate", tag="forest"),
        "evaluation.fold_fits": sum(
            n(f"evaluation.{kind}Classifier.fit") for kind in ("Knn", "Mlp", "Forest")
        ),
        "knn.fit_s": span_s("knn.knn_fit"),
        "knn.predict_s": span_s("knn.knn_predict"),
        "knn.queries": counts.get("knn.queries", 0),
        "knn.distance_evals": counts.get("knn.distance_evals", 0),
        "mlp.fit_s": span_s("mlp.mlp_train"),
        "mlp.predict_s": span_s("mlp.MlpModel.predict"),
        "mlp.steps": n("mlp.adam_step"),
        "mlp.adam_s": span_s("mlp.adam_step"),
        "forest.fit_s": span_s("forest.forest_fit"),
        "forest.tree_fits": n("forest.tree_fit"),
        "forest.nodes": counts.get("forest.nodes", 0),
        "forest.leaves": counts.get("forest.leaves", 0),
        "forest.predict_s": span_s("forest.forest_predict"),
        "model_io.save_s": span_s("model_io.save_model"),
        "model_io.load_s": span_s("model_io.load_model"),
        "model_io.container_bytes": counts.get("model_io.container_bytes", 0),
    })
    return m


def csv_floor_s(path: Path) -> float:
    """A bare csv.reader drain of the file: the tokenize floor of ingest."""
    start = _clock()
    with open(path, newline="") as source:
        for _ in csv.reader(source):
            pass
    return _clock() - start


def per_layer(inputs: dict, setups: list, ops: list[Operation]) -> tuple[dict, list[str]]:
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    errors = [e for op in traced for e in _coverage_errors(op)]
    samples = [layer_metrics(op) for op in traced]
    metrics = {name: median(s[name] for s in samples) for name in samples[0]}
    metrics["synth.generate_s"] = median(_span_s(_spans(s["commands"]), "synth.generate") for s in setups)
    for name in ("synth.events_written", "synth.bytes_written"):
        metrics[name] = median(_counts(s["commands"]).get(name, 0) for s in setups)
    metrics["events.csv_floor_s"] = median(csv_floor_s(inputs["events"]) for _ in range(3))
    metrics["trace.overhead_ratio"] = (
        median(op.wall_s for op in traced) / median(op.wall_s for op in plain) - 1.0
    )
    return metrics, errors


def provenance(workload: Workload, input_digests: dict) -> dict:
    import numpy

    rev = "unknown"  # the benchmark may run in a checkout that is not a git repository
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gametrace").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "inputs": input_digests,
        "git_rev": rev,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "sizes": workload.size,
        "config": json.loads((HERE / "config.json").read_text()),
    }


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        fault=None) -> dict:
    """One benchmark run; returns the full record (``result`` is the contract line).

    ``fault``, used only by ``smoke.py``, is called with each operation's
    directory before the check, to prove a corrupted artifact is caught.
    """
    workload = WORKLOADS[name](SIZES[scale][name])
    work = ROOT / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    runner = Runner(work)
    errors = []
    try:
        inputs, setups = run_setups(workload, runner, seed, trace)
        ops = measure(workload, runner, inputs, seconds, trace, fault)
        facts = provenance(workload, setups[-1]["inputs"])
        if trace:
            metrics, trace_errors = per_layer(inputs, setups, ops)
            errors += trace_errors
        else:
            metrics = end_to_end(inputs, setups, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if any(s["inputs"] != setups[0]["inputs"] for s in setups):
        errors.append("setups produced different input files")
    failed = sum(1 for op in ops if op.failures)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": facts,
        "setups": [{"seconds": s["seconds"], "inputs": s["inputs"]} for s in setups],
        "operations": [
            {"index": op.index, "traced": op.traced, "seconds": op.wall_s,
             "peak_rss_mb": max((c.rss_mb for c in op.commands), default=0.0),
             "commands": [[_label(c.args), c.wall_s, c.rss_mb] for c in op.commands],
             "failures": op.failures, "digests": op.digests}
            for op in ops
        ],
        "errors": errors,
        "samples": {"operations": len(ops), "setups": len(setups),
                    "aggregate_commands": len(aggregate_walls(ops))},
        "failed_ops_ratio": failed / len(ops),
        "result": {
            "correct": failed == 0 and not errors,
            "attempted": len(ops),
            "failed": failed,
            "metrics": _with_units(metrics, "per_layer" if trace else "end_to_end"),
        },
    }


def _label(args: list[str]) -> str:
    return f"{args[0]} {args[args.index('--model') + 1]}" if "--model" in args else args[0]


def _with_units(metrics: dict, kind: str) -> dict:
    """Every metric BENCHMARK.json lists under ``kind``, with its unit."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gametrace" / "cli.py").is_file():
        print(f"error: no gametrace sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(report_text(record))
    print(f"full record: {out}")
    print(json.dumps(record["result"]))
    return 0


def report_text(record: dict) -> str:
    facts = record["provenance"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}",
        "inputs " + " ".join(f"{k}={v[:16]}" for k, v in facts["inputs"].items()),
        f"machine python={facts['python']} numpy={facts['numpy']} nproc={facts['nproc']} "
        f"blas_threads={facts['blas_threads']} git={facts['git_rev'][:12]} "
        f"source={facts['source_sha256'][:16]}",
        "setup_s " + " ".join(f"{s['seconds']:.3f}" for s in record["setups"]),
    ]
    for op in record["operations"]:
        status = "ok" if not op["failures"] else "FAILED " + "; ".join(op["failures"])
        lines.append(f"op {op['index']}{' traced' if op['traced'] else ''}: "
                     f"{op['seconds']:.3f} s, peak {op['peak_rss_mb']:.0f} MB, {status}")
    ops = record["operations"]
    lines.append(f"failed_ops_ratio {record['failed_ops_ratio']:g} "
                 f"({sum(1 for o in ops if o['failures'])} of {len(ops)} operations)")
    n = record["samples"]
    lines.append(f"samples: {n['operations']} operations (op_s, peak_rss_mb and per-layer medians), "
                 f"{n['setups']} setups (setup_s median), {n['aggregate_commands']} aggregate "
                 f"commands (events_per_s)")
    lines += [f"error: {e}" for e in record["errors"]]
    for name, digest in sorted(ops[0]["digests"].items()):
        lines.append(f"digest {name} {digest[:16]}")
    for name, m in record["result"]["metrics"].items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
