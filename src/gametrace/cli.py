"""Command-line entry point orchestrating the full pipeline.

Subcommands: gen-synthetic, aggregate, select, train, cv, evaluate,
benchmark, verify. Every knob lives in one JSON config file; command-line
flags override config values, which override defaults. Each subcommand
takes ``--config``, ``--workdir`` and ``--seed`` and only the other flags
it reads; any other flag is a usage error.

The stage modules return results; this module turns them into report
payloads, stamps each with the config fingerprint and seed, and prints
them. The artifacts a stage writes itself carry the same stamp:
``save_feature_matrix``, ``save_selection_report`` and ``save_model``
take both and write them into the feature sidecar, the score table and
the container header. Reruns with identical inputs and seeds produce
identical bytes (runtimes live in separate .run.json sidecars).

Each command runs only the stages it calls: the stage modules are lazy
handles, run at a command's first use of them, so ``aggregate`` and
``verify`` start without numpy or the model code. There is no setting for it.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional

from . import __version__, lazy_module
from .aggregation import aggregate_file, load_feature_matrix, save_feature_matrix
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, InternalError
from .events import read_labels
from .settings import MODELS, PROTOCOLS

dataset = lazy_module("dataset")
evaluation = lazy_module("evaluation")
model_io = lazy_module("model_io")
selection = lazy_module("selection")
synth = lazy_module("synth")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this CLI reserves 2 for
    # data errors, so remap usage problems to exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_Usage(message)


class SystemExit_Usage(Exception):
    pass


# Every flag but the three each command takes, declared once.
_FLAGS = {
    "--events": dict(type=Path, help="event CSV path"),
    "--labels": dict(type=Path, help="label CSV path"),
    "--sessions": dict(type=int),
    "--events-per-session": dict(type=int),
    "--model": dict(choices=tuple(MODELS), required=True),
    "--model-file": dict(type=Path),
    "--protocol": dict(choices=PROTOCOLS),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="gametrace", description="Gameplay event-log learning pipeline")
    parser.add_argument("--version", action="version", version=f"gametrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *flags):
        # No abbreviations: ``gen-synthetic --events`` would be read as
        # ``--events-per-session`` instead of being refused.
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, help="JSON run config")
        p.add_argument("--workdir", type=Path, help="artifact directory")
        p.add_argument("--seed", type=int)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])

    command("gen-synthetic", cmd_gen_synthetic, "generate a seeded synthetic corpus",
            "--sessions", "--events-per-session")
    command("aggregate", cmd_aggregate, "aggregate events into per-group features", "--events")
    command("select", cmd_select, "score and select features", "--labels")
    command("train", cmd_train, "train one model on the holdout train side", "--labels", "--model")
    command("cv", cmd_cv, "cross-validate one model", "--labels", "--model")
    command("evaluate", cmd_evaluate, "evaluate a trained container on the holdout test side",
            "--labels", "--model", "--model-file")
    command("benchmark", cmd_benchmark, "run every model under its protocol", "--labels", "--protocol")
    command("verify", cmd_verify, "check fingerprint consistency of artifacts")
    return parser


def _resolve_config(args) -> RunConfig:
    """Defaults, then the config file, then the flags, all checked as one."""

    def given(**values) -> dict:
        return {k: str(v) if isinstance(v, Path) else v for k, v in values.items() if v is not None}

    opt = vars(args).get  # flags only some subcommands have
    overrides = given(
        workdir=args.workdir or os.environ.get("GAMETRACE_WORKDIR"),
        events_path=opt("events"),
        labels_path=opt("labels"),
        seed=args.seed,
        protocol=opt("protocol"),
        synth=given(sessions=opt("sessions"), events_per_session=opt("events_per_session")) or None,
    )
    return load_config(args.config, overrides)


def _workdir(cfg: RunConfig) -> Path:
    wd = Path(cfg.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    return wd


def _input_file(path: Path, what: str) -> Path:
    """``path``, or a DataError naming it when it is missing or not a file."""
    if not path.is_file():
        problem = "is not a file" if path.exists() else "not found"
        raise DataError(f"MissingFile: {what} {problem}: {path}")
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as sink:
        json.dump(payload, sink, indent=2, sort_keys=True)
        sink.write("\n")


def _write_stamped(path: Path, cfg: RunConfig, payload: dict) -> None:
    """``payload`` with the config fingerprint and seed that produced it."""
    _write_json(path, {**payload, "config_fingerprint": cfg.fingerprint(), "seed": cfg.seed})


def _write_run_metadata(path: Path, cfg: RunConfig, runtime: float) -> None:
    # Non-deterministic facts live here, never in the comparable reports.
    _write_stamped(path, cfg, {"runtime_seconds": runtime, "unix_time": time.time()})


def cmd_gen_synthetic(cfg: RunConfig, args) -> int:
    wd = _workdir(cfg)
    result = synth.generate(cfg.synth, wd, cfg.seed)
    print(
        f"generated {result.events_written} events across {cfg.synth.sessions} sessions; "
        f"{result.labels_written} labels ({result.positive_labels} positive)"
    )
    print(f"events:   {result.events_path}")
    print(f"labels:   {result.labels_path}")
    print(f"manifest: {result.manifest_path}")
    return EXIT_OK


def cmd_aggregate(cfg: RunConfig, args) -> int:
    wd = _workdir(cfg)
    events_path = _input_file(Path(cfg.events_path or wd / "events.csv"), "event file")
    matrix, report = aggregate_file(events_path, cfg.aggregator_specs)

    features_csv = wd / "features.csv"
    features_meta = wd / "features.meta.json"
    with open(features_csv, "w", newline="") as csv_sink, open(features_meta, "w") as meta_sink:
        save_feature_matrix(
            matrix, csv_sink, meta_sink, config_fingerprint=cfg.fingerprint(), seed=cfg.seed
        )

    # the header check rejects an empty file, so input_bytes > 0
    input_bytes = events_path.stat().st_size
    output_bytes = features_csv.stat().st_size + features_meta.stat().st_size
    byte_ratio = output_bytes / input_bytes
    _write_stamped(
        wd / "aggregate_report.json",
        cfg,
        {
            "input_bytes": input_bytes,
            "output_bytes": output_bytes,
            "rows_in": report.events_emitted,
            "rows_out": len(matrix.rows),
            "byte_ratio": byte_ratio,
            "rows_skipped": report.rows_skipped,
            "consistency_violations": report.consistency_violations,
        },
    )
    print(
        f"aggregated: rows {report.events_emitted} -> {len(matrix.rows)}; "
        f"bytes {input_bytes} -> {output_bytes} ({100.0 * byte_ratio:.2f}%)"
    )
    if report.rows_skipped:
        by_column = ", ".join(f"{c} {n}" for c, n in sorted(report.errors_by_column.items()))
        print(f"skipped {report.rows_skipped} malformed row(s): {by_column}", file=sys.stderr)
    print(f"features: {features_csv}")
    return EXIT_OK


def _load_joined(cfg: RunConfig) -> tuple[dataset.LabeledDataset, int]:
    wd = _workdir(cfg)
    aggregated = "feature matrix (run `gametrace aggregate` first)"
    matrix = load_feature_matrix(
        _input_file(wd / "features.csv", aggregated), _input_file(wd / "features.meta.json", aggregated)
    )
    labels_path = _input_file(Path(cfg.labels_path or wd / "labels.csv"), "label file")
    with open(labels_path, newline="") as source:
        labels = read_labels(source)
    return dataset.join(matrix, labels, cfg.question_groups)


def cmd_select(cfg: RunConfig, args) -> int:
    wd = _workdir(cfg)
    ds, dropped = _load_joined(cfg)
    x, _ = dataset.impute_mean(ds.x, feature_names=ds.feature_names)
    policy = replace(cfg.selection, k=min(cfg.selection.k, len(ds.feature_names)))
    report = selection.select(x, ds.feature_names, ds.y, policy, categorical_names=ds.categorical_names)
    out = wd / "selection_report.tsv"
    with open(out, "w") as sink:
        selection.save_selection_report(report, sink, config_fingerprint=cfg.fingerprint(), seed=cfg.seed)
    print(f"selected {len(report.selected)} feature(s): {', '.join(report.selected)}")
    if dropped:
        print(f"dropped {dropped} label(s) without feature rows", file=sys.stderr)
    print(f"report: {out}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, args) -> int:
    kind = args.model
    wd = _workdir(cfg)
    ds, _ = _load_joined(cfg)
    classifier = getattr(cfg, kind)
    train = dataset.split_train_test(ds, cfg.split, cfg.seed)[0]
    del ds  # from here on, only the train side
    pre = dataset.fit_preprocessor(
        train.x, train.feature_names, train.categorical_names, scale=classifier.scale
    )
    x, y, rows = pre.transform(train.x), train.y, len(train)
    del train  # the fit holds only its input matrix and labels
    model = classifier.fit(x, y, cfg.seed)
    out = wd / f"model_{kind}.bin"
    model_io.save_model(out, kind, model, pre, config_fingerprint=cfg.fingerprint(), seed=cfg.seed)
    print(f"trained {kind} on {rows} rows; container: {out}")
    return EXIT_OK


def cmd_cv(cfg: RunConfig, args) -> int:
    kind = args.model
    wd = _workdir(cfg)
    ds, _ = _load_joined(cfg)
    classifier = getattr(cfg, kind)
    started = time.perf_counter()
    report = evaluation.cross_validate(classifier, ds, cfg.seed, model_name=kind)
    _write_stamped(wd / f"cv_{kind}.json", cfg, report.to_dict())
    _write_run_metadata(wd / f"cv_{kind}.run.json", cfg, time.perf_counter() - started)
    with open(wd / f"folds_{kind}.tsv", "w") as sink:
        dataset.export_fold_assignments(ds, report.test_rows, sink)
    for fr in report.folds:
        print(f"fold {fr.fold}: f1={fr.f1:.4f} accuracy={fr.accuracy:.4f}")
    print(f"{kind} {report.protocol}: mean f1={report.mean_f1:.4f} accuracy={report.mean_accuracy:.4f}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, args) -> int:
    kind = args.model
    wd = _workdir(cfg)
    path = _input_file(args.model_file or wd / f"model_{kind}.bin", "model container")
    vars(MODELS[kind].module)  # run the model's code before the arrays are read: a lower peak
    loaded = model_io.load_model(path)
    if loaded.kind != kind:
        raise DataError(f"container holds a {loaded.kind} model, not {kind}")
    if loaded.header.get("config_fingerprint") not in ("", cfg.fingerprint()):
        print("warning: container fingerprint differs from current config", file=sys.stderr)
    ds, _ = _load_joined(cfg)
    if loaded.preprocessor.input_names != ds.feature_names:
        raise DataError(f"container was trained on other features than {wd / 'features.csv'}")
    test = dataset.split_train_test(ds, cfg.split, cfg.seed)[1]
    del ds  # the predictions need only the test side
    started = time.perf_counter()
    result = evaluation.FoldResult.of(0, loaded.predict(test.x), test.y)
    payload = {
        "model": kind,
        "protocol": f"holdout-{cfg.split.test_fraction:g}",
        "f1": result.f1,
        "accuracy": result.accuracy,
        "confusion": asdict(result.confusion),
        "model_fingerprint": loaded.header.get("config_fingerprint", ""),
    }
    _write_stamped(wd / f"eval_{kind}.json", cfg, payload)
    _write_run_metadata(wd / f"eval_{kind}.run.json", cfg, time.perf_counter() - started)
    print(f"{kind} holdout: f1={result.f1:.4f} accuracy={result.accuracy:.4f} on {len(test)} rows")
    return EXIT_OK


# The published literature baseline, shown beside the computed rows and
# never computed by this pipeline.
REFERENCE_ROW = {"model": "french_touch", "f1": 0.72, "accuracy": None, "source": "literature",
                 "protocol": "reported"}


def _benchmark_rows(reports: list[evaluation.EvalReport]) -> list[dict]:
    """One row per computed report, in model order, then the literature row."""
    rows = [
        {"model": r.model_name, "f1": r.mean_f1, "accuracy": r.mean_accuracy, "source": "computed",
         "protocol": r.protocol}
        for r in reports
    ]
    return [*rows, REFERENCE_ROW]


def _table(rows: list[dict]) -> str:
    header = f"{'model':<16}{'f1':>8}{'accuracy':>10}  {'protocol':<14}{'source'}"
    lines = [header, "-" * len(header)]
    for r in rows:
        f1, acc = ("n/a" if v is None else f"{v:.4f}" for v in (r["f1"], r["accuracy"]))
        lines.append(f"{r['model']:<16}{f1:>8}{acc:>10}  {r['protocol']:<14}{r['source']}")
    return "\n".join(lines)


def cmd_benchmark(cfg: RunConfig, args) -> int:
    wd = _workdir(cfg)
    ds, _ = _load_joined(cfg)
    started = time.perf_counter()
    reports = evaluation.benchmark(
        {kind: getattr(cfg, kind) for kind in MODELS}, ds, cfg.split, cfg.seed, protocol=cfg.protocol
    )
    rows = _benchmark_rows(reports)
    payload = {
        "rows": rows,
        "reports": [{**r.to_dict(), "config_fingerprint": cfg.fingerprint()} for r in reports],
        "config": cfg.fingerprint_payload(),
        "majority_baseline_f1": evaluation.majority_baseline_f1(ds.y),
    }
    _write_stamped(wd / "benchmark_report.json", cfg, payload)
    _write_run_metadata(wd / "benchmark_run.json", cfg, time.perf_counter() - started)
    print(_table(rows))
    print(f"report: {wd / 'benchmark_report.json'}")
    return EXIT_OK


def _recorded_fingerprint(path: Path) -> str:
    if path.suffix == ".bin":
        header, _ = model_io.load_container(path)
    else:
        try:
            text = path.read_text()
            if path.suffix == ".tsv":
                return text.partition("\n")[0].removeprefix("# config_fingerprint=")
            header = json.loads(text)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise DataError(f"cannot read {path}: {exc}") from None
    found = header.get("config_fingerprint", "") if isinstance(header, dict) else ""
    return found if isinstance(found, str) else ""


def _artifact_fingerprints(wd: Path) -> dict[str, str]:
    names = ["features.meta.json", "aggregate_report.json", "benchmark_report.json"]
    paths = [wd / name for name in names] + sorted(wd.glob("cv_*.json")) + sorted(wd.glob("eval_*.json"))
    paths += [wd / "selection_report.tsv"] + sorted(wd.glob("model_*.bin"))
    return {
        p.name: _recorded_fingerprint(_input_file(p, "artifact"))
        for p in paths
        if p.exists() and not p.name.endswith(".run.json")
    }


def cmd_verify(cfg: RunConfig, args) -> int:
    wd = _workdir(cfg)
    expected = cfg.fingerprint()
    found = _artifact_fingerprints(wd)
    if not found:
        raise DataError(f"no fingerprinted artifacts found in {wd}")
    bad = {name: fp for name, fp in found.items() if fp != expected}
    for name, fp in sorted(found.items()):
        status = "ok" if fp == expected else "MISMATCH"
        print(f"{status:<9} {name}  {fp[:16]}")
    print(f"expected  config fingerprint {expected[:16]}")
    if bad:
        raise DataError(f"config fingerprint mismatch: {len(bad)} artifact(s) do not match the current config")
    print(f"verified {len(found)} artifact(s)")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit_Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(_resolve_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # unexpected bug: treat as invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
