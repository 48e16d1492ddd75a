"""Command-line entry point orchestrating the full pipeline.

Subcommands: gen-synthetic, aggregate, select, train, cv, evaluate,
benchmark, verify. Every knob lives in one JSON config file; command-line
flags override config values, which override defaults. All output files
embed the config fingerprint, and reruns with identical inputs and seeds
produce identical bytes (runtimes live in separate .run.json sidecars).

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
from .aggregation import StreamingAggregator, load_feature_matrix, save_feature_matrix
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, FingerprintMismatchError, GametraceError, InternalError
from .events import IngestReport, read_events, read_labels
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="gametrace", description="Gameplay event-log learning pipeline")
    parser.add_argument("--version", action="version", version=f"gametrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="JSON run config")
        p.add_argument("--workdir", type=Path, default=None, help="artifact directory")
        p.add_argument("--events", type=Path, default=None, help="event CSV path")
        p.add_argument("--labels", type=Path, default=None, help="label CSV path")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen-synthetic", help="generate a seeded synthetic corpus")
    common(p)
    p.add_argument("--sessions", type=int, default=None)
    p.add_argument("--events-per-session", type=int, default=None)

    p = sub.add_parser("aggregate", help="aggregate events into per-group features")
    common(p)

    p = sub.add_parser("select", help="score and select features")
    common(p)

    p = sub.add_parser("train", help="train one model on the holdout train side")
    common(p)
    p.add_argument("--model", choices=tuple(MODELS), required=True)

    p = sub.add_parser("cv", help="cross-validate one model")
    common(p)
    p.add_argument("--model", choices=tuple(MODELS), required=True)

    p = sub.add_parser("evaluate", help="evaluate a trained container on the holdout test side")
    common(p)
    p.add_argument("--model", choices=tuple(MODELS), required=True)
    p.add_argument("--model-file", type=Path, default=None)

    p = sub.add_parser("benchmark", help="run every model under its protocol")
    common(p)
    p.add_argument("--protocol", choices=PROTOCOLS, default=None)

    p = sub.add_parser("verify", help="check fingerprint consistency of artifacts")
    common(p)
    return parser


def _resolve_config(args) -> RunConfig:
    """Defaults, then the config file, then the flags, all checked as one."""

    def given(**values) -> dict:
        return {k: str(v) if isinstance(v, Path) else v for k, v in values.items() if v is not None}

    opt = vars(args).get  # flags only some subcommands have
    overrides = given(
        workdir=args.workdir or os.environ.get("GAMETRACE_WORKDIR"),
        events_path=args.events,
        labels_path=args.labels,
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


def _write_run_metadata(path: Path, cfg: RunConfig, runtime: float) -> None:
    # Non-deterministic facts live here, never in the comparable reports.
    _write_json(
        path,
        {
            "config_fingerprint": cfg.fingerprint(),
            "seed": cfg.seed,
            "runtime_seconds": runtime,
            "unix_time": time.time(),
        },
    )


def cmd_gen_synthetic(cfg: RunConfig) -> int:
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


def cmd_aggregate(cfg: RunConfig) -> int:
    wd = _workdir(cfg)
    events_path = _input_file(Path(cfg.events_path or wd / "events.csv"), "event file")
    report = IngestReport()
    agg = StreamingAggregator(cfg.aggregator_specs)
    with open(events_path, newline="") as source:
        agg.update_all(read_events(source, report=report))
    matrix = agg.finalize()

    features_csv = wd / "features.csv"
    features_meta = wd / "features.meta.json"
    with open(features_csv, "w", newline="") as csv_sink, open(features_meta, "w") as meta_sink:
        save_feature_matrix(
            matrix, csv_sink, meta_sink, config_fingerprint=cfg.fingerprint(), seed=cfg.seed
        )

    out_bytes = features_csv.stat().st_size + features_meta.stat().st_size
    compression = agg.compression_report(
        input_bytes=events_path.stat().st_size, output_bytes=out_bytes
    )
    _write_json(
        wd / "aggregate_report.json",
        {
            "config_fingerprint": cfg.fingerprint(),
            "seed": cfg.seed,
            "input_bytes": compression.input_bytes,
            "output_bytes": compression.output_bytes,
            "rows_in": compression.rows_in,
            "rows_out": compression.rows_out,
            "byte_ratio": compression.byte_ratio,
            "rows_skipped": report.rows_skipped,
            "consistency_violations": report.consistency_violations,
        },
    )
    print(f"aggregated: {compression.describe()}")
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


def cmd_select(cfg: RunConfig) -> int:
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


def cmd_train(cfg: RunConfig, kind: str) -> int:
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
    model_io.save_model(
        out,
        kind,
        model,
        pre,
        pre.input_names,
        config_fingerprint=cfg.fingerprint(),
        seed=cfg.seed,
    )
    print(f"trained {kind} on {rows} rows; container: {out}")
    return EXIT_OK


def cmd_cv(cfg: RunConfig, kind: str) -> int:
    wd = _workdir(cfg)
    ds, _ = _load_joined(cfg)
    classifier = getattr(cfg, kind)
    started = time.perf_counter()
    report = evaluation.cross_validate(
        classifier, ds, cfg.split, cfg.seed, model_name=kind, config_fingerprint=cfg.fingerprint()
    )
    payload = report.to_dict()
    payload["seed"] = cfg.seed
    _write_json(wd / f"cv_{kind}.json", payload)
    _write_run_metadata(wd / f"cv_{kind}.run.json", cfg, time.perf_counter() - started)
    with open(wd / f"folds_{kind}.tsv", "w") as sink:
        dataset.export_fold_assignments(ds, report.test_rows, sink)
    for fr in report.folds:
        print(f"fold {fr.fold}: f1={fr.f1:.4f} accuracy={fr.accuracy:.4f}")
    print(f"{kind} {report.protocol}: mean f1={report.mean_f1:.4f} accuracy={report.mean_accuracy:.4f}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, kind: str, model_file: Optional[Path]) -> int:
    wd = _workdir(cfg)
    path = _input_file(model_file or wd / f"model_{kind}.bin", "model container")
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
        "seed": cfg.seed,
        "f1": result.f1,
        "accuracy": result.accuracy,
        "confusion": asdict(result.confusion),
        "config_fingerprint": cfg.fingerprint(),
        "model_fingerprint": loaded.header.get("config_fingerprint", ""),
    }
    _write_json(wd / f"eval_{kind}.json", payload)
    _write_run_metadata(wd / f"eval_{kind}.run.json", cfg, time.perf_counter() - started)
    print(f"{kind} holdout: f1={result.f1:.4f} accuracy={result.accuracy:.4f} on {len(test)} rows")
    return EXIT_OK


def cmd_benchmark(cfg: RunConfig) -> int:
    wd = _workdir(cfg)
    ds, _ = _load_joined(cfg)
    started = time.perf_counter()
    result = evaluation.benchmark(
        {kind: getattr(cfg, kind) for kind in MODELS},
        ds,
        cfg.split,
        cfg.seed,
        protocol=cfg.protocol,
        config_fingerprint=cfg.fingerprint(),
    )
    payload = result.to_dict()
    payload["seed"] = cfg.seed
    payload["config"] = cfg.fingerprint_payload()
    payload["majority_baseline_f1"] = evaluation.majority_baseline_f1(ds.y)
    _write_json(wd / "benchmark_report.json", payload)
    _write_run_metadata(wd / "benchmark_run.json", cfg, time.perf_counter() - started)
    print(result.render())
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


def cmd_verify(cfg: RunConfig) -> int:
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
        raise FingerprintMismatchError(f"{len(bad)} artifact(s) do not match the current config")
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
        cfg = _resolve_config(args)
        if args.command == "gen-synthetic":
            return cmd_gen_synthetic(cfg)
        if args.command == "aggregate":
            return cmd_aggregate(cfg)
        if args.command == "select":
            return cmd_select(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.model)
        if args.command == "cv":
            return cmd_cv(cfg, args.model)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.model, args.model_file)
        if args.command == "benchmark":
            return cmd_benchmark(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GametraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # unexpected bug: treat as invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
