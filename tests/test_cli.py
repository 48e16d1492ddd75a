import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import events_csv
from gametrace import cli
from gametrace.aggregation import load_feature_matrix
from gametrace.cli import _build_parser, main
from gametrace.config import RunConfig, load_config
from gametrace.dataset import join, split_train_test
from gametrace.errors import ConfigError
from gametrace.events import LEVEL_GROUPS, read_labels
from gametrace.model_io import MAGIC, load_container, load_model, save_container
from gametrace.settings import MODELS, SelectionPolicy, SplitPlan, SynthConfig

REPO = Path(__file__).resolve().parent.parent


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    wd = tmp_path_factory.mktemp("pipeline")
    assert run("gen-synthetic", "--workdir", str(wd), "--sessions", "20",
               "--events-per-session", "150") == 0
    assert run("aggregate", "--workdir", str(wd)) == 0
    return wd


def test_missing_events_path_exits_2(tmp_path):
    assert run("aggregate", "--workdir", str(tmp_path)) == 2


def test_select_before_aggregate_exits_2(tmp_path):
    assert run("select", "--workdir", str(tmp_path)) == 2


def test_unknown_subcommand_exits_1():
    assert run("frobnicate") == 1


def test_unknown_model_kind_is_usage_error(pipeline_dir):
    assert run("train", "--workdir", str(pipeline_dir), "--model", "svm") == 1


def test_bad_config_json_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run("aggregate", "--workdir", str(tmp_path), "--config", str(cfg)) == 1


def test_unknown_config_key_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_key": 1}')
    assert run("aggregate", "--workdir", str(tmp_path), "--config", str(cfg)) == 1


@pytest.mark.parametrize("section, key, value", [
    ("split", "grouping", "by_session"),
    ("selection", "mi_unit", "nats"),
    ("mlp", "output_dim", 2),
    ("knn", "scale", True),
    ("mlp", "scale", True),
    ("forest", "scale", False),
])
def test_removed_setting_exits_1_as_an_unknown_key(tmp_path, capsys, section, key, value):
    # Every split keeps a session on one side, mutual information is in
    # nats, the MLP has one output per label, and KNN and the MLP always
    # scale their inputs while the forest never does; none is a setting,
    # not even at its former default.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    capsys.readouterr()
    assert run("aggregate", "--workdir", str(tmp_path), "--config", str(cfg)) == 1
    assert f"unknown key {key!r} in config.{section}" in capsys.readouterr().err


MALFORMED_CONFIGS = [
    {"knn": {"k": "5"}},
    {"knn": {"k": True}},
    {"knn": {"metric": "bogus"}},
    {"knn": {"folds": 1}},
    {"knn": 5},
    {"mlp": {"epochs": "3"}},
    {"mlp": {"hidden_sizes": [0]}},
    {"forest": {"trees": 0}},
    {"forest": {"max_depth": 0}},
    {"seed": "x"},
    {"seed": -1},
    {"selection": {"k": "3"}},
    {"selection": {"k": 0}},
    {"selection": {"redundancy_threshold": 2.0}},
    {"selection": {"mi_unit": "bogus"}},
    {"selection": {"mi_bins": 1}},
    {"synth": {"sessions": 0}},
    {"question_groups": [1, 2]},
    {"question_groups": {"x": "0-4"}},
    {"aggregator_specs": [{"column": "x"}]},
    {"protocol": "bogus"},
    [],
]


@pytest.mark.parametrize("bad", MALFORMED_CONFIGS, ids=json.dumps)
def test_malformed_config_exits_1_before_reading_inputs(tmp_path, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    # the workdir holds no inputs: a config that got past loading would exit 2
    assert run("aggregate", "--workdir", str(tmp_path), "--config", str(cfg)) == 1


def test_section_check_names_its_section(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mlp": {"epochs": 0}}))
    assert run("aggregate", "--workdir", str(tmp_path), "--config", str(cfg)) == 1
    assert "config.mlp: epochs must be >= 1" in capsys.readouterr().err


def test_config_path_that_is_a_directory_exits_1(tmp_path, capsys):
    assert run("aggregate", "--workdir", str(tmp_path), "--config", str(tmp_path)) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_run_config_sections_are_the_stage_types():
    hints = get_type_hints(RunConfig)
    assert hints["split"] is SplitPlan
    assert hints["selection"] is SelectionPolicy
    assert hints["synth"] is SynthConfig
    for kind, entry in MODELS.items():
        assert hints[kind] is entry


def test_k_above_training_rows_exits_1_in_train_and_cv(pipeline_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"knn": {"k": 100000}}))
    common = ["--workdir", str(pipeline_dir), "--config", str(cfg), "--model", "knn"]
    assert run("train", *common) == 1
    assert run("cv", *common) == 1
    assert "fold 0: k=100000 exceeds" in capsys.readouterr().err


def test_benchmark_plans_every_model_before_it_fits_any(pipeline_dir, tmp_path, capsys):
    # knn's k fails in its first fit (exit 1), but mlp's 21 folds exceed the
    # 20 sessions, which planning finds before any fold is fitted.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"knn": {"k": 100000}, "mlp": {"folds": 21}}))
    capsys.readouterr()
    assert run("benchmark", "--workdir", str(pipeline_dir), "--config", str(cfg)) == 2
    assert "21 folds exceed 20 sessions" in capsys.readouterr().err


# command -> a value for each flag it reads besides --config, --workdir and --seed
COMMAND_FLAGS = {
    "gen-synthetic": {"--sessions": "3", "--events-per-session": "50"},
    "aggregate": {"--events": "events.csv"},
    "select": {"--labels": "labels.csv"},
    "train": {"--labels": "labels.csv", "--model": "knn"},
    "cv": {"--labels": "labels.csv", "--model": "knn"},
    "evaluate": {"--labels": "labels.csv", "--model": "knn", "--model-file": "model.bin"},
    "benchmark": {"--labels": "labels.csv", "--protocol": "holdout"},
    "verify": {},
}
ALL_FLAGS = {flag: value for flags in COMMAND_FLAGS.values() for flag, value in flags.items()}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_each_command_takes_only_the_flags_it_reads(command, tmp_path, capsys):
    (tmp_path / "cfg.json").write_text("{}")
    flags = {"--config": str(tmp_path / "cfg.json"), "--workdir": str(tmp_path), "--seed": "7",
             **COMMAND_FLAGS[command]}
    argv = [command, *(part for item in flags.items() for part in item)]
    args = _build_parser().parse_args(argv)
    assert args.run is getattr(cli, "cmd_" + command.replace("-", "_"))
    for flag, value in flags.items():
        assert str(getattr(args, flag[2:].replace("-", "_"))) == value
    for flag in ALL_FLAGS.keys() - flags.keys():
        capsys.readouterr()
        assert run(*argv, flag, ALL_FLAGS[flag]) == 1, flag
        assert f"unrecognized arguments: {flag} {ALL_FLAGS[flag]}" in capsys.readouterr().err
    assert not (tmp_path / "events.csv").exists()  # no command ran


@pytest.mark.parametrize("command", ["train", "cv", "evaluate"])
def test_model_choices_are_the_registry(command):
    parser = _build_parser()
    for kind in MODELS:
        assert parser.parse_args([command, "--model", kind]).model == kind


def test_every_registered_kind_has_its_config_section():
    cfg = RunConfig()
    for kind, entry in MODELS.items():
        assert isinstance(getattr(cfg, kind), entry)
        assert kind in cfg.fingerprint_payload()


def test_aggregate_row_count_matches_manifest(pipeline_dir):
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    report = json.loads((pipeline_dir / "aggregate_report.json").read_text())
    assert report["rows_out"] == len(manifest["true_aggregates"])
    assert report["rows_in"] == manifest["events_written"]
    assert report["rows_skipped"] == 0
    assert report["input_bytes"] == (pipeline_dir / "events.csv").stat().st_size
    assert report["byte_ratio"] == report["output_bytes"] / report["input_bytes"]


def test_aggregate_rerun_is_byte_identical(pipeline_dir, capsys):
    features = (pipeline_dir / "features.csv").read_bytes()
    meta = (pipeline_dir / "features.meta.json").read_bytes()
    capsys.readouterr()
    assert run("aggregate", "--workdir", str(pipeline_dir)) == 0
    r = json.loads((pipeline_dir / "aggregate_report.json").read_text())
    assert capsys.readouterr().out.splitlines()[0] == (
        f"aggregated: rows {r['rows_in']} -> {r['rows_out']}; "
        f"bytes {r['input_bytes']} -> {r['output_bytes']} ({100.0 * r['byte_ratio']:.2f}%)"
    )
    assert (pipeline_dir / "features.csv").read_bytes() == features
    assert (pipeline_dir / "features.meta.json").read_bytes() == meta


def test_commands_never_mutate_inputs(pipeline_dir):
    events = (pipeline_dir / "events.csv").read_bytes()
    labels = (pipeline_dir / "labels.csv").read_bytes()
    assert run("aggregate", "--workdir", str(pipeline_dir)) == 0
    assert run("select", "--workdir", str(pipeline_dir)) == 0
    assert (pipeline_dir / "events.csv").read_bytes() == events
    assert (pipeline_dir / "labels.csv").read_bytes() == labels


def test_select_writes_scored_report(pipeline_dir):
    assert run("select", "--workdir", str(pipeline_dir)) == 0
    lines = (pipeline_dir / "selection_report.tsv").read_text().splitlines()
    assert lines[0].startswith("# config_fingerprint=")
    assert lines[1] == "# seed=42"
    assert lines[2] == "feature\tpearson_vs_label\tmi\tkept\treason"
    body = [line.split("\t") for line in lines[3:]]
    assert len(body) == 11
    kept = [row for row in body if row[3] == "1"]
    assert len(kept) == 11  # default policy keeps all 11 on the default corpus
    for row in body:
        float(row[2])  # mi column parses as a number


def test_train_then_load_matches_in_memory_predictions(pipeline_dir):
    assert run("train", "--workdir", str(pipeline_dir), "--model", "forest") == 0
    container = pipeline_dir / "model_forest.bin"
    assert container.exists()
    loaded = load_model(container)
    assert loaded.header["created_by"]["seed"] == 42

    # reproduce the same training in memory from the same artifacts
    from gametrace.cli import _load_joined
    from gametrace.dataset import fit_preprocessor, split_train_test

    cfg = load_config(None)
    cfg.workdir = str(pipeline_dir)
    ds, _ = _load_joined(cfg)
    train, test = split_train_test(ds, cfg.split, cfg.seed)
    pre = fit_preprocessor(train.x, train.feature_names, train.categorical_names,
                           scale=cfg.forest.scale)
    model = cfg.forest.fit(pre.transform(train.x), train.y, cfg.seed)

    rng = np.random.default_rng(0)
    probes = ds.x[rng.integers(0, len(ds), size=100)]
    filled = np.where(np.isnan(probes), 0.0, probes)
    assert np.array_equal(loaded.predict(filled), model.predict(pre.transform(filled)))


def test_evaluate_uses_holdout_test_side(pipeline_dir):
    assert run("evaluate", "--workdir", str(pipeline_dir), "--model", "forest") == 0
    payload = json.loads((pipeline_dir / "eval_forest.json").read_text())
    assert payload["protocol"] == "holdout-0.2"
    assert 0.0 <= payload["f1"] <= 1.0
    assert payload["model_fingerprint"] == payload["config_fingerprint"]


@pytest.fixture(scope="module")
def evaluate_dir(pipeline_dir, tmp_path_factory):
    """The inputs of `evaluate` and one trained container of each kind."""
    wd = tmp_path_factory.mktemp("evaluate")
    for name in ("features.csv", "features.meta.json", "labels.csv"):
        shutil.copy(pipeline_dir / name, wd / name)
    for kind in MODELS:
        assert run("train", "--workdir", str(wd), "--model", kind) == 0
    return wd


def evaluate(wd, kind, container):
    return run("evaluate", "--workdir", str(wd), "--model", kind, "--model-file", str(container))


def _without(header, key):
    return {k: v for k, v in header.items() if k != key}


def _header(edit):
    return lambda h, a: (edit(h), a)


def _section(kind, **values):
    return _header(lambda h: {**h, kind: {**h[kind], **values}})


def _array(name, edit):
    return lambda h, a: (h, {**a, name: edit(a[name])})


def _first_split_on(feature):
    def edit(h, a):
        features = a["tree_features"].copy()
        features[np.flatnonzero(a["tree_kinds"] == 1)[0]] = feature
        return h, {**a, "tree_features": features}

    return edit


def _leaves(name, value):
    """Every leaf's entry of the tree array ``name`` set to ``value``."""

    def edit(h, a):
        v = a[name].copy()
        v[a["tree_kinds"] == 0] = value
        return h, {**a, name: v}

    return edit


def _no_trees(h, a):
    empty = {name: v[:0] for name, v in a.items() if name.startswith("tree_")}
    return {**h, "forest": {**h["forest"], "tree_count": 3}}, {**a, **empty}


def _extra_output_name(h):
    pre = h["preprocessor"]
    return {**h, "preprocessor": {**pre, "output_names": [*pre["output_names"], "extra"]}}


# case -> (kind, edit of (header, arrays), expected message)
MALFORMED_CONTAINERS = {
    "knn section missing": ("knn", _header(lambda h: _without(h, "knn")), "container is missing 'knn'"),
    "mlp layers beyond arrays": ("mlp", _section("mlp", layers=5), "container is missing 'mlp_w2'"),
    "preprocessor missing": (
        "forest", _header(lambda h: _without(h, "preprocessor")), "container is missing 'preprocessor'"
    ),
    "header not an object": ("forest", _header(lambda h: [h]), "unknown model kind None"),
    "split on feature 999": ("forest", _first_split_on(999), "splits on feature 999"),
    "split on feature -2": ("forest", _first_split_on(-2), "splits on feature -2"),
    "tree_thresholds short": ("forest", _array("tree_thresholds", lambda v: v[:-1]), "tree arrays differ"),
    "no trees, tree_count 3": ("forest", _no_trees, "forest holds 0 trees, header says 3"),
    "knn_y short": ("knn", _array("knn_y", lambda v: v[:-1]), "row and label counts differ"),
    "knn k above rows": ("knn", _section("knn", k=100000), "k=100000 exceeds"),
    "knn k a string": ("knn", _section("knn", k="5"), "knn.k must be int"),
    "mlp_w0 column count": ("mlp", _array("mlp_w0", lambda v: v[:, :-1]), "mlp weights do not match"),
    "pre_means short": ("knn", _array("pre_means", lambda v: v[:-1]), "preprocessor means has shape (10,)"),
    "scaled without pre_scaler_std": (
        "knn", lambda h, a: (h, _without(a, "pre_scaler_std")), "container is missing 'pre_scaler_std'"
    ),
    "one extra output name": (
        "forest", _header(_extra_output_name), "preprocessor has 12 output names for 11 columns",
    ),
    "one-hot column not an input name": (
        "forest", _section("preprocessor", onehot_columns=["nope"], onehot_categories=[[]]),
        "preprocessor one-hot column 'nope' is not an input name",
    ),
    "mlp_loss_history 2-D": (
        "mlp", _array("mlp_loss_history", lambda v: v[:, None]),
        "mlp loss history has shape (100, 1), not (100,)",
    ),
    "leaf labels 5": ("forest", _leaves("tree_labels", 5), "tree leaf labels must be 0 or 1"),
    "leaf labels -3": ("forest", _leaves("tree_labels", -3), "tree leaf labels must be 0 or 1"),
    "tree_count0 negative": ("forest", _leaves("tree_count0", -1), "tree class counts must not be negative"),
    "tree_count1 negative": ("forest", _leaves("tree_count1", -1), "tree class counts must not be negative"),
    "knn_y all 7": ("knn", _array("knn_y", lambda v: np.full_like(v, 7)), "knn labels must be 0 or 1"),
    "pre_scaler_std negative": (
        "knn", _array("pre_scaler_std", lambda v: -1.0 - v), "preprocessor scaler_std must not be negative"
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_CONTAINERS))
def test_malformed_container_exits_2(evaluate_dir, tmp_path, capsys, case):
    kind, edit, message = MALFORMED_CONTAINERS[case]
    header, arrays = load_container(evaluate_dir / f"model_{kind}.bin")
    bad = tmp_path / "bad.bin"
    save_container(bad, *edit(header, arrays))
    capsys.readouterr()
    assert evaluate(evaluate_dir, kind, bad) == 2
    assert message in capsys.readouterr().err


def _first_entry(value):
    def edit(v):
        v = v.copy()
        v.flat[0] = value  # for the tree arrays: tree 0's root, a split
        return v

    return edit


def _first_column(value):
    def edit(v):
        v = v.copy()
        v[:, 0] = value
        return v

    return edit


# case -> (kind, edit of (header, arrays), expected message)
NONFINITE_CONTAINERS = {
    "mlp_w0 NaN": ("mlp", _array("mlp_w0", _first_entry(np.nan)), "must be finite"),
    "mlp_b0 NaN": ("mlp", _array("mlp_b0", _first_entry(np.nan)), "must be finite"),
    "mlp_loss_history NaN": ("mlp", _array("mlp_loss_history", _first_entry(np.nan)), "must be finite"),
    "tree_thresholds NaN": ("forest", _array("tree_thresholds", _first_entry(np.nan)), "must not be NaN"),
    "mlp_w1 column of 1e308": ("mlp", _array("mlp_w1", _first_column(1e308)), "mlp outputs overflow"),
    "pre_scaler_std 1e-310": (
        "knn", _array("pre_scaler_std", _first_entry(1e-310)), "is not finite after preprocessing"
    ),
    **{
        f"pre_{name} {value}": (
            "knn", _array(f"pre_{name}", _first_entry(value)), f"preprocessor {name} must be finite"
        )
        for name in ("means", "scaler_mean", "scaler_std")
        for value in (np.nan, np.inf)
    },
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(NONFINITE_CONTAINERS))
def test_container_without_finite_outputs_exits_2(evaluate_dir, tmp_path, capsys, case):
    kind, edit, message = NONFINITE_CONTAINERS[case]
    header, arrays = load_container(evaluate_dir / f"model_{kind}.bin")
    bad = tmp_path / "bad.bin"
    save_container(bad, *edit(header, arrays))
    capsys.readouterr()
    assert evaluate(evaluate_dir, kind, bad) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", list(MODELS))
def test_an_infinite_feature_cell_on_the_test_side_exits_2(evaluate_dir, tmp_path, capsys, kind):
    with open(evaluate_dir / "labels.csv", newline="") as source:
        labels = read_labels(source)
    matrix = load_feature_matrix(evaluate_dir / "features.csv", evaluate_dir / "features.meta.json")
    cfg = RunConfig()
    session = split_train_test(join(matrix, labels)[0], cfg.split, cfg.seed)[1].row_keys[0][0]
    lines = (evaluate_dir / "features.csv").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(f"{session},"))
    cells = lines[row].split(",")
    cells[2] = "inf"  # the first feature column
    lines[row] = ",".join(cells)
    (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
    for name in ("features.meta.json", "labels.csv"):
        shutil.copy(evaluate_dir / name, tmp_path / name)
    capsys.readouterr()
    assert evaluate(tmp_path, kind, evaluate_dir / f"model_{kind}.bin") == 2
    assert f"features.csv: line {row + 1}: feature value 'inf' is not finite" in capsys.readouterr().err


def test_container_header_not_json_exits_2_in_evaluate_and_verify(evaluate_dir, tmp_path):
    raw = bytearray((evaluate_dir / "model_knn.bin").read_bytes())
    raw[len(MAGIC) + 4 + 8] = ord("!")  # the header's opening brace
    (tmp_path / "model_knn.bin").write_bytes(bytes(raw))
    assert evaluate(evaluate_dir, "knn", tmp_path / "model_knn.bin") == 2
    assert run("verify", "--workdir", str(tmp_path)) == 2


def test_container_array_shape_not_its_bytes_exits_2(evaluate_dir, tmp_path):
    raw = (evaluate_dir / "model_mlp.bin").read_bytes()
    meta = b'"name":"mlp_b0","shape":[128]'
    assert raw.count(meta) == 1
    (tmp_path / "bad.bin").write_bytes(raw.replace(meta, meta.replace(b"128", b"127")))
    assert evaluate(evaluate_dir, "mlp", tmp_path / "bad.bin") == 2


def test_container_array_dtype_not_written_by_save_exits_2(evaluate_dir, tmp_path, capsys):
    raw = (evaluate_dir / "model_mlp.bin").read_bytes()
    # one bit flipped: "<" is 0x3c, "," is 0x2c
    (tmp_path / "bad.bin").write_bytes(raw.replace(b'"dtype":"<f8"', b'"dtype":",f8"', 1))
    capsys.readouterr()
    assert evaluate(evaluate_dir, "mlp", tmp_path / "bad.bin") == 2
    assert "is ,f8 of shape" in capsys.readouterr().err


def _last_field(value):
    return lambda line: line.rsplit(b",", 1)[0] + value


# case -> (file, line, edit of the line's bytes, command, expected message)
UNREADABLE_INPUTS = {
    "events.csv not UTF-8": (
        "events.csv", 500, lambda line: line + b"\xff", "aggregate", "events.csv: line 500 is not UTF-8"
    ),
    "labels.csv not UTF-8": (
        "labels.csv", 40, lambda line: line + b"\xff", "select", "labels.csv: line 40 is not UTF-8"
    ),
    "events.csv field over the csv limit": (
        "events.csv", 3, lambda line: line + b"," + b"x" * 140_000, "aggregate",
        "events.csv: line 3: field larger than field limit",
    ),
    "features.csv row truncated": (
        "features.csv", 5, _last_field(b""), "select", "features.csv: line 5: ",
    ),
    "features.csv cell not a number": (
        "features.csv", 5, _last_field(b",abc"), "select", "features.csv: line 5: could not convert",
    ),
    **{
        f"features.csv cell {cell}": (
            "features.csv", 5, _last_field(b"," + cell.encode()), "select",
            f"features.csv: line 5: feature value '{cell}' is not finite",
        )
        for cell in ("inf", "nan")
    },
    "features.meta.json not JSON": (
        "features.meta.json", 1, lambda line: b"!" + line, "select", "features.meta.json: Expecting value",
    ),
}


@pytest.mark.parametrize("case", list(UNREADABLE_INPUTS))
def test_unreadable_input_file_exits_2_naming_file_and_line(pipeline_dir, tmp_path, capsys, case):
    name, lineno, edit, command, message = UNREADABLE_INPUTS[case]
    for kept in ("events.csv", "labels.csv", "features.csv", "features.meta.json"):
        shutil.copy(pipeline_dir / kept, tmp_path / kept)
    lines = (tmp_path / name).read_bytes().split(b"\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    (tmp_path / name).write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run(command, "--workdir", str(tmp_path)) == 2
    assert message in capsys.readouterr().err


def _sidecar_with(**changes):
    def edit(meta: bytes) -> bytes:
        return json.dumps({**json.loads(meta), **changes}).encode()
    return edit


# case -> (file, new bytes from the old, expected message)
HALF_WRITTEN_WORKDIRS = {
    "features.csv empty": ("features.csv", lambda _: b"", "features.csv: empty file, no header row"),
    "sidecar not an object": ("features.meta.json", lambda _: b"[1]", "features.meta.json: not a JSON object"),
    "sidecar without columns": (
        "features.meta.json", lambda _: b'{"format": "gametrace-feature-matrix"}',
        "features.meta.json: columns must be list, got None",
    ),
    "columns entry not an object": (
        "features.meta.json", _sidecar_with(columns=[1]), "features.meta.json: columns[0] must be dict, got 1",
    ),
    "columns entry without source": (
        "features.meta.json", _sidecar_with(columns=[{"kind": "mean", "name": "x"}]),
        "features.meta.json: columns[0].source must be str, got None",
    ),
    "code table entry not an int": (
        "features.meta.json", _sidecar_with(code_tables={"fqid": {"a": "0"}}),
        "features.meta.json: code_tables.fqid.a must be int, got '0'",
    ),
    "sidecar of another format": (
        "features.meta.json", _sidecar_with(format="other"), "not a feature matrix sidecar: ",
    ),
    "features.csv header not the sidecar's": (
        "features.csv", lambda csv: csv.replace(b"session_id", b"session", 1),
        "feature CSV header does not match sidecar: ",
    ),
}


@pytest.mark.parametrize("case", list(HALF_WRITTEN_WORKDIRS))
def test_half_written_workdir_exits_2_naming_the_file(pipeline_dir, tmp_path, capsys, case):
    name, edit, message = HALF_WRITTEN_WORKDIRS[case]
    for kept in ("labels.csv", "features.csv", "features.meta.json"):
        shutil.copy(pipeline_dir / kept, tmp_path / kept)
    (tmp_path / name).write_bytes(edit((tmp_path / name).read_bytes()))
    capsys.readouterr()
    assert run("select", "--workdir", str(tmp_path)) == 2
    assert message in capsys.readouterr().err


# case -> (path in the workdir made a directory, command line; "{}" is that path)
DIRECTORY_INPUTS = {
    "--events": ("events_dir", ["aggregate", "--events", "{}"]),
    "--labels": ("labels_dir", ["select", "--labels", "{}"]),
    "features.csv": ("features.csv", ["select"]),
    "features.meta.json": ("features.meta.json", ["select"]),
    "--model-file": ("model_dir", ["evaluate", "--model", "knn", "--model-file", "{}"]),
    "a report verify reads": ("aggregate_report.json", ["verify"]),
}


@pytest.mark.parametrize("case", list(DIRECTORY_INPUTS))
def test_directory_in_place_of_an_input_file_exits_2_naming_it(pipeline_dir, tmp_path, capsys, case):
    name, argv = DIRECTORY_INPUTS[case]
    for kept in ("events.csv", "labels.csv", "features.csv", "features.meta.json"):
        shutil.copy(pipeline_dir / kept, tmp_path / kept)
    target = tmp_path / name
    target.unlink(missing_ok=True)
    target.mkdir()
    capsys.readouterr()
    assert run(*(arg.format(target) for arg in argv), "--workdir", str(tmp_path)) == 2
    assert f"is not a file: {target}" in capsys.readouterr().err


GOOD_EVENT = {"session_id": "s", "index": "1", "elapsed_time": "5", "event_name": "e", "name": "n",
              "level": "2", "fullscreen": "0", "hq": "0", "music": "0", "level_group": "0-4"}

# case -> (event rows, the output column the message names)
OVERFLOWING_REDUCTIONS = {
    "elapsed_time of 401 digits": ([{**GOOD_EVENT, "elapsed_time": "9" * 401}], "elapsed_time_sum"),
    "two room_coor_x of 1e308": (
        [{**GOOD_EVENT, "index": str(i), "room_coor_x": "1e308"} for i in (1, 2)], "room_coor_x_mean"
    ),
}


@pytest.mark.parametrize("case", list(OVERFLOWING_REDUCTIONS))
def test_aggregate_reduction_past_float_range_exits_2(tmp_path, capsys, case):
    rows, column = OVERFLOWING_REDUCTIONS[case]
    (tmp_path / "events.csv").write_text(events_csv(rows).getvalue())
    assert run("aggregate", "--workdir", str(tmp_path)) == 2
    assert f"{column} of session 's', level group '0-4' is not a finite float" in capsys.readouterr().err
    assert not (tmp_path / "features.csv").exists()


def _aggregate_rows(wd, rows, specs=None):
    """features.csv of one ``aggregate`` run over ``rows``, or None on failure."""
    wd.mkdir()
    (wd / "events.csv").write_text(events_csv(rows).getvalue())
    argv = ["aggregate", "--workdir", str(wd)]
    if specs is not None:
        (wd / "cfg.json").write_text(json.dumps({"aggregator_specs": specs}))
        argv += ["--config", str(wd / "cfg.json")]
    return (wd / "features.csv").read_text() if run(*argv) == 0 else None


def test_real_mean_follows_the_exact_sum_in_any_order(tmp_path):
    """A partial sum past the float range in one order only changes nothing."""
    orders = [("1e308", "-1e308", "1e308"), ("1e308", "1e308", "-1e308"), ("-1e308", "1e308", "1e308")]
    written = {
        _aggregate_rows(tmp_path / str(n), [{**GOOD_EVENT, "index": str(i), "room_coor_x": x}
                                            for i, x in enumerate(order)])
        for n, order in enumerate(orders)
    }
    assert len(written) == 1
    assert f",{1e308 / 3!r}," in written.pop()


def test_min_and_max_of_signed_zeros_follow_no_order(tmp_path):
    specs = [{"column": "room_coor_x", "kind": "min"}, {"column": "room_coor_x", "kind": "max"}]
    for n, order in enumerate([("0.0", "-0.0"), ("-0.0", "0.0")]):
        rows = [{**GOOD_EVENT, "index": str(i), "room_coor_x": x} for i, x in enumerate(order)]
        assert _aggregate_rows(tmp_path / str(n), rows, specs).splitlines()[1] == "s,0-4,-0.0,0.0"


def _two_class_workdir(wd, x_of_label_0, x_of_label_1):
    """A hand-written workdir of 20 sessions with rows in every level group:
    ``room_coor_x_mean`` is the session's label's value, ``level_mean`` is
    constant, and every question of a session has that label."""
    sessions = [(f"s{i:02d}", i % 2) for i in range(20)]
    x = (x_of_label_0, x_of_label_1)
    rows = [f"{sid},{group},{x[label]!r},1.0" for sid, label in sessions for group in LEVEL_GROUPS]
    header = "session_id,level_group,room_coor_x_mean,level_mean"
    (wd / "features.csv").write_text("\n".join([header, *rows]) + "\n")
    columns = [{"source": c, "kind": "mean", "name": f"{c}_mean"} for c in ("room_coor_x", "level")]
    (wd / "features.meta.json").write_text(
        json.dumps({"format": "gametrace-feature-matrix", "columns": columns, "code_tables": {}})
    )
    labels = [f"{sid},{q},{label}" for sid, label in sessions for q in range(1, 19)]
    (wd / "labels.csv").write_text("\n".join(["session_id,question,correct", *labels]) + "\n")


def _child_env(**extra) -> dict:
    """This process's environment, with the checkout's ``src`` on the path."""
    src = str(REPO / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def cli_child(*argv, timeout=120) -> subprocess.CompletedProcess:
    """One CLI command in a fresh interpreter whose warnings reach stderr."""
    return subprocess.run([sys.executable, "-m", "gametrace.cli", *argv], env=_child_env(PYTHONWARNINGS="default"),
                          capture_output=True, text=True, timeout=timeout)


# command, the two label values of room_coor_x_mean, what overflows
OVERFLOWING_STATISTICS = [
    (["select"], (1.5e308, 1.7e308), "mean"),
    (["train", "--model", "forest"], (1.5e308, 1.7e308), "mean"),
    (["train", "--model", "knn"], (1.5e308, 1.7e308), "mean"),
    (["cv", "--model", "knn"], (1.5e308, 1.7e308), "mean"),
    (["train", "--model", "knn"], (-1e200, 1e200), "standard deviation"),
]


@pytest.mark.parametrize("argv, values, what", OVERFLOWING_STATISTICS,
                         ids=[f"{' '.join(a)}, {w}" for a, _, w in OVERFLOWING_STATISTICS])
def test_a_finite_column_whose_mean_or_std_overflows_exits_2_naming_it(tmp_path, argv, values, what):
    _two_class_workdir(tmp_path, *values)
    proc = cli_child(*argv, "--workdir", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("data error: ")  # cv names the fold first
    assert f"column 'room_coor_x_mean' has a {what} that is not finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_train_forest_splits_between_adjacent_doubles(tmp_path):
    """The midpoint of two adjacent doubles rounds to the upper one; the
    split falls back to the lower, so the tree ends instead of recursing on
    a split that separates nothing."""
    _two_class_workdir(tmp_path, 1.0000000000000002, 1.0000000000000004)
    (tmp_path / "cfg.json").write_text(json.dumps({"forest": {"feature_subsample": "all", "trees": 1}}))
    proc = cli_child("train", "--model", "forest", "--workdir", str(tmp_path),
                     "--config", str(tmp_path / "cfg.json"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "trained forest on 288 rows" in proc.stdout
    (tree,) = load_model(tmp_path / "model_forest.bin").model.trees
    assert (tree.feature, tree.threshold) == (0, 1.0000000000000002)
    assert tree.left.label == 0 and tree.left.counts[1] == 0 and tree.left.counts[0] > 0
    assert tree.right.label == 1 and tree.right.counts[0] == 0 and tree.right.counts[1] > 0


def test_verify_corrupt_report_exits_2(tmp_path):
    (tmp_path / "aggregate_report.json").write_text('{"config_fingerprint": ')
    assert run("verify", "--workdir", str(tmp_path)) == 2


DEEP_JSON = b"[" * 200_000  # nested past the interpreter's recursion limit


def test_config_nested_too_deep_exits_1(tmp_path, capsys):
    (tmp_path / "cfg.json").write_bytes(DEEP_JSON)
    assert run("aggregate", "--workdir", str(tmp_path), "--config", str(tmp_path / "cfg.json")) == 1
    assert "config file is not valid JSON: maximum recursion depth" in capsys.readouterr().err


def test_sidecar_nested_too_deep_exits_2(pipeline_dir, tmp_path, capsys):
    for kept in ("labels.csv", "features.csv"):
        shutil.copy(pipeline_dir / kept, tmp_path / kept)
    (tmp_path / "features.meta.json").write_bytes(DEEP_JSON)
    assert run("select", "--workdir", str(tmp_path)) == 2
    assert "features.meta.json: maximum recursion depth" in capsys.readouterr().err


def test_container_header_nested_too_deep_exits_2(evaluate_dir, tmp_path, capsys):
    raw = (evaluate_dir / "model_knn.bin").read_bytes()
    start = len(MAGIC) + 4
    end = start + 8 + int.from_bytes(raw[start:start + 8], "little")
    bad = raw[:start] + len(DEEP_JSON).to_bytes(8, "little") + DEEP_JSON + raw[end:]
    (tmp_path / "bad.bin").write_bytes(bad)
    assert evaluate(evaluate_dir, "knn", tmp_path / "bad.bin") == 2
    assert "malformed container" in capsys.readouterr().err


def test_report_nested_too_deep_exits_2_in_verify(tmp_path, capsys):
    (tmp_path / "aggregate_report.json").write_bytes(DEEP_JSON)
    assert run("verify", "--workdir", str(tmp_path)) == 2
    assert "aggregate_report.json: maximum recursion depth" in capsys.readouterr().err


def _paths(value, prefix=()):
    """The key path of every value inside a JSON document, but the root."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**6), 10**6), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-3, 300), max_size=3), st.just({}),
)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_evaluate_never_exits_3_on_one_changed_value(evaluate_dir, data):
    kind = data.draw(st.sampled_from(list(MODELS)))
    header, arrays = load_container(evaluate_dir / f"model_{kind}.bin")
    if data.draw(st.booleans(), label="edit the header"):
        *parents, last = data.draw(st.sampled_from(list(_paths(header))))
        target = header
        for key in parents:
            target = target[key]
        target[last] = data.draw(JSON_VALUES)
    else:
        arr = arrays[data.draw(st.sampled_from(sorted(arrays)))]
        assume(arr.size > 0)
        if arr.dtype.kind == "f":
            value = data.draw(st.floats())
        else:
            info = np.iinfo(arr.dtype)
            value = data.draw(st.integers(int(info.min), int(info.max)))
        arr.flat[data.draw(st.integers(0, arr.size - 1))] = value
    bad = evaluate_dir / "changed.bin"
    save_container(bad, header, arrays)
    assert evaluate(evaluate_dir, kind, bad) in (0, 2)


def test_cv_uses_model_specific_fold_counts(pipeline_dir):
    assert run("cv", "--workdir", str(pipeline_dir), "--model", "knn") == 0
    knn_report = json.loads((pipeline_dir / "cv_knn.json").read_text())
    assert knn_report["protocol"] == "cv-10"
    assert len(knn_report["folds"]) == 10
    folds_file = (pipeline_dir / "folds_knn.tsv").read_text().splitlines()
    assert folds_file[0] == "fold\tsession_id\tquestion"
    assert len(folds_file) == 1 + 20 * 18
    run_meta = json.loads((pipeline_dir / "cv_knn.run.json").read_text())
    assert run_meta["runtime_seconds"] > 0


def test_cv_plans_its_folds_once(pipeline_dir, monkeypatch):
    # The folds the report scores are the folds folds_<kind>.tsv lists: one
    # kfold_indices call serves both.
    import gametrace.cli
    import gametrace.dataset
    import gametrace.evaluation

    real = gametrace.dataset.kfold_indices
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    for module in (gametrace.cli, gametrace.dataset, gametrace.evaluation):
        monkeypatch.setattr(module, "kfold_indices", counted, raising=False)
    assert run("cv", "--workdir", str(pipeline_dir), "--model", "mlp") == 0
    assert len(calls) == 1
    folds = (pipeline_dir / "folds_mlp.tsv").read_text().splitlines()[1:]
    assert sorted({line.split("\t")[0] for line in folds}) == [str(f) for f in range(5)]


def test_benchmark_emits_three_computed_plus_reference(pipeline_dir, capsys):
    capsys.readouterr()
    assert run("benchmark", "--workdir", str(pipeline_dir)) == 0
    payload = json.loads((pipeline_dir / "benchmark_report.json").read_text())
    rows = payload["rows"]
    assert len(rows) == 4
    computed = rows[:3]
    assert [r["model"] for r in computed] == list(MODELS)
    assert {r["source"] for r in computed} == {"computed"}
    assert rows[3] == {"model": "french_touch", "f1": 0.72, "accuracy": None,
                       "source": "literature", "protocol": "reported"}
    protocols = {r["model"]: r["protocol"] for r in computed}
    assert protocols == {"knn": "cv-10", "mlp": "cv-5", "forest": "cv-5"}
    fingerprint = RunConfig().fingerprint()
    assert payload["config_fingerprint"] == fingerprint and payload["seed"] == 42
    for row, report in zip(computed, payload["reports"], strict=True):
        assert report["config_fingerprint"] == fingerprint
        assert (report["model"], report["mean_f1"], report["protocol"]) == (row["model"], row["f1"], row["protocol"])
    table = capsys.readouterr().out.splitlines()
    assert table[0] == "model                 f1  accuracy  protocol      source"
    assert table[1] == "-" * len(table[0])
    assert table[2].startswith(f"knn             {rows[0]['f1']:8.4f}{rows[0]['accuracy']:10.4f}  cv-10 ")
    assert table[5] == "french_touch      0.7200       n/a  reported      literature"
    config = payload["config"]
    assert config["knn"]["k"] == 5
    assert config["forest"]["trees"] == 100
    assert config["seed"] == 42
    assert config["mlp"]["hidden_sizes"] == [128]
    assert config["mlp"]["epochs"] == 100
    assert config["mlp"]["learning_rate"] == 0.001
    assert config["split"]["test_fraction"] == 0.2


def test_verify_passes_on_consistent_workdir(pipeline_dir):
    assert run("verify", "--workdir", str(pipeline_dir)) == 0


def test_verify_detects_fingerprint_mismatch(pipeline_dir):
    assert run("verify", "--workdir", str(pipeline_dir), "--seed", "99") == 2


def test_verify_empty_workdir_exits_2(tmp_path):
    assert run("verify", "--workdir", str(tmp_path)) == 2


# Runs one command in a fresh interpreter and prints, as JSON, its exit code
# and which of numpy and the gametrace modules it ran: a stage module the
# CLI has not used yet is still a lazy handle, not a plain module.
_RAN_MODULES = """
import json, sys, types
from gametrace.cli import main
code = main(sys.argv[1:])
ran = [n for n, m in sys.modules.items() if type(m) is types.ModuleType]
print(json.dumps([code, sorted(n for n in ran if n == "numpy" or n.startswith("gametrace."))]))
"""
NUMPY_SIDE = {"numpy"} | {
    f"gametrace.{m}"
    for m in ("dataset", "evaluation", "selection", "synth", "knn", "mlp", "forest", "model_io")
}


def ran_modules(*argv) -> tuple[int, set[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", _RAN_MODULES, *argv], env=_child_env(), capture_output=True, text=True, timeout=120
    )
    code, ran = json.loads(proc.stdout.splitlines()[-1])
    return code, set(ran)


def test_aggregate_and_verify_run_no_numpy_and_no_model_stage(small_corpus, tmp_path):
    _, corpus = small_corpus
    code, ran = ran_modules("aggregate", "--workdir", str(tmp_path), "--events", str(corpus.events_path))
    assert code == 0 and "gametrace.aggregation" in ran
    assert ran & NUMPY_SIDE == set()
    code, ran = ran_modules("verify", "--workdir", str(tmp_path))  # no model containers here
    assert code == 0
    assert ran & NUMPY_SIDE == set()


def test_workdir_env_var_override(pipeline_dir, monkeypatch, capsys):
    monkeypatch.setenv("GAMETRACE_WORKDIR", str(pipeline_dir))
    assert run("verify") == 0


def test_config_file_round_trip(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "seed": 7,
        "knn": {"k": 3, "folds": 4},
        "synth": {"sessions": 5, "events_per_session": 60},
    }))
    cfg = load_config(cfg_path)
    assert cfg.seed == 7
    assert cfg.knn.k == 3
    assert cfg.knn.folds == 4
    assert cfg.synth.sessions == 5
    assert cfg.mlp.epochs == 100  # untouched defaults


def test_config_fingerprint_stability_and_sensitivity():
    a = RunConfig()
    b = RunConfig()
    assert a.fingerprint() == b.fingerprint()
    b.seed = 43
    assert a.fingerprint() != b.fingerprint()
    c = RunConfig()
    c.workdir = "/elsewhere"
    assert c.fingerprint() == a.fingerprint()  # paths excluded


def test_config_fingerprints_are_pinned():
    # Values since the MLP's output width and the three classifiers' scale
    # flags left the payload; any change here changes every artifact's
    # fingerprint.
    assert RunConfig().fingerprint() == (
        "c571cc2dd0edca99c751e78c717468735c4cc4d4eb95b3adb110842dae08bdb7"
    )
    assert load_config(REPO / "perfbench" / "config.json").fingerprint() == (
        "46f9a050d88b8ac04019bb3f755898cd63f22e49142775503b6ec860a88517cc"
    )
    groups = {"question_groups": {"1": "0-4", "2": "0-4", "10": "5-12"}}
    assert load_config(None, overrides=groups).fingerprint() == (
        "096a87fad1f39c4d0755ca9c9c3989af2c654a0bf2c0652a0f7a1bf95a854f2f"
    )
    payload = RunConfig().fingerprint_payload()
    assert payload["split"] == {"test_fraction": 0.2}
    assert "mi_unit" not in payload["selection"]
    assert "output_dim" not in payload["mlp"]
    assert not any("scale" in payload[kind] for kind in ("knn", "mlp", "forest"))


def test_config_int_for_float_is_kept_as_given():
    cfg = load_config(None, overrides={"mlp": {"learning_rate": 1}})
    assert cfg.mlp.learning_rate == 1
    assert isinstance(cfg.mlp.learning_rate, int)
    assert cfg.fingerprint_payload()["mlp"]["learning_rate"] == 1


def test_config_rejects_unknown_section_key():
    with pytest.raises(ConfigError):
        load_config(None, overrides={"knn": {"neighbors": 5}})


def test_negative_seed_exits_1(pipeline_dir):
    for command in ("train", "cv"):
        assert run(command, "--workdir", str(pipeline_dir), "--model", "mlp", "--seed", "-1") == 1


def test_flags_pass_the_config_checks_and_override_the_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"sessions": 0}}))
    common = ["--workdir", str(tmp_path), "--config", str(cfg), "--events-per-session", "50"]
    assert run("gen-synthetic", *common) == 1
    assert run("gen-synthetic", *common, "--sessions", "3") == 0
    assert run("gen-synthetic", *common, "--sessions", "-3") == 1
    cfg.write_text(json.dumps({"synth": 5}))  # a flag does not hide a malformed section
    assert run("gen-synthetic", *common, "--sessions", "3") == 1


def test_gen_synthetic_flags_override_config(tmp_path):
    assert run("gen-synthetic", "--workdir", str(tmp_path), "--sessions", "2",
               "--events-per-session", "50") == 0
    labels = (tmp_path / "labels.csv").read_text().splitlines()
    assert len(labels) == 1 + 2 * 18
