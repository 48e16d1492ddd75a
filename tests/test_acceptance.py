"""Acceptance suite: one test per release criterion, each prints a
[acceptance] PASS/FAIL line with the measured numbers.

The heavy corpus criteria build real files on disk and run the actual CLI
pipeline; everything is seeded, so results are stable across runs.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from gametrace.aggregation import DEFAULT_SPECS, aggregate, aggregate_file
from gametrace.cli import main as cli_main
from gametrace.dataset import impute_mean, join
from gametrace.events import IngestReport, read_events, read_labels
from gametrace.forest import (
    best_split,
    entropy,
    forest_fit,
    forest_predict,
    gini,
    tree_fit,
    tree_predict,
)
from gametrace.knn import knn_fit, knn_predict
from gametrace.mlp import MlpModel, cross_entropy, init_params, mlp_backward, mlp_forward
from gametrace.selection import mutual_information, pearson, select
from gametrace.settings import (
    FEATURE_NAMES,
    ForestClassifier,
    KnnClassifier,
    MlpConfig,
    SelectionPolicy,
    SynthConfig,
    TreeConfig,
)
from gametrace.synth import generate

from oracles import best_split_oracle, brute_force_aggregate, knn_oracle


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory):
    """>= 1e6 events: 1000 sessions at ~1000 events each."""
    outdir = tmp_path_factory.mktemp("big")
    cfg = SynthConfig(sessions=1000, events_per_session=1000)
    result = generate(cfg, outdir, seed=42)
    assert result.events_written >= 1_000_000
    return result


# sha256 of the 1M-event corpus files (1000 sessions x 1000 events, seed 42).
BIG_CORPUS_SHA256 = {
    "events.csv": "e4ce8bf1b6bd69b889c892643473d16f508e2da31341c0a8bcd79a4e561f7e0a",
    "labels.csv": "8335f1d7977c982d28758ab806a3659de36d3a49b99b4ca2750cf446f4822879",
    "manifest.json": "9918e679802ddfcd612a459d5e6bad77e7f88e22da23a97d9feedc8ff6fd0769",
}


def test_big_corpus_bytes_are_pinned(big_corpus):
    paths = (big_corpus.events_path, big_corpus.labels_path, big_corpus.manifest_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == BIG_CORPUS_SHA256


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """The full default pipeline, twice, timed: gen -> aggregate -> select -> benchmark."""
    dirs = [tmp_path_factory.mktemp("run1"), tmp_path_factory.mktemp("run2")]
    started = time.perf_counter()
    for wd in dirs:
        for cmd in (
            ["gen-synthetic"],
            ["aggregate"],
            ["select"],
            ["benchmark"],
        ):
            code = cli_main(cmd + ["--workdir", str(wd), "--seed", "42"])
            assert code == 0, f"{cmd} failed in {wd}"
    elapsed = time.perf_counter() - started
    return dirs, elapsed


def test_criterion_1_aggregation_oracle_equivalence(big_corpus):
    started = time.perf_counter()
    ingest = IngestReport()
    with open(big_corpus.events_path, newline="") as fh:
        matrix = aggregate(read_events(fh, report=ingest), DEFAULT_SPECS)
    elapsed = time.perf_counter() - started

    manifest = json.loads(big_corpus.manifest_path.read_text())
    truth = manifest["true_aggregates"]
    worst = 0.0
    assert len(matrix.rows) == len(truth)
    for row in matrix.rows:
        want = truth[f"{row.session_id}|{row.level_group}"]
        for got, expected in zip(row.values, want):
            if expected is None:
                assert got is None
            else:
                worst = max(worst, abs(got - expected))

    # independent in-memory brute force, one session block at a time
    # (the file is ordered by session, so blocks are contiguous)
    by_key = {(r.session_id, r.level_group): r for r in matrix.rows}
    checked = 0
    with open(big_corpus.events_path, newline="") as fh:
        block: list = []
        sid = None
        for ev in read_events(fh):
            if ev.session_id != sid and block:
                oracle_rows, _ = brute_force_aggregate(block, DEFAULT_SPECS)
                for key, cells in oracle_rows.items():
                    got_row = by_key[key]
                    for name, got in zip(matrix.column_names, got_row.values):
                        want = cells[name]
                        if want is None:
                            assert got is None
                        else:
                            worst = max(worst, abs(got - want))
                    checked += 1
                block = []
            sid = ev.session_id
            block.append(ev)
        if block:
            oracle_rows, _ = brute_force_aggregate(block, DEFAULT_SPECS)
            for key, cells in oracle_rows.items():
                got_row = by_key[key]
                for name, got in zip(matrix.column_names, got_row.values):
                    want = cells[name]
                    if want is None:
                        assert got is None
                    else:
                        worst = max(worst, abs(got - want))
                checked += 1

    # the path `gametrace aggregate` runs: the file is above the shard floor,
    # so on two or more CPUs each pool task aggregates the sessions it owns
    started = time.perf_counter()
    sharded, sharded_ingest = aggregate_file(big_corpus.events_path, DEFAULT_SPECS)
    file_elapsed = time.perf_counter() - started
    same = sharded == matrix and sharded_ingest.events_emitted == ingest.events_emitted

    ok = checked == len(matrix.rows) and worst < 1e-9 and elapsed < 60.0 and same
    report(1, ok, f"{ingest.events_emitted} events, {checked} groups, max|delta|={worst:.2e}, "
                  f"stream+aggregate {elapsed:.1f}s (< 60s); aggregate_file "
                  f"{'matches' if same else 'DIFFERS'} ({file_elapsed:.1f}s)")


def test_criterion_2_compression_property(cli_runs):
    dirs, _ = cli_runs
    payload = json.loads((dirs[0] / "aggregate_report.json").read_text())
    ratio = payload["output_bytes"] / payload["input_bytes"]
    report(2, ratio <= 0.05,
           f"{payload['input_bytes']} -> {payload['output_bytes']} bytes "
           f"(ratio {ratio:.4f} <= 0.05)")


def test_criterion_3_mlp_gradient_check():
    cfg = MlpConfig(hidden_sizes=(4,))
    weights, biases, _ = init_params(cfg, 3, 42)
    model = MlpModel(weights=weights, biases=biases, config=cfg)
    rng = np.random.default_rng(42)
    x = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, size=10)
    gw, gb = mlp_backward(model, x, y)
    analytic = gw + gb
    params = model.weights + model.biases

    h = 1e-5
    worst = 0.0
    for p, g in zip(params, analytic):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = cross_entropy(mlp_forward(model, x), y)
            p[idx] = orig - h
            down = cross_entropy(mlp_forward(model, x), y)
            p[idx] = orig
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(float(g[idx])), 1e-8)
            worst = max(worst, abs(numeric - float(g[idx])) / denom)
    report(3, worst < 1e-4, f"3-4-2 network, max relative error {worst:.2e} (< 1e-4)")


def test_criterion_4_knn_bruteforce_equivalence():
    rng = np.random.default_rng(4242)
    x = rng.normal(size=(200, 6)) + 1.5  # nonzero norms for cosine
    y = rng.integers(0, 2, size=200)
    queries = rng.normal(size=(50, 6)) + 1.5
    mismatches = 0
    for metric in ("euclidean", "manhattan", "cosine"):
        model = knn_fit(x, y, KnnClassifier(k=5, metric=metric))
        got = knn_predict(model, queries).tolist()
        want = knn_oracle(x.tolist(), y.tolist(), queries.tolist(), 5, metric)
        mismatches += sum(1 for a, b in zip(got, want) if a != b)
    self_model = knn_fit(x, y, KnnClassifier(k=1))
    self_acc = float((knn_predict(self_model, x) == y).mean())
    ok = mismatches == 0 and self_acc == 1.0
    report(4, ok, f"200 points x 3 metrics: {mismatches} oracle mismatches; "
                  f"k=1 self-prediction accuracy {self_acc}")


def test_criterion_5_tree_and_forest_correctness():
    rng = np.random.default_rng(5)
    agreements = 0
    nodes = 0
    for trial in range(50):
        n = int(rng.integers(10, 40))
        x = rng.normal(size=(n, 4))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        got = best_split(x, y, TreeConfig(criterion="gini"))
        want = best_split_oracle(x, y, "gini")
        nodes += 1
        if (got is None) == (want is None) and (
            got is None or (got[0] == want[0] and abs(got[1] - want[1]) < 1e-12)
        ):
            agreements += 1

    xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 5)
    xor_y = np.array([0, 1, 1, 0] * 5)
    xor_tree = tree_fit(xor_x, xor_y)
    xor_acc = float((tree_predict(xor_tree, xor_x) == xor_y).mean())

    half = 150
    bl = np.vstack([
        rng.uniform(-2, 2, size=(half, 2)) + [-2.5, 0.0],
        rng.uniform(-2, 2, size=(half, 2)) + [2.5, 0.0],
    ])
    bly = np.array([0] * half + [1] * half)
    order = rng.permutation(2 * half)
    bl, bly = bl[order], bly[order]
    forest = forest_fit(bl[:200], bly[:200], ForestClassifier(trees=100), 42)
    forest_acc = float((forest_predict(forest, bl[200:]) == bly[200:]).mean())

    units = (
        entropy((5, 5)) == 1.0
        and gini((5, 5)) == 0.5
        and entropy((4, 0)) == 0.0
        and gini((7, 0)) == 0.0
    )
    ok = agreements == nodes and xor_acc == 1.0 and forest_acc >= 0.95 and units
    report(5, ok, f"best_split oracle agreement {agreements}/{nodes}; XOR accuracy {xor_acc}; "
                  f"forest blob accuracy {forest_acc:.3f} (>= 0.95); unit impurities exact: {units}")


def test_criterion_6_selection_ground_truth(tmp_path):
    dominant = "room_coor_x_mean"
    weights = tuple(10.0 if name == dominant else 0.05 for name in FEATURE_NAMES)
    cfg = SynthConfig(sessions=60, events_per_session=200,
                      weights=weights, bias=0.0, noise=0.0)
    result = generate(cfg, tmp_path, seed=6)
    with open(result.events_path, newline="") as fh:
        matrix = aggregate(read_events(fh), DEFAULT_SPECS)
    with open(result.labels_path, newline="") as fh:
        labels = read_labels(fh)
    ds, _ = join(matrix, labels)
    x, _ = impute_mean(ds.x, feature_names=ds.feature_names)
    policy = SelectionPolicy(k=5, redundancy_threshold=0.9)
    sel = select(x, ds.feature_names, ds.y, policy)
    first_is_dominant = sel.scores[0].name == dominant and sel.selected[0] == dominant

    kept_idx = [ds.feature_names.index(n) for n in sel.selected]
    max_pair = 0.0
    for i, a in enumerate(kept_idx):
        for b in kept_idx[i + 1:]:
            r = pearson(x[:, a], x[:, b])
            if not math.isnan(r):
                max_pair = max(max_pair, abs(r))

    rng = np.random.default_rng(66)
    mi_floor = 0.0
    affine_worst = 0.0
    for _ in range(1000):
        f = rng.normal(size=40)
        lab = rng.integers(0, 2, size=40)
        mi_floor = min(mi_floor, mutual_information(f, lab, bins=5))
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-5.0, 5.0))
        r0 = pearson(f, rng.normal(size=40))
        # affine invariance on a fresh pair each trial
        g = rng.normal(size=40)
        r1 = pearson(f, g)
        r2 = pearson(a * f + b, g)
        affine_worst = max(affine_worst, abs(r1 - r2))
        _ = r0
    ok = (first_is_dominant and max_pair <= 0.9
          and mi_floor >= -1e-12 and affine_worst < 1e-12)
    report(6, ok, f"dominant '{dominant}' ranked first: {first_is_dominant}; "
                  f"max kept |r|={max_pair:.3f} (<= 0.9); MI floor {mi_floor:.1e} (>= -1e-12); "
                  f"affine deviation {affine_worst:.1e} (< 1e-12) over 1000 trials")


def test_criterion_7_end_to_end_determinism(cli_runs):
    dirs, elapsed = cli_runs
    compared = []
    identical = True
    for name in ("events.csv", "labels.csv", "manifest.json", "features.csv",
                 "features.meta.json", "aggregate_report.json",
                 "selection_report.tsv", "benchmark_report.json"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        compared.append(name)
        if a != b:
            identical = False
    ok = identical and elapsed < 300.0
    report(7, ok, f"{len(compared)} artifacts byte-identical across two seed-42 runs: "
                  f"{identical}; both pipelines took {elapsed:.1f}s (< 300s)")


def test_criterion_8_protocol_fidelity(cli_runs):
    dirs, _ = cli_runs
    payload = json.loads((dirs[0] / "benchmark_report.json").read_text())
    config = payload["config"]
    protocols = {r["model"]: r["protocol"] for r in payload["rows"] if r["source"] == "computed"}
    checks = {
        "knn k=5": config["knn"]["k"] == 5,
        "100 trees": config["forest"]["trees"] == 100,
        "seed 42": config["seed"] == 42,
        "hidden 128": config["mlp"]["hidden_sizes"] == [128],
        "100 epochs": config["mlp"]["epochs"] == 100,
        "lr 0.001": config["mlp"]["learning_rate"] == 0.001,
        "knn 10-fold": config["knn"]["folds"] == 10 and protocols["knn"] == "cv-10",
        "mlp 5-fold": config["mlp"]["folds"] == 5 and protocols["mlp"] == "cv-5",
        "forest 5-fold": config["forest"]["folds"] == 5 and protocols["forest"] == "cv-5",
        "80-20 split": config["split"]["test_fraction"] == 0.2,
        "fingerprint present": bool(payload["config_fingerprint"]),
    }
    failed = [k for k, v in checks.items() if not v]
    report(8, not failed, "fingerprinted protocol: " + (
        "all hyperparameters verified" if not failed else f"missing {failed}"))


def test_criterion_9_learnability_floor(cli_runs):
    dirs, _ = cli_runs
    payload = json.loads((dirs[0] / "benchmark_report.json").read_text())
    baseline = payload["majority_baseline_f1"]
    margins = {
        r["model"]: r["f1"] - baseline
        for r in payload["rows"]
        if r["source"] == "computed"
    }
    ok = all(m >= 0.05 for m in margins.values()) and 0.75 <= baseline <= 0.88
    detail = ", ".join(f"{m}: +{v:.3f}" for m, v in margins.items())
    report(9, ok, f"baseline F1 {baseline:.3f}; margins {detail} (all >= +0.05)")
