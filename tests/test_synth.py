import hashlib
import json
import multiprocessing
import os

import pytest

from gametrace import pool, synth
from gametrace.aggregation import DEFAULT_SPECS, aggregate
from gametrace.dataset import join, split_train_test, SplitPlan, fit_preprocessor
from gametrace.errors import ConfigError
from gametrace.events import IngestReport, read_events, read_labels
from gametrace.forest import forest_fit, forest_predict
from gametrace.synth import FEATURE_NAMES, SynthConfig, generate


def read_corpus(result):
    report = IngestReport()
    with open(result.events_path, newline="") as fh:
        events = list(read_events(fh, report=report))
    with open(result.labels_path, newline="") as fh:
        labels = read_labels(fh)
    manifest = json.loads(result.manifest_path.read_text())
    return events, labels, manifest, report


def test_single_session_emits_18_labels(tmp_path):
    cfg = SynthConfig(sessions=1, events_per_session=80)
    result = generate(cfg, tmp_path, seed=3)
    _, labels, _, _ = read_corpus(result)
    assert len(labels) == 18
    assert result.labels_written == 18


def test_generated_events_reingest_with_zero_errors(small_corpus):
    _, result = small_corpus
    events, _, manifest, report = read_corpus(result)
    assert report.rows_skipped == 0
    assert not report.cell_errors
    assert report.consistency_violations == 0
    assert len(events) == manifest["events_written"]


def test_every_session_covers_all_levels_and_groups(small_corpus):
    _, result = small_corpus
    events, _, _, _ = read_corpus(result)
    by_session = {}
    for ev in events:
        by_session.setdefault(ev.session_id, set()).add(ev.level)
    for levels in by_session.values():
        assert levels == set(range(23))


def test_sessions_are_monotone_in_index_and_time(small_corpus):
    _, result = small_corpus
    events, _, _, _ = read_corpus(result)
    by_session = {}
    for ev in events:
        by_session.setdefault(ev.session_id, []).append(ev)
    for sid, evs in by_session.items():
        for prev, ev in zip(evs, evs[1:]):
            assert ev.index >= prev.index and ev.elapsed_time >= prev.elapsed_time, sid


def test_same_seed_byte_identical_outputs(tmp_path):
    cfg = SynthConfig(sessions=4, events_per_session=60)
    r1 = generate(cfg, tmp_path / "a", seed=11)
    r2 = generate(cfg, tmp_path / "b", seed=11)
    assert r1.events_path.read_bytes() == r2.events_path.read_bytes()
    assert r1.labels_path.read_bytes() == r2.labels_path.read_bytes()
    assert r1.manifest_path.read_bytes() == r2.manifest_path.read_bytes()


def test_manifest_records_the_seed_given_to_generate(tmp_path):
    result = generate(SynthConfig(sessions=1, events_per_session=60), tmp_path, seed=5)
    assert json.loads(result.manifest_path.read_text())["config"]["seed"] == 5


def test_different_seed_differs(tmp_path):
    r1 = generate(SynthConfig(sessions=2, events_per_session=60), tmp_path / "a", seed=1)
    r2 = generate(SynthConfig(sessions=2, events_per_session=60), tmp_path / "b", seed=2)
    assert r1.events_path.read_bytes() != r2.events_path.read_bytes()


def test_streaming_aggregate_matches_manifest_truth(small_corpus):
    _, result = small_corpus
    events, _, manifest, _ = read_corpus(result)
    matrix = aggregate(events, DEFAULT_SPECS)
    truth = manifest["true_aggregates"]
    assert list(matrix.column_names) == manifest["feature_names"]
    assert len(matrix.rows) == len(truth)
    for row in matrix.rows:
        want = truth[f"{row.session_id}|{row.level_group}"]
        for name, got, expected in zip(matrix.column_names, row.values, want):
            if expected is None:
                assert got is None, name
            else:
                assert got == pytest.approx(expected, abs=1e-9), name


def test_manifest_records_draws_and_balance(small_corpus):
    cfg, result = small_corpus
    _, labels, manifest, _ = read_corpus(result)
    draws = manifest["label_draws"]
    assert len(draws) == len(labels) == cfg.sessions * 18
    by_key = {(d["session_id"], d["question"]): d for d in draws}
    for lab in labels:
        d = by_key[(lab.session_id, lab.question)]
        assert d["correct"] == lab.correct
        assert 0.0 <= d["p"] <= 1.0
    balance = manifest["class_balance"]
    assert balance["positive"] + balance["negative"] == len(labels)
    assert balance["positive"] == sum(1 for lab in labels if lab.correct)


def test_null_rates_match_manifest_draws_and_config(tmp_path):
    cfg = SynthConfig(sessions=1, events_per_session=500)
    result = generate(cfg, tmp_path, seed=3)
    events, _, manifest, _ = read_corpus(result)
    configured = manifest["config"]["null_rates"]
    for col, stats in manifest["null_draws"].items():
        realized = stats["absent"] / stats["total"]
        missing = sum(getattr(ev, col) is None for ev in events) / len(events)
        assert missing == pytest.approx(realized, abs=1e-12)
        assert abs(realized - configured[col]) <= 0.02, col


def test_null_rate_zero_means_no_absent_cells(tmp_path):
    rates = {"page": 0.0}
    cfg = SynthConfig(sessions=2, events_per_session=60, null_rates=rates)
    result = generate(cfg, tmp_path, seed=9)
    events, _, _, _ = read_corpus(result)
    assert all(ev.page is not None for ev in events)


def test_noise_zero_extreme_weights_gives_learnable_labels(tmp_path):
    weights = tuple(200.0 if name == "fqid_count" else 0.0 for name in FEATURE_NAMES)
    cfg = SynthConfig(sessions=40, events_per_session=120,
                      weights=weights, bias=0.0, noise=0.0)
    result = generate(cfg, tmp_path, seed=13)
    events, labels, manifest, _ = read_corpus(result)

    # deterministic given aggregates: regenerating reproduces every label
    again = generate(cfg, tmp_path / "again", seed=13)
    assert again.labels_path.read_bytes() == result.labels_path.read_bytes()
    # and with the extreme weight nearly all probabilities saturate
    extreme = sum(1 for d in manifest["label_draws"] if d["p"] < 1e-3 or d["p"] > 1 - 1e-3)
    assert extreme / len(manifest["label_draws"]) >= 0.9

    matrix = aggregate(events, DEFAULT_SPECS)
    ds, _ = join(matrix, labels)
    train, test = split_train_test(ds, SplitPlan(grouping="by_session"), 1)
    pre = fit_preprocessor(train.x, train.feature_names, scale=False)
    model = forest_fit(pre.transform(train.x), train.y, tree_count=50, seed=42)
    acc = float((forest_predict(model, pre.transform(test.x)) == test.y).mean())
    assert acc >= 0.95


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(sessions=0)
    with pytest.raises(ConfigError):
        SynthConfig(events_per_session=10)
    with pytest.raises(ConfigError):
        SynthConfig(noise=-1.0)
    with pytest.raises(ConfigError):
        SynthConfig(weights=(1.0, 2.0))
    with pytest.raises(ConfigError):
        SynthConfig(null_rates={"nonexistent": 0.5})
    with pytest.raises(ConfigError):
        SynthConfig(null_rates={"page": 1.0})


def test_class_balance_near_seventy_thirty(small_corpus):
    cfg, result = small_corpus
    _, labels, _, _ = read_corpus(result)
    pos = sum(1 for lab in labels if lab.correct) / len(labels)
    assert 0.6 <= pos <= 0.8


# sha256 of the small_corpus files (12 sessions x 120 events, seed 7). Any
# change to them is a corpus change, to be named as one.
SMALL_CORPUS_SHA256 = {
    "events.csv": "b51fa494a98feedc43d8e503b99f06f77fbf29c80d2e2ec98564db1b04c7f688",
    "labels.csv": "b3c773623c10f321707e7712e011c303b1d7505d11f2a92a2ada13c4ae429057",
    "manifest.json": "1019fce783019811682dc29aa7d458e2601dcebec9580e95e9a59081bb1cd078",
}


def corpus_sha256(result) -> dict:
    paths = (result.events_path, result.labels_path, result.manifest_path)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_small_corpus_bytes_are_pinned(small_corpus):
    _, result = small_corpus
    assert corpus_sha256(result) == SMALL_CORPUS_SHA256


# The pool needs the fork start method. The tests force the worker count,
# so the pool runs even on a one-CPU machine.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


def corpus_bytes(result) -> tuple[bytes, bytes, bytes]:
    return tuple(p.read_bytes() for p in (result.events_path, result.labels_path, result.manifest_path))


def generate_with(monkeypatch, cpus, cfg, outdir, seed):
    monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
    return generate(cfg, outdir, seed=seed)


POOL_CASES = {
    "one session": SynthConfig(sessions=1, events_per_session=60),
    "partial last block": SynthConfig(sessions=2 * synth._BLOCK + 3, events_per_session=50),
    "no absent cells": SynthConfig(sessions=synth._BLOCK + 1, events_per_session=50,
                                   null_rates={col: 0.0 for col in synth.DEFAULT_NULL_RATES}),
}


@needs_fork
@pytest.mark.parametrize("case", list(POOL_CASES))
def test_pool_writes_the_same_bytes_as_one_cpu(monkeypatch, tmp_path, case):
    cfg = POOL_CASES[case]
    pooled = generate_with(monkeypatch, 3, cfg, tmp_path / "pool", 21)
    serial = generate_with(monkeypatch, 1, cfg, tmp_path / "serial", 21)
    assert corpus_bytes(pooled) == corpus_bytes(serial)
    assert pooled.events_written == serial.events_written


TEST_PROCESS = os.getpid()


def failing_sessions(only_in_workers):
    real = synth._session_rows

    def session_rows(*args):
        if not only_in_workers or os.getpid() != TEST_PROCESS:
            raise ValueError("session draw failed")
        return real(*args)

    return session_rows


@needs_fork
def test_blocks_failing_in_workers_are_generated_by_the_parent(monkeypatch, tmp_path):
    cfg = SynthConfig(sessions=2 * synth._BLOCK + 1, events_per_session=50)
    serial = generate_with(monkeypatch, 1, cfg, tmp_path / "serial", 4)
    monkeypatch.setattr(synth, "_session_rows", failing_sessions(only_in_workers=True))
    pooled = generate_with(monkeypatch, 2, cfg, tmp_path / "pool", 4)
    assert corpus_bytes(pooled) == corpus_bytes(serial)


@needs_fork
def test_a_failure_everywhere_raises_as_in_a_serial_run(monkeypatch, tmp_path):
    cfg = SynthConfig(sessions=2 * synth._BLOCK, events_per_session=50)
    monkeypatch.setattr(synth, "_session_rows", failing_sessions(only_in_workers=False))
    failures = []
    for cpus in (2, 1):
        with pytest.raises(Exception) as info:
            generate_with(monkeypatch, cpus, cfg, tmp_path / str(cpus), 4)
        failures.append((type(info.value), str(info.value)))
    assert failures[0] == failures[1] == (ValueError, "session draw failed")
