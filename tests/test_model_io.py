import json
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gametrace.dataset import fit_preprocessor
from gametrace.errors import ConfigError, ContainerFormatError, DataError
from gametrace.forest import (
    Internal,
    Leaf,
    flatten_trees,
    forest_fit,
    unflatten_trees,
)
from gametrace.mlp import mlp_train
from gametrace.model_io import (
    FORMAT_VERSION,
    MAGIC,
    load_container,
    load_model,
    save_container,
    save_model,
)
from gametrace.settings import MODELS, MlpConfig, TreeConfig


def training_data(seed=0, n=80, d=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (x[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
    return x, y


def test_container_round_trip_bytes(tmp_path):
    path = tmp_path / "c.bin"
    header = {"kind": "demo", "nested": {"b": 2, "a": 1}}
    arrays = {"m": np.arange(6, dtype=np.float64).reshape(2, 3), "v": np.array([1, 2], dtype=np.int64)}
    save_container(path, header, arrays)
    h2, a2 = load_container(path)
    assert h2 == header
    assert np.array_equal(a2["m"], arrays["m"])
    assert a2["v"].dtype == np.int64
    first = path.read_bytes()
    save_container(path, h2, a2)
    assert path.read_bytes() == first


def test_container_rejects_unknown_version(tmp_path):
    path = tmp_path / "c.bin"
    save_container(path, {"kind": "x"}, {})
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", FORMAT_VERSION + 1)
    path.write_bytes(bytes(raw))
    message = rf"^model container version {FORMAT_VERSION + 1} not supported \(expected {FORMAT_VERSION}\)$"
    with pytest.raises(ContainerFormatError, match=message):
        load_container(path)


def test_container_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 16)
    with pytest.raises(ContainerFormatError):
        load_container(path)
    save_container(path, {"kind": "x"}, {"a": np.zeros(4)})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(ContainerFormatError):
        load_container(path)


def test_container_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "c.bin"
    save_container(path, {"kind": "x"}, {})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ContainerFormatError):
        load_container(path)


def test_tree_flatten_unflatten_identity():
    tree = Internal(
        feature=1, threshold=0.5, gain=0.3,
        left=Leaf(0, (5, 1)),
        right=Internal(feature=0, threshold=-1.25, gain=0.1,
                       left=Leaf(1, (0, 4)), right=Leaf(0, (2, 2))),
    )
    arrays = flatten_trees([tree, Leaf(1, (0, 7))])
    back = unflatten_trees(arrays, n_features=2)
    assert back == [tree, Leaf(1, (0, 7))]


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("subsample", ["sqrt", "all"])
@pytest.mark.parametrize("max_depth", [None, 1, 3])
def test_tree_decoder_round_trips_random_forests(criterion, subsample, max_depth):
    x, y = training_data(seed=11, n=60, d=5)
    config = TreeConfig(criterion=criterion, max_depth=max_depth, feature_subsample=subsample)
    trees = forest_fit(x, y, tree_count=6, config=config, seed=3).trees
    arrays = flatten_trees(trees)
    back = unflatten_trees(arrays, n_features=5)
    assert back == trees
    again = flatten_trees(back)
    assert all(again[name].tobytes() == arrays[name].tobytes() for name in arrays)


NODE_ARRAYS = ("tree_kinds", "tree_features", "tree_thresholds", "tree_gains",
               "tree_labels", "tree_count0", "tree_count1")


def _flip_kind(arrays, at):
    kinds = arrays["tree_kinds"]
    kinds[at % kinds.size] = 1 - kinds[at % kinds.size]


def _shift_offset(arrays, at):
    offsets = arrays["tree_offsets"]
    offsets[at % offsets.size] += 1 if at % 2 else -1


def _truncate_one(arrays, at):
    name = NODE_ARRAYS[at % len(NODE_ARRAYS)]
    arrays[name] = arrays[name][:-1]


def _truncate_all(arrays, at):
    for name in NODE_ARRAYS:
        arrays[name] = arrays[name][:-1]


def _feature_out_of_range(arrays, at):
    splits = np.flatnonzero(arrays["tree_kinds"] == 1)
    assume(splits.size > 0)
    arrays["tree_features"][splits[at % splits.size]] = (5, 999, -1, -2)[at % 4]


# A full binary tree has one more leaf than it has splits, so each mutation
# leaves some offset range that is not exactly one preorder tree.
MUTATIONS = [_flip_kind, _shift_offset, _truncate_one, _truncate_all, _feature_out_of_range]


@given(seed=st.integers(0, 40), mutate=st.sampled_from(MUTATIONS), at=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_tree_decoder_rejects_each_mutation(seed, mutate, at):
    x, y = training_data(seed=seed, n=40, d=5)
    arrays = flatten_trees(forest_fit(x, y, tree_count=3, seed=seed).trees)
    mutate(arrays, at)
    with pytest.raises(ContainerFormatError):
        unflatten_trees(arrays, n_features=5)


# Small settings keep the round trip fast; kinds not listed use their defaults.
FAST_SETTINGS = {
    "knn": {"metric": "cosine"},
    "mlp": {"hidden_sizes": (8,), "epochs": 5},
    "forest": {"trees": 10},
}


@pytest.mark.parametrize("kind", list(MODELS))
def test_model_round_trip_predictions(tmp_path, kind):
    x, y = training_data(seed=3)
    classifier = MODELS[kind](**FAST_SETTINGS.get(kind, {}))
    pre = fit_preprocessor(x, ("a", "b", "c", "d"), scale=classifier.scale)
    model = classifier.fit(pre.transform(x), y, seed=4)

    path = tmp_path / f"{kind}.bin"
    save_model(path, kind, model, pre, config_fingerprint="fp42", seed=7)
    loaded = load_model(path)
    assert loaded.kind == kind
    assert loaded.header["config_fingerprint"] == "fp42"
    assert loaded.header["created_by"]["seed"] == 7

    rng = np.random.default_rng(9)
    probes = rng.normal(size=(100, 4))
    want = model.predict(pre.transform(probes))
    got = loaded.predict(probes)
    assert np.array_equal(got, want)

    # load -> save is byte-identical
    first = path.read_bytes()
    save_model(path, kind, loaded.model, loaded.preprocessor, config_fingerprint="fp42", seed=7)
    assert path.read_bytes() == first


@pytest.mark.parametrize("kind", list(MODELS))
def test_model_round_trip_with_one_hot_columns(tmp_path, kind):
    names = ("a", "code", "c", "d")
    x, y = training_data(seed=8)
    rng = np.random.default_rng(10)
    x[:, 1] = rng.integers(0, 4, size=len(x))
    x[::9, 1] = np.nan  # an absent code
    classifier = MODELS[kind](**FAST_SETTINGS.get(kind, {}))
    pre = fit_preprocessor(x, names, ("code",), scale=classifier.scale)
    assert pre.onehot_categories == ((0.0, 1.0, 2.0, 3.0),)
    model = classifier.fit(pre.transform(x), y, seed=4)
    path = tmp_path / f"{kind}.bin"
    save_model(path, kind, model, pre, config_fingerprint="fp", seed=7)
    loaded = load_model(path)

    probes = rng.normal(size=(100, 4))
    probes[:, 1] = rng.integers(0, 4, size=100)
    probes[:10, 1] = 7.0  # a code the model never saw in training
    absent = probes[:10].copy()
    absent[:, 1] = np.nan
    assert np.array_equal(pre.transform(probes[:10]), pre.transform(absent))  # all-zero indicators
    assert np.array_equal(loaded.predict(probes), model.predict(pre.transform(probes)))

    first = path.read_bytes()
    save_model(path, kind, loaded.model, loaded.preprocessor, config_fingerprint="fp", seed=7)
    assert path.read_bytes() == first


def test_mlp_container_preserves_config_and_history(tmp_path):
    x, y = training_data(seed=5)
    pre = fit_preprocessor(x, ("a", "b", "c", "d"), scale=True)
    cfg = MlpConfig(hidden_sizes=(6, 3), epochs=4, learning_rate=0.01,
                    batch_size=16, hidden_activation="relu")
    model = mlp_train(cfg, pre.transform(x), y, 11)
    path = tmp_path / "m.bin"
    save_model(path, "mlp", model, pre)
    loaded = load_model(path)
    assert loaded.model.config == cfg
    assert loaded.model.loss_history == pytest.approx(model.loss_history)


def test_forest_container_preserves_structure(tmp_path):
    x, y = training_data(seed=6)
    pre = fit_preprocessor(x, ("a", "b", "c", "d"), scale=False)
    model = forest_fit(pre.transform(x), y, tree_count=7,
                       config=TreeConfig(criterion="entropy", max_depth=4,
                                         feature_subsample="sqrt"), seed=13)
    path = tmp_path / "f.bin"
    save_model(path, "forest", model, pre)
    loaded = load_model(path)
    assert loaded.model.trees == model.trees
    assert loaded.model.config == model.config
    assert loaded.model.seed == model.seed == 13


def test_unknown_kind_rejected(tmp_path):
    x, y = training_data()
    pre = fit_preprocessor(x, ("a", "b", "c", "d"))
    with pytest.raises(ContainerFormatError):
        save_model(tmp_path / "x.bin", "svm", None, pre)


# A small fit per kind whose settings differ from the defaults.
SMALL_SETTINGS = {
    "knn": {"k": 3, "metric": "cosine"},
    "mlp": {"hidden_sizes": (4, 3), "epochs": 2, "batch_size": 16, "learning_rate": 0.01},
    "forest": {"trees": 2, "max_depth": 3, "criterion": "entropy"},
}


def small_container(tmp_path, kind):
    """A container of a small fit, and the raw rows it was fitted on."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] > 0).astype(np.int64)
    classifier = MODELS[kind](**SMALL_SETTINGS[kind])
    pre = fit_preprocessor(x, ("a", "b", "c"), scale=classifier.scale)
    model = classifier.fit(pre.transform(x), y, 11)
    path = tmp_path / f"{kind}.bin"
    save_model(path, kind, model, pre, config_fingerprint="fp", seed=11)
    return path, x


PINNED_SECTIONS = {
    "knn": '{"k":3,"metric":"cosine"}',
    "mlp": (
        '{"batch_size":16,"epochs":2,"hidden_activation":"logistic","hidden_sizes":[4,3],'
        '"input_dim":3,"layers":3,"learning_rate":0.01,"seed":11}'
    ),
    "forest": (
        '{"criterion":"entropy","feature_subsample":"sqrt","max_depth":3,'
        '"min_samples_split":2,"n_features":3,"seed":11,"tree_count":2}'
    ),
}


@pytest.mark.parametrize("kind", list(MODELS))
def test_container_header_section_is_pinned(tmp_path, kind):
    header, _ = load_container(small_container(tmp_path, kind)[0])
    assert json.dumps(header[kind], sort_keys=True, separators=(",", ":")) == PINNED_SECTIONS[kind]


# Header keys and arrays that earlier containers held and the loader no longer reads.
FORMER_ENTRIES = {
    "mlp": ({"output_dim": 2}, {}),
    "forest": ({"bootstrap": True}, {"tree_seeds": np.array([5, 6], dtype=np.uint64)}),
}


@pytest.mark.parametrize("kind", list(FORMER_ENTRIES))
def test_container_with_former_entries_still_loads(tmp_path, kind):
    path, x = small_container(tmp_path, kind)
    header, arrays = load_container(path)
    keys, extra = FORMER_ENTRIES[kind]
    old = tmp_path / "old.bin"
    save_container(old, {**header, kind: {**header[kind], **keys}}, {**arrays, **extra})
    assert np.array_equal(load_model(old).predict(x), load_model(path).predict(x))


def _meta_spans(raw: bytes) -> list[tuple[int, int]]:
    """Byte ranges of the header block and of every array-meta block,
    each with its length prefix."""
    pos = len(MAGIC) + 4
    (n,) = struct.unpack_from("<Q", raw, pos)
    spans = [(pos, pos + 8 + n)]
    pos += 8 + n
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    for _ in range(count):
        (meta,) = struct.unpack_from("<Q", raw, pos)
        spans.append((pos, pos + 8 + meta))
        (data,) = struct.unpack_from("<Q", raw, pos + 8 + meta)
        pos += 16 + meta + data
    assert pos == len(raw)
    return spans


def _corruptions(raw: bytes):
    """(description, bytes): truncations at sampled offsets, then one flip of
    bit 0x01, 0x10 or 0x80 in every byte of the header and array-meta blocks."""
    for cut in range(0, len(raw), max(1, len(raw) // 64)):
        yield f"cut at {cut}", raw[:cut]
    for start, end in _meta_spans(raw):
        for i in range(start, end):
            for bit in (0x01, 0x10, 0x80):
                flipped = bytearray(raw)
                flipped[i] ^= bit
                yield f"byte {i} ^ {bit:#04x}", bytes(flipped)


@pytest.mark.parametrize("kind", list(MODELS))
def test_corrupted_container_loads_or_raises_a_named_error(tmp_path, kind):
    path, x = small_container(tmp_path, kind)
    bad = tmp_path / "bad.bin"
    unnamed = []
    for what, corrupt in _corruptions(path.read_bytes()):
        bad.write_bytes(corrupt)
        try:
            load_model(bad).predict(x)
        except (DataError, ConfigError):
            pass
        except Exception as exc:
            unnamed.append(f"{what}: {exc!r}")
    assert unnamed == []
