"""The settings each stage consumes: one frozen dataclass per config section.

Each section's fields are its schema, and its ``__post_init__`` range-checks
them, so a config is fully checked when it is built. Importing this module
runs no stage module and no numpy: a classifier section runs its model's
module at its first fit, predict or container call, so loading a config
costs no model code, and a command runs only the stages it calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from . import lazy_module
from .errors import ConfigError, ContainerFormatError
from .schema import build, check

forest = lazy_module("forest")
knn = lazy_module("knn")
mlp = lazy_module("mlp")

PROTOCOLS = ("cv", "holdout")


def check_protocol(protocol: str) -> None:
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")


# Question -> level_group convention used by the label join; overridable in
# the run config because the upstream export does not carry the mapping.
DEFAULT_QUESTION_GROUPS: dict[int, str] = {
    **{q: "0-4" for q in range(1, 4)},
    **{q: "5-12" for q in range(4, 14)},
    **{q: "13-22" for q in range(14, 19)},
}


@dataclass(frozen=True)
class SplitPlan:
    """How the holdout splits rows: its test share. Every split keeps each
    session's rows on one side; the seed and the fold count are call
    arguments."""

    test_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")


def check_folds(folds: int) -> None:
    if folds < 2:
        raise ConfigError("folds must be >= 2")


DEFAULT_MANDATORY_DROPS = ("page", "hover_duration", "text_fqid", "text")


def check_mi_params(bins: int) -> None:
    if bins < 2:
        raise ConfigError("mi_bins must be >= 2")


@dataclass(frozen=True)
class SelectionPolicy:
    k: int = 11  # features kept, at most
    redundancy_threshold: float = 0.9
    mandatory_drops: tuple[str, ...] = DEFAULT_MANDATORY_DROPS
    mi_bins: int = 10  # mutual information is in nats

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not 0.0 < self.redundancy_threshold <= 1.0:
            raise ConfigError("redundancy_threshold must be in (0, 1]")
        check_mi_params(self.mi_bins)


FEATURE_NAMES = (
    "room_coor_x_mean",
    "room_coor_y_mean",
    "screen_coor_x_mean",
    "screen_coor_y_mean",
    "elapsed_time_sum",
    "level_mean",
    "music_max",
    "name_nunique",
    "room_fqid_nunique",
    "event_name_nunique",
    "fqid_count",
)

# Weights act on corpus-standardized aggregates; tuned so the default corpus
# lands near a 70/30 class split with a clearly learnable boundary.
DEFAULT_WEIGHTS = (1.17, 0.91, 0.78, 0.65, 1.3, 0.91, 0.78, 1.17, 0.91, 0.78, 1.56)
DEFAULT_BIAS = 2.4
DEFAULT_NOISE = 0.4

DEFAULT_NULL_RATES: dict[str, float] = {
    "page": 0.85,
    "room_coor_x": 0.05,
    "room_coor_y": 0.05,
    "screen_coor_x": 0.05,
    "screen_coor_y": 0.05,
    "hover_duration": 0.9,
    "text": 0.4,
    "fqid": 0.15,
    "room_fqid": 0.02,
    "text_fqid": 0.7,
}


@dataclass(frozen=True)
class SynthConfig:
    sessions: int = 120
    events_per_session: int = 1000
    null_rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_NULL_RATES))
    weights: tuple[float, ...] = DEFAULT_WEIGHTS
    bias: float = DEFAULT_BIAS
    noise: float = DEFAULT_NOISE

    def __post_init__(self):
        if self.sessions < 1:
            raise ConfigError("sessions must be >= 1")
        if self.events_per_session < 46:
            raise ConfigError("events_per_session must be >= 46 (2 per level)")
        if self.noise < 0:
            raise ConfigError("noise must be >= 0")
        if len(self.weights) != len(FEATURE_NAMES):
            raise ConfigError(f"weights must have {len(FEATURE_NAMES)} entries")
        for col, rate in self.null_rates.items():
            if col not in DEFAULT_NULL_RATES:
                raise ConfigError(f"unknown optional column in null_rates: {col!r}")
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"null rate for {col!r} must be in [0, 1)")


METRICS = ("euclidean", "manhattan", "cosine")


def check_knn_params(k: int, metric: str) -> None:
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    if k < 1:
        raise ConfigError("k must be >= 1")


ACTIVATIONS = ("logistic", "relu")


@dataclass(frozen=True)
class MlpConfig:
    hidden_sizes: tuple[int, ...] = (128,)
    epochs: int = 100
    learning_rate: float = 0.001
    batch_size: int = 256
    hidden_activation: str = "logistic"

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("all layer dimensions must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.hidden_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.hidden_activation!r}")

    def layer_dims(self, input_dim: int) -> tuple[int, ...]:
        if input_dim < 1:
            raise ConfigError("the input width must be >= 1")
        return (input_dim, *self.hidden_sizes, 2)  # one softmax output per label


@dataclass(frozen=True)
class TreeConfig:
    criterion: str = "gini"
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    feature_subsample: str = "all"  # "sqrt" for classical forests

    def __post_init__(self):
        if self.criterion not in ("entropy", "gini"):
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1 when set")
        if self.min_samples_split < 2:
            raise ConfigError("min_samples_split must be >= 2")
        if self.feature_subsample not in ("all", "sqrt"):
            raise ConfigError(f"unknown feature_subsample {self.feature_subsample!r}")


def check_tree_count(tree_count: int) -> None:
    if tree_count < 1:
        raise ConfigError("tree_count must be >= 1")


class Classifier:
    """One model kind, listed in ``MODELS``; each is a dataclass whose fields
    are its config section, range-checked when it is built, and ``module``
    its model's lazy module. ``fit(x, y, seed)`` returns a fitted model,
    whose own ``predict(x)`` gives its labels, and ``to_container`` and
    ``from_container`` map one to its container header section and arrays.
    Its ``folds`` field sets how it is evaluated; its ``scale`` constant, not a
    setting, whether its inputs are standardized (KNN and the MLP, not the forest)."""


@dataclass(frozen=True)
class KnnClassifier(Classifier):
    k: int = 5
    metric: str = "euclidean"
    folds: int = 10
    scale = True

    def __post_init__(self):
        check_knn_params(self.k, self.metric)
        check_folds(self.folds)

    def fit(self, x, y, seed: int) -> knn.KnnModel:
        return knn.knn_fit(x, y, k=self.k, metric=self.metric)

    @staticmethod
    def to_container(model: knn.KnnModel) -> tuple[dict, dict]:
        return {"k": model.k, "metric": model.metric}, {"knn_x": model.x, "knn_y": model.y}

    @staticmethod
    def from_container(section: dict, arrays: dict) -> knn.KnnModel:
        params = build(KnnClassifier, {"k": section["k"], "metric": section["metric"]}, "knn")
        model = knn.knn_fit(arrays["knn_x"], arrays["knn_y"], k=params.k, metric=params.metric)
        if not ((model.y == 0) | (model.y == 1)).all():
            raise ContainerFormatError("knn labels must be 0 or 1")
        return model


@dataclass(frozen=True)
class MlpClassifier(MlpConfig, Classifier):
    """The MLP settings, plus how the MLP is evaluated."""

    folds: int = 5
    scale = True

    def __post_init__(self):
        super().__post_init__()
        check_folds(self.folds)

    def fit(self, x, y, seed: int) -> mlp.MlpModel:
        return mlp.mlp_train(self, x, y, seed)

    @staticmethod
    def to_container(model: mlp.MlpModel) -> tuple[dict, dict]:
        import numpy as np  # loaded with the model's module

        arrays = {"mlp_loss_history": np.asarray(model.loss_history, dtype=np.float64)}
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            arrays[f"mlp_w{i}"] = w
            arrays[f"mlp_b{i}"] = b
        section = {f.name: getattr(model.config, f.name) for f in fields(MlpConfig)}
        section.update(input_dim=model.input_dim, seed=model.seed, layers=len(model.weights))
        return section, arrays

    @staticmethod
    def from_container(section: dict, arrays: dict) -> mlp.MlpModel:
        import numpy as np  # loaded with the model's module

        config = build(MlpConfig, {f.name: section[f.name] for f in fields(MlpConfig)}, "mlp")
        names = ("input_dim", "seed", "layers")
        input_dim, seed, layers = (check(section[n], int, f"mlp.{n}") for n in names)
        weights = [arrays[f"mlp_w{i}"] for i in range(layers)]
        biases = [arrays[f"mlp_b{i}"] for i in range(layers)]
        dims = config.layer_dims(input_dim)
        if len(weights) != len(dims) - 1 or any(
            w.shape != dims[i : i + 2] or b.shape != dims[i + 1 : i + 2]
            for i, (w, b) in enumerate(zip(weights, biases))
        ):
            raise ContainerFormatError(f"mlp weights do not match the layer sizes {dims}")
        history = arrays["mlp_loss_history"]
        if history.shape != (config.epochs,):
            raise ContainerFormatError(f"mlp loss history has shape {history.shape}, not ({config.epochs},)")
        if not all(np.isfinite(a).all() for a in (*weights, *biases, history)):
            raise ContainerFormatError("mlp weights, biases and loss history must be finite")
        return mlp.MlpModel(weights, biases, config, seed, list(history))


@dataclass(frozen=True)
class ForestClassifier(TreeConfig, Classifier):
    """The tree settings, plus the forest's size and how it is evaluated."""

    feature_subsample: str = "sqrt"  # a forest's default; a lone tree's is "all"
    trees: int = 100
    folds: int = 5
    scale = False  # a tree does not depend on a monotone rescaling of a column

    def __post_init__(self):
        super().__post_init__()
        check_tree_count(self.trees)
        check_folds(self.folds)

    def fit(self, x, y, seed: int) -> forest.ForestModel:
        return forest.forest_fit(x, y, tree_count=self.trees, config=self, seed=seed)

    @staticmethod
    def to_container(model: forest.ForestModel) -> tuple[dict, dict]:
        section = {f.name: getattr(model.config, f.name) for f in fields(TreeConfig)}
        section.update(seed=model.seed, tree_count=len(model.trees), n_features=model.n_features)
        return section, forest.flatten_trees(model.trees)

    @staticmethod
    def from_container(section: dict, arrays: dict) -> forest.ForestModel:
        config = build(TreeConfig, {f.name: section[f.name] for f in fields(TreeConfig)}, "forest")
        names = ("seed", "tree_count", "n_features")
        seed, tree_count, n_features = (check(section[n], int, f"forest.{n}") for n in names)
        check_tree_count(tree_count)
        trees = forest.unflatten_trees(arrays, n_features)
        if len(trees) != tree_count:
            raise ContainerFormatError(f"forest holds {len(trees)} trees, header says {tree_count}")
        return forest.ForestModel(trees=trees, config=config, seed=seed, n_features=n_features)


# The registry: the only list of model kinds, in benchmark order.
MODELS: dict[str, type[Classifier]] = {
    "knn": KnnClassifier,
    "mlp": MlpClassifier,
    "forest": ForestClassifier,
}
# Set here, not in the class bodies: @dataclass looks at every class
# attribute, and that would run a lazy module as its class is built.
KnnClassifier.module, MlpClassifier.module, ForestClassifier.module = knn, mlp, forest
