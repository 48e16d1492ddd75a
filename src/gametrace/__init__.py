"""Gameplay event-log feature pipeline and from-scratch classifiers."""

__version__ = "0.1.0"

from .aggregation import AggregatorSpec, FeatureMatrix, StreamingAggregator, aggregate
from .dataset import LabeledDataset, SplitPlan, join, kfold, split_train_test
from .events import LabelRecord, RawEvent, read_events, read_labels
from .evaluation import EvalReport, accuracy, benchmark, cross_validate, f1
from .forest import ForestModel, TreeConfig, forest_fit, forest_predict, tree_fit
from .knn import KnnModel, knn_fit, knn_predict
from .mlp import MlpConfig, MlpModel, mlp_forward, mlp_train
from .selection import SelectionPolicy, mutual_information, pearson, select
from .synth import SynthConfig, generate

__all__ = [
    "AggregatorSpec",
    "EvalReport",
    "FeatureMatrix",
    "ForestModel",
    "KnnModel",
    "LabelRecord",
    "LabeledDataset",
    "MlpConfig",
    "MlpModel",
    "RawEvent",
    "SelectionPolicy",
    "SplitPlan",
    "StreamingAggregator",
    "SynthConfig",
    "TreeConfig",
    "accuracy",
    "aggregate",
    "benchmark",
    "cross_validate",
    "f1",
    "forest_fit",
    "forest_predict",
    "generate",
    "join",
    "kfold",
    "knn_fit",
    "knn_predict",
    "mlp_forward",
    "mlp_train",
    "mutual_information",
    "pearson",
    "read_events",
    "read_labels",
    "select",
    "split_train_test",
    "tree_fit",
]
