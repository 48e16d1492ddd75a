"""Run configuration: one structured file, flag overrides, and a fingerprint.

Defaults are the production protocol: KNN k=5 on 10 folds, forest of 100
trees at seed 42 and MLP (one hidden layer of 128, 100 epochs, Adam at
0.001) on 5 folds each, 80-20 holdout split. Each section is the dataclass
its stage consumes, declared in ``settings`` so that loading a config runs
no stage, and the fields are the schema: ``load_config`` checks
every value against its field's annotation and each section's own range
checks, all before any input is read. The fingerprint is a SHA-256 over
the canonical JSON of every field except the filesystem paths, so reruns
elsewhere compare equal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .aggregation import DEFAULT_SPECS, AggregatorSpec, validate_specs
from .errors import ConfigError
from .schema import build
from .settings import (
    PROTOCOLS,
    ForestClassifier,
    KnnClassifier,
    MlpClassifier,
    SelectionPolicy,
    SplitPlan,
    SynthConfig,
)

_PATH = {"path": True}  # field metadata: resolved at run time, never fingerprinted


@dataclass
class RunConfig:
    workdir: str = field(default=".", metadata=_PATH)
    events_path: str = field(default="", metadata=_PATH)
    labels_path: str = field(default="", metadata=_PATH)

    seed: int = 42
    protocol: str = "cv"  # or "holdout"
    aggregator_specs: tuple[AggregatorSpec, ...] = DEFAULT_SPECS
    split: SplitPlan = field(default_factory=SplitPlan)
    selection: SelectionPolicy = field(default_factory=SelectionPolicy)
    # one section per kind in settings.MODELS, named by the kind
    knn: KnnClassifier = field(default_factory=KnnClassifier)
    mlp: MlpClassifier = field(default_factory=MlpClassifier)
    forest: ForestClassifier = field(default_factory=ForestClassifier)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def fingerprint_payload(self) -> dict:
        """Everything that can change computed results: every field but the paths."""
        paths = {f.name for f in fields(self) if f.metadata.get("path")}
        return {name: value for name, value in asdict(self).items() if name not in paths}

    def fingerprint(self) -> str:
        canon = json.dumps(self.fingerprint_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _check_ranges(cfg: RunConfig) -> None:
    """The checks that span sections; each section checked its own values."""
    if cfg.seed < 0:
        raise ConfigError("config.seed must be >= 0")
    validate_specs(cfg.aggregator_specs)
    if cfg.protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {cfg.protocol!r}")


def load_config(path: Optional[Path] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Build a RunConfig from defaults, then a file, then explicit overrides."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"cannot read config file: {exc}") from None
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if overrides:
        data = _merge(data, overrides)
    cfg = build(RunConfig, data, "config")
    _check_ranges(cfg)
    return cfg


def _merge(base: dict, extra: dict) -> dict:
    """``extra`` laid over ``base``; a section that is not an object in
    ``base`` is kept as it is, so its type check still fails."""
    out = dict(base)
    for key, value in extra.items():
        if not isinstance(value, dict) or key not in out:
            out[key] = value
        elif isinstance(out[key], dict):
            out[key] = _merge(out[key], value)
    return out
