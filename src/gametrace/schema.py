"""JSON values checked against type annotations.

One checker for every JSON document the pipeline reads: the run config,
the model container header and the feature matrix sidecar. A value that
does not match its field's annotation raises ConfigError naming where it
sits; lists become tuples where the annotation says so. A dataclass whose
``__post_init__`` range-checks its values is checked in the same pass.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

from .errors import ConfigError


def _type_name(tp) -> str:
    if is_dataclass(tp):
        return "an object"
    return tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")


def check(value, tp, where: str):
    """``value`` checked against annotation ``tp``; containers are rebuilt."""
    origin = get_origin(tp)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
        return check(value, tp, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        item = get_args(tp)[0]
        return tuple(check(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        key_tp, value_tp = get_args(tp)
        return {
            check(k, key_tp, f"{where} key"): check(v, value_tp, f"{where}.{k}") for k, v in value.items()
        }
    if is_dataclass(tp) and isinstance(value, dict):
        return build(tp, value, where)
    if isinstance(value, bool):
        ok = tp is bool
    elif tp is float:
        ok = isinstance(value, (int, float))  # an int is kept as given
    else:
        ok = origin is None and isinstance(value, tp)
    if not ok:
        raise ConfigError(f"{where} must be {_type_name(tp)}, got {value!r}")
    return value


def build(cls, data: dict, where: str):
    """An instance of dataclass ``cls`` from ``data``, defaults filling the rest;
    a ConfigError from the dataclass's own checks is re-raised naming ``where``."""
    hints = get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} is missing {f.name!r}")
    values = {k: check(v, hints[k], f"{where}.{k}") for k, v in data.items()}
    try:
        return cls(**values)
    except ConfigError as exc:  # the dataclass's own range checks
        raise ConfigError(f"{where}: {exc}") from None
