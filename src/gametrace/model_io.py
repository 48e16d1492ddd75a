"""Versioned on-disk container for trained models plus their preprocessing.

Layout: magic, u32 format version, length-prefixed canonical-JSON header,
then length-prefixed named arrays (raw little-endian bytes). Everything is
content-determined, so saving the same model twice yields identical bytes
and load-then-save round-trips exactly. Unknown versions are rejected,
and a container that does not decode, or whose values fail the same checks
a trained model passes, raises ContainerFormatError. Each kind's header
section and arrays come from its entry in ``settings.MODELS``.
"""

from __future__ import annotations

import io
import json
import re
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset import Preprocessor
from .errors import ConfigError, ContainerFormatError, DataError
from .schema import build, check
from .settings import MODELS

MAGIC = b"GTMODEL\x00"
FORMAT_VERSION = 1
_DTYPE = re.compile(r"[<>|=][biuf][0-9]+")


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_block(sink, payload: bytes) -> None:
    sink.write(struct.pack("<Q", len(payload)))
    sink.write(payload)


def _read_exact(src, n: int) -> bytes:
    data = src.read(n)
    if len(data) != n:
        raise ContainerFormatError("truncated container")
    return data


def _read_block(src) -> bytes:
    (n,) = struct.unpack("<Q", _read_exact(src, 8))
    return _read_exact(src, n)


def save_container(path: Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as sink:
        sink.write(MAGIC)
        sink.write(struct.pack("<I", FORMAT_VERSION))
        _write_block(sink, _canonical_json(header))
        sink.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            meta = {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
            _write_block(sink, _canonical_json(meta))
            _write_block(sink, arr.tobytes())


def load_container(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    # Read whole, so a corrupt block length cannot ask for more than the file.
    src = io.BytesIO(Path(path).read_bytes())
    if _read_exact(src, len(MAGIC)) != MAGIC:
        raise ContainerFormatError(f"not a model container: {path}")
    (version,) = struct.unpack("<I", _read_exact(src, 4))
    if version != FORMAT_VERSION:
        raise ContainerFormatError(
            f"model container version {version} not supported (expected {FORMAT_VERSION})"
        )
    try:
        header = json.loads(_read_block(src))
        (count,) = struct.unpack("<I", _read_exact(src, 4))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            meta = json.loads(_read_block(src))
            raw = _read_block(src)
            # only the byte-order, kind and size strings save_container writes
            if not _DTYPE.fullmatch(meta["dtype"]) or min(meta["shape"], default=0) < 0:
                raise ValueError(f"array {meta['name']!r} is {meta['dtype']} of shape {meta['shape']}")
            dtype, shape = np.dtype(meta["dtype"]), meta["shape"]
            arrays[meta["name"]] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ContainerFormatError(f"malformed container {path}: {exc!r}") from None
    if src.read(1):
        raise ContainerFormatError("trailing bytes after container payload")
    return header, arrays


# The preprocessor's array fields, stored as ``pre_<field>``; its other
# fields, plus ``scaled``, are the header's ``preprocessor`` section.
_PRE_ARRAYS = ("means", "scaler_mean", "scaler_std")


# --- public save/load -----------------------------------------------------


@dataclass
class LoadedModel:
    kind: str
    model: object
    preprocessor: Preprocessor
    header: dict

    def predict(self, raw_x: np.ndarray) -> np.ndarray:
        return self.model.predict(self.preprocessor.transform(raw_x))


def save_model(
    path: Path,
    kind: str,
    model,
    preprocessor: Preprocessor,
    config_fingerprint: str = "",
    seed: Optional[int] = None,
) -> None:
    """Persist a trained model with everything needed to apply it."""
    if kind not in MODELS:
        raise ContainerFormatError(f"unknown model kind {kind!r}")
    section, model_arrays = MODELS[kind].to_container(model)
    pre = {f.name: getattr(preprocessor, f.name) for f in fields(Preprocessor)}
    arrays = {f"pre_{name}": v for name in _PRE_ARRAYS if (v := pre.pop(name)) is not None}
    header: dict = {
        "kind": kind,
        "feature_names": list(preprocessor.input_names),
        "config_fingerprint": config_fingerprint,
        "preprocessor": {**pre, "scaled": preprocessor.scaler_std is not None},
        # deterministic creation metadata: identical inputs => identical bytes
        "created_by": {"tool": "gametrace", "container_version": FORMAT_VERSION, "seed": seed},
        kind: section,
    }
    save_container(path, header, {**arrays, **model_arrays})


def load_model(path: Path) -> LoadedModel:
    header, arrays = load_container(path)
    kind = header.get("kind") if isinstance(header, dict) else None
    if not isinstance(kind, str) or kind not in MODELS:
        raise ContainerFormatError(f"unknown model kind {kind!r}")
    for name in ("preprocessor", kind):
        if not isinstance(header.get(name, {}), dict):
            raise ContainerFormatError(f"container section {name!r} is not an object: {path}")
    try:
        section = dict(header["preprocessor"])
        scaled = check(section.pop("scaled"), bool, "preprocessor.scaled")
        for name in _PRE_ARRAYS if scaled else ("means",):
            section[name] = arrays[f"pre_{name}"]
        pre = build(Preprocessor, section, "preprocessor")
        model = MODELS[kind].from_container(header[kind], arrays)
    except KeyError as exc:  # a header section or an array the kind needs
        raise ContainerFormatError(f"container is missing {exc.args[0]!r}: {path}") from None
    except (ConfigError, DataError) as exc:  # values the model's own checks reject
        raise ContainerFormatError(f"{path}: {exc}") from None
    return LoadedModel(kind=kind, model=model, preprocessor=pre, header=header)
