"""Canonical JSON serialization, stable content fingerprints, and the
type check applied to JSON values read from outside the program.

Every artifact (config, checkpoint, dataset, result file) embeds a
fingerprint so that runs can be matched to the exact configuration that
produced them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np


def to_jsonable(obj):
    """Recursively convert dataclasses / numpy values / paths to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def has_type(value, kind) -> bool:
    """Whether ``value`` is of type ``kind``, or, for ``kind = [item_type]``,
    a list, tuple or 1-D array of such items. A bool is neither an int nor
    a float, and an int is also a float."""
    if isinstance(kind, list):
        return (isinstance(value, (list, tuple))
                or isinstance(value, np.ndarray) and value.ndim == 1) \
            and all(has_type(item, kind[0]) for item in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float, np.integer, np.floating))
    if kind is int:
        return isinstance(value, (int, np.integer))
    return isinstance(value, kind)


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, no NaN."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def fingerprint(obj, length: int = 12) -> str:
    """Short stable hash of an object's canonical JSON form."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    return digest[:length]
