"""Canonical JSON serialization, stable content fingerprints, and the
type and field checks applied to JSON values read from outside the program.

Every artifact (config, checkpoint, dataset, result file) embeds a
fingerprint so that runs can be matched to the exact configuration that
produced them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
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
    """Whether ``value`` is of kind ``kind``: a type; ``[item_kind]``, a
    list, tuple or 1-D array of such items; or a nested table, an object
    of exactly its fields. A bool is neither an int nor a float, an int is
    also a float, an int outside int64 is neither, and a float is finite."""
    if isinstance(kind, dict):
        return isinstance(value, dict) and not bad_fields(value, kind,
                                                          closed=True)
    if isinstance(kind, list):
        return (isinstance(value, (list, tuple))
                or isinstance(value, np.ndarray) and value.ndim == 1) \
            and all(has_type(item, kind[0]) for item in value)
    if isinstance(value, bool):
        return kind is bool
    if isinstance(value, (int, np.integer)) and kind in (int, float):
        return -2**63 <= value < 2**63
    if kind is float:   # JSON has no NaN or infinity; Python's parser does
        return isinstance(value, (float, np.floating)) and math.isfinite(value)
    return isinstance(value, kind)


def bad_fields(doc, table: dict, *, optional=False, closed=False) -> list:
    """The keys of ``table`` (key -> `has_type` kind) that object ``doc``
    lacks (unless ``optional``) or mistypes, then, if ``closed``, the keys
    it has that the table lacks. An object, or list of objects, of a nested
    table names its own bad fields instead (``seeds.0.report.steps``). A
    non-object ``doc`` lacks every key."""
    if not isinstance(doc, dict):
        return list(table)
    bad = []
    for key, kind in table.items():
        value = doc.get(key)
        if isinstance(kind, dict) and isinstance(value, dict):
            bad += [f"{key}.{k}" for k in bad_fields(value, kind, closed=True)]
        elif isinstance(kind, list) and isinstance(kind[0], dict) \
                and isinstance(value, list):
            bad += [f"{key}.{i}.{k}" for i, item in enumerate(value)
                    for k in bad_fields(item, kind[0], closed=True)]
        elif not has_type(value, kind) if key in doc else not optional:
            bad.append(key)
    return bad + sorted(set(doc) - set(table)) if closed else bad


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, no NaN."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def fingerprint(obj, length: int = 12) -> str:
    """Short stable hash of an object's canonical JSON form."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    return digest[:length]
