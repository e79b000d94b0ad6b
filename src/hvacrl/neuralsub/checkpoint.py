"""Single-file weight checkpoints.

Layout: 8-byte magic "HVCK0001", little-endian u32 header length, header
JSON (utf-8), then the concatenated float32 little-endian tensor payloads.
The header records name/shape/offset/crc32 per tensor plus the config
fingerprint and seed record of the run that produced it, so a checkpoint
can refuse to load into a mismatched setup.
"""
from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import DataError, FingerprintMismatchError
from ..fingerprint import canonical_json

MAGIC = b"HVCK0001"


def save_checkpoint(path, arrays: dict[str, np.ndarray],
                    config_fingerprint: str, seed_record: dict,
                    meta: dict | None = None) -> None:
    path = Path(path)
    entries = []
    payloads = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        raw = arr.tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
            "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
        })
        payloads.append(raw)
        offset += len(raw)
    header = {
        "format": MAGIC.decode(),
        "config_fingerprint": config_fingerprint,
        "seed_record": seed_record,
        "meta": meta or {},
        "tensors": entries,
    }
    blob = canonical_json(header).encode()
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for raw in payloads:
            f.write(raw)
    tmp.replace(path)


def _read_header(path) -> tuple[dict, int]:
    """The header and the file offset where the tensor payloads start."""
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        raw = f.read(4)
        if len(raw) < 4:
            raise DataError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", raw)
        blob = f.read(hlen)
        if len(blob) != hlen:
            raise DataError(f"{path}: truncated header")
        return json.loads(blob), 12 + hlen


def read_header(path) -> dict:
    return _read_header(path)[0]


def load_checkpoint(path, expect_fingerprint: str | None = None
                    ) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    header, base = _read_header(path)
    if expect_fingerprint is not None:
        got = header.get("config_fingerprint")
        if got != expect_fingerprint:
            raise FingerprintMismatchError(
                f"{path}: checkpoint built for config {got}, "
                f"expected {expect_fingerprint}")
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        for entry in header["tensors"]:
            f.seek(base + entry["offset"])
            raw = f.read(entry["nbytes"])
            if len(raw) != entry["nbytes"]:
                raise DataError(f"{path}: truncated payload for {entry['name']}")
            if (zlib.crc32(raw) & 0xFFFFFFFF) != entry["crc32"]:
                raise DataError(f"{path}: crc mismatch for {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(raw, dtype="<f4").reshape(
                entry["shape"]).astype(np.float32)
    return arrays, header
