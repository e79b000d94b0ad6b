"""The single-file array container behind checkpoints and datasets, and the
one atomic file writer every artifact goes through.

Layout (magic ``HVCK0002`` for checkpoints, ``HVDS0001`` for datasets):

* 8-byte magic naming the format;
* little-endian u32 length of the header;
* the header, canonical JSON (utf-8): the format's own fields plus
  ``columns``, one entry per array with its name, dtype, shape, nbytes,
  crc32 and offset from the end of the header;
* per array, in header order: its little-endian payload, then the same
  CRC32 again as a little-endian u32 trailer.

Readers find the payloads at ``12 + header length`` as stored in the file,
never by re-serialising the header, so a re-spaced header still reads.
Each payload is checked against both CRC copies, which lets `verify` stream
the file in fixed-size blocks and lets `read` load any subset of arrays.
"""
from __future__ import annotations

import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError
from .fingerprint import canonical_json

CHUNK_BYTES = 1 << 20   # streaming verification block size
# the dtype names `write` can record: booleans, integers and floats
_DTYPES = frozenset(str(np.dtype(c)) for c in
                   "?" + np.typecodes["AllInteger"] + np.typecodes["Float"])


def atomic_write(path, chunks) -> None:
    """Write the byte ``chunks`` to ``path`` through a temp file and rename.

    The temp name carries the process id, so concurrent writers sharing a
    directory never write into each other's temp file; readers only ever
    see a complete old or new file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write(path, magic: bytes, header: dict, arrays) -> None:
    """Store ``(name, array)`` pairs, in the given order, under ``header``."""
    entries, payloads, offset = [], [], 0
    for name, arr in arrays:
        arr = np.asarray(arr)
        arr = np.asarray(arr, arr.dtype.newbyteorder("<"), order="C")
        entries.append({"name": name, "dtype": str(arr.dtype),
                        "shape": list(arr.shape), "offset": offset,
                        "nbytes": arr.nbytes, "crc32": zlib.crc32(arr.data)})
        payloads.append(arr.data)
        offset += arr.nbytes + 4
    blob = canonical_json(dict(header, columns=entries)).encode()

    def chunks():
        yield magic + len(blob).to_bytes(4, "little") + blob
        for payload, entry in zip(payloads, entries):
            yield payload
            yield entry["crc32"].to_bytes(4, "little")

    atomic_write(path, chunks())


def _header(f, path, magic: bytes) -> tuple[dict, int]:
    """The header of open file ``f`` and the offset where payloads start."""
    got = f.read(8)
    if got != magic:
        raise DataError(f"{path}: bad magic {got!r}, expected {magic!r}")
    raw = f.read(4)
    if len(raw) < 4:
        raise DataError(f"{path}: truncated header length")
    hlen = int.from_bytes(raw, "little")
    blob = f.read(hlen)
    if len(blob) != hlen:
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(blob)
    except (ValueError, RecursionError) as e:   # not utf-8, not JSON, too deep
        raise DataError(f"{path}: unreadable header: {e}") from None
    columns = header.get("columns") if isinstance(header, dict) else None
    if not isinstance(columns, list):
        raise DataError(f"{path}: header is not an object with a list of columns")
    size, end = os.fstat(f.fileno()).st_size, 0
    for entry in columns:
        if not _column_ok(entry):
            raise DataError(f"{path}: malformed column record {entry!r}")
        # before anything is allocated: payloads follow each other's
        # trailers and end inside the file
        if entry["offset"] != end or 12 + hlen + end + entry["nbytes"] + 4 > size:
            raise DataError(f"{path}: array {entry['name']} lies outside the "
                            f"file ({size} bytes)")
        end += entry["nbytes"] + 4
    return header, 12 + hlen


def _count(value) -> bool:
    return type(value) is int and value >= 0


def _column_ok(entry) -> bool:
    """Whether a header column record has the fields and types `write`
    gives it: str name, numeric dtype, integer shape, offset, nbytes, crc32."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("dtype"), str) and entry["dtype"] in _DTYPES
            and isinstance(entry.get("shape"), list)
            and all(_count(n) for n in entry["shape"])
            and all(_count(entry.get(k)) for k in ("offset", "nbytes", "crc32")))


def _check(path, entry: dict, crc: int, trailer: bytes) -> None:
    if len(trailer) < 4:
        raise DataError(f"{path}: array {entry['name']} missing checksum")
    if crc != entry["crc32"] or crc != int.from_bytes(trailer, "little"):
        raise DataError(f"{path}: array {entry['name']} checksum mismatch")


def _open(path):
    """``path`` opened for binary reading; a file that cannot be opened
    (missing, a directory, unreadable) is a DataError."""
    try:
        return open(path, "rb")
    except OSError as e:
        raise DataError(f"{path}: cannot open: {e.strerror}") from None


def read_header(path, magic: bytes) -> dict:
    with _open(path) as f:
        return _header(f, path, magic)[0]


def read(path, magic: bytes, names=None) -> tuple[dict, dict]:
    """The header and the named arrays (all when ``names`` is None), each
    CRC-checked and read with one copy into a writable array."""
    with _open(path) as f:
        header, base = _header(f, path, magic)
        by_name = {e["name"]: e for e in header["columns"]}
        arrays = {}
        for name in by_name if names is None else names:
            if name not in by_name:
                raise DataError(f"{path}: no array {name!r}")
            e = by_name[name]
            dtype = np.dtype(e["dtype"]).newbyteorder("<")
            if dtype.itemsize * math.prod(e["shape"]) != e["nbytes"]:
                raise DataError(f"{path}: array {name} shape and size differ")
            f.seek(base + e["offset"])
            buf = bytearray(e["nbytes"])
            if f.readinto(buf) != e["nbytes"]:
                raise DataError(f"{path}: array {name} truncated")
            _check(path, e, zlib.crc32(buf), f.read(4))
            arrays[name] = np.frombuffer(buf, dtype).reshape(e["shape"])
    return header, arrays


def verify(path, magic: bytes) -> dict:
    """Check every payload against both CRC copies in ``CHUNK_BYTES`` blocks;
    memory stays bounded by the block size. Returns the header."""
    with _open(path) as f:
        header, base = _header(f, path, magic)
        for e in header["columns"]:
            f.seek(base + e["offset"])
            remaining, crc = e["nbytes"], 0
            while remaining > 0:
                block = f.read(min(CHUNK_BYTES, remaining))
                if not block:
                    raise DataError(f"{path}: array {e['name']} truncated")
                crc = zlib.crc32(block, crc)
                remaining -= len(block)
            _check(path, e, crc, f.read(4))
    return header
