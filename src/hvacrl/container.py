"""The reader of every input file, the writer of every output file, and
the single-file array container behind checkpoints and datasets.

`read_text` (UTF-8), `read_json` (one JSON object) and the container
readers raise `DataError` for a file that cannot be opened, decoded or
parsed; callers check the fields they read with `fingerprint.bad_fields`.

Every output file is written here: `atomic_write` streams byte chunks
through a temp file and a rename, so a reader sees the whole old or new
file; `write_json` (canonical JSON) and `write` (a container) go through
it. Logs grow one line at a time through `append_jsonl`.

Container layout (magic ``HVCK0002`` for checkpoints, ``HVDS0001`` for
datasets):

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
the file in fixed-size blocks. `read` reads each payload once, straight
into its array: a new one per column, or one its caller already holds
(a checkpoint's payloads go into the agent's parameters), so a file is
never held twice.
"""
from __future__ import annotations

import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError, SpecError
from .fingerprint import bad_fields, canonical_json

CHUNK_BYTES = 1 << 20   # streaming verification block size
# the dtype names `write` can record: booleans, integers and floats
_DTYPES = frozenset(str(np.dtype(c)) for c in
                   "?" + np.typecodes["AllInteger"] + np.typecodes["Float"])
# the fields `write` gives a header column record; all numbers are >= 0
_COLUMN = {"name": str, "dtype": str, "shape": [int], "offset": int,
           "nbytes": int, "crc32": int}


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


def write_json(path, obj) -> None:
    """Write ``obj`` as canonical JSON through `atomic_write`."""
    atomic_write(path, [canonical_json(obj).encode()])


def append_jsonl(path, row: dict) -> None:
    """Append ``row`` to the log at ``path`` as one sorted-key JSON line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")


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
    header = _json_object(blob, f"{path}: header")
    if not isinstance(header.get("columns"), list):
        raise DataError(f"{path}: header lacks a list of columns")
    size, end = os.fstat(f.fileno()).st_size, 0
    for entry in header["columns"]:
        if (bad_fields(entry, _COLUMN) or entry["dtype"] not in _DTYPES
                or min(*entry["shape"], entry["offset"], entry["nbytes"],
                       entry["crc32"]) < 0):
            raise DataError(f"{path}: malformed column record {entry!r}")
        if (np.dtype(entry["dtype"]).itemsize * math.prod(entry["shape"])
                != entry["nbytes"]):
            raise DataError(f"{path}: array {entry['name']} shape and size "
                            f"differ")
        # before anything is allocated: payloads follow each other's
        # trailers and end inside the file
        if entry["offset"] != end or 12 + hlen + end + entry["nbytes"] + 4 > size:
            raise DataError(f"{path}: array {entry['name']} lies outside the "
                            f"file ({size} bytes)")
        end += entry["nbytes"] + 4
    return header, 12 + hlen


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


def _json_object(blob, what: str) -> dict:
    """The JSON object in ``blob``; anything else is a DataError."""
    try:
        doc = json.loads(blob)
    except (ValueError, RecursionError) as e:   # not utf-8, not JSON, too deep
        raise DataError(f"{what} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{what} does not hold a JSON object")
    return doc


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``."""
    with _open(path) as f:
        try:
            return f.read().decode()
        except UnicodeDecodeError as e:
            raise DataError(f"{path} is not UTF-8 text: {e}") from None


def read_json(path) -> dict:
    """The JSON object in the file at ``path``."""
    with _open(path) as f:
        return _json_object(f.read(), str(path))


def read_header(path, magic: bytes) -> dict:
    with _open(path) as f:
        return _header(f, path, magic)[0]


def _dtype(entry: dict) -> np.dtype:
    """The little-endian dtype of a column record."""
    return np.dtype(entry["dtype"]).newbyteorder("<")


def read(path, magic: bytes, into=None) -> tuple[dict, dict]:
    """The header and every array, each read once, straight into its array,
    and then checked against both CRC copies.

    Without ``into`` every array is new and writable. ``into(header)`` is
    called once the header is checked and before any payload is read; it
    returns, by name, the arrays the payloads are read into in place. They
    must be C-contiguous, with exactly the columns' names, dtypes and
    shapes, or nothing is read and a SpecError is raised; a payload that
    then fails its CRC has already overwritten its array. Returns those
    arrays.
    """
    with _open(path) as f:
        header, base = _header(f, path, magic)
        columns = header["columns"]
        if into is None:
            arrays = {e["name"]: np.empty(e["shape"], _dtype(e))
                      for e in columns}
        else:
            arrays = into(header)
            stored = sorted((e["name"], _dtype(e).str, tuple(e["shape"]))
                            for e in columns)
            wanted = sorted((name, a.dtype.str, a.shape)
                            for name, a in arrays.items())
            if stored != wanted:
                raise SpecError(
                    f"{path}: stored arrays {sorted(set(stored) - set(wanted))}"
                    f" do not match {sorted(set(wanted) - set(stored))}")
            # else the flat views below would be copies, left unread
            if not all(a.flags.c_contiguous for a in arrays.values()):
                raise SpecError(f"{path}: arrays to read into must be "
                                f"C-contiguous")
        for e in columns:
            # a flat byte view of the array: the payload lands in place
            raw = arrays[e["name"]].reshape(-1).view(np.uint8)
            f.seek(base + e["offset"])
            if f.readinto(raw) != e["nbytes"]:
                raise DataError(f"{path}: array {e['name']} truncated")
            _check(path, e, zlib.crc32(raw), f.read(4))
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
