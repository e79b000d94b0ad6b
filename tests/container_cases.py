"""Behaviour every stored array format shares.

`ContainerCases` holds the tests once; each format's test class inherits it
and sets ``fmt`` to an object with:

* ``magic``: the format's 8-byte magic;
* ``save(path) -> (state, arrays)``: write a file through the format's API
  and return what a round trip must preserve;
* ``load(path) -> (state, arrays)``: the same, read back through the API;
* ``resave(src, dst)``: load ``src`` and save it again as ``dst``;
* ``verify(path)``: the format's streaming integrity check.
"""
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hvacrl import container
from hvacrl.errors import DataError, HvacrlError


def rewrite_header(path, edit=lambda header: header):
    """Rewrite a container's JSON header indented (not canonical), after
    ``edit``, keeping the layout: magic, u32 header length, header,
    payloads."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    blob = json.dumps(edit(json.loads(raw[12:12 + hlen])), indent=2).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob
                     + raw[12 + hlen:])


def _first_column(change):
    """A header edit that applies ``change`` to the first column record."""
    def edit(header):
        change(header["columns"][0])
        return header
    return edit


MALFORMED_HEADERS = {
    "no-columns": lambda h: {k: v for k, v in h.items() if k != "columns"},
    "columns-not-list": lambda h: {**h, "columns": 5},
    "column-not-record": lambda h: {**h, "columns": ["x"] + h["columns"][1:]},
    "header-is-list": lambda h: [h],
    "no-dtype": _first_column(lambda c: c.pop("dtype")),
    "unknown-dtype": _first_column(lambda c: c.update(dtype="f4,(")),
    "name-not-str": _first_column(lambda c: c.update(name=3)),
    "shape-str": _first_column(lambda c: c.update(shape="ab")),
    "shape-negative": _first_column(lambda c: c.update(shape=[-1])),
    "offset-str": _first_column(lambda c: c.update(offset="0")),
    "nbytes-float": _first_column(lambda c: c.update(nbytes=4.0)),
    "crc32-bool": _first_column(lambda c: c.update(crc32=True)),
    "offset-gap": _first_column(lambda c: c.update(offset=c["offset"] + 4)),
}


#: replacement header values: any JSON, and dtype names `write` records
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(["float32", "int32", "uint8"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


def _draw_path(data, doc) -> list:
    """A key path into a JSON document, drawn one level at a time: a top
    level key, then deeper with probability one half per level."""
    path = []
    while (isinstance(doc, (dict, list)) and doc
           and (not path or data.draw(st.booleans()))):
        path.append(data.draw(st.sampled_from(
            list(doc) if isinstance(doc, dict) else range(len(doc)))))
        doc = doc[path[-1]]
    return path


class ContainerCases:
    fmt = None

    def assert_rejected(self, path):
        with pytest.raises(DataError):
            self.fmt.load(path)
        with pytest.raises(DataError):
            self.fmt.verify(path)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a"
        state, arrays = self.fmt.save(path)
        assert path.read_bytes()[:8] == self.fmt.magic
        got_state, got = self.fmt.load(path)
        assert got_state == state
        assert got.keys() == arrays.keys()
        for name, arr in arrays.items():
            assert got[name].dtype == arr.dtype
            assert got[name].shape == arr.shape
            assert got[name].tobytes() == arr.tobytes()

    def test_resave_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self.fmt.save(a)
        self.fmt.resave(a, b)
        assert a.read_bytes() == b.read_bytes()

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "a"
        self.fmt.save(path)
        raw = path.read_bytes()
        base = 12 + int.from_bytes(raw[8:12], "little")
        largest = max(container.read_header(path, self.fmt.magic)["columns"],
                      key=lambda e: e["nbytes"])
        # a byte inside the largest payload, then the last array's trailer
        for at in (base + largest["offset"] + largest["nbytes"] // 2,
                   len(raw) - 2):
            flipped = bytearray(raw)
            flipped[at] ^= 0xFF
            path.write_bytes(bytes(flipped))
            self.assert_rejected(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "a"
        self.fmt.save(path)
        path.write_bytes(path.read_bytes()[:-10])
        self.assert_rejected(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "a"
        self.fmt.save(path)
        path.write_bytes(b"X" + path.read_bytes()[1:])
        self.assert_rejected(path)
        with pytest.raises(DataError):
            container.read_header(path, self.fmt.magic)

    def test_short_header_length_detected(self, tmp_path):
        path = tmp_path / "a"
        path.write_bytes(self.fmt.magic + b"\x00")  # one of four length bytes
        self.assert_rejected(path)

    @pytest.mark.parametrize("name", ["gone", "."], ids=["missing", "dir"])
    def test_unopenable_path_is_data_error(self, tmp_path, name):
        path = tmp_path / name
        self.assert_rejected(path)
        with pytest.raises(DataError, match="cannot open"):
            container.read_header(path, self.fmt.magic)

    def test_shape_size_mismatch_detected(self, tmp_path):
        path = tmp_path / "a"
        self.fmt.save(path)

        def grow_first_array(header):
            header["columns"][0]["shape"][0] += 1
            return header

        rewrite_header(path, grow_first_array)
        with pytest.raises(DataError):
            self.fmt.load(path)

    @pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(),
                             ids=MALFORMED_HEADERS.keys())
    def test_malformed_header_is_data_error(self, tmp_path, edit):
        path = tmp_path / "a"
        self.fmt.save(path)
        rewrite_header(path, edit)
        self.assert_rejected(path)
        with pytest.raises(DataError):
            container.read_header(path, self.fmt.magic)

    @pytest.mark.parametrize("blob", [b"\xff{}", b"{", b"[" * 100_000],
                             ids=["not-utf8", "not-json", "too-deep"])
    def test_unreadable_header_is_data_error(self, tmp_path, blob):
        path = tmp_path / "a"
        self.fmt.save(path)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob
                         + raw[12 + hlen:])
        self.assert_rejected(path)

    def test_column_past_the_file_end_is_rejected_before_allocating(
            self, tmp_path):
        # a header-only file of about 100 bytes that claims a 64 MB column
        claim = 64 << 20
        blob = json.dumps({"columns": [
            {"name": "x", "dtype": "uint8", "shape": [claim], "offset": 0,
             "nbytes": claim, "crc32": 0}]}).encode()
        path = tmp_path / "a"
        path.write_bytes(self.fmt.magic + len(blob).to_bytes(4, "little") + blob)
        for check in (container.read, container.verify):
            tracemalloc.start()
            with pytest.raises(DataError, match="outside the file"):
                check(path, self.fmt.magic)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak < 1 << 20, (check.__name__, peak)

    def test_noncanonical_header_spacing_loads(self, tmp_path):
        path = tmp_path / "a"
        state, arrays = self.fmt.save(path)
        rewrite_header(path)
        self.fmt.verify(path)
        got_state, got = self.fmt.load(path)
        assert got_state == state
        for name, arr in arrays.items():
            assert np.array_equal(got[name], arr)

    def test_streaming_memory_stays_below_column_size(self, tmp_path):
        # a 16 MB array: verification must stream in blocks, and reading
        # the file must hold about one copy of its arrays
        rng = np.random.default_rng(0)
        big = rng.random((1_000_000, 4), dtype=np.float32)
        path = tmp_path / "big"
        container.write(path, self.fmt.magic, {},
                        [("big", big), ("small", big[:10, 0].copy())])

        tracemalloc.start()
        self.fmt.verify(path)
        _, peak_verify = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak_verify < big.nbytes // 2, peak_verify

        tracemalloc.start()
        _, got = container.read(path, self.fmt.magic)
        _, peak_read = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak_read < 2 * big.nbytes, peak_read
        assert np.array_equal(got["big"], big)

    # each format's class runs the inherited test (differing executors);
    # every example writes its own file into tmp_path
    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.differing_executors])
    def test_damaged_file_reads_back_or_exits_3(self, tmp_path, data):
        # one byte flip (in the header half the time), truncation, or
        # header value replaced or deleted: the read returns the original
        # arrays or refuses the file with exit code 3
        path = tmp_path / "a"
        _, arrays = self.fmt.save(path)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        damage = data.draw(st.sampled_from(["flip", "truncate", "edit"]))
        if damage == "flip":
            at = data.draw(st.integers(0, 12 + hlen - 1)
                           | st.integers(0, len(raw) - 1))
            flipped = bytearray(raw)
            flipped[at] ^= data.draw(st.integers(1, 255))
            path.write_bytes(bytes(flipped))
        elif damage == "truncate":
            path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        else:
            *parents, key = _draw_path(data, json.loads(raw[12:12 + hlen]))
            value = data.draw(st.just(...) | JSON_VALUES)

            def edit(header):
                owner = header
                for k in parents:
                    owner = owner[k]
                if value is ...:
                    del owner[key]
                else:
                    owner[key] = value
                return header

            rewrite_header(path, edit)
        try:
            _, got = self.fmt.load(path)
        except HvacrlError as e:
            assert e.exit_code == 3, e
        else:
            assert got.keys() == arrays.keys()
            for name, arr in arrays.items():
                assert got[name].dtype == arr.dtype
                assert np.array_equal(got[name], arr)
