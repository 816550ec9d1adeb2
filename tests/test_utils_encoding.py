"""Unit + property tests for the canonical wire codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import CodecError
from repro.utils.encoding import (
    encode_bytes,
    encode_bytes_list,
    encode_uint,
    encode_uint_list,
    read_bytes,
    read_bytes_list,
    read_uint,
    read_uint_list,
)


class TestVarint:
    def test_small_values_one_byte(self):
        for v in range(128):
            assert encode_uint(v) == bytes([v])

    def test_boundary_values(self):
        assert len(encode_uint(127)) == 1
        assert len(encode_uint(128)) == 2
        assert len(encode_uint(16383)) == 2
        assert len(encode_uint(16384)) == 3

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            encode_uint(-1)

    def test_truncated_rejected(self):
        data = encode_uint(300)[:-1]
        with pytest.raises(CodecError):
            read_uint(data)

    def test_overlong_rejected(self):
        with pytest.raises(CodecError):
            read_uint(b"\xff" * 11)

    @given(st.integers(min_value=0, max_value=1 << 64))
    def test_roundtrip(self, value):
        data = encode_uint(value)
        assert read_uint(data) == (value, len(data))

    @given(st.integers(min_value=0, max_value=1 << 64))
    def test_offset_decoding(self, value):
        prefix = b"\x00" * 3
        decoded, pos = read_uint(prefix + encode_uint(value), offset=3)
        assert decoded == value
        assert pos == 3 + len(encode_uint(value))


class TestLengthPrefixed:
    def test_empty_payload(self):
        data = encode_bytes(b"")
        assert read_bytes(data) == (b"", len(data))

    def test_roundtrip_simple(self):
        data = encode_bytes(b"hello")
        assert read_bytes(data) == (b"hello", len(data))

    def test_length_overrun_rejected(self):
        bad = encode_uint(100) + b"short"
        with pytest.raises(CodecError):
            read_bytes(bad)

    @given(st.binary(max_size=4096))
    def test_roundtrip(self, payload):
        data = encode_bytes(payload)
        assert read_bytes(data) == (payload, len(data))


class TestLists:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 48), max_size=200))
    def test_uint_list_roundtrip(self, values):
        data = encode_uint_list(values)
        decoded, pos = read_uint_list(data)
        assert decoded == values
        assert pos == len(data)

    @given(st.lists(st.binary(max_size=64), max_size=100))
    def test_bytes_list_roundtrip(self, items):
        data = encode_bytes_list(items)
        decoded, pos = read_bytes_list(data)
        assert decoded == items
        assert pos == len(data)

    def test_empty_lists(self):
        assert read_uint_list(encode_uint_list([]))[0] == []
        assert read_bytes_list(encode_bytes_list([]))[0] == []

    def test_concatenated_structures(self):
        # Multiple structures in one buffer decode sequentially.
        buf = encode_uint_list([1, 2]) + encode_bytes_list([b"a", b"bc"])
        values, pos = read_uint_list(buf)
        items, end = read_bytes_list(buf, pos)
        assert values == [1, 2]
        assert items == [b"a", b"bc"]
        assert end == len(buf)
