"""Canonical wire codec: varints, zigzag and length-prefixed bytes.

Protocol messages (commitments, sample challenges, proofs — see
:mod:`repro.core.protocol`) are serialized with this codec so cost
ledgers account communication in *actual bytes on the wire* rather
than hand-waved O(·) terms.
The format is the LEB128-style varint used by protobuf: 7 payload bits
per byte, most-significant-bit set on every byte except the last.

Two shapes dominate real traffic and take a short path that produces
and accepts exactly the bytes the generic loops do: a varint below 128
is one table lookup / one index, and a *uniform run* — a list whose
items all have one length below 128, which is what a sibling-digest
list or a results vector is — is one ``join`` to encode and one
strided compare of every length prefix to decode; a two-byte varint
(a leaf index below 2^14) is likewise built and read inline.  Which
path runs is
decided from the values or the bytes themselves; anything else
(mixed lengths, long items, multi-byte or overlong prefixes, truncated
input) goes through the generic loops.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import CodecError

# The 128 single-byte varints, which are also the length prefixes of
# every item shorter than 128 bytes.
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))


def encode_uint(value: int) -> bytes:
    """Encode a non-negative integer as a varint."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if 0x80 <= value < 0x4000:
        return bytes((value & 0x7F | 0x80, value >> 7))
    if value < 0:
        raise CodecError(f"cannot varint-encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def uint_size(value: int) -> int:
    """``len(encode_uint(value))``, without building it: refused alike."""
    if value < 0:
        raise CodecError(f"cannot varint-encode negative value {value}")
    return (value.bit_length() + 6) // 7 or 1


def read_uint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; return ``(value, next_offset)``."""
    if offset < len(data) and data[offset] < 0x80:
        return data[offset], offset + 1
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 70:
            raise CodecError("varint too long (more than 10 bytes)")


def zigzag(value: int) -> int:
    """Fold a signed integer onto the unsigned ones for a varint.

    Small magnitudes of either sign stay small: 0, -1, 1, -2 map to
    0, 1, 2, 3.  Exact at any width (on every i64 it is the classic
    ``(v << 1) ^ (v >> 63)``); the caller bounds ``value`` to what its
    varint may carry.
    """
    return ~value << 1 | 1 if value < 0 else value << 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return -(value >> 1) - 1 if value & 1 else value >> 1


def encode_bytes(payload: bytes) -> bytes:
    """Encode a byte string with a varint length prefix."""
    return encode_uint(len(payload)) + payload


def read_bytes(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode a length-prefixed byte string at ``offset``."""
    length, pos = read_uint(data, offset)
    end = pos + length
    if end > len(data):
        raise CodecError(
            f"length prefix {length} exceeds remaining {len(data) - pos} bytes"
        )
    return data[pos:end], end


def encode_uint_list(values: list[int]) -> bytes:
    """Encode a list of non-negative integers (count, then varints)."""
    out = bytearray(encode_uint(len(values)))
    for value in values:
        out += encode_uint(value)
    return bytes(out)


def uint_list_size(values: Sequence[int]) -> int:
    """``len(encode_uint_list(values))``, without building it: refused alike."""
    if (low := min(values, default=0)) < 0:
        raise CodecError(f"cannot varint-encode negative value {low}")
    if max(values, default=0) < 0x80:
        return uint_size(len(values)) + len(values)
    return uint_size(len(values)) + sum(map(uint_size, values))


def read_uints(data: bytes, pos: int, count: int) -> tuple[list[int], int]:
    """Decode ``count`` varints back to back at ``pos``.

    One- and two-byte varints (every index into a domain below 2^14)
    are read inline; anything longer, overlong or truncated goes
    through :func:`read_uint`, which decodes or rejects it.
    """
    values: list[int] = []
    append = values.append
    end = len(data)
    for _ in range(count):
        if pos < end and (low := data[pos]) < 0x80:
            append(low)
            pos += 1
        elif pos + 1 < end and (high := data[pos + 1]) < 0x80:
            append(low & 0x7F | high << 7)
            pos += 2
        else:
            value, pos = read_uint(data, pos)
            append(value)
    return values, pos


def read_uint_list(data: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Decode a list written by :func:`encode_uint_list`."""
    count, pos = read_uint(data, offset)
    return read_uints(data, pos, count)


def encode_bytes_list(items: Sequence[bytes]) -> bytes:
    """Encode a list of byte strings (count, then length-prefixed items)."""
    sizes = set(map(len, items))
    if len(sizes) == 1 and (size := sizes.pop()) < 0x80:
        # Uniform run: every item carries the same one-byte prefix.
        prefix = _ONE_BYTE[size]
        return encode_uint(len(items)) + prefix + prefix.join(items)
    out = bytearray(encode_uint(len(items)))
    for item in items:
        out += encode_bytes(item)
    return bytes(out)


def bytes_list_size(items: Sequence[bytes]) -> int:
    """``len(encode_bytes_list(items))``, without building it."""
    lengths = list(map(len, items))
    prefixes = len(lengths) if max(lengths, default=0) < 0x80 else sum(
        map(uint_size, lengths)
    )
    return uint_size(len(lengths)) + prefixes + sum(lengths)


def read_uniform_run(
    data: bytes, pos: int, count: int
) -> tuple[list[bytes], int] | None:
    """``count`` length-prefixed items at ``pos`` if they form a uniform run.

    Returns ``(items, next_offset)`` when the bytes hold ``count``
    items that all carry the same single-byte length prefix, checking
    *every* prefix (one strided compare) before slicing; ``None`` when
    they do not have that shape — empty, mixed, long, multi-byte
    prefixed or truncated — which is for the generic loop to decode or
    reject.
    """
    if count < 1 or pos >= len(data) or (size := data[pos]) >= 0x80:
        return None
    stride = size + 1
    end = pos + count * stride
    # Bounds before the compare: a lying count must not size a buffer.
    if end > len(data) or data[pos:end:stride] != _ONE_BYTE[size] * count:
        return None
    starts = range(pos + 1, end + 1, stride)
    return [data[start : start + size] for start in starts], end


def read_bytes_list(data: bytes, offset: int = 0) -> tuple[list[bytes], int]:
    """Decode a list written by :func:`encode_bytes_list`."""
    count, pos = read_uint(data, offset)
    run = read_uniform_run(data, pos, count)
    if run is not None:
        return run
    items: list[bytes] = []
    for _ in range(count):
        item, pos = read_bytes(data, pos)
        items.append(item)
    return items, pos
