"""Length-prefixed frame I/O: the one framing layer both planes share.

Every byte stream in this repository — the participant-facing
supervisor service (:mod:`repro.service`) and the operator-facing
cluster plane (:mod:`repro.engine.cluster`) — moves *frames*: a
4-byte big-endian payload length followed by the payload bytes.  This
module owns that rule exactly once, in sync and asyncio flavours,
together with the size-cap constants that used to be duplicated
across the service codec and the cluster envelope.

The framing layer is deliberately payload-agnostic: it deals in
``bytes`` and leaves the frame vocabulary (tag byte + typed fields) to
:mod:`repro.service.codec`.  That split is what lets the
authentication handshake (:mod:`repro.net.auth`) run *underneath* the
application codec — an unauthenticated peer is rejected before any
frame is ever decoded.

Error contract: truncation, oversized length prefixes and short reads
raise :class:`~repro.exceptions.ProtocolError`; size-cap violations on
typed payloads raise :class:`~repro.exceptions.CodecError` naming the
offending frame type and the observed size (:func:`check_payload_size`).
"""

from __future__ import annotations

import asyncio
from typing import BinaryIO, Union

from repro.exceptions import CodecError, ProtocolError

#: Anything the framing layer accepts as a payload: the senders hand
#: over ``bytes`` today, but ``bytearray``/``memoryview`` views are
#: first-class so callers can frame slices of a reused buffer without
#: copying them into fresh ``bytes`` first.
Buffer = Union[bytes, bytearray, memoryview]

#: Width of the frame length prefix.
FRAME_HEADER_BYTES = 4

#: Below this payload size one coalesced ``header || payload`` write is
#: issued (a 4-byte-plus-payload copy is cheaper than a second write
#: call); at or above it the header and payload are written as two
#: buffers so the payload bytes are never copied into a frame buffer.
INLINE_FRAME_BYTES = 64 * 1024

#: Default ceiling on a single frame's payload.  Large enough for a
#: full NI-CBS submission at big domains, small enough that a hostile
#: length prefix cannot balloon server memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Ceiling on one typed ``job``/``result`` payload (the jobcodec
#: bytes a cluster frame carries).  A chunk of scheme batches or their
#: results at large domains fits with room to spare; anything bigger
#: is a misconfigured batch size or a hostile frame.  A chunk's
#: outcomes come home in one ``result`` frame, so this is also the
#: ceiling on one chunk's encoded outcomes: past it the worker answers
#: a chunk-level error instead.
MAX_CLUSTER_PAYLOAD_BYTES = 32 * 1024 * 1024

#: Frame ceiling for cluster-plane connections: the payload rides raw,
#: so the cap is the payload cap plus slack for the frame's other
#: fields (ids, trace context, a span export).
MAX_CLUSTER_FRAME_BYTES = MAX_CLUSTER_PAYLOAD_BYTES + 64 * 1024

#: Ceiling on one authentication handshake frame.  Handshake messages
#: are tens of bytes; a pre-auth peer claiming anything bigger is
#: hostile and is rejected before a single payload byte is allocated.
MAX_AUTH_FRAME_BYTES = 256


def check_payload_size(what: str, size: int, limit: int) -> None:
    """Enforce a payload size cap, naming the frame type and size.

    The single chokepoint for every typed payload ceiling — ``job``,
    ``result``, handshake — so cap violations always read the same:
    *which* frame, *how big*, against *what* limit.
    """
    if size > limit:
        raise CodecError(f"{what} of {size} bytes exceeds limit {limit}")


def _frame_header(payload: Buffer, max_frame: int) -> bytes:
    """Size-check one payload and return its 4-byte length prefix.

    The single encode-side chokepoint shared by :func:`frame_buffer`
    and both write variants, so every path enforces the cap the same
    way and produces the same wire bytes.
    """
    length = len(payload)
    if length > max_frame:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds limit {max_frame}"
        )
    return length.to_bytes(FRAME_HEADER_BYTES, "big")


def _parse_length(header: Buffer, max_frame: int) -> int:
    """Decode and cap-check a length prefix (decode-side chokepoint)."""
    length = int.from_bytes(header, "big")
    if length > max_frame:
        raise ProtocolError(f"frame of {length} bytes exceeds limit {max_frame}")
    return length


def frame_buffer(payload: Buffer, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one payload: 4-byte big-endian length prefix + bytes."""
    return b"".join((_frame_header(payload, max_frame), payload))


def split_frame_buffer(
    data: Buffer, max_frame: int = MAX_FRAME_BYTES
) -> bytes:
    """Extract the payload of one complete frame buffer.

    ``data`` must hold exactly one frame (header + payload, nothing
    else); truncation or an oversized length prefix raises
    :class:`~repro.exceptions.ProtocolError`.  ``memoryview`` input is
    parsed in place — the only copy is the returned payload bytes.
    """
    if len(data) < FRAME_HEADER_BYTES:
        raise ProtocolError(
            f"truncated frame header ({len(data)} of {FRAME_HEADER_BYTES} bytes)"
        )
    view = data if isinstance(data, memoryview) else memoryview(data)
    length = _parse_length(view[:FRAME_HEADER_BYTES], max_frame)
    body = view[FRAME_HEADER_BYTES:]
    if len(body) != length:
        raise ProtocolError(
            f"frame length prefix says {length} bytes, buffer has {len(body)}"
        )
    return bytes(body)


# ----------------------------------------------------------------------
# Asyncio variants (the service and cluster event loops)
# ----------------------------------------------------------------------


async def read_frame_bytes(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> bytes | None:
    """Read one frame payload from an asyncio stream reader.

    Returns ``None`` on clean EOF (no partial header); raises
    :class:`~repro.exceptions.ProtocolError` on a truncated or
    oversized frame.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid frame header") from exc
    length = _parse_length(header, max_frame)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid frame ({len(exc.partial)} of {length} bytes)"
        ) from exc


async def write_frame_bytes(
    writer: asyncio.StreamWriter,
    payload: Buffer,
    max_frame: int = MAX_FRAME_BYTES,
) -> None:
    """Write one frame and drain — the backpressure point for senders.

    Small payloads coalesce with their header into one buffered write;
    payloads of :data:`INLINE_FRAME_BYTES` or more are handed to the
    transport as-is after the header, so a large result frame is never
    copied into a fresh ``header || payload`` buffer first.
    """
    header = _frame_header(payload, max_frame)
    if len(payload) < INLINE_FRAME_BYTES:
        writer.write(b"".join((header, payload)))
    else:
        writer.write(header)
        writer.write(payload)
    await writer.drain()


# ----------------------------------------------------------------------
# Sync variants (blocking sockets / file-like streams)
# ----------------------------------------------------------------------


def _read_exactly(stream: BinaryIO, n: int) -> bytes:
    """Read exactly ``n`` bytes from a blocking stream into one buffer.

    Fills one pre-sized buffer via ``readinto`` — a single allocation
    per frame instead of one ``bytes`` chunk per ``read()`` plus a join.
    """
    buffer = bytearray(n)
    view = memoryview(buffer)
    got = 0
    while got < n:
        read = stream.readinto(view[got:])
        if not read:
            if got == 0:
                raise EOFError  # clean EOF, translated by the caller
            raise ProtocolError(
                f"connection closed mid frame ({got} of {n} bytes)"
            )
        got += read
    return bytes(buffer)


def read_frame_bytes_sync(
    stream: BinaryIO, max_frame: int = MAX_FRAME_BYTES
) -> bytes | None:
    """Blocking twin of :func:`read_frame_bytes` for file-like streams.

    ``stream`` needs a blocking ``readinto`` — a ``socket.makefile("rb")``,
    a buffered pipe or file, an ``io.BytesIO``.
    Returns ``None`` on clean EOF at a frame boundary.
    """
    try:
        header = _read_exactly(stream, FRAME_HEADER_BYTES)
    except EOFError:
        return None
    except ProtocolError as exc:
        raise ProtocolError("connection closed mid frame header") from exc
    length = _parse_length(header, max_frame)
    try:
        return _read_exactly(stream, length)
    except EOFError as exc:
        raise ProtocolError(
            f"connection closed mid frame (0 of {length} bytes)"
        ) from exc


def write_frame_bytes_sync(
    stream: BinaryIO, payload: Buffer, max_frame: int = MAX_FRAME_BYTES
) -> None:
    """Blocking twin of :func:`write_frame_bytes` for file-like streams.

    Mirrors the asyncio variant's split: small frames are one coalesced
    write, frames of :data:`INLINE_FRAME_BYTES` or more write the
    header and the payload separately so the payload is never copied.
    """
    header = _frame_header(payload, max_frame)
    if len(payload) < INLINE_FRAME_BYTES:
        stream.write(b"".join((header, payload)))
    else:
        stream.write(header)
        stream.write(payload)
    stream.flush()
