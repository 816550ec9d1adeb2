"""Tests for repro.net.framing — the one length-prefix rule.

Both wire planes ride this module now, so its contract is pinned
directly: sync and asyncio variants agree byte-for-byte, caps are
enforced on both sides, and every size-cap violation names the
offending frame type and observed size.
"""

import asyncio
import io

import pytest

from repro.exceptions import CodecError, ProtocolError
from repro.net.framing import (
    FRAME_HEADER_BYTES,
    INLINE_FRAME_BYTES,
    MAX_CLUSTER_FRAME_BYTES,
    MAX_CLUSTER_PAYLOAD_BYTES,
    MAX_FRAME_BYTES,
    check_payload_size,
    frame_buffer,
    read_frame_bytes,
    read_frame_bytes_sync,
    split_frame_buffer,
    write_frame_bytes,
    write_frame_bytes_sync,
)


class TestConstants:
    def test_service_codec_reuses_these_constants(self):
        """Satellite: the old duplicated caps are gone — the codec's
        names are literally repro.net.framing's objects."""
        from repro.service import codec

        assert codec.FRAME_HEADER_BYTES is FRAME_HEADER_BYTES
        assert codec.MAX_FRAME_BYTES == MAX_FRAME_BYTES
        assert codec.MAX_CLUSTER_PAYLOAD_BYTES == MAX_CLUSTER_PAYLOAD_BYTES
        assert codec.MAX_CLUSTER_FRAME_BYTES == MAX_CLUSTER_FRAME_BYTES

    def test_cluster_frame_cap_covers_a_full_payload(self):
        """Payloads ride raw: the frame cap is the payload cap plus
        room for the frame's other fields, not a 4/3 expansion."""
        from repro.service.codec import JobFrame, encode_frame

        payload = b"\x00" * 1024
        frame = JobFrame(
            job_id=(1 << 63) - 1, payload=payload,
            trace_id="t" * 64, span_id="s" * 64,
        )
        overhead = len(encode_frame(frame)) - FRAME_HEADER_BYTES - len(payload)
        longer_length_prefix = 4
        assert (
            MAX_CLUSTER_PAYLOAD_BYTES + overhead + longer_length_prefix
            <= MAX_CLUSTER_FRAME_BYTES
            < MAX_CLUSTER_PAYLOAD_BYTES * 4 // 3
        )


class TestCheckPayloadSize:
    def test_names_frame_type_and_size(self):
        with pytest.raises(CodecError, match=r"job payload of 12 bytes exceeds limit 8"):
            check_payload_size("job payload", 12, 8)

    def test_at_limit_passes(self):
        check_payload_size("result payload", 8, 8)


class TestBufferRoundTrip:
    @pytest.mark.parametrize("payload", [b"", b"x", b"hello" * 100, bytes(range(256))])
    def test_round_trip(self, payload):
        assert split_frame_buffer(frame_buffer(payload)) == payload

    def test_oversized_payload_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="exceeds limit"):
            frame_buffer(b"x" * 65, max_frame=64)

    def test_oversized_prefix_rejected_at_decode(self):
        data = (100).to_bytes(FRAME_HEADER_BYTES, "big") + b"x" * 100
        with pytest.raises(ProtocolError, match="exceeds limit"):
            split_frame_buffer(data, max_frame=64)

    def test_every_truncation_rejected(self):
        data = frame_buffer(b"payload-bytes")
        for cut in range(len(data)):
            with pytest.raises(ProtocolError):
                split_frame_buffer(data[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="length prefix"):
            split_frame_buffer(frame_buffer(b"ok") + b"extra")


class TestBufferViews:
    """Zero-copy contract: views frame and parse byte-identically."""

    @pytest.mark.parametrize("payload", [b"", b"x", b"hello" * 100])
    def test_frame_buffer_accepts_views(self, payload):
        reference = frame_buffer(payload)
        assert frame_buffer(bytearray(payload)) == reference
        assert frame_buffer(memoryview(bytes(payload))) == reference

    def test_frame_buffer_accepts_sliced_view(self):
        blob = b"prefix|payload|suffix"
        view = memoryview(blob)[7:14]
        assert frame_buffer(view) == frame_buffer(b"payload")

    @pytest.mark.parametrize("payload", [b"", b"x", b"hello" * 100])
    def test_split_frame_buffer_accepts_views(self, payload):
        data = frame_buffer(payload)
        assert split_frame_buffer(bytearray(data)) == payload
        assert split_frame_buffer(memoryview(data)) == payload

    def test_split_returns_bytes_not_view(self):
        # Callers hold payloads past the parse; a view into a reused
        # buffer would alias future frames.
        out = split_frame_buffer(memoryview(frame_buffer(b"data")))
        assert type(out) is bytes

    def test_sync_write_accepts_views(self):
        reference = io.BytesIO()
        write_frame_bytes_sync(reference, b"view-payload")
        for convert in (bytearray, lambda b: memoryview(bytes(b))):
            stream = io.BytesIO()
            write_frame_bytes_sync(stream, convert(b"view-payload"))
            assert stream.getvalue() == reference.getvalue()

    def test_large_frame_wire_bytes_unchanged(self):
        # The >= INLINE_FRAME_BYTES split-write path must leave the
        # wire format untouched: header || payload, nothing else.
        payload = bytes(range(256)) * (INLINE_FRAME_BYTES // 256 + 1)
        assert len(payload) > INLINE_FRAME_BYTES
        stream = io.BytesIO()
        write_frame_bytes_sync(stream, payload)
        assert stream.getvalue() == frame_buffer(payload)
        stream.seek(0)
        assert read_frame_bytes_sync(stream) == payload

    def test_async_large_frame_wire_bytes_unchanged(self):
        async def scenario():
            from repro.service.server import memory_duplex

            payload = b"\xab" * (INLINE_FRAME_BYTES + 17)
            (reader, _), (_, writer) = memory_duplex()
            await write_frame_bytes(writer, payload)
            writer.close()
            assert await reader.read(-1) == frame_buffer(payload)

        asyncio.run(scenario())

    def test_async_write_accepts_views(self):
        async def scenario():
            from repro.service.server import memory_duplex

            (reader, _), (_, writer) = memory_duplex()
            await write_frame_bytes(writer, memoryview(b"async-view"))
            await write_frame_bytes(writer, bytearray(b"async-view"))
            assert await read_frame_bytes(reader) == b"async-view"
            assert await read_frame_bytes(reader) == b"async-view"

        asyncio.run(scenario())

    def test_sync_read_without_readinto_falls_back(self):
        class ReadOnly:
            def __init__(self, data):
                self._stream = io.BytesIO(data)

            def read(self, n):
                return self._stream.read(min(n, 3))  # dribble in chunks

        assert (
            read_frame_bytes_sync(ReadOnly(frame_buffer(b"fallback-path")))
            == b"fallback-path"
        )
        with pytest.raises(ProtocolError, match="mid frame"):
            read_frame_bytes_sync(ReadOnly(frame_buffer(b"truncated")[:-2]))


class TestSyncStreams:
    def test_round_trip(self):
        stream = io.BytesIO()
        write_frame_bytes_sync(stream, b"alpha")
        write_frame_bytes_sync(stream, b"")
        write_frame_bytes_sync(stream, b"beta" * 50)
        stream.seek(0)
        assert read_frame_bytes_sync(stream) == b"alpha"
        assert read_frame_bytes_sync(stream) == b""
        assert read_frame_bytes_sync(stream) == b"beta" * 50
        assert read_frame_bytes_sync(stream) is None  # clean EOF

    def test_truncated_header(self):
        stream = io.BytesIO(b"\x00\x00")
        with pytest.raises(ProtocolError, match="mid frame header"):
            read_frame_bytes_sync(stream)

    def test_truncated_body(self):
        stream = io.BytesIO(frame_buffer(b"full-payload")[:-3])
        with pytest.raises(ProtocolError, match="mid frame"):
            read_frame_bytes_sync(stream)

    def test_oversized_frame_rejected_before_read(self):
        stream = io.BytesIO((1 << 20).to_bytes(FRAME_HEADER_BYTES, "big"))
        with pytest.raises(ProtocolError, match="exceeds limit"):
            read_frame_bytes_sync(stream, max_frame=1024)

    def test_oversized_write_rejected(self):
        stream = io.BytesIO()
        with pytest.raises(ProtocolError):
            write_frame_bytes_sync(stream, b"x" * 100, max_frame=64)
        assert stream.getvalue() == b""  # nothing partial on the wire


class TestAsyncStreams:
    def run(self, coro):
        return asyncio.run(coro)

    def feed(self, *chunks: bytes, eof: bool = True) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        if eof:
            reader.feed_eof()
        return reader

    def test_round_trip_via_memory_duplex(self):
        async def scenario():
            from repro.service.server import memory_duplex

            (reader, _), (_, writer) = memory_duplex()
            await write_frame_bytes(writer, b"ping")
            await write_frame_bytes(writer, b"pong" * 99)
            writer.close()
            assert await read_frame_bytes(reader) == b"ping"
            assert await read_frame_bytes(reader) == b"pong" * 99
            assert await read_frame_bytes(reader) is None

        self.run(scenario())

    def test_clean_eof_returns_none(self):
        async def scenario():
            assert await read_frame_bytes(self.feed()) is None

        self.run(scenario())

    def test_partial_header_raises(self):
        async def scenario():
            with pytest.raises(ProtocolError, match="mid frame header"):
                await read_frame_bytes(self.feed(b"\x00\x00"))

        self.run(scenario())

    def test_partial_body_raises(self):
        async def scenario():
            data = frame_buffer(b"twelve-bytes")
            with pytest.raises(ProtocolError, match="mid frame"):
                await read_frame_bytes(self.feed(data[:-2]))

        self.run(scenario())

    def test_oversized_length_prefix_rejected_before_allocation(self):
        async def scenario():
            header = (1 << 30).to_bytes(FRAME_HEADER_BYTES, "big")
            with pytest.raises(ProtocolError, match="exceeds limit"):
                await read_frame_bytes(self.feed(header), max_frame=4096)

        self.run(scenario())

    def test_sync_and_async_agree_on_the_wire_bytes(self):
        async def scenario():
            from repro.service.server import memory_duplex

            (reader, _), (_, writer) = memory_duplex()
            await write_frame_bytes(writer, b"shared-format")
            return await reader.read(1024)

        wire = self.run(scenario())
        sync_stream = io.BytesIO()
        write_frame_bytes_sync(sync_stream, b"shared-format")
        assert wire == sync_stream.getvalue()
        assert read_frame_bytes_sync(io.BytesIO(wire)) == b"shared-format"
