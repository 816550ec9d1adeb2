"""Fuzz tests: decoders must reject garbage with CodecError, never crash.

A production wire layer faces hostile bytes; every ``decode`` in the
protocol either returns a valid message or raises a codec/Merkle error
— no ``IndexError``/``OverflowError``/silent nonsense.  The same
contract covers the service layer's length-prefixed binary frames
(:mod:`repro.service.codec`): a listening supervisor socket must shrug
off truncation, corruption and arbitrary bytes with a clean
:class:`~repro.exceptions.ProtocolError` or
:class:`~repro.exceptions.CodecError`.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    AssignMsg,
    CommitmentMsg,
    FullResultsMsg,
    NICBSSubmissionMsg,
    ProofBundleMsg,
    ReportsMsg,
    SampleChallengeMsg,
    VerdictMsg,
)
from repro.exceptions import ProtocolError, ReproError
from repro.merkle.multiproof import Multiproof, bundle_shape
from repro.exceptions import CodecError
from repro.net.framing import FRAME_HEADER_BYTES
from repro.service.codec import (
    CLUSTER_WIRE_VERSION,
    FRAMES,
    ByeFrame,
    ChallengeFrame,
    CommitmentFrame,
    ErrorFrame,
    HeartbeatFrame,
    JobFrame,
    ProofsFrame,
    ResultFrame,
    StatsReply,
    StatsRequest,
    SubmissionFrame,
    TaskAssign,
    TaskRequest,
    TraceGetRequest,
    TraceReply,
    VerdictFrame,
    WorkerHello,
    decode_frame,
    decode_frame_payload,
    encode_frame,
)
from repro.service.jobcodec import (
    decode_cluster_chunk,
    decode_cluster_outcomes,
    decode_cluster_payload,
    encode_cluster_chunk,
    encode_cluster_outcomes,
    encode_cluster_payload,
)
from repro.utils.encoding import encode_bytes, encode_uint

#: wire name -> tag byte, so crafted hostile frames read by name.
TAG = {row.name: bytes((row.tag,)) for row in FRAMES}
VERSION = encode_uint(CLUSTER_WIRE_VERSION)

DECODERS = [
    CommitmentMsg.decode,
    SampleChallengeMsg.decode,
    ProofBundleMsg.decode,
    NICBSSubmissionMsg.decode,
    FullResultsMsg.decode,
    ReportsMsg.decode,
    VerdictMsg.decode,
    AssignMsg.decode,
]


def _try_decode(decoder, data: bytes) -> None:
    try:
        decoder(data)
    except ReproError:
        pass  # the contract: a library error, nothing else
    except UnicodeDecodeError:
        pytest.fail(f"{decoder}: unicode error leaked for {data!r}")


class TestGarbageRejection:
    @pytest.mark.parametrize("decoder", DECODERS, ids=lambda d: repr(d)[:40])
    def test_empty_input(self, decoder):
        _try_decode(decoder, b"")

    @pytest.mark.parametrize("decoder", DECODERS, ids=lambda d: repr(d)[:40])
    @given(data=st.binary(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes(self, decoder, data):
        _try_decode(decoder, data)

    @given(data=st.binary(min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_truncated_valid_messages(self, data):
        # Encode a real message, truncate at every prefix: decoder must
        # reject every strict prefix.
        msg = CommitmentMsg(task_id="fuzz", root=data, n_leaves=max(len(data), 1))
        encoded = msg.encode()
        for cut in range(len(encoded)):
            with pytest.raises(ReproError):
                CommitmentMsg.decode(encoded[:cut])

    def test_bit_flips_never_crash(self):
        msg = SampleChallengeMsg(task_id="fuzz", indices=(1, 2, 300, 4))
        encoded = bytearray(msg.encode())
        for i in range(len(encoded)):
            mutated = bytearray(encoded)
            mutated[i] ^= 0xFF
            _try_decode(SampleChallengeMsg.decode, bytes(mutated))


def _bundle() -> ProofBundleMsg:
    """Samples 1, 4, 1 of a six-leaf tree: the results of leaf pairs 0
    and 2 and the two level-1 digests beside them."""
    return ProofBundleMsg(
        "",
        Multiproof((b"\x00", b"\x01", b"\x04", b"\x05"), (b"\x11" * 8,) * 2),
    )


class TestMultiProofFuzz:
    def test_every_truncation_and_bit_flip_rejected_cleanly(self):
        bundle = _bundle()
        encoded = bundle.encode()
        decoded = ProofBundleMsg.decode(encoded)
        assert decoded == bundle
        assert decoded.encode() == encoded
        for cut in range(len(encoded)):
            with pytest.raises(ReproError):
                ProofBundleMsg.decode(encoded[:cut])
        for i in range(len(encoded)):
            for bit in range(8):
                mutated = bytearray(encoded)
                mutated[i] ^= 1 << bit
                _try_decode(ProofBundleMsg.decode, bytes(mutated))


_task_ids = st.text(max_size=12)
_digests = st.binary(min_size=8, max_size=8)


@st.composite
def _proof_bundles(draw):
    """The bundle of up to four samples of one tree, in the form a frame
    decodes *to* (no samples: two empty lists), so a round trip is an
    identity."""
    height = draw(st.integers(min_value=0, max_value=4))
    n_leaves = draw(st.integers(min_value=1, max_value=1 << height))
    indices = draw(
        st.lists(st.integers(min_value=0, max_value=n_leaves - 1), max_size=4)
    )
    leaves, nodes = bundle_shape(indices, height)
    width = draw(st.integers(min_value=1, max_value=16))
    return Multiproof(
        tuple(
            draw(st.binary(min_size=width, max_size=width))
            for leaf in leaves if leaf < n_leaves
        ),
        tuple(draw(_digests) for row in nodes for _ in row),
    )


# Optional trace/span ids: absent (None) or 1..64 chars of printable
# text — the codec's validity window for the tid/sid wire fields.
_required_ids = st.text(
    min_size=1,
    max_size=64,
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
)
_trace_ids = st.one_of(st.none(), _required_ids)

# Scalar attribute values inside the wire-span validity window.
_span_attr_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 30), max_value=1 << 30),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.text(max_size=32),
)


@st.composite
def _wire_span_dicts(draw):
    """One valid ``sp`` element (wire v4's optional span payload)."""
    item = {
        "tid": draw(_required_ids),
        "sid": draw(_required_ids),
        "name": draw(st.text(min_size=1, max_size=120)),
        "ts": draw(st.floats(min_value=0, max_value=2e9, allow_nan=False)),
        "dur": draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
    }
    if draw(st.booleans()):
        item["pid"] = draw(_required_ids)
    if draw(st.booleans()):
        item["st"] = draw(st.text(min_size=1, max_size=120))
    if draw(st.booleans()):
        item["attrs"] = draw(
            st.dictionaries(
                st.text(max_size=32), _span_attr_values, max_size=4
            )
        )
    return item


_wire_span_lists = st.lists(_wire_span_dicts(), max_size=3).map(tuple)


@st.composite
def _wire_frames(draw):
    kind = draw(st.integers(min_value=0, max_value=16))
    task_id = draw(_task_ids)
    if kind == 8:
        return WorkerHello(
            worker_id=draw(st.text(min_size=1, max_size=16)),
            capacity=draw(st.integers(min_value=1, max_value=256)),
        )
    if kind == 9:
        return HeartbeatFrame(worker_id=draw(st.text(min_size=1, max_size=16)))
    if kind == 10:
        return JobFrame(
            job_id=draw(st.integers(min_value=0, max_value=1 << 32)),
            payload=draw(st.binary(max_size=64)),
            trace_id=draw(_trace_ids),
            span_id=draw(_trace_ids),
        )
    if kind == 13:
        return StatsRequest()
    if kind == 14:
        return StatsReply(
            stats=draw(
                st.dictionaries(
                    st.text(max_size=12),
                    st.one_of(
                        st.integers(min_value=-(1 << 30), max_value=1 << 30),
                        st.text(max_size=12),
                    ),
                    max_size=4,
                )
            )
        )
    if kind == 11:
        return ResultFrame(
            job_id=draw(st.integers(min_value=0, max_value=1 << 32)),
            ok=draw(st.booleans()),
            payload=draw(st.binary(max_size=64)),
            spans=draw(_wire_span_lists),
        )
    if kind == 15:
        return TraceGetRequest(trace_id=draw(_required_ids))
    if kind == 16:
        return TraceReply(
            trace_id=draw(_required_ids),
            spans=draw(_wire_span_lists),
        )
    if kind == 12:
        return ByeFrame(reason=draw(st.text(max_size=30)))
    if kind == 0:
        return TaskRequest(
            participant=draw(
                st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 20))
            ),
            trace_id=draw(_trace_ids),
            span_id=draw(_trace_ids),
        )
    if kind == 1:
        # RangeDomain allows negative starts: the bounds are signed.
        start = draw(st.integers(min_value=-(1 << 16), max_value=1 << 16))
        size = draw(st.integers(min_value=1, max_value=1 << 10))
        return TaskAssign(
            assign=AssignMsg(
                task_id=task_id,
                n_inputs=size,
                workload=draw(st.text(max_size=20)),
            ),
            participant=draw(st.integers(min_value=0, max_value=1 << 16)),
            domain_start=start,
            domain_stop=start + size,
            protocol=draw(st.sampled_from(["cbs", "ni-cbs"])),
            n_samples=draw(st.integers(min_value=1, max_value=64)),
            hash_name=draw(st.sampled_from(["sha256", "sha512", "md5"])),
            sample_hash_name=draw(st.sampled_from(["sha256", "md5^3"])),
            leaf_encoding=draw(st.sampled_from(["hashed", "raw"])),
            seed=draw(st.integers(min_value=0, max_value=1 << 40)),
        )
    if kind == 2:
        return CommitmentFrame(
            msg=CommitmentMsg(
                task_id=task_id,
                root=draw(st.binary(max_size=40)),
                n_leaves=draw(st.integers(min_value=0, max_value=1 << 20)),
            )
        )
    if kind == 3:
        return ChallengeFrame(
            msg=SampleChallengeMsg(
                task_id=task_id,
                indices=tuple(
                    draw(
                        st.lists(
                            st.integers(min_value=0, max_value=1 << 20),
                            max_size=8,
                        )
                    )
                ),
            )
        )
    if kind == 4:
        return ProofsFrame(
            msg=ProofBundleMsg(
                task_id=task_id,
                bundle=draw(_proof_bundles()),
            )
        )
    if kind == 5:
        return SubmissionFrame(
            msg=NICBSSubmissionMsg(
                task_id=task_id,
                root=draw(st.binary(max_size=40)),
                n_leaves=draw(st.integers(min_value=0, max_value=1 << 20)),
                bundle=draw(_proof_bundles()),
            )
        )
    if kind == 6:
        return VerdictFrame(
            msg=VerdictMsg(
                task_id=task_id,
                accepted=draw(st.booleans()),
                reason=draw(st.text(max_size=20)),
            )
        )
    return ErrorFrame(message=draw(st.text(max_size=40)))


class TestServiceFrames:
    """The service's binary frame layer honours the same contract."""

    @given(frame=_wire_frames())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_identity(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    @given(data=st.binary(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_random_bytes_rejected_cleanly(self, data):
        try:
            decode_frame(data)
        except ReproError:
            pass

    @given(frame=_wire_frames())
    @settings(max_examples=30, deadline=None)
    def test_every_truncation_rejected(self, frame):
        encoded = encode_frame(frame)
        for cut in range(len(encoded)):
            with pytest.raises(ProtocolError):
                decode_frame(encoded[:cut])

    @given(frame=_wire_frames(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bit_flips_never_crash(self, frame, data):
        encoded = bytearray(encode_frame(frame))
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        encoded[position] ^= 0xFF
        try:
            decode_frame(bytes(encoded))
        except ReproError:
            pass  # rejection is fine; crashing is not

    def test_payload_fuzz_without_header(self):
        for payload in (
            b"",                                        # no tag byte
            TAG["commitment"],                          # tag, then nothing
            TAG["commitment"] + b"\x05abc",             # lying length
            TAG["commitment"] + b"\xff" * 11,           # overlong varint
            TAG["commitment"] + encode_bytes(b"junk"),  # inner message junk
            TAG["assign"] + encode_bytes(b""),          # empty AssignMsg
            TAG["error"] + encode_bytes(b"\xff\xfe"),   # not UTF-8
            TAG["error"] + encode_bytes(b"ok") + b"x",  # trailing bytes
            TAG["stats_request"] + b"\x00",             # ditto, empty row
            TAG["task_request"] + b"\x02",              # flag byte not 0/1
            TAG["task_request"] + b"\x01" + b"\xff" * 9 + b"\x01",  # >= 2^63
        ):
            with pytest.raises(ReproError):
                decode_frame_payload(payload)

    def test_every_unknown_tag_byte_rejected(self):
        known = {row.tag for row in FRAMES}
        assert len(known) == len(FRAMES) == 17
        assert known.isdisjoint({0x0D, 0x0E})  # retired with wire v7
        for tag in set(range(256)) - known:
            for body in (b"", b"\x00" * 8, encode_bytes(b"x")):
                with pytest.raises(ProtocolError, match="unknown frame tag"):
                    decode_frame_payload(bytes((tag,)) + body)

    def test_json_peer_rejected_at_first_byte(self):
        """A pre-v6 peer speaks JSON objects: its first byte is ``{``,
        which must never be a tag — there is no JSON decode path."""
        assert ord("{") not in {row.tag for row in FRAMES}
        for payload in (
            b"{",
            b'{"t":"task_request"}',
            b'{"capacity":1,"t":"hello","v":5,"worker":"w-old"}',
            b"null",
            b"[]",
        ):
            with pytest.raises(ProtocolError, match="unknown frame tag"):
                decode_frame_payload(payload)


def _result_with_span_blob(blob: bytes) -> bytes:
    """A ``result`` frame payload whose span blob is ``blob``, verbatim."""
    return (
        TAG["result"] + VERSION + encode_uint(0) + b"\x01"
        + encode_uint(0) + encode_uint(0)
        + encode_bytes(blob) + encode_bytes(b"x")
    )


class TestClusterEnvelope:
    """The typed job/result envelope: corrupted, truncated, oversized
    and wrong-version frames must raise CodecError/ProtocolError —
    both ReproError — and never crash a worker with anything else."""

    @given(data=st.binary(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_corrupted_payload_bytes(self, data):
        try:
            decode_cluster_payload(data)
        except CodecError:
            pass  # rejection is the contract; any other crash is a bug

    def test_truncated_payload_every_prefix(self):
        encoded = encode_cluster_payload({"chunk": list(range(50))})
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                decode_cluster_payload(encoded[:cut])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_flipped_payload(self, data):
        encoded = bytearray(encode_cluster_payload(("fn", (1, 2), {})))
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        encoded[position] ^= 0xFF
        try:
            decode_cluster_payload(bytes(encoded))
        except ReproError:
            pass  # CodecError expected; a changed-but-valid value is fine

    def test_oversized_payload_rejected_both_ways(self):
        with pytest.raises(CodecError):
            encode_cluster_payload(b"\x00" * 129, max_bytes=64)
        with pytest.raises(CodecError):
            decode_cluster_payload(b"\x00" * 129, max_bytes=64)

    def test_unregistered_callable_rejected_at_encode(self):
        # Jobs are data, never code: a callable that was never
        # register_callable()'d cannot even leave the coordinator.
        with pytest.raises(CodecError):
            encode_cluster_payload(lambda: None)

    @pytest.mark.parametrize(
        "frame",
        [
            JobFrame(job_id=0, payload=b"x"),
            ResultFrame(job_id=0, ok=True, payload=b"x"),
        ],
        ids=lambda frame: type(frame).__name__,
    )
    def test_wrong_version_rejected(self, frame):
        """No compat window: every payload-bearing frame leads with
        the wire version and is refused unless it matches exactly —
        a v9 or future frame never reaches a field decoder."""
        assert CLUSTER_WIRE_VERSION == 11
        payload = bytearray(encode_frame(frame)[FRAME_HEADER_BYTES:])
        assert payload[1] == CLUSTER_WIRE_VERSION
        for skewed in (0, CLUSTER_WIRE_VERSION - 1, CLUSTER_WIRE_VERSION + 1):
            payload[1] = skewed
            with pytest.raises(CodecError, match="version"):
                decode_frame_payload(bytes(payload))
            # The encoder trusts its caller: a skewed local frame
            # leaves, and dies at the peer exactly like the crafted one.
            shipped = encode_frame(dataclasses.replace(frame, version=skewed))
            assert shipped[FRAME_HEADER_BYTES:] == bytes(payload)

    def test_oversized_job_frame_rejected_at_encode(self):
        from repro.net.framing import MAX_CLUSTER_PAYLOAD_BYTES

        frame = JobFrame(
            job_id=0, payload=b"\x00" * (MAX_CLUSTER_PAYLOAD_BYTES + 1)
        )
        with pytest.raises(CodecError):
            encode_frame(frame, max_frame=1 << 62)

    def test_truncated_job_frames_rejected(self):
        encoded = encode_frame(
            JobFrame(job_id=3, payload=encode_cluster_payload((1, 2, 3)))
        )
        for cut in range(len(encoded)):
            with pytest.raises(ProtocolError):
                decode_frame(encoded[:cut])

    def test_malformed_cluster_frames_rejected(self):
        u, b = encode_uint, encode_bytes
        head = VERSION + u(0)  # version, job id
        for payload, error in (
            (TAG["job"], CodecError),                        # nothing
            (TAG["job"] + VERSION, CodecError),              # no id
            (TAG["job"] + head + b"\x00\x00", CodecError),   # no payload
            (TAG["job"] + head + b"\x00\x00\x09x", CodecError),  # lying
            (TAG["job"] + VERSION + b"\xff" * 9 + b"\x01" + b"\x00\x00"
             + b(b"x"), ProtocolError),                      # id >= 2^63
            (TAG["job"] + head + b"\x02\x00" + b(b"x"), ProtocolError),
            (TAG["result"] + head, CodecError),              # no ok flag
            (TAG["result"] + head + b"\x02" + u(0) + u(0) + b(b"") + b(b"x"),
             ProtocolError),                                 # ok not 0/1
            (TAG["hello"] + VERSION + b(b"w") + u(0), ProtocolError),
            (TAG["hello"] + VERSION + b(b"w"), CodecError),  # no capacity
            (TAG["hello"] + u(1 << 16) + b(b"w") + u(1), CodecError),
            (TAG["heartbeat"], CodecError),
            (TAG["bye"], CodecError),
            (TAG["result"] + head + b"\x01" + u(1 << 63) + u(0) + b(b"")
             + b(b"x"), ProtocolError),                      # count >= 2^63
            (TAG["result"] + head + b"\x01" + u(0) + u(0) + b(b"") + b(b"x")
             + b"x", ProtocolError),                         # trailing
            # The v7 streamed-answer tags are unassigned, whatever follows.
            (b"\x0d" + head + u(0) + b(b"x"), ProtocolError),
            (b"\x0e" + head + u(1) + u(0) + u(0) + b(b""), ProtocolError),
        ):
            with pytest.raises(error):
                decode_frame_payload(payload)

    def test_skewed_hello_still_parses_for_polite_rejection(self):
        """The ``hello`` version field is shape-checked but not gated
        at decode: the coordinator must be able to *read* a skewed
        peer's hello so it can answer with a clear upgrade message
        instead of a silent parse error (the gate lives in
        ``_serve_worker``)."""
        for version in (0, CLUSTER_WIRE_VERSION - 1, CLUSTER_WIRE_VERSION + 1):
            hello = decode_frame_payload(
                TAG["hello"] + encode_uint(version) + encode_bytes(b"w-old")
                + encode_uint(2)
            )
            assert hello == WorkerHello("w-old", 2, version=version)

    @pytest.mark.parametrize(
        "worker_id", [b"", b"w" * 129, "é".encode() * 65, b"\xff"]
    )
    def test_worker_ids_are_short_nonempty_text(self, worker_id):
        """A worker id becomes a metrics label and a log field on the
        coordinator: empty, oversized (by UTF-8 bytes) or non-UTF-8
        ids die in the codec, on ``hello`` and ``heartbeat`` alike."""
        for payload in (
            TAG["hello"] + VERSION + encode_bytes(worker_id) + encode_uint(1),
            TAG["heartbeat"] + encode_bytes(worker_id),
        ):
            with pytest.raises(ProtocolError, match="worker_id"):
                decode_frame_payload(payload)
        longest = "w" * 128
        assert decode_frame(encode_frame(HeartbeatFrame(longest))) == (
            HeartbeatFrame(longest)
        )

    def test_result_spans_round_trip(self):
        spans = (
            {"tid": "t1", "sid": "s1", "name": "worker.execute",
             "ts": 1.5, "dur": 0.25, "pid": "p1",
             "attrs": {"worker": "w-0", "jobs": 3}},
        )
        frame = ResultFrame(job_id=1, ok=True, payload=b"x", spans=spans)
        assert decode_frame(encode_frame(frame)) == frame

    @pytest.mark.parametrize(
        "sp",
        [
            "not-a-list",
            {"tid": "t"},
            [{"tid": "t1", "sid": "s1", "name": "n", "ts": 0, "dur": 0,
              "evil": 1}],
            [{"tid": "t1", "sid": "s1", "name": "", "ts": 0, "dur": 0}],
            [{"tid": "t1", "sid": "s1", "name": "n", "ts": "x", "dur": 0}],
            [{"tid": "t1", "sid": "s1", "name": "n", "ts": 0, "dur": -1}],
            [{"tid": "t" * 200, "sid": "s1", "name": "n", "ts": 0, "dur": 0}],
            [{"tid": "t1", "sid": "s1", "name": "n", "ts": 0, "dur": 0,
              "attrs": {"k": {"nested": 1}}}],
            [{"tid": "t1", "sid": "s1", "name": "n", "ts": 0, "dur": 0}] * 64,
        ],
    )
    def test_junk_span_payloads_rejected(self, sp):
        """Hostile span blobs are ProtocolErrors — same policy as junk
        trace ids: reject the frame, never crash."""
        with pytest.raises(ProtocolError, match="spans"):
            decode_frame_payload(_result_with_span_blob(json.dumps(sp).encode()))

    @pytest.mark.parametrize(
        "blob",
        [b"{", b"\xff\xfe[]", b"null", b"[" * 100_000, b"[NaN"],
        ids=["not-json", "not-utf8", "null", "deep-nesting", "truncated"],
    )
    def test_undecodable_span_blobs_rejected(self, blob):
        with pytest.raises(ProtocolError, match="spans"):
            decode_frame_payload(_result_with_span_blob(blob))

    def test_trace_frames_round_trip_and_reject_junk(self):
        frame = TraceReply(
            trace_id="t1",
            spans=({"tid": "t1", "sid": "s1", "name": "n",
                    "ts": 0.0, "dur": 0.0},),
        )
        assert decode_frame(encode_frame(frame)) == frame
        request = TraceGetRequest(trace_id="t1")
        assert decode_frame(encode_frame(request)) == request
        b = encode_bytes
        for payload, error in (
            (TAG["trace_get"], CodecError),                  # tid required
            (TAG["trace_get"] + b(b""), ProtocolError),
            (TAG["trace_get"] + b(b"t" * 200), ProtocolError),
            (TAG["trace"] + b(b""), ProtocolError),          # tid required
            (TAG["trace"] + b(b"t1"), CodecError),           # no span blob
            (TAG["trace"] + b(b"t1") + b(b'"x"'), ProtocolError),
        ):
            with pytest.raises(error):
                decode_frame_payload(payload)

    def test_oversized_result_rejected_at_encode(self):
        """One frame answers a chunk, so this cap bounds a chunk's
        outcomes: the worker turns this error into a chunk-level
        ``ok=False`` (see ``TestAnswerPathSurvival``)."""
        from repro.net.framing import MAX_CLUSTER_PAYLOAD_BYTES

        frame = ResultFrame(
            job_id=0, ok=True,
            payload=b"\x00" * (MAX_CLUSTER_PAYLOAD_BYTES + 1),
        )
        with pytest.raises(CodecError, match="exceeds limit"):
            encode_frame(frame, max_frame=1 << 62)


class TestChunkAndOutcomeEnvelopes:
    """The multi-job chunk and per-job outcome envelopes under hostile
    bytes: truncated, corrupted, mis-shaped and oversized inputs must
    raise CodecError, never crash either side of the cluster plane."""

    @given(data=st.binary(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_random_bytes_rejected(self, data):
        for decoder in (decode_cluster_chunk, decode_cluster_outcomes):
            try:
                decoder(data)
            except CodecError:
                pass

    def test_truncated_chunk_every_prefix(self):
        encoded = encode_cluster_chunk(
            [encode_cluster_payload((i, i)) for i in range(8)]
        )
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                decode_cluster_chunk(encoded[:cut])

    def test_truncated_outcomes_every_prefix(self):
        encoded = encode_cluster_outcomes(
            [(True, b"abc" * 5), (False, b"err")]
        )
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                decode_cluster_outcomes(encoded[:cut])

    def test_round_trips(self):
        payloads = [encode_cluster_payload(("x", i)) for i in range(5)]
        assert decode_cluster_chunk(
            encode_cluster_chunk(payloads)
        ) == tuple(payloads)
        entries = [(True, b"one"), (False, b"two"), (True, b"")]
        assert decode_cluster_outcomes(
            encode_cluster_outcomes(entries)
        ) == entries

    @given(
        payloads=st.lists(st.binary(max_size=200), min_size=1, max_size=12),
        uniform=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_layout_is_count_then_length_prefixed_items(
        self, payloads, uniform
    ):
        """The chunk envelope delegates to ``encode_bytes_list``; its
        bytes stay ``count ‖ (length ‖ item)*`` whichever path that
        takes (a uniform run of short items, or the generic loop)."""
        if uniform:
            payloads = [payloads[0][:100]] * len(payloads)
        spelled = encode_uint(len(payloads)) + b"".join(
            encode_uint(len(item)) + item for item in payloads
        )
        assert encode_cluster_chunk(payloads) == spelled
        assert decode_cluster_chunk(spelled) == tuple(payloads)

    def test_wrong_shapes_rejected(self):
        # Typed *value* payloads are junk to the chunk/outcome span
        # framers: the envelopes have their own byte layout, so a
        # payload-encoded object of any shape must be refused.
        for obj in ("chunk", [1, 2], [(True, "not-bytes")],
                    [(1, b"x")], [("True", b"x")], [(True,)],
                    {1: b"x"}, ()):
            raw = encode_cluster_payload(obj)
            with pytest.raises(CodecError):
                decode_cluster_chunk(raw)
            with pytest.raises(CodecError):
                decode_cluster_outcomes(raw)
        # An empty outcome list IS legal (a zero-entry part would be
        # odd but harmless); an empty chunk is not (see
        # test_chunk_entries_must_be_bytes_at_encode).
        assert decode_cluster_outcomes(encode_cluster_outcomes([])) == []

    def test_chunk_entries_must_be_bytes_at_encode(self):
        with pytest.raises(CodecError):
            encode_cluster_chunk(["not-bytes"])
        with pytest.raises(CodecError):
            encode_cluster_chunk([])

    def test_outcome_entries_validated_at_encode(self):
        with pytest.raises(CodecError):
            encode_cluster_outcomes([(True, "not-bytes")])
        with pytest.raises(CodecError):
            encode_cluster_outcomes([("yes", b"x")])

    def test_oversized_envelopes_rejected_both_ways(self):
        with pytest.raises(CodecError):
            encode_cluster_chunk([b"\x00" * 256], max_bytes=64)
        with pytest.raises(CodecError):
            decode_cluster_chunk(b"\x00" * 129, max_bytes=64)
        with pytest.raises(CodecError):
            encode_cluster_outcomes([(True, b"\x00" * 256)], max_bytes=64)
        with pytest.raises(CodecError):
            decode_cluster_outcomes(b"\x00" * 129, max_bytes=64)


class TestTypedCodecLimits:
    """The typed value codec's size caps fire on the *declared* sizes,
    before allocation: a hostile peer lying in a length field cannot
    make the decoder reserve memory it never received bytes for."""

    def test_lying_field_lengths_rejected(self):
        from repro.service.jobcodec import MAX_FIELD_BYTES, Tag
        from repro.utils.encoding import encode_uint

        for tag in (Tag.STR, Tag.BYTES):
            raw = bytes([tag]) + encode_uint(MAX_FIELD_BYTES + 1)
            with pytest.raises(CodecError, match="exceeds limit"):
                decode_cluster_payload(raw)

    def test_lying_container_counts_rejected(self):
        from repro.service.jobcodec import MAX_CONTAINER_ITEMS, Tag
        from repro.utils.encoding import encode_uint

        for tag in (Tag.TUPLE, Tag.LIST, Tag.DICT):
            raw = bytes([tag]) + encode_uint(MAX_CONTAINER_ITEMS + 1)
            with pytest.raises(CodecError, match="exceeds limit"):
                decode_cluster_payload(raw)

    def test_depth_bomb_rejected_both_ways(self):
        from repro.service.jobcodec import MAX_DEPTH, Tag

        # [[[…[None]…]]] crafted directly: LIST(count=1) nested past
        # the cap, with a real terminator so depth is the only fault.
        raw = bytes([Tag.LIST, 1]) * (MAX_DEPTH + 2) + bytes([Tag.NONE])
        with pytest.raises(CodecError, match="depth"):
            decode_cluster_payload(raw)
        nested = None
        for _ in range(MAX_DEPTH + 2):
            nested = [nested]
        with pytest.raises(CodecError, match="depth"):
            encode_cluster_payload(nested)

    def test_depth_bomb_through_nested_records_rejected(self):
        """A record body is read at its term's depth: 65 ``scheme_batch``
        records, each holding the next in its table term, are refused
        at the cap, not after Python's recursion limit."""
        from repro.core.cbs import CBSScheme
        from repro.service.jobcodec import BATCH_HEAD, MAX_DEPTH, Tag

        scheme = encode_cluster_payload(CBSScheme(4))
        term = bytes([Tag.NONE])
        for _ in range(MAX_DEPTH + 1):
            body = BATCH_HEAD.pack(0x80, 0) + scheme + bytes([Tag.TUPLE, 1]) + term
            term = _raw_record("scheme_batch", body)
        with pytest.raises(CodecError, match="depth limit"):
            decode_cluster_payload(term)

    def test_depth_bomb_through_nested_cacheable_bodies_rejected(self):
        """A cacheable body is read at its term's depth too, with or
        without a scheme cache: 65 ``double_check_scheme`` bodies, each
        the next one's only replica behaviour, are refused at the cap
        before any constructor sees one."""
        from repro.service.jobcodec import MAX_DEPTH, SchemeCache, Tag
        from repro.utils.encoding import encode_uint

        term = bytes([Tag.NONE])
        for _ in range(MAX_DEPTH + 1):
            fields = (
                bytes([Tag.TUPLE, 2, Tag.INT]) + encode_uint(2)
                + bytes([Tag.LIST, 1]) + term
            )
            term = _raw_record("double_check_scheme", fields)
        for cache in (None, SchemeCache()):
            with pytest.raises(CodecError, match="depth limit"):
                decode_cluster_payload(term, cache=cache)

    def test_oversized_name_rejected(self):
        from repro.service.jobcodec import MAX_NAME_BYTES, Tag
        from repro.utils.encoding import encode_uint

        name = b"x" * (MAX_NAME_BYTES + 1)
        raw = (
            bytes([Tag.CALLABLE]) + encode_uint(0)
            + encode_uint(len(name)) + name
        )
        with pytest.raises(CodecError, match="exceeds limit"):
            decode_cluster_payload(raw)

    def test_dangling_name_reference_rejected(self):
        from repro.service.jobcodec import Tag
        from repro.utils.encoding import encode_uint

        raw = bytes([Tag.CALLABLE]) + encode_uint(7)
        with pytest.raises(CodecError, match="out of range"):
            decode_cluster_payload(raw)

    def test_every_unknown_tag_byte_rejected(self):
        """Every byte that is not a ``TERMS`` row, the retired 0x04
        (``bigint``) and 0x0B (``set``) included, is an unknown tag."""
        from repro.service.jobcodec import TERMS

        known = {term.tag for term in TERMS}
        assert not known & {0x04, 0x0B}
        for byte in sorted(set(range(256)) - known):
            with pytest.raises(CodecError, match="unknown value tag"):
                decode_cluster_payload(bytes([byte]))

    def test_minus_two_to_the_63_has_one_encoding(self):
        """``-2**63`` is an ``int`` like every other i64, spelled as the
        classic zigzag fold spells it; the retired ``bigint`` spelling
        it used to take is an unknown tag."""
        canonical = bytes.fromhex("03" + "ff" * 9 + "01")
        assert encode_cluster_payload(-(1 << 63)) == canonical
        assert decode_cluster_payload(canonical) == -(1 << 63)
        with pytest.raises(CodecError, match="unknown value tag 0x04"):
            decode_cluster_payload(bytes.fromhex("040108" + "80" + "00" * 7))
        neighbour = bytes.fromhex("03fd" + "ff" * 8 + "01")
        assert encode_cluster_payload(-(1 << 63) + 1) == neighbour
        assert decode_cluster_payload(neighbour) == -(1 << 63) + 1

    def test_every_int_a_varint_can_carry_is_one_int_term(self):
        """The ``int`` term covers ``-2^76 <= x < 2^76``, every value a
        zigzag varint of at most eleven bytes unfolds to; past either
        end, encode refuses before anything reaches the wire."""
        import random

        from repro.service.jobcodec import Tag
        from repro.utils.encoding import encode_uint

        def classic(v):  # the i64 fold: every i64 keeps these bytes
            return (v << 1) ^ (v >> 63)

        rng = random.Random(0)
        i64 = [-(1 << 63), (1 << 63) - 1, -1, 0, 1] + [
            rng.randrange(-(1 << 63), 1 << 63) for _ in range(2000)
        ]
        for value in i64:
            raw = bytes([Tag.INT]) + encode_uint(classic(value))
            assert encode_cluster_payload(value) == raw
            assert decode_cluster_payload(raw) == value
        wide = [-(1 << 76), (1 << 76) - 1, -(1 << 63) - 1, 1 << 63, (1 << 64) - 1]
        for value in wide + [rng.randrange(-(1 << 76), 1 << 76) for _ in range(2000)]:
            raw = encode_cluster_payload(value)
            assert raw[0] == Tag.INT and len(raw) <= 12
            assert decode_cluster_payload(raw) == value
        assert decode_cluster_payload(b"\x03" + b"\xff" * 10 + b"\x7f") == -(1 << 76)
        for value in (1 << 76, -(1 << 76) - 1, 1 << 200):
            with pytest.raises(CodecError, match="outside the int term's range"):
                encode_cluster_payload([0, value])

    def test_sets_do_not_cross_the_wire(self):
        for value in ({1, 2}, frozenset({3})):
            with pytest.raises(CodecError, match="not encodable"):
                encode_cluster_payload(value)

    def test_oversized_field_rejected_at_encode(self):
        from repro.service.jobcodec import MAX_FIELD_BYTES

        with pytest.raises(CodecError, match="exceeds limit"):
            encode_cluster_payload(b"x" * (MAX_FIELD_BYTES + 1))


def _registered_scheme_instances():
    """One representative instance per registered scheme struct."""
    from repro.baselines.double_check import DoubleCheckScheme
    from repro.baselines.hardening import HardenedProbeScheme
    from repro.baselines.naive_sampling import NaiveSamplingScheme
    from repro.baselines.ringer import RingerScheme
    from repro.cheating.strategies import HonestBehavior, SemiHonestCheater
    from repro.core.cbs import CBSScheme
    from repro.core.ni_cbs import NICBSScheme
    from repro.merkle.tree import LeafEncoding

    return [
        CBSScheme(
            n_samples=24,
            hash_name="sha256",
            leaf_encoding=LeafEncoding.RAW,
            with_replacement=False,
            include_reports=False,
            stop_on_first_failure=False,
        ),
        NICBSScheme(
            n_samples=12,
            sample_hash_name="md5^3",
            hash_name="sha256",
            subtree_height=2,
            stop_on_first_failure=False,
        ),
        NaiveSamplingScheme(8, with_replacement=False),
        DoubleCheckScheme(
            replication=3,
            replica_behaviors=[HonestBehavior(), SemiHonestCheater(0.5)],
        ),
        RingerScheme(5, require_all=False),
        HardenedProbeScheme(7),
    ]


class TestRegisteredSchemeRoundTrip:
    """Every registered verification scheme crosses the wire losslessly
    — encode → decode → re-encode is byte-identical.  That canonical-
    bytes property is what the worker's scheme cache keys on, so a
    break here silently degrades the cache, not just one payload."""

    def test_registry_covers_every_scheme_struct(self):
        from repro.service.jobcodec import registered_structs

        scheme_names = {
            name for name in registered_structs() if name.endswith("_scheme")
        }
        assert scheme_names == {
            "cbs_scheme",
            "nicbs_scheme",
            "naive_sampling_scheme",
            "double_check_scheme",
            "ringer_scheme",
            "hardened_probe_scheme",
        }

    @pytest.mark.parametrize(
        "scheme",
        _registered_scheme_instances(),
        ids=lambda s: type(s).__name__,
    )
    def test_scheme_round_trips_canonically(self, scheme):
        raw = encode_cluster_payload(scheme)
        back = decode_cluster_payload(raw)
        assert type(back) is type(scheme)
        assert encode_cluster_payload(back) == raw

    @pytest.mark.parametrize(
        "scheme",
        _registered_scheme_instances(),
        ids=lambda s: type(s).__name__,
    )
    def test_scheme_cache_returns_shared_instance(self, scheme):
        from repro.service.jobcodec import SchemeCache

        cache = SchemeCache()
        raw = encode_cluster_payload(scheme)
        first = decode_cluster_payload(raw, cache=cache)
        second = decode_cluster_payload(raw, cache=cache)
        assert second is first  # one construction per canonical params
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_scheme_jobs_round_trip_through_batch(self):
        from repro.cheating.strategies import HonestBehavior
        from repro.core.cbs import CBSScheme
        from repro.engine.jobs import SchemeBatch, SchemeJob
        from repro.tasks.domain import RangeDomain
        from repro.tasks.result import TaskAssignment
        from repro.tasks.workloads import PasswordSearch

        assignment = TaskAssignment(
            "t-0", RangeDomain(0, 64), PasswordSearch()
        )
        batch = SchemeBatch(
            scheme=CBSScheme(n_samples=4),
            jobs=tuple(
                SchemeJob(assignment, HonestBehavior(), seed=i)
                for i in range(3)
            ),
        )
        raw = encode_cluster_payload(batch)
        back = decode_cluster_payload(raw)
        assert type(back) is SchemeBatch
        assert len(back.jobs) == 3
        assert encode_cluster_payload(back) == raw


def _raw_struct(name: str, fields: tuple) -> bytes:
    """A struct term spelled by hand, so a test can put any field tuple
    (valid or hostile) behind a registered struct name.  The fields are
    encoded as inside that struct: its name is interned and it holds
    memo slot 0."""
    from repro.service.jobcodec import _Encoder

    encoder = _Encoder()
    encoder.names[name] = 0
    encoder.memo[id(encoder)] = 0
    encoder.value(fields)
    return _raw_record(name, bytes(encoder.out))


def _raw_record(name: str, body: bytes) -> bytes:
    """Any body bytes behind a registered struct name."""
    from repro.service.jobcodec import Tag
    from repro.utils.encoding import encode_uint

    spelled = name.encode("utf-8")
    return (
        bytes([Tag.STRUCT]) + encode_uint(0) + encode_uint(len(spelled))
        + spelled + encode_uint(len(body)) + body
    )


def _struct_body(raw: bytes) -> bytes:
    """The body of the struct term a payload opens with."""
    from repro.service.jobcodec import Tag
    from repro.utils.encoding import read_uint

    assert raw[0] == Tag.STRUCT and raw[1] == 0  # the name is spelled
    size, pos = read_uint(raw, 2)
    body_len, pos = read_uint(raw, pos + size)
    return raw[pos:pos + body_len]


def _ledger_bits(ledger) -> tuple:
    """Every ledger field, with floats as their IEEE-754 bytes (NaN and
    -0.0 compare by representation, and an int never equals a float)."""
    import struct

    return tuple(
        struct.pack(">d", value) if type(value) is float else (type(value), value)
        for value in (*list(ledger.as_dict().values())[:12], ledger.counters)
    )


def _result_bits(result) -> tuple:
    o = result.outcome
    return (
        o.task_id, o.accepted, o.reason,
        [(type(v.index), v.index, v.accepted, v.reason) for v in o.verdicts],
        _ledger_bits(result.participant_ledger),
        _ledger_bits(result.supervisor_ledger),
        _ledger_bits(result.other_ledger),
        result.work,
    )


_LEDGER_INTS = st.one_of(
    st.integers(-5, 1 << 20),
    st.sampled_from(
        [(1 << 63) - 1, 1 << 63, (1 << 75) + 7, -(1 << 63), -(1 << 63) - 1]
    ),
)
_LEDGER_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.integers(0, 9),  # an int where a cost belongs: must stay an int
)


@st.composite
def _ledgers(draw):
    from repro.accounting import CostLedger

    f, i = _LEDGER_FLOATS, _LEDGER_INTS
    return CostLedger(
        draw(f), draw(i), draw(f), draw(i), draw(f), draw(i), draw(i),
        draw(i), draw(i), draw(i), draw(i), draw(f),
        counters=draw(
            st.dictionaries(st.text(max_size=8), st.integers(0, 1 << 70), max_size=3)
        ),
    )


@st.composite
def _scheme_run_results(draw):
    from repro.accounting import CostLedger
    from repro.cheating.strategies import WorkSummary
    from repro.core.scheme import (
        RejectReason,
        SampleVerdict,
        SchemeRunResult,
        VerificationOutcome,
    )

    reasons = st.sampled_from(list(RejectReason))
    indices = st.one_of(
        st.integers(0, (1 << 32) - 1),
        st.sampled_from([-1, 1 << 32, 1 << 70]),  # beyond u32: fallback
    )
    verdicts = draw(
        st.lists(
            st.builds(SampleVerdict, indices, st.booleans(), reasons),
            max_size=6,
        )
    )
    counts = st.integers(0, 1 << 40)
    return SchemeRunResult(
        outcome=VerificationOutcome(
            draw(st.text(max_size=12)), draw(st.booleans()), verdicts,
            draw(reasons),
        ),
        participant_ledger=draw(_ledgers()),
        supervisor_ledger=draw(_ledgers()),
        work=draw(st.none() | st.builds(WorkSummary, counts, counts)),
        other_ledger=draw(st.just(CostLedger()) | _ledgers()),
    )


class TestPackedResultRecords:
    """The result plane's packed records: exact round trips for every
    value (through the fixed records or the generic fallback), and
    CodecError — never a crash, never a truncation — on junk."""

    @staticmethod
    def real_results():
        from repro.baselines import DoubleCheckScheme, RingerScheme
        from repro.cheating.strategies import HonestBehavior, SemiHonestCheater
        from repro.core.cbs import CBSScheme
        from repro.core.ni_cbs import NICBSScheme
        from repro.engine.jobs import SchemeBatch, SchemeJob, execute_batch
        from repro.tasks.domain import RangeDomain
        from repro.tasks.result import TaskAssignment
        from repro.tasks.workloads import PasswordSearch

        task = TaskAssignment("t-0", RangeDomain(0, 96), PasswordSearch())
        jobs = (
            SchemeJob(task, HonestBehavior(), seed=1),
            SchemeJob(task, SemiHonestCheater(0.4), seed=2),
        )
        return [
            result
            for scheme in (
                CBSScheme(n_samples=8, stop_on_first_failure=False),
                NICBSScheme(n_samples=8),
                DoubleCheckScheme(replication=2),  # non-zero other_ledger
                RingerScheme(n_ringers=3),
            )
            for result in execute_batch(SchemeBatch(scheme, jobs))
        ]

    def test_real_results_round_trip(self):
        results = self.real_results()
        assert any(r.other_ledger.evaluations for r in results)
        raw = encode_cluster_payload(results)
        back = decode_cluster_payload(raw)
        assert back == results
        assert [_result_bits(r) for r in back] == [
            _result_bits(r) for r in results
        ]
        assert encode_cluster_payload(back) == raw

    @given(result=_scheme_run_results())
    @settings(max_examples=150, deadline=None)
    def test_any_result_round_trips_exactly(self, result):
        raw = encode_cluster_payload(result)
        back = decode_cluster_payload(raw)
        assert _result_bits(back) == _result_bits(result)
        assert encode_cluster_payload(back) == raw

    def test_values_beyond_the_fixed_records_take_the_generic_path(self):
        """A result whose every value fits its slot is one record; one
        value past its slot sends that whole result down the generic
        term path, exactly."""
        import dataclasses

        from repro.accounting import CostLedger
        from repro.cheating.strategies import WorkSummary
        from repro.core.scheme import SampleVerdict, VerificationOutcome
        from repro.service.jobcodec import Tag

        result = self.real_results()[0]
        assert _struct_body(encode_cluster_payload(result))[0] >= 0x80
        outcome = result.outcome
        for change in (
            {"participant_ledger": CostLedger(evaluations=1 << 63)},
            {"supervisor_ledger": CostLedger(bytes_sent=-(1 << 63) - 1)},
            {"participant_ledger": CostLedger(evaluation_cost=3)},  # an int cost
            {"supervisor_ledger": CostLedger(hashes=True)},  # a bool count
            {"participant_ledger": CostLedger(counters={"k": 1 << 32})},
            {"participant_ledger": CostLedger(counters={"é" * 128: 1})},
            {"other_ledger": CostLedger(hashes=1)},
            {"work": WorkSummary(1 << 32, 0)},
            {"outcome": dataclasses.replace(outcome, task_id="t" * 256)},
            *(
                {"outcome": VerificationOutcome("t", False, [SampleVerdict(i, False)])}
                for i in (-1, 1 << 32)
            ),
        ):
            changed = dataclasses.replace(result, **change)
            raw = encode_cluster_payload(changed)
            assert _struct_body(raw)[0] == Tag.TUPLE, change
            back = decode_cluster_payload(raw)
            assert _result_bits(back) == _result_bits(changed)
            assert encode_cluster_payload(back) == raw

    def test_zero_other_ledger_costs_nothing_and_signed_zero_survives(self):
        """The two-party case has no ``other_ledger`` in its record at
        all; a ``-0.0`` cost is not zero, so that result goes generic."""
        import math

        from repro.accounting import CostLedger
        from repro.service.jobcodec import RESULT_HEAD, Tag

        result = self.real_results()[0]
        assert result.other_ledger == CostLedger()
        lean = _struct_body(encode_cluster_payload(result))
        assert lean[0] >= 0x80 and len(lean) == (
            RESULT_HEAD.size + 5 * len(result.outcome.verdicts)
            + len(result.outcome.task_id)
            + sum(5 + len(name) for name in result.participant_ledger.counters)
            + sum(5 + len(name) for name in result.supervisor_ledger.counters)
        )
        result.other_ledger = CostLedger(screening_cost=-0.0)
        signed = encode_cluster_payload(result)
        assert _struct_body(signed)[0] == Tag.TUPLE
        back = decode_cluster_payload(signed)
        assert math.copysign(1.0, back.other_ledger.screening_cost) == -1.0

    def test_service_verification_outcomes_ride_the_same_packing(self):
        from repro.cheating.strategies import SemiHonestCheater
        from repro.core.cbs import CBSParticipant, CBSScheme, CBSSupervisor
        from repro.core.ni_cbs import NICBSParticipant, NICBSScheme
        from repro.core.scheme import VerificationOutcome
        from repro.engine.cluster.chunk import execute_payload
        from repro.merkle.hashing import get_hash
        from repro.service.jobcodec import encode_job
        from repro.service.verification_jobs import verify_round
        from repro.tasks.domain import RangeDomain
        from repro.tasks.result import TaskAssignment
        from repro.tasks.workloads import PasswordSearch

        task = TaskAssignment("svc-0", RangeDomain(0, 64), PasswordSearch())
        sha = get_hash("sha256")
        prover = CBSParticipant(task, SemiHonestCheater(0.5), hash_fn=sha)
        commitment = prover.compute_and_commit()
        supervisor = CBSSupervisor(task, n_samples=8, hash_fn=sha, seed=7)
        supervisor.receive_commitment(commitment)
        bundle = prover.prove(supervisor.make_challenge())
        submission = NICBSParticipant(
            task, SemiHonestCheater(0.5), n_samples=8, sample_hash=sha,
            hash_fn=sha,
        ).compute_and_submit()
        for job in (
            encode_job(
                verify_round,
                (CBSScheme(8), task, 7, commitment, bundle), {},
            ),
            encode_job(
                verify_round, (NICBSScheme(8), task, 7, submission), {},
            ),
        ):
            outcome = execute_payload(job)
            assert type(outcome) is VerificationOutcome and outcome.verdicts
            raw = encode_cluster_payload(outcome)
            assert decode_cluster_payload(raw) == outcome
            # One blob, not a struct per verdict: 5 bytes each.
            assert len(raw) < 40 + 5 * len(outcome.verdicts)

    def test_leaf_vectors_cannot_ride_the_wire(self):
        from repro.cheating.strategies import ComputedWork, HonestBehavior
        from repro.core.cbs import CBSScheme
        from repro.service.jobcodec import registered_structs
        from repro.tasks.domain import RangeDomain
        from repro.tasks.result import TaskAssignment
        from repro.tasks.workloads import PasswordSearch

        assert "computed_work" not in registered_structs()
        task = TaskAssignment("t-0", RangeDomain(0, 32), PasswordSearch())
        full = CBSScheme(n_samples=4).run(task, HonestBehavior(), seed=1)
        assert type(full.work) is ComputedWork
        with pytest.raises(CodecError, match="WorkSummary"):
            encode_cluster_payload(full)
        with pytest.raises(CodecError, match="not encodable"):
            encode_cluster_payload(full.work)

    def test_truncated_and_bit_flipped_results_rejected_cleanly(self):
        encoded = encode_cluster_payload(self.real_results()[1])
        assert _struct_body(encoded)[0] >= 0x80  # the packed record
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                decode_cluster_payload(encoded[:cut])
        for bit in range(8 * len(encoded)):
            flipped = bytearray(encoded)
            flipped[bit // 8] ^= 1 << bit % 8
            try:
                decode_cluster_payload(bytes(flipped))
            except CodecError:
                pass  # a changed-but-valid value is fine; a crash is not

    def test_junk_verdict_blobs_rejected(self):
        good = bytes([0, 0, 0, 7, 0x80]) * 3
        assert len(
            decode_cluster_payload(
                _raw_struct("verification_outcome", ("t", True, 0, good))
            ).verdicts
        ) == 3
        for blob in (
            good[:-1],  # truncated: not a whole number of records
            good + b"\x00",  # over-long by one byte
            bytes([0, 0, 0, 7, 0x09]),  # reason code past the table
            bytes([0, 0, 0, 7, 0xFF]),
            "not-bytes", 17, None, (1, 2), [1, 2],
        ):
            with pytest.raises(CodecError):
                decode_cluster_payload(
                    _raw_struct("verification_outcome", ("t", True, 0, blob))
                )

    @pytest.mark.parametrize("code", [9, -1, 1 << 40, True, "ok", None, 0.0])
    def test_out_of_range_reason_codes_rejected(self, code):
        for name, fields in (
            ("verification_outcome", ("t", False, code, b"")),
            ("sample_verdict", (3, False, code)),
        ):
            with pytest.raises(CodecError):
                decode_cluster_payload(_raw_struct(name, fields))

    def test_junk_ledger_records_rejected(self):
        """A ledger off the record is its twelve slots then its
        counters, each slot an int, float or bool and the counters a
        dict of str to int."""
        from repro.accounting import CostLedger

        zero = (0.0, 0, 0.0, 0, 0.0, 0, 0, 0, 0, 0, 0, 0.0)
        assert decode_cluster_payload(
            _raw_struct("cost_ledger", zero + ({},))
        ) == CostLedger()
        for fields in (
            zero,  # arity: no counters
            zero + ({}, None),
            zero[1:] + ({},),
            zero[:-1] + ("0.0", {}),  # a slot holds a number
            zero[:-1] + (None, {}),
            zero[:-1] + (b"", {}),
            zero[:-1] + ([0.0], {}),
            zero + (None,),  # counters must be a dict
            zero + ([("k", 1)],),
            zero + ({"k": "v"},),  # of str to int
            zero + ({3: 1},),
            zero + ({"k": True},),
            zero + ({"k": 1.0},),
            (bytes(96), {}),  # the bytes-blob ledger is gone
        ):
            with pytest.raises(CodecError):
                decode_cluster_payload(_raw_struct("cost_ledger", fields))

    def test_junk_result_shapes_rejected(self):
        from repro.accounting import CostLedger
        from repro.cheating.strategies import WorkSummary
        from repro.core.scheme import RejectReason, VerificationOutcome
        from repro.service.jobcodec import COUNTER_ROW, RESULT_HEAD

        # The record: every head slot, verdict row, task id and counter
        # that does not add up is refused.
        result = self.real_results()[0]
        body = _struct_body(encode_cluster_payload(result))
        head = RESULT_HEAD.unpack_from(body)
        tail = body[RESULT_HEAD.size:]
        slots = ("flags", "verdicts", "task", "p", "s", "n_inputs", "n_honest")
        verdicts = 5 * head[1]
        task = tail[verdicts:verdicts + head[2]]
        counter = COUNTER_ROW.pack(1, 1) + b"k"

        def record(tail=tail, **change):
            values = {**dict(zip(slots, head)), **change}
            return _raw_record(
                "scheme_run_result",
                RESULT_HEAD.pack(*values.values(), *head[7:]) + tail,
            )

        assert decode_cluster_payload(record()) == result
        assert head[0] & 0x20 and head[5]  # the result carries work
        for junk in (
            record(flags=head[0] | 0x1F),  # reason code past the table
            record(flags=head[0] & ~0x20),  # work counts without work
            record(verdicts=head[1] + 1),  # more verdicts than rows
            record(task=head[2] + 1),  # a task id running into counters
            record(p=head[3] + 1),  # a counter past the end
            record(tail=tail + b"\x00"),  # trailing byte
            record(tail=tail[:-1]),
            record(tail=tail[:4] + b"\x89" + tail[5:]),  # verdict reason 9
            record(tail=tail[:verdicts] + b"\xff" * len(task)
                   + tail[verdicts + len(task):]),  # task id not UTF-8
            record(p=2, s=0, tail=tail[:verdicts + len(task)] + 2 * counter),
        ):
            with pytest.raises(CodecError):
                decode_cluster_payload(junk)

        # Off the record: the five fields, each of its own type.
        good = (
            VerificationOutcome("t", True, [], RejectReason.OK),
            CostLedger(), CostLedger(), WorkSummary(4, 4), CostLedger(),
        )
        assert decode_cluster_payload(
            _raw_struct("scheme_run_result", good)
        ).work.honesty_ratio == 1.0
        for fields in (
            good[:-1],
            good + (None,),
            ("t",) + good[1:],
            good[:1] + (None,) + good[2:],
            good[:2] + ({},) + good[3:],
            good[:3] + ((4, 4),) + good[4:],
            good[:3] + ([4, 4],) + good[4:],
            good[:3] + (b"leaf vector",) + good[4:],
            good[:4] + (None,),
        ):
            with pytest.raises(CodecError):
                decode_cluster_payload(_raw_struct("scheme_run_result", fields))

    def test_junk_field_types_rejected_at_decode(self):
        """The encoder trusts its caller, so a peer can put any term
        where a count, a flag or a name belongs: decode refuses it
        rather than build a result that fails later, far from the wire
        (a ledger of strings used to reach ``CostLedger.merge``)."""
        import dataclasses

        from repro.accounting import CostLedger
        from repro.core.scheme import SampleVerdict, VerificationOutcome

        result = self.real_results()[0]
        for junk in (
            CostLedger(*("junk",) * 12, counters={"k": "v", 3: None}),
            CostLedger(counters={"k": "v"}),
            CostLedger(counters={3: 1}),
            VerificationOutcome(7, True),
            VerificationOutcome("t", "yes"),
            VerificationOutcome("t", True, [SampleVerdict("3", True)]),
            VerificationOutcome("t", True, [SampleVerdict(3, 1)]),
            SampleVerdict("3", True),
            SampleVerdict(3, 1),
            dataclasses.replace(
                result, participant_ledger=CostLedger(hashes="many")
            ),
        ):
            raw = encode_cluster_payload(junk)
            with pytest.raises(CodecError):
                decode_cluster_payload(raw)


_I64 = (-(1 << 63), (1 << 63) - 1)


@st.composite
def _scheme_batches(draw):
    """Batches in both shapes: a record when every job fits its row
    (domains up to the i64 edges, seeds up to 2^64 - 1), the generic
    path when one does not (a domain past i64 or not a range, a seed
    past u64, negative or bool, a task id over 255 UTF-8 bytes).
    Functions, screeners and behaviours are shared instances,
    equal-but-distinct ones, or fresh per job."""
    from repro.cheating.strategies import HonestBehavior, SemiHonestCheater
    from repro.core.cbs import CBSScheme
    from repro.core.ni_cbs import NICBSScheme
    from repro.engine.jobs import SchemeBatch, SchemeJob
    from repro.tasks.domain import ExplicitDomain, RangeDomain
    from repro.tasks.result import TaskAssignment
    from repro.tasks.screener import MatchScreener, ThresholdScreener
    from repro.tasks.workloads import PasswordSearch, SignalSearch

    behaviors = [HonestBehavior(), SemiHonestCheater(0.5), SemiHonestCheater(0.5)]
    functions = [PasswordSearch(), SignalSearch()]
    screeners = [None, MatchScreener(b"\x00\x01"), ThresholdScreener(9)]
    edges = st.sampled_from(
        [_I64[0], _I64[0] + 1, -1, 0, _I64[1] - 1, _I64[1]]
    )
    starts = st.one_of(edges, st.integers(-(1 << 64), 1 << 64))
    widths = st.one_of(st.just(1), st.integers(1, 1 << 65))
    seeds = st.one_of(
        st.integers(0, (1 << 64) - 1),
        st.sampled_from([0, (1 << 64) - 1, 1 << 64, 1 << 70, -1, True]),
    )

    def job():
        start = draw(starts)
        domain = draw(st.one_of(
            st.just(RangeDomain(start, start + draw(widths))),
            st.builds(
                ExplicitDomain, st.lists(st.integers(0, 9), min_size=1, max_size=3)
            ),
        ))
        task = TaskAssignment(
            draw(st.one_of(st.text(max_size=8), st.just("é" * 128))),
            domain,
            draw(st.sampled_from(functions) | st.builds(PasswordSearch)),
            draw(
                st.sampled_from(screeners)
                | st.builds(MatchScreener, st.binary(min_size=1, max_size=3))
            ),
        )
        behavior = draw(
            st.sampled_from(behaviors)
            | st.builds(SemiHonestCheater, st.sampled_from([0.25, 0.5]))
        )
        return SchemeJob(task, behavior, draw(seeds))

    scheme = draw(st.sampled_from([CBSScheme(4), NICBSScheme(3)]))
    n_jobs = draw(st.integers(0, 5))
    return SchemeBatch(scheme, tuple(job() for _ in range(n_jobs)))


def _fits_a_row(job) -> bool:
    domain, task_id = job.assignment.domain, job.assignment.task_id
    return (
        type(domain).__name__ == "RangeDomain"
        and _I64[0] <= domain.start and domain.stop <= _I64[1]
        and type(job.seed) is int and 0 <= job.seed < 1 << 64
        and len(task_id.encode("utf-8")) < 256
    )


def _batch_view(batch) -> tuple:
    """What a batch is on the wire: its scheme's bytes, each job's
    values, and which jobs share a function, screener or behaviour
    (first-seen numbering by identity) with what canonical bytes."""
    seen: dict[int, int] = {}

    def shared(obj):
        return seen.setdefault(id(obj), len(seen)), encode_cluster_payload(obj)

    return encode_cluster_payload(batch.scheme), [
        (
            job.assignment.task_id, job.assignment.domain, type(job.seed),
            job.seed, shared(job.assignment.function),
            shared(job.assignment.screener), shared(job.behavior),
        )
        for job in batch.jobs
    ]


class TestPackedBatchRecords:
    """The job plane's batch record: one head, the scheme, a table of
    the distinct objects the jobs point at, one row per job.  Exact
    round trips in both shapes, and CodecError — never a crash — on
    junk."""

    @staticmethod
    def batch(n_jobs: int = 3):
        from repro.cheating.strategies import HonestBehavior, SemiHonestCheater
        from repro.core.cbs import CBSScheme
        from repro.engine.jobs import SchemeBatch, SchemeJob
        from repro.tasks.domain import RangeDomain
        from repro.tasks.result import TaskAssignment
        from repro.tasks.workloads import PasswordSearch

        fn, behaviors = PasswordSearch(), (HonestBehavior(), SemiHonestCheater(0.5))
        return SchemeBatch(CBSScheme(n_samples=4), tuple(
            SchemeJob(
                TaskAssignment(f"task-{i}", RangeDomain(16 * i, 16 * i + 16), fn),
                behaviors[i % 2], seed=(1 << 63) + i,
            )
            for i in range(n_jobs)
        ))

    @given(batch=_scheme_batches())
    @settings(deadline=None)
    def test_any_batch_round_trips_exactly(self, batch):
        from repro.engine.jobs import SchemeBatch

        raw = encode_cluster_payload(batch)
        assert (_struct_body(raw)[0] >= 0x80) == all(map(_fits_a_row, batch.jobs))
        back = decode_cluster_payload(raw)
        assert type(back) is SchemeBatch
        assert _batch_view(back) == _batch_view(batch)
        assert encode_cluster_payload(back) == raw

    def test_the_record_layout(self):
        from repro.service.jobcodec import BATCH_HEAD, BATCH_ROW

        batch = self.batch()
        body = _struct_body(encode_cluster_payload(batch))
        assert BATCH_HEAD.unpack_from(body) == (0x80, 3)
        ids = b"task-0task-1task-2"
        rows = body[-len(ids) - 3 * BATCH_ROW.size:-len(ids)]
        assert body.endswith(ids)
        # Table: the function (0), no screener (1), two behaviours (2, 3).
        assert list(BATCH_ROW.iter_unpack(rows)) == [
            (0, 16, (1 << 63), 0, 1, 2, 6),
            (16, 32, (1 << 63) + 1, 0, 1, 3, 6),
            (32, 48, (1 << 63) + 2, 0, 1, 2, 6),
        ]

    def test_scheme_stays_one_cacheable_term(self):
        """The batch record carries its scheme as the same struct term
        a bare scheme is, so a worker's SchemeCache hits across batches."""
        from repro.engine.jobs import execute_batch
        from repro.service.jobcodec import SchemeCache, decode_job, encode_job

        cache = SchemeCache()
        first, second = self.batch(2), self.batch(4)
        decoded = [
            decode_job(encode_job(execute_batch, (b,), {}), cache=cache)[1][0]
            for b in (first, second)
        ]
        assert decoded[0].scheme is decoded[1].scheme
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 1

    def test_a_u64_seed_off_the_record_rides_one_int_term(self):
        """A batch on the generic path (here: an explicit domain) can
        carry a seed in [2^63, 2^64); it is one ``int`` term, as every
        other integer is, and comes back exact."""
        from repro.cheating.strategies import HonestBehavior
        from repro.core.cbs import CBSScheme
        from repro.engine.jobs import SchemeBatch, SchemeJob
        from repro.service.jobcodec import Tag
        from repro.tasks.domain import ExplicitDomain
        from repro.tasks.result import TaskAssignment
        from repro.tasks.workloads import PasswordSearch

        seed = (1 << 64) - 1
        task = TaskAssignment("t", ExplicitDomain([1, 2, 3]), PasswordSearch())
        batch = SchemeBatch(CBSScheme(4), (SchemeJob(task, HonestBehavior(), seed),))
        raw = encode_cluster_payload(batch)
        assert _struct_body(raw)[0] == Tag.TUPLE
        assert encode_cluster_payload(seed) == b"\x03" + b"\xfe" + b"\xff" * 8 + b"\x03"
        assert encode_cluster_payload(seed) in raw
        assert decode_cluster_payload(raw).jobs[0].seed == seed

    def test_every_truncation_and_bit_flip_raises_only_codec_error(self):
        from repro.engine.jobs import execute_batch
        from repro.service.jobcodec import decode_job, encode_job

        raw = encode_job(execute_batch, (self.batch(),), {})
        assert decode_job(raw)[1][0].jobs[2].seed == (1 << 63) + 2
        for cut in range(len(raw)):
            with pytest.raises(CodecError):
                decode_job(raw[:cut])
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << bit % 8
            try:
                decode_job(bytes(flipped))
            except CodecError:
                pass  # a changed-but-valid value is fine; a crash is not

    def test_junk_batch_records_rejected(self):
        from repro.service.jobcodec import BATCH_HEAD, BATCH_ROW

        batch = self.batch()
        body = _struct_body(encode_cluster_payload(batch))
        ids = b"task-0task-1task-2"
        rows_at = len(body) - len(ids) - 3 * BATCH_ROW.size
        terms = body[BATCH_HEAD.size:rows_at]
        rows = list(BATCH_ROW.iter_unpack(body[rows_at:-len(ids)]))

        def record(head=(0x80, 3), rows=rows, ids=ids, terms=terms):
            packed = b"".join(BATCH_ROW.pack(*row) for row in rows)
            return _raw_record(
                "scheme_batch", BATCH_HEAD.pack(*head) + terms + packed + ids
            )

        assert _batch_view(decode_cluster_payload(record())) == _batch_view(batch)
        first = rows[0]
        for junk in (
            record(head=(0x81, 3)),  # not the record marker
            record(head=(0x80, 4)),  # more rows than the body holds
            record(head=(0x80, 2)),  # the task ids then do not add up
            record(ids=ids + b"x"),  # trailing byte
            record(ids=ids[:-1]),
            record(rows=[(0, 0) + first[2:]] + rows[1:]),  # empty domain
            record(rows=[first[:3] + (4,) + first[4:]] + rows[1:]),  # past the table
            record(rows=[first[:5] + (9,) + first[6:]] + rows[1:]),
            record(ids=b"\xff" * 6 + ids[6:]),  # task id not UTF-8
            record(terms=terms[:-1] + b"\x00"),  # table is not a tuple
            record(head=(0x80, 1 << 22)),  # a count past the container cap
        ):
            with pytest.raises(CodecError):
                decode_cluster_payload(junk)


class TestVersionSkewHandshake:
    """Live version gate: a peer one wire version behind is turned
    away at ``hello`` with a clear upgrade message, and a worker
    refused this way exits loudly instead of retrying forever."""

    def test_skewed_worker_turned_away_with_upgrade_message(self):
        import asyncio
        import contextlib
        import socket
        import threading

        from repro.engine.cluster import run_worker
        from repro.engine.cluster.coordinator import ClusterExecutor
        from repro.service.codec import read_frame, write_frame
        from repro.service.jobcodec import register_callable

        def _triple(x: int) -> int:
            return x * 3

        register_callable("tests.fuzz_triple", _triple)

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        executor = ClusterExecutor(
            workers=1, port=port, spawn_local=False
        )

        def worker_thread() -> None:
            async def dial() -> None:
                for _ in range(200):  # coordinator may not be bound yet
                    try:
                        await run_worker("127.0.0.1", port)
                        return
                    except (ConnectionError, OSError):
                        await asyncio.sleep(0.05)

            asyncio.run(dial())

        thread = threading.Thread(target=worker_thread, daemon=True)
        thread.start()
        replies = []
        try:
            # A current-version worker registers and serves jobs...
            assert executor.map(_triple, range(4)) == [0, 3, 6, 9]

            async def skewed_dial() -> None:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    await write_frame(
                        writer,
                        WorkerHello(
                            worker_id="w-old",
                            capacity=1,
                            version=CLUSTER_WIRE_VERSION - 1,
                        ),
                    )
                    replies.append(
                        await asyncio.wait_for(read_frame(reader), 10)
                    )
                finally:
                    writer.close()
                    with contextlib.suppress(Exception):
                        await writer.wait_closed()

            # ...while a skewed peer is refused at hello...
            asyncio.run(skewed_dial())
            # ...without disturbing the registered worker.
            assert executor.map(_triple, range(4)) == [0, 3, 6, 9]
        finally:
            executor.close()
        thread.join(timeout=10)
        (bye,) = replies
        assert isinstance(bye, ByeFrame)
        assert bye.reason.startswith(
            f"incompatible cluster wire version {CLUSTER_WIRE_VERSION - 1}"
        )
        assert "upgrade the worker" in bye.reason

    def test_refused_worker_exits_loudly(self):
        import asyncio

        from repro.engine.cluster import run_worker
        from repro.exceptions import EngineError
        from repro.service.codec import read_frame, write_frame

        async def scenario() -> None:
            async def refuse(reader, writer) -> None:
                await read_frame(reader)  # the hello
                await write_frame(
                    writer,
                    ByeFrame(
                        reason=(
                            "incompatible cluster wire version 10: this "
                            "coordinator speaks v11; upgrade the worker"
                        )
                    ),
                )
                writer.close()

            server = await asyncio.start_server(refuse, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(
                    EngineError, match="coordinator refused worker"
                ):
                    await run_worker("127.0.0.1", port)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestFramingFuzz:
    """The raw length-prefix layer under hostile bytes: every parse
    path (one-shot buffer, sync stream, asyncio stream) must raise
    ProtocolError — never IndexError/MemoryError/silent nonsense — and
    the zero-copy view paths must reject exactly what the bytes paths
    reject."""

    @given(data=st.binary(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_split_frame_buffer_random_bytes(self, data):
        from repro.net.framing import split_frame_buffer

        for convert in (bytes, bytearray, memoryview):
            try:
                split_frame_buffer(convert(data), max_frame=4096)
            except ProtocolError:
                pass

    @given(data=st.binary(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_sync_reader_random_bytes(self, data):
        import io

        from repro.net.framing import read_frame_bytes_sync

        stream = io.BytesIO(data)
        try:
            while read_frame_bytes_sync(stream, max_frame=4096) is not None:
                pass
        except ProtocolError:
            pass

    @given(payload=st.binary(max_size=100), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_flipped_header_never_crashes(self, payload, data):
        import io

        from repro.net.framing import frame_buffer, read_frame_bytes_sync

        encoded = bytearray(frame_buffer(payload))
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        encoded[position] ^= 0xFF
        stream = io.BytesIO(bytes(encoded))
        try:
            read_frame_bytes_sync(stream, max_frame=4096)
        except ProtocolError:
            pass  # a flipped length prefix truncates or overflows

    @given(data=st.binary(max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_async_reader_random_bytes(self, data):
        import asyncio

        from repro.net.framing import read_frame_bytes

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            try:
                while await read_frame_bytes(reader, max_frame=4096) is not None:
                    pass
            except ProtocolError:
                pass

        asyncio.run(scenario())


class TestAuthHandshakeFuzz:
    """The repro.net auth handshake under hostile input: garbage,
    truncation and bit flips must raise AuthError (a ReproError) on
    both planes' gatekeepers — never hang, never crash with anything
    else, and never fall through to a pickle or JSON decode."""

    def _decoders(self):
        from repro.net import auth

        return [auth.decode_challenge, auth.decode_response, auth.decode_confirm]

    @given(data=st.binary(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_random_bytes_rejected(self, data):
        from repro.exceptions import AuthError

        for decoder in self._decoders():
            with pytest.raises(AuthError):
                decoder(data)
            # A hostile peer can also prepend the real magic.
            from repro.net.auth import AUTH_MAGIC

            try:
                decoder(AUTH_MAGIC + data)
            except AuthError:
                pass

    def test_truncated_valid_frames_every_prefix(self):
        from repro.exceptions import AuthError
        from repro.net import auth

        frames = [
            (auth.decode_challenge, auth.encode_challenge(b"n" * 32)),
            (auth.decode_response, auth.encode_response(b"n" * 32, b"m" * 32)),
            (auth.decode_confirm, auth.encode_confirm(b"m" * 32)),
        ]
        for decoder, encoded in frames:
            for cut in range(len(encoded)):
                with pytest.raises(AuthError):
                    decoder(encoded[:cut])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_flipped_frames_never_crash(self, data):
        from repro.net import auth

        encoded = bytearray(auth.encode_response(b"n" * 32, b"m" * 32))
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        encoded[position] ^= 0xFF
        try:
            auth.decode_response(bytes(encoded))
        except ReproError:
            pass  # rejection is fine (a flipped nonce byte still decodes)

    @given(hostile=st.binary(max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_server_handshake_survives_framed_garbage(self, hostile):
        """Feed arbitrary framed bytes where the auth response belongs:
        the server side must reject within its timeout, cleanly."""
        import asyncio

        from repro.exceptions import AuthError
        from repro.net.auth import authenticate_server
        from repro.net.framing import MAX_AUTH_FRAME_BYTES, frame_buffer
        from repro.service.server import memory_duplex

        async def scenario():
            (sr, sw), (cr, cw) = memory_duplex()
            server = asyncio.ensure_future(
                authenticate_server(
                    sr, sw, b"0123456789abcdef0123456789abcdef", timeout=2.0
                )
            )
            await asyncio.sleep(0)  # let the challenge go out
            if len(hostile) <= MAX_AUTH_FRAME_BYTES:
                cw.write(frame_buffer(hostile, max_frame=MAX_AUTH_FRAME_BYTES))
            else:
                cw.write(hostile)
            cw.close()
            with pytest.raises(AuthError):
                await server

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))

    @given(hostile=st.binary(max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_client_handshake_survives_framed_garbage(self, hostile):
        """A rogue listener feeding garbage where the challenge belongs
        cannot hang or crash a keyed client."""
        import asyncio

        from repro.exceptions import AuthError
        from repro.net.auth import authenticate_client
        from repro.net.framing import MAX_AUTH_FRAME_BYTES, frame_buffer
        from repro.service.server import memory_duplex

        async def scenario():
            (sr, sw), (cr, cw) = memory_duplex()
            client = asyncio.ensure_future(
                authenticate_client(
                    cr, cw, b"0123456789abcdef0123456789abcdef", timeout=2.0
                )
            )
            await asyncio.sleep(0)
            if len(hostile) <= MAX_AUTH_FRAME_BYTES:
                sw.write(frame_buffer(hostile, max_frame=MAX_AUTH_FRAME_BYTES))
            else:
                sw.write(hostile)
            sw.close()
            with pytest.raises(AuthError):
                await client

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))

    def test_giant_pre_auth_length_prefix_rejected(self):
        """An unauthenticated peer claiming a huge frame is rejected at
        the tiny auth cap — before any allocation, any JSON, any pickle."""
        import asyncio

        from repro.exceptions import AuthError
        from repro.net.auth import authenticate_server
        from repro.service.server import memory_duplex

        async def scenario():
            (sr, sw), (cr, cw) = memory_duplex()
            server = asyncio.ensure_future(
                authenticate_server(
                    sr, sw, b"0123456789abcdef0123456789abcdef", timeout=2.0
                )
            )
            await asyncio.sleep(0)
            cw.write((64 * 1024 * 1024).to_bytes(4, "big"))
            with pytest.raises(AuthError):
                await server

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))


class TestUnicodeHostility:
    def test_non_utf8_task_id_rejected_cleanly(self):
        # A hostile peer can put invalid UTF-8 where a task id belongs;
        # the decoder surface must not explode with UnicodeDecodeError
        # escaping as-is... we accept either clean CodecError or the
        # documented ValueError subclass.
        from repro.utils.encoding import encode_bytes, encode_uint

        hostile = encode_bytes(b"\xff\xfe") + encode_uint(1) + encode_bytes(b"")
        try:
            VerdictMsg.decode(hostile)
        except (ReproError, UnicodeDecodeError):
            pass
