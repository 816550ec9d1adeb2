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
    SampleProof,
    VerdictMsg,
)
from repro.exceptions import ProtocolError, ReproError
from repro.merkle.proof import AuthenticationPath
from repro.merkle.tree import LeafEncoding
from repro.exceptions import CodecError
from repro.service.codec import (
    CLUSTER_WIRE_VERSION,
    FRAME_HEADER_BYTES,
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
    decode_cluster_chunk,
    decode_cluster_outcomes,
    decode_cluster_payload,
    decode_frame,
    decode_frame_payload,
    encode_cluster_chunk,
    encode_cluster_outcomes,
    encode_cluster_payload,
    encode_frame,
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


def _bundle(leaf_encoding=LeafEncoding.HASHED) -> ProofBundleMsg:
    """Samples 1, 4, 1 of a six-leaf tree: three supplied digests at the
    leaf level and above, one result per distinct leaf."""
    digest = b"\x11" * 8
    return ProofBundleMsg(
        "",
        tuple(
            SampleProof(
                leaf,
                bytes([leaf]),
                AuthenticationPath(leaf, [digest] * 3, 6, leaf_encoding),
            )
            for leaf in (1, 4, 1)
        ),
    )


class TestMultiProofFuzz:
    @given(code=st.integers(min_value=2, max_value=1 << 40))
    @settings(max_examples=40, deadline=None)
    def test_unknown_leaf_encoding_codes_rejected(self, code):
        # Codes outside the table used to decode as RAW, so one proof
        # had many encodings; only 0 and 1 name a leaf encoding.
        encoded = _bundle().encode()
        assert encoded[:4] == b"\x00\x03\x06\x00"  # task, m, n_leaves, code
        with pytest.raises(ReproError):
            ProofBundleMsg.decode(encoded[:3] + encode_uint(code) + encoded[4:])

    def test_every_truncation_and_bit_flip_rejected_cleanly(self):
        bundle = _bundle(LeafEncoding.RAW)
        encoded = bundle.encode()
        decoded = ProofBundleMsg.decode(encoded)
        assert decoded.encode() == encoded
        assert [p.index for p in decoded.proofs] == [1, 4, 1]
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
    """Up to four samples of one tree, as a peer receives them: every
    sibling position a digest of the node it names, or ``None`` where
    another sample determines it — the form a frame decodes *to*, so a
    round trip is an identity."""
    height = draw(st.integers(min_value=0, max_value=4))
    n_leaves = 1 << height
    indices = draw(
        st.lists(st.integers(min_value=0, max_value=n_leaves - 1), max_size=4)
    )
    encoding = draw(st.sampled_from(list(LeafEncoding)))
    covered = [{index >> level for index in indices} for level in range(height)]
    digest_at, result_at = {}, {}
    proofs = []
    for index in indices:
        siblings = []
        for level in range(height):
            node = (index >> level) ^ 1
            if node in covered[level]:
                siblings.append(None)
                continue
            if (level, node) not in digest_at:
                digest_at[level, node] = draw(_digests)
            siblings.append(digest_at[level, node])
        if index not in result_at:
            result_at[index] = draw(st.binary(max_size=16))
        proofs.append(
            SampleProof(
                index,
                result_at[index],
                AuthenticationPath.from_uniform(index, siblings, n_leaves, encoding),
            )
        )
    return tuple(proofs)


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
                proofs=draw(_proof_bundles()),
            )
        )
    if kind == 5:
        return SubmissionFrame(
            msg=NICBSSubmissionMsg(
                task_id=task_id,
                root=draw(st.binary(max_size=40)),
                n_leaves=draw(st.integers(min_value=0, max_value=1 << 20)),
                proofs=draw(_proof_bundles()),
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
        a v7 or future frame never reaches a field decoder."""
        assert CLUSTER_WIRE_VERSION == 8
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
        from repro.service.codec import MAX_CLUSTER_PAYLOAD_BYTES

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
        from repro.service.codec import MAX_CLUSTER_PAYLOAD_BYTES

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

        for tag in (Tag.TUPLE, Tag.LIST, Tag.DICT, Tag.SET):
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
        from repro.service.jobcodec import Tag

        for byte in range(Tag.REF + 1, 256):
            with pytest.raises(CodecError):
                decode_cluster_payload(bytes([byte]))

    def test_minus_two_to_the_63_has_one_encoding(self):
        """``-2**63`` rides the bigint tag (the encoder's choice); the
        zigzag varint that also unfolds to it is rejected, as the
        mirror-image bigint-for-a-small-int already is."""
        canonical = bytes.fromhex("040108" + "80" + "00" * 7)
        assert encode_cluster_payload(-(1 << 63)) == canonical
        assert decode_cluster_payload(canonical) == -(1 << 63)
        with pytest.raises(CodecError, match="out of range"):
            decode_cluster_payload(bytes.fromhex("03" + "ff" * 9 + "01"))
        neighbour = bytes.fromhex("03fd" + "ff" * 8 + "01")
        assert encode_cluster_payload(-(1 << 63) + 1) == neighbour
        assert decode_cluster_payload(neighbour) == -(1 << 63) + 1

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
        from repro.service.jobcodec import (
            ensure_default_registry,
            registered_structs,
        )

        ensure_default_registry()
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
    (valid or hostile) behind a registered struct name."""
    from repro.service.jobcodec import Tag
    from repro.utils.encoding import encode_uint

    body = encode_cluster_payload(fields)
    spelled = name.encode("utf-8")
    return (
        bytes([Tag.STRUCT]) + encode_uint(0) + encode_uint(len(spelled))
        + spelled + encode_uint(len(body)) + body
    )


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
        [(1 << 63) - 1, 1 << 63, (1 << 80) + 7, -(1 << 63), -(1 << 63) - 1]
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
        from repro.accounting import CostLedger
        from repro.core.scheme import SampleVerdict, VerificationOutcome

        packed = len(encode_cluster_payload(CostLedger(evaluations=-5)))
        for ledger in (
            CostLedger(evaluations=1 << 63),
            CostLedger(bytes_sent=-(1 << 63) - 1),
            CostLedger(evaluation_cost=3),  # int in a float slot
            CostLedger(hashes=True),  # bool in an int slot
        ):
            raw = encode_cluster_payload(ledger)
            assert len(raw) != packed  # not the 96-byte record
            assert _ledger_bits(decode_cluster_payload(raw)) == _ledger_bits(ledger)
        for index in (-1, 1 << 32):
            outcome = VerificationOutcome(
                "t", False, [SampleVerdict(index, False)]
            )
            assert decode_cluster_payload(encode_cluster_payload(outcome)) == outcome

    def test_zero_other_ledger_costs_one_byte_and_signed_zero_survives(self):
        import math

        from repro.accounting import CostLedger

        result = self.real_results()[0]
        assert result.other_ledger == CostLedger()
        lean = encode_cluster_payload(result)
        result.other_ledger = CostLedger(screening_cost=-0.0)
        signed = encode_cluster_payload(result)
        assert len(signed) > len(lean) + 90  # the record is back
        back = decode_cluster_payload(signed)
        assert math.copysign(1.0, back.other_ledger.screening_cost) == -1.0

    def test_service_verification_outcomes_ride_the_same_packing(self):
        from repro.cheating.strategies import SemiHonestCheater
        from repro.core.cbs import CBSParticipant, CBSSupervisor
        from repro.core.ni_cbs import NICBSParticipant
        from repro.core.scheme import VerificationOutcome
        from repro.engine.cluster.worker import execute_payload
        from repro.merkle.hashing import get_hash
        from repro.service.jobcodec import encode_job
        from repro.service.verification_jobs import (
            verify_cbs_job,
            verify_nicbs_job,
        )
        from repro.tasks.domain import RangeDomain
        from repro.tasks.result import TaskAssignment
        from repro.tasks.workloads import PasswordSearch

        task = TaskAssignment("svc-0", RangeDomain(0, 64), PasswordSearch())
        sha = get_hash("sha256")
        hashed = LeafEncoding.HASHED.value
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
                verify_cbs_job,
                (task, 8, "sha256", hashed, 7, commitment, bundle), {},
            ),
            encode_job(
                verify_nicbs_job,
                (task, 8, "sha256", "sha256", hashed, submission), {},
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
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                decode_cluster_payload(encoded[:cut])
        for position in range(len(encoded)):
            flipped = bytearray(encoded)
            flipped[position] ^= 0xFF
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
        from repro.accounting import CostLedger

        record = bytes(96)
        assert decode_cluster_payload(
            _raw_struct("cost_ledger", (record, None))
        ) == CostLedger()
        for fields in (
            (record[:-1], None),  # truncated
            (record + b"\x00", None),  # over-long
            (b"", None),
            ((0.0,) * 11, None),  # generic path, one field short
            ((0.0,) * 13, None),
            ([0.0] * 12, None),
            (None, None),
            (record, [("k", 1)]),  # counters must be a dict
            (record, 5),
            (record,),  # arity
            (record, None, None),
        ):
            with pytest.raises(CodecError):
                decode_cluster_payload(_raw_struct("cost_ledger", fields))

    def test_junk_result_shapes_rejected(self):
        record = bytes(96)
        good = ("t", True, 0, b"", record, None, record, None, None, None, (4, 4))
        assert decode_cluster_payload(
            _raw_struct("scheme_run_result", good)
        ).work.honesty_ratio == 1.0
        for fields in (
            good[:-1],
            good + (None,),
            good[:-1] + ((4,),),
            good[:-1] + ((4, 4, 4),),
            good[:-1] + ((4, "4"),),
            good[:-1] + ([4, 4],),
            good[:-1] + (b"leaf vector",),
            good[:4] + (record[:5],) + good[5:],
        ):
            with pytest.raises(CodecError):
                decode_cluster_payload(_raw_struct("scheme_run_result", fields))


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
            workers=1, port=port, spawn_local=False, startup_timeout=30.0
        )

        def worker_thread() -> None:
            async def dial() -> None:
                for _ in range(200):  # coordinator may not be bound yet
                    try:
                        await run_worker("127.0.0.1", port, engine="serial")
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
                            "incompatible cluster wire version 7: this "
                            "coordinator speaks v8; upgrade the worker"
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
                    await run_worker("127.0.0.1", port, engine="serial")
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
