"""Unit tests for the service frame codec (repro.service.codec)."""

import asyncio
import dataclasses
import pathlib
import typing

import pytest

from proof_reference import ref_multiproof
from repro.core import protocol, wire
from repro.core.protocol import (
    AssignMsg,
    CommitmentMsg,
    NICBSSubmissionMsg,
    ProofBundleMsg,
    SampleChallengeMsg,
    VerdictMsg,
)
from repro.exceptions import CodecError, ProtocolError, ReproError
from repro.merkle.multiproof import Multiproof
from repro.net.framing import MAX_CLUSTER_PAYLOAD_BYTES
from repro.service import codec, jobcodec
from repro.service import (
    FRAME_HEADER_BYTES,
    WORKLOADS,
    ChallengeFrame,
    CommitmentFrame,
    ErrorFrame,
    ProofsFrame,
    SubmissionFrame,
    TaskAssign,
    TaskRequest,
    VerdictFrame,
    decode_frame,
    decode_frame_payload,
    encode_frame,
    memory_duplex,
    read_frame,
    resolve_workload,
    write_frame,
)
from repro.tasks import PasswordSearch
from repro.utils.encoding import encode_bytes, encode_uint

#: wire name -> tag byte, so crafted hostile frames read by name.
TAG = {row.name: bytes((row.tag,)) for row in codec.FRAMES}


def sample_assign() -> TaskAssign:
    return TaskAssign(
        assign=AssignMsg(task_id="task-3", n_inputs=64, workload="PasswordSearch"),
        participant=3,
        domain_start=192,
        domain_stop=256,
        protocol="ni-cbs",
        n_samples=16,
        hash_name="sha256",
        sample_hash_name="sha256",
        leaf_encoding="hashed",
        seed=3_000_012,
    )


class TestRoundTrips:
    def test_task_request_with_and_without_slot(self):
        for frame in (TaskRequest(), TaskRequest(participant=7)):
            assert decode_frame(encode_frame(frame)) == frame

    def test_assign_round_trip(self):
        frame = sample_assign()
        assert decode_frame(encode_frame(frame)) == frame

    def test_wrapped_binary_messages(self):
        frames = [
            CommitmentFrame(
                msg=CommitmentMsg(task_id="t", root=b"\x01" * 32, n_leaves=8)
            ),
            ChallengeFrame(
                msg=SampleChallengeMsg(task_id="t", indices=(1, 2, 3))
            ),
            VerdictFrame(
                msg=VerdictMsg(task_id="t", accepted=False, reason="wrong_result")
            ),
            ErrorFrame(message="nope"),
        ]
        for frame in frames:
            assert decode_frame(encode_frame(frame)) == frame

    def test_header_is_big_endian_payload_length(self):
        encoded = encode_frame(TaskRequest())
        length = int.from_bytes(encoded[:FRAME_HEADER_BYTES], "big")
        assert length == len(encoded) - FRAME_HEADER_BYTES


class TestRejection:
    def test_oversized_frame_rejected_on_encode(self):
        big = ErrorFrame(message="x" * 1000)
        with pytest.raises(ProtocolError):
            encode_frame(big, max_frame=100)

    def test_oversized_length_prefix_rejected_on_decode(self):
        encoded = encode_frame(TaskRequest())
        with pytest.raises(ProtocolError):
            decode_frame(encoded, max_frame=len(encoded) - FRAME_HEADER_BYTES - 1)

    def test_length_mismatch_rejected(self):
        encoded = encode_frame(TaskRequest())
        with pytest.raises(ProtocolError):
            decode_frame(encoded + b"x")
        with pytest.raises(ProtocolError):
            decode_frame(encoded[:-1])

    def test_empty_and_json_payloads_rejected(self):
        for payload in (b"", b"null", b"[]", b'"t"', b"3", b'{"t": "error"}'):
            with pytest.raises(ProtocolError):
                decode_frame_payload(payload)

    def test_unknown_type_tag_rejected(self):
        # 0x0D/0x0E: wire v7's streamed-answer frames, byte for byte.
        for payload in ("7f", "0d07ac02010105", "0e07ac0202010000"):
            with pytest.raises(ProtocolError, match="unknown frame tag"):
                decode_frame_payload(bytes.fromhex(payload))

    def test_assign_value_validation(self):
        # Well-formed bytes, illegal values: a hostile supervisor must
        # not be able to crash a client with ValueError/OverflowError
        # later.  The encoder trusts its local caller, so a hostile
        # frame is just a dataclass with bad values, shipped.
        base = sample_assign()
        for field, value in (
            ("leaf_encoding", "bogus"),
            ("protocol", "pigeon"),
            ("n_samples", 0),
            ("seed", 1 << 63),
            ("participant", 1 << 63),
            ("domain_stop", base.domain_start),
            ("domain_stop", -base.domain_stop),
            ("domain_start", -(1 << 63) - 1),
            ("hash_name", "h" * 129),
            ("sample_hash_name", "é" * 65),
        ):
            hostile = encode_frame(dataclasses.replace(base, **{field: value}))
            with pytest.raises(ProtocolError, match="assign frame"):
                decode_frame(hostile)

    def test_signed_domain_bounds_round_trip(self):
        frame = dataclasses.replace(
            sample_assign(), domain_start=-64, domain_stop=-1
        )
        assert decode_frame(encode_frame(frame)) == frame

    def test_malformed_fields_rejected(self):
        # The assign case trips the inner binary decoder (CodecError);
        # the rest fail frame-level validation.  Both honour the one
        # contract that matters: a ReproError, never an uncaught
        # IndexError/UnicodeDecodeError.
        frame = sample_assign()
        bad_payloads = [
            TAG["task_request"] + b"\x03",                # flag not 0/1
            TAG["task_request"] + b"\x01",                # flagged, absent
            TAG["task_request"] + b"\x01" + b"\xff" * 11,  # overlong varint
            TAG["error"] + b"\x05ab",                     # lying length
            TAG["error"] + encode_bytes(b"\xc3\x28"),     # not UTF-8
            TAG["assign"] + encode_bytes(b"") + encode_frame(frame)[-40:],
        ]
        for payload in bad_payloads:
            with pytest.raises(ReproError):
                decode_frame_payload(payload)


class TestFrameTable:
    """The table is the vocabulary: what RL006 used to cross-check
    between four copies is now true by construction, or checked here."""

    def test_every_frame_type_has_exactly_one_row(self):
        """``Frame`` is derived from the table, so the thing to check is
        that no frame dataclass was defined and left out of it."""
        defined = {
            obj
            for obj in vars(codec).values()
            if dataclasses.is_dataclass(obj) and obj.__module__ == codec.__name__
        }
        union = set(typing.get_args(codec.Frame))
        assert {row.cls for row in codec.FRAMES} == union == defined
        assert len(codec.FRAMES) == len(union) == 17
        assert len({row.tag for row in codec.FRAMES}) == 17
        assert len({row.name for row in codec.FRAMES}) == 17

    def test_every_length_delimited_field_declares_a_cap(self):
        """``Field.hi`` defaults to the varint ceiling, so a bytes/str
        field that forgot its cap shows up as a 2^63-byte one."""
        kinds = set()
        for row in codec.FRAMES:
            for field in row.fields:
                kinds.add(field.kind)
                if field.kind in ("uint", "int", "flag"):
                    continue
                assert field.kind in ("str", "msg", "json", "payload")
                assert 0 < field.hi <= MAX_CLUSTER_PAYLOAD_BYTES, (
                    row.name, field.attr,
                )
        assert kinds == {"uint", "int", "flag", "str", "msg", "json", "payload"}

    def test_payload_fields_are_checked_at_both_ends(self):
        limit = MAX_CLUSTER_PAYLOAD_BYTES
        payload_fields = {
            field
            for row in codec.FRAMES
            for field in row.fields
            if field.attr == "payload"
        }
        (field,) = payload_fields  # one spec, shared by job and result
        assert (field.kind, field.hi) == ("payload", limit)
        encode, read = codec.KINDS["payload"]
        with pytest.raises(CodecError, match="exceeds limit"):
            encode(field, b"\x00" * (limit + 1))
        oversized = encode_uint(limit + 1) + b"\x00" * (limit + 1)
        with pytest.raises(CodecError, match="exceeds limit"):
            read(field, oversized, 0)

    @pytest.mark.parametrize(
        "tag, name, cls, keep_fields",
        [
            (0x13, "adieu", TaskRequest, True),     # tag byte taken
            (0x14, "bye", TaskRequest, True),       # wire name taken
            (0x14, "adieu", codec.ByeFrame, True),  # class already has a row
            (0x14, "adieu", TaskRequest, False),    # fields not covered
        ],
    )
    def test_drifted_table_fails_to_build(self, tag, name, cls, keep_fields):
        fields = codec._BY_CLASS[cls].fields if keep_fields else ()
        rows = tuple(
            row for row in codec.FRAMES
            if row.cls is not cls or cls is codec.ByeFrame
        )
        codec._index_frames(rows)  # the rest of the table is sound
        with pytest.raises(ValueError):
            codec._index_frames(rows + (codec.FrameRow(tag, name, cls, fields),))
        if not keep_fields:
            codec._index_frames(
                rows + (codec.FrameRow(tag, name, cls, codec._BY_CLASS[cls].fields),)
            )


def _size(n: int) -> str:
    for unit, scale in (("MiB", 1 << 20), ("KiB", 1 << 10)):
        if n >= scale and n % scale == 0:
            return f"{n // scale} {unit}"
    return f"{n} B"


def _readme_field(field: wire.Field) -> str:
    """One field as the README spells it: ``attr`` (``?`` if optional),
    its kind, then whatever range or cap the row declares."""
    spec = field.kind
    ranged = field.hi not in (wire.Field("x", "uint").hi, wire.VARINT_MAX)
    if field.kind == "uint":
        if field.lo == field.hi:
            spec += f" = {field.lo}"
        elif ranged:
            spec += f" {field.lo}..{field.hi}"
        elif field.lo:
            spec += f" ≥ {field.lo}"
    elif field.kind == "msg":
        spec += f" {field.arg.__name__} ≤ {_size(field.hi)}"
    elif field.kind in ("json", "payload"):
        spec += f" ≤ {_size(field.hi)}"
    elif field.kind in ("str", "bytes") and ranged:
        spec += f" {field.lo}..{_size(field.hi)}"
    if field.kind == "str" and field.arg:
        spec += " ∈ {" + ", ".join(field.arg) + "}"
    return f"`{field.attr}`{'?' if field.optional else ''} {spec}"


def _readme_section(title: str) -> str:
    readme = (
        pathlib.Path(__file__).resolve().parents[1] / "README.md"
    ).read_text(encoding="utf-8")
    _, _, rest = readme.partition(f"\n## {title}\n")
    assert rest, f"README has no section {title!r}"
    return rest.partition("\n## ")[0]


def _table_rows(section: str) -> list[str]:
    """A section's table body rows (header and ``---`` row dropped)."""
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    return [row for row in rows if not row.startswith("| ---")][1:]


class TestReadmeTables:
    """The README's wire tables are the code tables, row for row: a
    tag, name, kind, field, range or cap that moves must move there
    too, and a row added to either side alone fails."""

    def test_field_kinds_list_matches_the_code(self):
        rows = _table_rows(_readme_section("Wire formats: one field table"))
        assert [row.split("|")[1].strip() for row in rows] == [
            f"`{kind}`" for kind in {**protocol.KINDS, **codec.KINDS}
        ]

    def test_frame_table_matches_the_code(self):
        assert _table_rows(_readme_section("Frame wire format")) == [
            f"| `0x{row.tag:02X}` | `{row.name}` | "
            f"{' · '.join(map(_readme_field, row.fields)) or '—'} |"
            for row in codec.FRAMES
        ]

    def test_term_table_matches_the_code(self):
        section = _readme_section("Job wire format").partition("\n### ")[0]
        # Tag byte and name, row for row; the third column is prose.
        assert [row.rsplit(" | ", 1)[0] for row in _table_rows(section)] == [
            f"| `0x{term.tag:02X}` | `{term.name}`" for term in jobcodec.TERMS
        ]

    def test_record_tables_match_the_code(self):
        section = _readme_section("Job wire format")
        for title, layouts in (
            ("Batch records", (jobcodec.BATCH_HEAD, jobcodec.BATCH_ROW)),
            (
                "Result records",
                (jobcodec.RESULT_HEAD, jobcodec.VERDICT_ROW, jobcodec.COUNTER_ROW),
            ),
        ):
            table = section.partition(f"\n### {title}\n")[2].partition("\n### ")[0]
            spelled = [row.split(" | ")[1] for row in _table_rows(table)]
            assert [s.strip("`") for s in spelled if s.startswith("`>")] == [
                layout.format for layout in layouts
            ], title

    def test_message_layouts_match_the_code(self):
        messages = [
            cls
            for cls in vars(protocol).values()
            if isinstance(cls, type)
            and issubclass(cls, wire.WireMessage)
            and cls.__module__ == protocol.__name__
        ]
        assert len(messages) == 8
        assert _table_rows(_readme_section("Proof wire format")) == [
            f"| `{cls.__name__}` | {' · '.join(map(_readme_field, cls.FIELDS))} |"
            for cls in messages
        ]


_SPAN = {"tid": "t1", "sid": "s1", "name": "worker.execute", "ts": 1.5, "dur": 0.25}
# Leaves 1 and 0 of a four-leaf tree: each is the other's leaf-level
# sibling (derivable, so never on the wire) and both paths meet the one
# supplied digest at level 1.
#: Samples 1 and 0 of a 4-leaf tree: leaf pair 0's two results and the
#: level-1 digest of node 1.
_BUNDLE = Multiproof((b"\xaa", b"\xcc"), (b"\x22" * 4,))
_SPAN_HEX = (
    "455b7b22647572223a302e32352c226e616d65223a22776f726b65722e65786563757465"
    "222c22736964223a227331222c22746964223a227431222c227473223a312e357d5d"
)

#: One committed vector per frame type (payload hex, length prefix
#: stripped).  A change to any of these is a wire format change: bump
#: ``CLUSTER_WIRE_VERSION`` and the README table with it.
GOLDEN = [
    (TaskRequest(participant=7, trace_id="t1"), "0101070102743100"),
    (
        TaskAssign(
            assign=AssignMsg(
                task_id="task-3", n_inputs=64, workload="PasswordSearch"
            ),
            participant=3,
            domain_start=-64,
            domain_stop=0,
            protocol="ni-cbs",
            n_samples=16,
            hash_name="sha256",
            sample_hash_name="md5^3",
            leaf_encoding="hashed",
            seed=3_000_012,
        ),
        "0217067461736b2d33400e50617373776f7264536561726368037f00066e692d"
        "6362731006736861323536056d64355e3306686173686564cc8db701",
    ),
    (
        CommitmentFrame(CommitmentMsg(task_id="t", root=b"\x01" * 8, n_leaves=4)),
        "030c017408010101010101010104",
    ),
    (
        ChallengeFrame(SampleChallengeMsg(task_id="t", indices=(1, 300))),
        "040601740201ac02",
    ),
    (
        ProofsFrame(ProofBundleMsg(task_id="t", bundle=_BUNDLE)),
        "050c" "0174" "0201aacc" "010422222222",
    ),
    (
        SubmissionFrame(
            NICBSSubmissionMsg(
                task_id="t", root=b"\x01" * 8, n_leaves=4, bundle=_BUNDLE
            )
        ),
        "0616" "0174" "080101010101010101" "04" "0201aacc" "010422222222",
    ),
    (
        VerdictFrame(VerdictMsg(task_id="t", accepted=False, reason="wrong_result")),
        "07100174000c77726f6e675f726573756c74",
    ),
    (ErrorFrame("nope"), "08046e6f7065"),
    (codec.WorkerHello("w-0", 2), "090b03772d3002"),
    (codec.HeartbeatFrame("w-0"), "0a03772d30"),
    (
        codec.JobFrame(
            job_id=300, payload=b"\x00\x01\x02", trace_id="t1", span_id="s1"
        ),
        "0b0bac02010274310102733103000102",
    ),
    (
        codec.ResultFrame(
            job_id=300, ok=True, payload=b"\x03\x04", spans=(_SPAN,),
            cache_hits=2, cache_misses=1,
        ),
        "0c0bac02010201" + _SPAN_HEX + "020304",
    ),
    (codec.StatsRequest(), "0f"),
    (
        codec.StatsReply({"repro_x_total": {"type": "counter", "value": 3}}),
        "102e7b22726570726f5f785f746f74616c223a7b2274797065223a22636f756e74"
        "6572222c2276616c7565223a337d7d",
    ),
    (codec.TraceGetRequest("t1"), "11027431"),
    (codec.TraceReply("t1", (_SPAN,)), "12027431" + _SPAN_HEX),
    (codec.ByeFrame("done"), "1304646f6e65"),
]


class TestGoldenVectors:
    def test_one_vector_per_frame_type(self):
        assert [type(frame) for frame, _ in GOLDEN] == [
            row.cls for row in codec.FRAMES
        ]

    @pytest.mark.parametrize(
        "frame, payload_hex", GOLDEN, ids=lambda v: type(v).__name__
    )
    def test_encoding_is_pinned(self, frame, payload_hex):
        payload = bytes.fromhex(payload_hex)
        assert encode_frame(frame)[FRAME_HEADER_BYTES:] == payload
        assert decode_frame_payload(payload) == frame
        assert payload[0] == codec._BY_CLASS[type(frame)].tag

    def test_the_bundle_vector_is_the_references(self):
        # _BUNDLE from the per-path form: samples 1 and 0 of a 4-leaf
        # tree, their level-0 siblings each other, node 1 above them.
        top = b"\x22" * 4
        proofs = [
            (1, b"\xcc", (1, 4, 0, [b"\x00" * 4, top])),
            (0, b"\xaa", (0, 4, 0, [b"\x00" * 4, top])),
        ]
        assert ref_multiproof(proofs, {}) == bytes.fromhex("0201aacc010422222222")
        assert ProofBundleMsg("t", _BUNDLE).encode() == b"\x01t" + ref_multiproof(
            proofs, {}
        )


class TestWorkloadCatalogue:
    def test_catalogue_builds_every_kernel(self):
        for name in WORKLOADS:
            assert resolve_workload(name) is not None

    def test_password_search_is_canonical(self):
        fn = resolve_workload("PasswordSearch")
        reference = PasswordSearch()
        assert fn.evaluate(17) == reference.evaluate(17)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError):
            resolve_workload("MiningRig")


class TestAsyncStreamHelpers:
    def run(self, coro):
        return asyncio.run(coro)

    def test_write_then_read_over_memory_duplex(self):
        async def scenario():
            (a_reader, a_writer), (b_reader, _b_writer) = memory_duplex()
            frame = sample_assign()
            await write_frame(a_writer, frame)
            await write_frame(a_writer, ErrorFrame(message="done"))
            assert await read_frame(b_reader) == frame
            assert await read_frame(b_reader) == ErrorFrame(message="done")
            a_writer.close()
            assert await read_frame(b_reader) is None

        self.run(scenario())

    def test_truncated_stream_raises(self):
        async def scenario():
            (_a_reader, a_writer), (b_reader, _b_writer) = memory_duplex()
            a_writer.write(encode_frame(TaskRequest())[:-2])
            a_writer.close()
            with pytest.raises(ProtocolError):
                await read_frame(b_reader)

        self.run(scenario())

    def test_partial_header_raises(self):
        async def scenario():
            (_a_reader, a_writer), (b_reader, _b_writer) = memory_duplex()
            a_writer.write(b"\x00\x00")
            a_writer.close()
            with pytest.raises(ProtocolError):
                await read_frame(b_reader)

        self.run(scenario())

    def test_oversized_frame_rejected_before_body_read(self):
        async def scenario():
            (_a_reader, a_writer), (b_reader, _b_writer) = memory_duplex()
            a_writer.write((1 << 30).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                await read_frame(b_reader, max_frame=1024)

        self.run(scenario())
