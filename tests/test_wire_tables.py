"""Every wire table refuses to load when it has drifted.

Frames (``service/codec.FRAMES``), protocol messages (``FIELDS`` rows
on :class:`repro.core.wire.WireMessage` subclasses), job-codec terms
(``jobcodec.TERMS``) and plain structs (the rows in
``jobcodec._register_defaults``) are each built and cross-checked by
one indexing step that runs when the table loads.  These tests feed
each step a drifted table and expect :class:`ValueError` — the check a
lint rule (RL006) used to approximate from the outside.  The frame
table's own cases live in ``test_service_codec.TestFrameTable``.

One more structural check rides here: ``engine/cluster/scheduler.py``
stays synchronous and I/O-free (``TestSchedulerSeam``).
"""

import ast
import dataclasses
import pathlib
import subprocess
import sys

import pytest

from repro.core import protocol, wire
from repro.core.protocol import ProofBundleMsg, SampleProof
from repro.exceptions import CodecError
from repro.merkle.proof import AuthenticationPath
from repro.merkle.tree import LeafEncoding
from repro.service import codec, jobcodec
from repro.tasks.domain import RangeDomain


class TestFieldRows:
    def test_unknown_kind_fails_to_bind(self):
        with pytest.raises(ValueError, match="no kind 'varint'"):
            wire.Layout("demo", (wire.Field("x", "varint"),), ["x"])

    @pytest.mark.parametrize(
        "attrs, names",
        [
            (("a",), ("a", "b")),       # a class field the row forgot
            (("a", "b"), ("a",)),       # a row field the class lacks
            (("a", "a"), ("a",)),       # the same field twice
        ],
    )
    def test_row_that_does_not_cover_its_class_fails_to_bind(self, attrs, names):
        fields = tuple(wire.Field(attr, "uint") for attr in attrs)
        with pytest.raises(ValueError, match="does not cover"):
            wire.Layout("demo", fields, names)

    def test_a_module_local_kind_binds_only_from_its_modules_table(self):
        row = (wire.Field("p", "proofs"),)
        with pytest.raises(ValueError, match="no kind 'proofs'"):
            wire.Layout("demo", row, ["p"])
        wire.Layout("demo", row, ["p"], protocol.KINDS)
        # The shared table is a constant: extending it is a new dict.
        assert set(protocol.KINDS) - set(wire.KINDS) == {"proofs"}
        assert set(codec.KINDS) - set(wire.KINDS) == {"payload", "json"}

    def test_optional_wraps_any_kind_with_a_presence_byte(self):
        layout = wire.Layout(
            "demo", (wire.Field("x", "bytes", optional=True),), ["x"]
        )

        @dataclasses.dataclass
        class Demo:
            x: bytes | None

        assert layout.encode(Demo(None)) == b"\x00"
        assert layout.encode(Demo(b"ab")) == b"\x01\x02ab"
        assert layout.read(b"\x01\x02ab", 0) == ({"x": b"ab"}, 4)
        assert layout.read(b"\x00", 0) == ({"x": None}, 1)


class TestMessageRows:
    def test_drifted_message_fails_where_it_is_defined(self):
        """The row is bound when the class is made — for a real message
        that is the import of ``repro.core.protocol``."""
        with pytest.raises(ValueError, match="does not cover"):

            class Drifted(wire.WireMessage):
                task_id: str
                extra: int

                FIELDS = (wire.Field("task_id", "str"),)

    def test_every_message_row_is_bound_and_covers_its_dataclass(self):
        messages = [
            cls
            for cls in vars(protocol).values()
            if isinstance(cls, type) and issubclass(cls, wire.WireMessage)
            and cls is not wire.WireMessage
        ]
        assert len(messages) == 8
        for cls in messages:
            assert isinstance(cls._layout, wire.Layout)
            assert [f.attr for f in cls.FIELDS] == [
                f.name for f in dataclasses.fields(cls)
            ]
            # Nothing a message decoder rejects is a ProtocolError.
            assert {f.error for f in cls.FIELDS} == {CodecError}

    def test_no_message_spells_its_own_codec(self):
        """One walker: ``encode``/``decode``/``wire_size`` come from the
        shared base, for every message."""
        for cls in vars(protocol).values():
            if isinstance(cls, type) and issubclass(cls, wire.WireMessage):
                for name in ("encode", "decode", "decode_at", "wire_size"):
                    assert name not in vars(cls) or cls is wire.WireMessage

    def test_proofs_kind_is_a_run_of_sample_proof_rows(self):
        """In memory, that is: on the wire the run is one multiproof —
        one header, each sample's index, one result per distinct leaf,
        each digest no sample determines once — and ``SampleProof`` has
        no encoding of its own."""
        assert not issubclass(SampleProof, wire.WireMessage)
        tall, wide = b"\x11" * 4, b"\x22" * 4
        proofs = tuple(
            SampleProof(
                index=i,
                claimed_result=bytes([i]) * 3,
                path=AuthenticationPath(i, [tall, wide], 4, LeafEncoding.RAW),
            )
            for i in (2, 0, 2)
        )
        bundle = ProofBundleMsg("t", proofs).encode()
        assert bundle == b"\x01t" + b"".join(
            (
                bytes([3, 4, 1, 2]),         # m, n_leaves, RAW, height
                bytes([2, 0, 2]),            # the samples, in sample order
                b"\x02\x03\x00\x00\x00\x03\x02\x02\x02",  # leaves 0 and 2
                b"\x02\x04" + tall + b"\x04" + tall,  # leaf level: nodes 1, 3
            )                                # level 1: 0 and 1 cover each other
        )
        decoded = ProofBundleMsg.decode(bundle)
        assert [p.index for p in decoded.proofs] == [2, 0, 2]
        assert decoded.proofs[0] is decoded.proofs[2]
        assert [p.path.siblings for p in decoded.proofs[:2]] == [[tall, None]] * 2
        assert decoded.encode() == bundle
        assert ProofBundleMsg.decode(decoded.encode()) == decoded

    def test_errors_name_the_message_and_the_field(self):
        with pytest.raises(CodecError, match="CommitmentMsg, field root"):
            protocol.CommitmentMsg.decode(b"\x01t\x05ab")


def _decode_nothing(dec, depth):
    return None


class TestTermTable:
    def test_tag_values_are_pinned(self):
        """``Tag.<NAME>`` is derived from the table; the bytes are the
        wire format."""
        names = (
            "NONE TRUE FALSE INT BIGINT FLOAT STR BYTES TUPLE LIST DICT "
            "SET STRUCT CALLABLE REF"
        ).split()
        assert [getattr(jobcodec.Tag, name) for name in names] == list(range(15))
        assert [term.name.upper() for term in jobcodec.TERMS] == names
        assert set(jobcodec._DECODERS) == set(range(15))

    @pytest.mark.parametrize(
        "row",
        [
            jobcodec.Term(0x0E, "echo", _decode_nothing),  # tag taken
            jobcodec.Term(0x0F, "ref", _decode_nothing),   # name taken
            jobcodec.Term(0x0F, "echo", None),             # no decoder
        ],
    )
    def test_drifted_table_fails_to_index(self, row):
        jobcodec._index_terms(jobcodec.TERMS)  # the table itself is sound
        with pytest.raises(ValueError):
            jobcodec._index_terms(jobcodec.TERMS + (row,))
        sound = jobcodec.Term(0x0F, "echo", _decode_nothing)
        tag, decoders = jobcodec._index_terms(jobcodec.TERMS + (sound,))
        assert tag.ECHO == 0x0F and decoders[0x0F] is _decode_nothing


class _Point:
    def __init__(self, x: int, y: int = 0) -> None:
        self.x, self.y = x, y


class TestStructTable:
    def test_rows_pack_by_attribute_and_rebuild_by_keyword(self):
        row = jobcodec._StructRow("point", _Point, "x", "y")
        (checked,) = jobcodec._index_structs((row,))
        assert checked.pack(_Point(3, 4)) == (3, 4)
        rebuilt = checked.unpack((3, 4))
        assert (rebuilt.x, rebuilt.y) == (3, 4)
        with pytest.raises(CodecError, match="has 3 fields, not 2"):
            checked.unpack((3, 4, 5))

    @pytest.mark.parametrize(
        "rows",
        [
            # wire name taken
            (("point", _Point, "x", "y"), ("point", RangeDomain, "start", "stop")),
            # class already has a row
            (("point", _Point, "x", "y"), ("pixel", _Point, "x", "y")),
            # a constructor parameter the row forgot (even a defaulted one)
            (("point", _Point, "x"),),
            # a field the constructor does not take
            (("point", _Point, "x", "y", "z"),),
        ],
    )
    def test_drifted_table_fails_before_anything_registers(self, rows):
        before = jobcodec.registered_structs()
        with pytest.raises(ValueError):
            jobcodec._index_structs(
                tuple(jobcodec._StructRow(*row) for row in rows)
            )
        assert jobcodec.registered_structs() == before

    def test_the_shipped_table_loads_when_the_package_is_imported(self):
        """No first job needed: importing the service package is what
        checks and registers the rows, so a drifted row fails there."""
        code = (
            "from repro.service import jobcodec; "
            "assert 'cbs_scheme' in jobcodec._STRUCTS"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_every_shipped_struct_round_trips_through_its_constructor(self):
        """The shipped table loaded (so it passed its own check) and the
        rows named in it are the registry's plain structs."""
        structs = jobcodec.registered_structs()
        assert structs["range_domain"] is RangeDomain
        domain = RangeDomain(3, 9)
        raw = jobcodec.encode_cluster_payload(domain)
        assert jobcodec.decode_cluster_payload(raw) == domain


class TestSchedulerSeam:
    """The scheduler decides and the coordinator moves bytes; this is
    the check that the first cannot quietly start doing the second."""

    BANNED_MODULES = ("asyncio", "socket", "ssl", "subprocess", "threading",
                      "repro.net")
    BANNED_NAMES = {"read_frame", "write_frame"}

    def test_scheduler_module_is_synchronous_and_io_free(self):
        from repro.engine.cluster import scheduler

        tree = ast.parse(pathlib.Path(scheduler.__file__).read_text())
        imported, named = set(), set()
        for node in ast.walk(tree):
            assert not isinstance(
                node, (ast.AsyncFunctionDef, ast.AsyncFor, ast.AsyncWith,
                       ast.Await)
            ), f"line {node.lineno}: the scheduler is synchronous"
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or ".")
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        for module in imported:
            for banned in self.BANNED_MODULES:
                assert module != banned and not module.startswith(
                    banned + "."
                ), f"scheduler.py imports {module}"
        assert not named & self.BANNED_NAMES
