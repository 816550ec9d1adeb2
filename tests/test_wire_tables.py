"""Every wire table refuses to load when it has drifted.

Frames (``service/codec.FRAMES``), protocol messages (``FIELDS`` rows
on :class:`repro.core.wire.WireMessage` subclasses), job-codec terms
(``jobcodec.TERMS``) and plain structs (the rows in
``jobcodec._register_defaults``) are each built and cross-checked by
one indexing step that runs when the table loads.  These tests feed
each step a drifted table and expect :class:`ValueError` — the check a
lint rule (RL006) used to approximate from the outside.  The frame
table's own cases live in ``test_service_codec.TestFrameTable``.

One more structural check rides here: the I/O-free cores
(``engine/cluster/scheduler.py``, ``engine/cluster/chunk.py``,
``service/sessions.py``) stay synchronous (``TestSchedulerSeam``).
"""

import ast
import dataclasses
import importlib
import pathlib
import subprocess
import sys

import pytest

from repro.core import protocol, wire
from repro.core.protocol import ProofBundleMsg
from repro.exceptions import CodecError
from repro.merkle.multiproof import Multiproof
from repro.merkle.proof import SampleProof
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
        """Read as ``proofs``, that is: the run is one multiproof — one
        header, each sample's index, one result per distinct leaf, each
        digest no sample determines once — and ``SampleProof`` has no
        encoding of its own."""
        assert not issubclass(SampleProof, wire.WireMessage)
        tall = b"\x11" * 4
        multiproof = Multiproof(
            (2, 0, 2), 4, LeafEncoding.RAW, 2, (b"\x00" * 3, b"\x02" * 3), (tall, tall)
        )
        bundle = ProofBundleMsg("t", multiproof).encode()
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
            "NONE TRUE FALSE INT FLOAT STR BYTES TUPLE LIST DICT "
            "STRUCT CALLABLE REF"
        ).split()
        # 0x04 (bigint) and 0x0B (set) are retired, not reassigned.
        tags = [tag for tag in range(15) if tag not in (0x04, 0x0B)]
        assert [getattr(jobcodec.Tag, name) for name in names] == tags
        assert [term.name.upper() for term in jobcodec.TERMS] == names
        assert set(jobcodec._DECODERS) == set(tags)

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
        """One instance per registered struct, the registry covered
        exactly: encode, decode through the constructor, encode again,
        byte for byte."""
        instances = _one_instance_per_struct()
        structs = jobcodec.registered_structs()
        assert structs["range_domain"] is RangeDomain
        assert {type(obj) for obj in instances} == set(structs.values())
        assert len(instances) == len(structs)
        for obj in instances:
            raw = jobcodec.encode_cluster_payload(obj)
            back = jobcodec.decode_cluster_payload(raw)
            assert type(back) is type(obj)
            assert jobcodec.encode_cluster_payload(back) == raw, type(obj)
        topk = next(obj for obj in instances if type(obj).__name__ == "TopKScreener")
        back = jobcodec.decode_cluster_payload(jobcodec.encode_cluster_payload(topk))
        assert back.top() == topk.top() != []


def _one_instance_per_struct() -> list:
    from repro.accounting import CostLedger
    from repro.baselines import (
        DoubleCheckScheme,
        HardenedProbeScheme,
        NaiveSamplingScheme,
        RingerScheme,
    )
    from repro.cheating.guessing import BernoulliGuess, UniformValueGuess, ZeroGuess
    from repro.cheating.strategies import (
        ColludingCheater,
        HonestBehavior,
        MaliciousBehavior,
        SemiHonestCheater,
        WorkSummary,
    )
    from repro.core.cbs import CBSScheme
    from repro.core.ni_cbs import NICBSScheme
    from repro.core.protocol import CommitmentMsg, NICBSSubmissionMsg
    from repro.core.scheme import (
        RejectReason,
        SampleVerdict,
        SchemeRunResult,
        VerificationOutcome,
    )
    from repro.engine.jobs import SchemeBatch, SchemeJob
    from repro.merkle.tree import MerkleTree
    from repro.tasks.domain import ExplicitDomain
    from repro.tasks.function import GuessableFunction
    from repro.tasks.result import TaskAssignment
    from repro.tasks.screener import (
        MatchScreener,
        ReportAllScreener,
        ThresholdScreener,
        TopKScreener,
    )
    from repro.tasks.workloads import (
        FactoringTask,
        MersenneCheck,
        MoleculeScreening,
        MonteCarloEstimate,
        OptimizationSearch,
        PasswordSearch,
        SignalSearch,
    )

    topk = TopKScreener(2)
    for x, level in ((5, 9), (6, 3), (7, 4)):
        topk.screen(x, level.to_bytes(4, "big"))
    payloads = [bytes([i]) * 4 for i in range(6)]
    proofs = MerkleTree(payloads).multiproof([1, 4], payloads)
    task = TaskAssignment("t-0", RangeDomain(0, 16), PasswordSearch(), topk)
    job = SchemeJob(task, SemiHonestCheater(0.5, BernoulliGuess(0.25)), seed=3)
    verdict = SampleVerdict(1 << 40, False, RejectReason.WRONG_RESULT)
    outcome = VerificationOutcome("t-0", False, [verdict], RejectReason.WRONG_RESULT)
    ledger = CostLedger(evaluations=3, counters={"rebuilds": 2})
    return [
        BernoulliGuess(0.25),
        CBSScheme(8, subtree_height=1),
        ColludingCheater(0.5, b"cartel", ZeroGuess()),
        CommitmentMsg("t-0", b"\x01" * 32, 6),
        ledger,
        DoubleCheckScheme(3, [HonestBehavior(), MaliciousBehavior(0.5)]),
        ExplicitDomain([3, 1, 2]),
        FactoringTask(bits=12),
        GuessableFunction(MersenneCheck(), 0.5),
        HardenedProbeScheme(4),
        HonestBehavior(),
        MaliciousBehavior(0.25),
        MatchScreener(b"\x00\x01"),
        MersenneCheck(7.0),
        MoleculeScreening(resolution=64),
        MonteCarloEstimate(n_samples=8),
        NaiveSamplingScheme(4, with_replacement=False),
        NICBSScheme(4, sample_hash_name="md5^3"),
        NICBSSubmissionMsg("t-0", b"\x02" * 32, 6, proofs),
        OptimizationSearch(n_wells=3, resolution=64, grid_side=64),
        PasswordSearch(),
        ProofBundleMsg("t-0", proofs),
        RangeDomain(3, 9),
        ReportAllScreener(),
        RingerScheme(3, require_all=False),
        verdict,
        SchemeBatch(CBSScheme(4), (job, job)),
        job,
        SchemeRunResult(outcome, ledger, CostLedger(), WorkSummary(16, 8), ledger),
        SemiHonestCheater(0.5, UniformValueGuess([b"a", b"b"]), "prefix"),
        SignalSearch(threshold=0.25),
        task,
        ThresholdScreener(9, "above"),
        topk,
        UniformValueGuess([b"\x00", b"\x01"]),
        outcome,
        WorkSummary(16, 8),
        ZeroGuess(),
    ]


class TestSchedulerSeam:
    """The scheduler, the chunk protocol and the session core decide, and
    their shells (the coordinator, the worker, the server) move bytes;
    this is the check that the first cannot quietly start doing the
    second."""

    BANNED_MODULES = ("asyncio", "socket", "ssl", "subprocess", "threading",
                      "repro.net")
    BANNED_NAMES = {"read_frame", "write_frame"}

    @pytest.mark.parametrize(
        "name",
        [
            "repro.engine.cluster.scheduler",
            "repro.engine.cluster.chunk",
            "repro.service.sessions",
        ],
    )
    def test_module_is_synchronous_and_io_free(self, name):
        path = importlib.import_module(name).__file__
        tree = ast.parse(pathlib.Path(path).read_text())
        imported, named = set(), set()
        for node in ast.walk(tree):
            assert not isinstance(
                node, (ast.AsyncFunctionDef, ast.AsyncFor, ast.AsyncWith,
                       ast.Await)
            ), f"line {node.lineno}: {name} is synchronous"
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
                ), f"{name} imports {module}"
        assert not named & self.BANNED_NAMES
