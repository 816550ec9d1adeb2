"""Codec roundtrips and wire sizes for all protocol messages."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_codec_oracle import real_submission
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.cheating.regrind import run_regrind_attack
from repro.core.cbs import CBSParticipant, CBSSupervisor
from repro.core.ni_cbs import NICBSParticipant
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
from repro.core.verification import verify_proof_bundle
from repro.merkle import MerkleTree
from repro.merkle.multiproof import Multiproof
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment, TaskFunction


class _Echo(TaskFunction):
    """A task function whose result for input ``i`` is ``results[i]``."""

    def __init__(self, results):
        self.results = results

    def evaluate(self, x):
        return self.results[x]


def sample_bundle(n: int = 8, count: int = 3) -> Multiproof:
    leaves = [f"r{i}".encode() for i in range(n)]
    return MerkleTree(leaves).multiproof(range(count), leaves)


class TestCommitmentMsg:
    def test_roundtrip(self):
        msg = CommitmentMsg(task_id="job-7", root=bytes(range(32)), n_leaves=1000)
        assert CommitmentMsg.decode(msg.encode()) == msg

    def test_wire_size_matches_encoding(self):
        msg = CommitmentMsg(task_id="t", root=b"\x00" * 32, n_leaves=5)
        assert msg.wire_size() == len(msg.encode())

    @given(st.text(max_size=30), st.binary(min_size=1, max_size=64),
           st.integers(min_value=1, max_value=1 << 40))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, task_id, root, n):
        msg = CommitmentMsg(task_id=task_id, root=root, n_leaves=n)
        assert CommitmentMsg.decode(msg.encode()) == msg


class TestSampleChallengeMsg:
    def test_roundtrip(self):
        msg = SampleChallengeMsg(task_id="t", indices=(4, 99, 0, 4))
        assert SampleChallengeMsg.decode(msg.encode()) == msg

    def test_empty_indices(self):
        msg = SampleChallengeMsg(task_id="t", indices=())
        assert SampleChallengeMsg.decode(msg.encode()) == msg

    def test_size_linear_in_m(self):
        small = SampleChallengeMsg("t", tuple(range(10))).wire_size()
        large = SampleChallengeMsg("t", tuple(range(100))).wire_size()
        assert large > small


class TestProofBundle:
    def test_roundtrip_preserves_proofs(self):
        # decode∘encode is the compact form: samples 0, 1, 2 of an
        # 8-leaf tree.  0 and 1 are each other's leaf-level sibling and
        # their parent is 2's level-1 sibling, so those positions read
        # back as None; everything else is the digest that was sent.
        bundle = ProofBundleMsg(task_id="t", bundle=sample_bundle())
        decoded = ProofBundleMsg.decode(bundle.encode())
        assert decoded.task_id == "t"
        assert len(decoded.proofs) == 3
        derivable = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)}
        for orig, got in zip(bundle.proofs, decoded.proofs):
            assert got.index == orig.index == got.path.leaf_index
            assert got.claimed_result == orig.claimed_result
            assert got.path.n_leaves == 8
            assert got.path.siblings == [
                None if (orig.index, level) in derivable else digest
                for level, digest in enumerate(orig.path.siblings)
            ]
        # encode∘decode∘encode is the identity on bytes.
        assert decoded.encode() == bundle.encode()
        assert ProofBundleMsg.decode(decoded.encode()) == decoded

    def test_decoded_proofs_still_verify(self):
        leaves = [f"r{i}".encode() for i in range(8)]
        tree = MerkleTree(leaves)
        bundle = ProofBundleMsg(task_id="t", bundle=sample_bundle())
        decoded = ProofBundleMsg.decode(bundle.encode())
        verdicts = verify_proof_bundle(
            decoded.bundle,
            (0, 1, 2),
            root=tree.root,
            n_leaves=8,
            domain=RangeDomain(0, 8),
            function=_Echo(leaves),
            hash_fn=tree.hash_fn,
            leaf_encoding=tree.leaf_encoding,
            stop_on_first_failure=True,
        )
        assert [v.accepted for v in verdicts] == [True] * 3
        # A one-sample bundle supplies its whole path, which still
        # folds on its own.
        for proof in bundle.proofs:
            (alone,) = ProofBundleMsg.decode(
                ProofBundleMsg("t", tree.multiproof([proof.index], leaves)).encode()
            ).proofs
            assert alone == proof
            assert alone.path.verify(alone.claimed_result, tree.root, tree.hash_fn)

    def test_wire_size(self):
        bundle = ProofBundleMsg(task_id="t", bundle=sample_bundle())
        assert bundle.wire_size() == len(bundle.encode())


class TestNICBSSubmission:
    def test_roundtrip(self):
        tree = MerkleTree([f"r{i}".encode() for i in range(8)])
        msg = NICBSSubmissionMsg(
            task_id="t", root=tree.root, n_leaves=8, bundle=sample_bundle()
        )
        decoded = NICBSSubmissionMsg.decode(msg.encode())
        assert decoded.root == tree.root
        assert decoded.n_leaves == 8
        assert len(decoded.proofs) == 3


def _pinned_messages():
    """Every producer of a proof bundle, once: honest and cheating NI-CBS
    at the ledger's two shapes, an interactive CBS bundle, and a
    regrinder's winning submission (tree updated leaf by leaf)."""
    yield "honest 512/256", real_submission(512, 256)
    yield "honest 64/16", real_submission(64, 16)
    for n, m in ((512, 256), (64, 16)):
        task = TaskAssignment("task-7", RangeDomain(0, n), PasswordSearch())
        cheater = NICBSParticipant(task, SemiHonestCheater(0.5), n_samples=m)
        yield f"semi-honest {n}/{m}", cheater.compute_and_submit()
    task = TaskAssignment("task-cbs", RangeDomain(0, 4096), PasswordSearch())
    participant = CBSParticipant(task, HonestBehavior())
    supervisor = CBSSupervisor(task, n_samples=16, seed=3)
    supervisor.receive_commitment(participant.compute_and_commit())
    yield "cbs 4096/16", participant.prove(supervisor.make_challenge())
    grind = TaskAssignment("grind", RangeDomain(0, 128), PasswordSearch(cost=100.0))
    attack = run_regrind_attack(
        grind, honesty_ratio=0.5, n_samples=4, seed=1, max_attempts=5000
    )
    assert attack.attempts == 12
    yield "regrind", attack.submission


#: sha256 of each pinned message's encoding.  A change here is a wire
#: change, whatever else the diff says.
PINNED = {
    "honest 512/256": "e790140044bd9405c107cb8cec0967e580b1e4983f478048bdcd02793fb793ea",
    "honest 64/16": "7d6ba39585a78d03d7359ef359ec4d148edcdd987f98b45bc9d56f1d4b36e300",
    "semi-honest 512/256": "f002d4fe1067e0234b3d9b60073fb1090a2c27cb802341094f7bd73058bcd088",
    "semi-honest 64/16": "5bf4c2894942d86c0d5a361495dd40c225dc9852439fe2cf779c95b872fc90b4",
    "cbs 4096/16": "f9808ec6cef9d18f011cd62ce686bb6a6d94f0abb431fdbf4547602effd808f3",
    "regrind": "3dd0363c9a001985c223c67f6995701b4aca11472a4a28ac3d072a53381e86f7",
}


def test_wire_is_pinned():
    got = {
        name: hashlib.sha256(msg.encode()).hexdigest()
        for name, msg in _pinned_messages()
    }
    assert got == PINNED


class TestFullResultsMsg:
    def test_roundtrip(self):
        msg = FullResultsMsg(task_id="t", results=(b"a", b"", b"ccc"))
        assert FullResultsMsg.decode(msg.encode()) == msg

    def test_size_linear_in_n(self):
        small = FullResultsMsg("t", tuple(b"x" * 16 for _ in range(10)))
        large = FullResultsMsg("t", tuple(b"x" * 16 for _ in range(1000)))
        assert large.wire_size() > 90 * small.wire_size()


class TestReportsMsg:
    def test_roundtrip(self):
        msg = ReportsMsg(task_id="t", reports=("match:5", "match:9"))
        assert ReportsMsg.decode(msg.encode()) == msg

    def test_unicode_reports(self):
        msg = ReportsMsg(task_id="τ", reports=("héllo",))
        assert ReportsMsg.decode(msg.encode()) == msg


class TestVerdictMsg:
    def test_roundtrip_accept(self):
        msg = VerdictMsg(task_id="t", accepted=True)
        assert VerdictMsg.decode(msg.encode()) == msg

    def test_roundtrip_reject_with_reason(self):
        msg = VerdictMsg(task_id="t", accepted=False, reason="root_mismatch")
        assert VerdictMsg.decode(msg.encode()) == msg


class TestAssignMsg:
    def test_roundtrip(self):
        msg = AssignMsg(task_id="t-9", n_inputs=4096, workload="PasswordSearch")
        assert AssignMsg.decode(msg.encode()) == msg

    def test_small_constant_size(self):
        # Assignments are O(1) on the wire regardless of n.
        small = AssignMsg("t", 10, "W").wire_size()
        large = AssignMsg("t", 1 << 40, "W").wire_size()
        assert large - small <= 8
