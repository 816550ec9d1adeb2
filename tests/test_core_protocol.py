"""Codec roundtrips and wire sizes for all protocol messages."""

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
from repro.core.verification import verify_proof_bundle
from repro.merkle import MerkleTree
from repro.tasks import RangeDomain


class _Echo:
    """A task function whose result for input ``i`` is ``results[i]``."""

    def __init__(self, results):
        self.results = results

    def verify(self, x, claimed):
        return self.results[x] == claimed


def sample_proofs(n: int = 8, count: int = 3) -> tuple[SampleProof, ...]:
    leaves = [f"r{i}".encode() for i in range(n)]
    tree = MerkleTree(leaves)
    return tuple(
        SampleProof(
            index=i, claimed_result=leaves[i], path=tree.auth_path(i)
        )
        for i in range(count)
    )


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
        bundle = ProofBundleMsg(task_id="t", proofs=sample_proofs())
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
        bundle = ProofBundleMsg(task_id="t", proofs=sample_proofs())
        decoded = ProofBundleMsg.decode(bundle.encode())
        verdicts = verify_proof_bundle(
            decoded.proofs,
            (0, 1, 2),
            root=tree.root,
            n_leaves=8,
            domain=RangeDomain(0, 8),
            function=_Echo(leaves),
            hash_fn=tree.hash_fn,
            leaf_encoding=tree.leaf_encoding,
        )
        assert [v.accepted for v in verdicts] == [True] * 3
        # A one-sample bundle supplies its whole path, which still
        # folds on its own.
        for proof in bundle.proofs:
            (alone,) = ProofBundleMsg.decode(
                ProofBundleMsg("t", (proof,)).encode()
            ).proofs
            assert alone == proof
            assert alone.path.verify(alone.claimed_result, tree.root, tree.hash_fn)

    def test_wire_size(self):
        bundle = ProofBundleMsg(task_id="t", proofs=sample_proofs())
        assert bundle.wire_size() == len(bundle.encode())


class TestNICBSSubmission:
    def test_roundtrip(self):
        tree = MerkleTree([f"r{i}".encode() for i in range(8)])
        msg = NICBSSubmissionMsg(
            task_id="t", root=tree.root, n_leaves=8, proofs=sample_proofs()
        )
        decoded = NICBSSubmissionMsg.decode(msg.encode())
        assert decoded.root == tree.root
        assert decoded.n_leaves == 8
        assert len(decoded.proofs) == 3


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
