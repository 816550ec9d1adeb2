"""Codec roundtrips and wire sizes for all protocol messages."""

import hashlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from proof_reference import plain_proofs, ref_bundle, ref_submission
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
        self._result_size = len(results[0])

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
        # decode∘encode is the bundle as it travels: samples 0, 1, 2 of
        # an 8-leaf tree touch leaf pairs 0 and 1, whose four results
        # travel; their parents cover each other, so the one digest is
        # level 2's node 1.  The samples themselves do not travel.
        bundle = ProofBundleMsg(task_id="t", bundle=sample_bundle())
        decoded = ProofBundleMsg.decode(bundle.encode())
        assert decoded == bundle
        assert decoded.bundle.results == tuple(f"r{i}".encode() for i in range(4))
        assert decoded.bundle.digests == (bundle.proofs[0].path.siblings[2],)
        # encode∘decode∘encode is the identity on bytes.
        assert decoded.encode() == bundle.encode()
        assert ProofBundleMsg.decode(decoded.encode()) == decoded

    def test_decoded_proofs_still_verify(self):
        leaves = [f"r{i}".encode() for i in range(8)]
        tree = MerkleTree(leaves)

        def verify(bundle, indices):
            return verify_proof_bundle(
                ProofBundleMsg.decode(ProofBundleMsg("t", bundle).encode()).bundle,
                indices,
                root=tree.root,
                n_leaves=8,
                domain=RangeDomain(0, 8),
                function=_Echo(leaves),
                hash_fn=tree.hash_fn,
                leaf_encoding=tree.leaf_encoding,
                stop_on_first_failure=True,
            )

        assert [v.accepted for v in verify(sample_bundle(), (0, 1, 2))] == [True] * 3
        # A one-sample bundle is its pair and its path above the
        # leaves, which still folds on its own.
        for index in range(8):
            (verdict,) = verify(tree.multiproof([index], leaves), (index,))
            assert verdict.accepted

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
        assert decoded == msg


def _pinned_messages():
    """Every producer of a proof bundle, once, with the results its
    tree committed: honest and cheating NI-CBS at the ledger's two
    shapes, an interactive CBS bundle, and a regrinder's winning
    submission (tree updated leaf by leaf)."""
    for n, m in ((512, 256), (64, 16)):
        msg, _raw, payloads, _task = real_submission(n, m)
        yield f"honest {n}/{m}", msg, payloads
    for n, m in ((512, 256), (64, 16)):
        task = TaskAssignment("task-7", RangeDomain(0, n), PasswordSearch())
        cheater = NICBSParticipant(task, SemiHonestCheater(0.5), n_samples=m)
        yield f"semi-honest {n}/{m}", cheater.compute_and_submit(), cheater.work.leaf_payloads
    task = TaskAssignment("task-cbs", RangeDomain(0, 4096), PasswordSearch())
    participant = CBSParticipant(task, HonestBehavior())
    supervisor = CBSSupervisor(task, n_samples=16, seed=3)
    supervisor.receive_commitment(participant.compute_and_commit())
    bundle = participant.prove(supervisor.make_challenge())
    yield "cbs 4096/16", bundle, participant.work.leaf_payloads
    grind = TaskAssignment("grind", RangeDomain(0, 128), PasswordSearch(cost=100.0))
    # The regrinder's tree changes leaf by leaf: read the results it
    # proves from off the call that builds its bundle.
    proved, multiproof = [], MerkleTree.multiproof

    def recording(tree, indices, payloads):
        proved.append(list(payloads))
        return multiproof(tree, indices, payloads)

    with mock.patch.object(MerkleTree, "multiproof", recording):
        attack = run_regrind_attack(
            grind, honesty_ratio=0.5, n_samples=4, seed=1, max_attempts=5000
        )
    assert attack.attempts == 12
    yield "regrind", attack.submission, proved[-1]


#: sha256 of each pinned message's encoding.  A change here is a wire
#: change, whatever else the diff says.
PINNED = {
    "honest 512/256": "6bc50078155fad68dc516646a7a6022c0702ff43e7240aed6f0859451d3efc31",
    "honest 64/16": "299dd19e9adaaaaca9cf5a4ec4bcb6e3d34ebb462eaf2833375e165ba4713936",
    "semi-honest 512/256": "8e65d2bec3cb4dad4f5d6e140d2eaf50647aaddb5e93759001e4260330f43586",
    "semi-honest 64/16": "cd18dc43c64efce79a210ab65923a3b51338b9e9d244fd01845229ff7b2fca02",
    "cbs 4096/16": "7488a56263cfa0af95382eabf28806ce7775498945be7c42603ef99de5c65083",
    "regrind": "9e299d2db0b5d69229e9dcc8c42c0deffa0ede92cb4efdc8986ff5c24c544a47",
}


def test_wire_is_pinned():
    got, references = {}, {}
    for name, msg, payloads in _pinned_messages():
        got[name] = hashlib.sha256(msg.encode()).hexdigest()
        proofs = plain_proofs(msg.proofs)
        if isinstance(msg, ProofBundleMsg):
            reference = ref_bundle(msg.task_id, proofs, payloads)
        else:
            reference = ref_submission(
                msg.task_id, msg.root, msg.n_leaves, proofs, payloads
            )
        references[name] = hashlib.sha256(reference).hexdigest()
    assert got == PINNED
    # The hand-written encoder, from the per-path form, says the same.
    assert references == PINNED


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
