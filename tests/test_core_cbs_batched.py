"""CBS end to end over the one proof form: every bundle is a multiproof.

(The file predates that: "batched" was once a mode beside the per-path
bundle, behind ``CBSScheme(batch_proofs=True)``.  The mode, its message
and its prove/verify pair are gone; what these tests pinned about a
compressed bundle — accepted when honest, caught when not, verdicts
equal to the per-path verifier's, fewer bytes, tampering detected — now
holds of the only bundle there is, checked here on the bundle *as a
peer receives it*.)
"""

import dataclasses

import pytest

from proof_reference import RefBooks, RefHash, plain_proofs, ref_per_path_proofs, ref_verify
from repro.cheating import BernoulliGuess, HonestBehavior, SemiHonestCheater
from repro.core import CBSParticipant, CBSScheme, CBSSupervisor
from repro.core.protocol import ProofBundleMsg, SampleChallengeMsg
from repro.core.scheme import RejectReason
from repro.merkle.multiproof import bundle_shape
from repro.exceptions import ReproError
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment


@pytest.fixture
def task():
    return TaskAssignment("batch", RangeDomain(0, 512), PasswordSearch())


def received(bundle: ProofBundleMsg) -> ProofBundleMsg:
    return ProofBundleMsg.decode(bundle.encode())


class TestBatchedEndToEnd:
    def test_honest_accepted(self, task):
        scheme = CBSScheme(n_samples=16)
        for seed in range(5):
            assert scheme.run(task, HonestBehavior(), seed=seed).outcome.accepted

    def test_cheater_caught(self, task):
        scheme = CBSScheme(n_samples=25)
        for seed in range(8):
            result = scheme.run(task, SemiHonestCheater(0.5), seed=seed)
            assert not result.outcome.accepted

    def test_detection_equivalent_to_classic(self, task):
        # Same seeds, same samples: the shared fold over the received
        # bundle and the classic one-path-per-sample verifier agree
        # verdict for verdict.
        for seed in range(30):
            participant = CBSParticipant(
                task, SemiHonestCheater(0.7, BernoulliGuess(0.4)),
                salt=seed.to_bytes(8, "big"),
            )
            supervisor = CBSSupervisor(task, n_samples=6, seed=seed)
            commitment = participant.compute_and_commit()
            supervisor.receive_commitment(commitment)
            challenge = supervisor.make_challenge()
            bundle = participant.prove(challenge)
            books = RefBooks()
            classic = ref_verify(
                RefHash("sha256", 1, 1.0, books), books,
                plain_proofs(bundle.proofs), challenge.indices, commitment.root,
                512, task, True,
            )
            outcome = supervisor.verify(received(bundle))
            assert [
                (v.index, v.accepted, v.reason.value) for v in outcome.verdicts
            ] == classic, seed

    def test_bytes_strictly_smaller(self, task):
        # Than the same bundle as 20 independent paths.
        result = CBSScheme(n_samples=20, include_reports=False).run(
            task, HonestBehavior(), seed=1
        )
        participant = CBSParticipant(task, HonestBehavior())
        supervisor = CBSSupervisor(task, n_samples=20, seed=1)
        commitment = participant.compute_and_commit()
        supervisor.receive_commitment(commitment)
        bundle = participant.prove(supervisor.make_challenge())
        classic = (
            commitment.wire_size()
            + len(b"\x05batch")
            + len(ref_per_path_proofs(plain_proofs(bundle.proofs)))
        )
        assert result.participant_ledger.bytes_sent == (
            commitment.wire_size() + bundle.wire_size()
        )
        assert result.participant_ledger.bytes_sent < classic

    def test_partial_tree_backend_proves_through_the_same_bundle(self, task):
        # §3.3: the partial tree emits full per-sample paths, so it
        # gets the one form for free — same bytes as the full tree.
        challenge = SampleChallengeMsg("batch", (5, 5, 9, 200, 9))
        bundles = []
        for subtree_height in (None, 3):
            participant = CBSParticipant(
                task, HonestBehavior(), subtree_height=subtree_height
            )
            participant.compute_and_commit()
            bundles.append(participant.prove(challenge).encode())
        assert bundles[0] == bundles[1]


class TestBatchedProtocolChecks:
    def run_to_proofs(self, task, behavior=None, m=8, seed=0):
        participant = CBSParticipant(task, behavior or HonestBehavior())
        supervisor = CBSSupervisor(task, n_samples=m, seed=seed)
        supervisor.receive_commitment(participant.compute_and_commit())
        challenge = supervisor.make_challenge()
        return participant, supervisor, participant.prove(challenge)

    @staticmethod
    def with_results(msg, results):
        """``msg`` with leaf ``i`` claiming ``results[i]``, for every leaf
        whose result travels (both of each touched pair; 512 leaves, so
        none is padding)."""
        leaves, _nodes = bundle_shape([p.index for p in msg.proofs], 9)
        bundle = dataclasses.replace(
            msg.bundle, results=tuple(results[leaf] for leaf in leaves)
        )
        return dataclasses.replace(msg, bundle=bundle)

    def test_wrong_result_detected(self, task):
        participant, supervisor, msg = self.run_to_proofs(task)
        results = list(participant.work.leaf_payloads)
        results[msg.proofs[0].index] = b"\x00" * 16
        outcome = supervisor.verify(received(self.with_results(msg, results)))
        assert not outcome.accepted
        assert outcome.reason == RejectReason.WRONG_RESULT

    def test_index_set_mismatch_detected(self, task):
        # A bundle for the neighbouring leaves of the challenged ones.
        # It names no samples, and here its counts happen to fit the
        # challenge, so it is read as the challenged leaves' results and
        # digests: the fold misses the root.
        participant, supervisor, msg = self.run_to_proofs(task)
        shifted = participant.prove(
            SampleChallengeMsg(
                "batch", tuple((p.index + 1) % 512 for p in msg.proofs)
            )
        )
        outcome = supervisor.verify(received(shifted))
        assert not outcome.accepted
        assert outcome.reason == RejectReason.ROOT_MISMATCH

    def test_garbage_proof_bytes_detected(self, task):
        _, _, msg = self.run_to_proofs(task)
        raw = msg.encode()
        for garbage in (raw[:8] + b"\xff" * 10, raw[:-1], raw + b"\x00"):
            with pytest.raises(ReproError):
                ProofBundleMsg.decode(garbage)

    def test_correct_results_foreign_tree_detected(self, task):
        # The §3 attack: correct f(x) values proven against a
        # commitment built from garbage.
        participant, supervisor, msg = self.run_to_proofs(
            task, behavior=SemiHonestCheater(0.0, BernoulliGuess(0.0))
        )
        results = list(participant.work.leaf_payloads)
        for p in msg.proofs:
            results[p.index] = task.function.evaluate(task.domain[p.index])
        corrected = self.with_results(msg, results)
        outcome = supervisor.verify(received(corrected))
        assert not outcome.accepted
        assert outcome.reason == RejectReason.ROOT_MISMATCH

    def test_duplicate_challenge_indices_collapse(self, task):
        participant = CBSParticipant(task, HonestBehavior())
        participant.compute_and_commit()
        msg = participant.prove(SampleChallengeMsg("batch", (5, 5, 9, 5, 9)))
        assert [p.index for p in msg.proofs] == [5, 5, 9, 5, 9]
        assert len({id(p) for p in msg.proofs}) == 2
        # The samples do not travel: repeats cost nothing.
        once = participant.prove(SampleChallengeMsg("batch", (5, 9)))
        assert received(msg) == received(once)
        assert msg.encode() == once.encode()

    def test_codec_roundtrip(self, task):
        _, _, msg = self.run_to_proofs(task)
        got = received(msg)
        assert got.encode() == msg.encode()
        assert received(got) == got
