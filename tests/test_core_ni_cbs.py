"""Tests for the non-interactive CBS scheme (paper §4)."""

import dataclasses
import hashlib

import pytest

from repro.accounting import CostLedger
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import NICBSParticipant, NICBSScheme, NICBSSupervisor
from repro.core.ni_cbs import derive_sample_indices
from repro.core.protocol import NICBSSubmissionMsg, SampleChallengeMsg
from repro.core.scheme import RejectReason
from repro.exceptions import ProtocolError, SchemeConfigurationError
from repro.merkle import CountingHash, get_hash
from repro.merkle.tree import LeafEncoding
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment


class TestSampleDerivation:
    def test_eq4_chain(self):
        # i_k = g^k(Φ(R)) mod n: verify against a manual chain.
        g = get_hash("sha256")
        root = b"\x07" * 32
        indices = derive_sample_indices(root, n=100, m=3, sample_hash=g)
        value = root
        expected = []
        for _ in range(3):
            value = g.digest(value)
            expected.append(int.from_bytes(value, "big") % 100)
        assert indices == expected

    @pytest.mark.parametrize(
        "name, algorithm, rounds", [("sha256", "sha256", 1), ("md5^7", "md5", 7)]
    )
    def test_eq4_against_bare_hashlib(self, name, algorithm, rounds):
        # The reference shares nothing with the system: no registry,
        # no wrapper, only hashlib — g = h^rounds applied link by link.
        root = hashlib.new(algorithm, b"some commitment").digest()
        n, m = 4099, 40
        value, expected = root, []
        for _ in range(m):
            for _ in range(rounds):
                value = hashlib.new(algorithm, value).digest()
            expected.append(int.from_bytes(value, "big") % n)
        assert derive_sample_indices(root, n, m, get_hash(name)) == expected
        # Through the metering wrapper the participant and supervisor
        # use: same indices, one charge of g's cost per link.
        ledger = CostLedger()
        counted = CountingHash(get_hash(name), ledger)
        assert derive_sample_indices(root, n, m, counted) == expected
        per_link = CostLedger()
        for _ in range(m):
            per_link.charge_hash(float(rounds))
        assert (ledger.hashes, ledger.hash_cost) == (m, per_link.hash_cost)

    def test_deterministic(self):
        g = get_hash("sha256")
        a = derive_sample_indices(b"\x01" * 32, 50, 5, g)
        b = derive_sample_indices(b"\x01" * 32, 50, 5, g)
        assert a == b

    def test_different_roots_different_samples(self):
        g = get_hash("sha256")
        a = derive_sample_indices(b"\x01" * 32, 1000, 8, g)
        b = derive_sample_indices(b"\x02" * 32, 1000, 8, g)
        assert a != b

    def test_indices_in_range(self):
        g = get_hash("md5")
        for n in (1, 2, 7, 1000):
            for index in derive_sample_indices(b"\x03" * 16, n, 10, g):
                assert 0 <= index < n

    def test_roughly_uniform(self):
        g = get_hash("sha256")
        counts = [0] * 10
        for trial in range(300):
            root = bytes([trial % 256, trial // 256]) * 16
            for index in derive_sample_indices(root, 10, 4, g):
                counts[index] += 1
        total = sum(counts)
        assert total == 1200
        assert all(abs(c - 120) < 60 for c in counts), counts

    def test_validation(self):
        g = get_hash("sha256")
        with pytest.raises(SchemeConfigurationError):
            derive_sample_indices(b"\x00" * 32, n=0, m=1, sample_hash=g)
        with pytest.raises(SchemeConfigurationError):
            derive_sample_indices(b"\x00" * 32, n=10, m=0, sample_hash=g)

    def test_one_sample_is_one_index(self):
        # m = 1 is the smallest legal sample: one link of the chain.
        g = get_hash("sha256")
        root = b"\x05" * 32
        expected = int.from_bytes(g.digest(root), "big") % 10
        assert derive_sample_indices(root, n=10, m=1, sample_hash=g) == [expected]


class TestEndToEnd:
    def test_honest_accepted(self, password_task):
        scheme = NICBSScheme(n_samples=16)
        for seed in range(5):
            result = scheme.run(password_task, HonestBehavior(), seed=seed)
            assert result.outcome.accepted

    def test_cheater_caught(self, password_task):
        scheme = NICBSScheme(n_samples=24)
        for seed in range(10):
            result = scheme.run(
                password_task, SemiHonestCheater(0.5), seed=seed
            )
            assert not result.outcome.accepted

    def test_single_message_protocol(self, password_task):
        # NI-CBS: exactly one participant → supervisor message.
        result = NICBSScheme(n_samples=8).run(
            password_task, HonestBehavior(), seed=1
        )
        assert result.participant_ledger.messages_sent == 1
        assert result.supervisor_ledger.messages_sent == 0

    def test_iterated_g_charged_both_sides(self, password_task):
        scheme = NICBSScheme(n_samples=4, sample_hash_name="md5^50")
        result = scheme.run(password_task, HonestBehavior(), seed=1)
        # Participant: tree hashes + 4 × g (cost 50 each).
        # Supervisor: m × g for re-derivation + verification tree hashes.
        assert result.supervisor_ledger.hash_cost >= 4 * 50
        assert result.participant_ledger.hash_cost >= 4 * 50


class TestSupervisorChecks:
    def make_submission(self, task, behavior=None, n_samples=8):
        participant = NICBSParticipant(
            task, behavior or HonestBehavior(), n_samples=n_samples
        )
        return participant.compute_and_submit()

    def test_sample_mismatch_detected(self, password_task):
        # A participant that self-selects favourable samples (not the
        # Eq. 4 derivation) is rejected outright: the first eight
        # leaves touch four pairs and no digest below level 3, which is
        # not the shape Eq. 4's samples ask for.
        participant = NICBSParticipant(password_task, HonestBehavior(), n_samples=8)
        submission = participant.compute_and_submit()
        chosen = participant.prove(
            SampleChallengeMsg(submission.task_id, tuple(range(8)))
        )
        forged = dataclasses.replace(submission, bundle=chosen.bundle)
        supervisor = NICBSSupervisor(password_task, n_samples=8)
        outcome = supervisor.verify(forged)
        assert not outcome.accepted
        assert outcome.reason == RejectReason.SAMPLE_MISMATCH
        assert supervisor.ledger.verifications == 0

    @pytest.mark.parametrize("task_id", ["other", "task-pw-small", ""])
    def test_submission_for_another_task_refused(self, password_task, task_id):
        submission = dataclasses.replace(
            self.make_submission(password_task), task_id=task_id
        )
        with pytest.raises(ProtocolError, match="submission for task"):
            NICBSSupervisor(password_task, n_samples=8).verify(submission)

    def test_wrong_leaf_count_rejected(self, password_task):
        submission = self.make_submission(password_task)
        forged = NICBSSubmissionMsg(
            task_id=submission.task_id,
            root=submission.root,
            n_leaves=submission.n_leaves - 1,
            bundle=submission.bundle,
        )
        outcome = NICBSSupervisor(password_task, n_samples=8).verify(forged)
        assert not outcome.accepted
        assert outcome.reason == RejectReason.PROTOCOL_VIOLATION

    def test_wrong_root_width_rejected(self, password_task):
        submission = self.make_submission(password_task)
        forged = NICBSSubmissionMsg(
            task_id=submission.task_id,
            root=b"\x00" * 8,
            n_leaves=submission.n_leaves,
            bundle=submission.bundle,
        )
        outcome = NICBSSupervisor(password_task, n_samples=8).verify(forged)
        assert not outcome.accepted

    def test_one_sample_honest_submission_accepted(self, password_task):
        submission = self.make_submission(password_task, n_samples=1)
        assert len(submission.proofs) == 1
        outcome = NICBSSupervisor(password_task, n_samples=1).verify(submission)
        assert outcome.accepted, outcome.reason

    def test_zero_samples_refused(self, password_task):
        with pytest.raises(SchemeConfigurationError):
            NICBSSupervisor(password_task, n_samples=0)

    def test_m_disagreement_rejected(self, password_task):
        # Supervisor expecting 16 samples rejects an 8-proof submission.
        submission = self.make_submission(password_task, n_samples=8)
        outcome = NICBSSupervisor(password_task, n_samples=16).verify(
            submission
        )
        assert not outcome.accepted
        assert outcome.reason == RejectReason.SAMPLE_MISMATCH

    def test_g_mismatch_rejected(self, password_task):
        # Different sample hash on each side → derived indices differ.
        participant = NICBSParticipant(
            password_task,
            HonestBehavior(),
            n_samples=8,
            sample_hash=get_hash("md5"),
        )
        submission = participant.compute_and_submit()
        supervisor = NICBSSupervisor(
            password_task, n_samples=8, sample_hash=get_hash("sha256")
        )
        outcome = supervisor.verify(submission)
        assert not outcome.accepted
        assert outcome.reason == RejectReason.SAMPLE_MISMATCH


    def test_results_of_another_width_are_malformed(self, password_task):
        # A bundle names no leaf encoding; the lie it can tell about
        # its leaves is their width.  17-byte results where the
        # workload's are 16: malformed, with nothing evaluated or
        # hashed past Eq. 4's chain, never an exception.
        submission = self.make_submission(password_task)
        bundle = submission.bundle
        hostile = dataclasses.replace(
            submission,
            bundle=dataclasses.replace(
                bundle, results=tuple(r + b"\x00" for r in bundle.results)
            ),
        )
        supervisor = NICBSSupervisor(password_task, n_samples=8)
        outcome = supervisor.verify(hostile)
        assert not outcome.accepted
        assert outcome.reason == RejectReason.MALFORMED_PROOF
        assert [v.accepted for v in outcome.verdicts] == [False]
        assert (supervisor.ledger.verifications, supervisor.ledger.hashes) == (0, 8)

    def test_raw_commitment_rejected_by_hashed_supervisor(self):
        # 32-byte results under sha256 make a RAW tree well-formed; a
        # supervisor configured HASHED used to verify it as RAW because
        # the paths said so.  The bundle now names no encoding: the
        # supervisor hashes the leaves its own way and the fold misses
        # the RAW tree's root.
        task = TaskAssignment(
            "task-raw", RangeDomain(0, 64), PasswordSearch(digest_bytes=32)
        )
        submission = NICBSParticipant(
            task, HonestBehavior(), n_samples=8, leaf_encoding=LeafEncoding.RAW
        ).compute_and_submit()
        raw_side = NICBSSupervisor(
            task, n_samples=8, leaf_encoding=LeafEncoding.RAW
        )
        assert raw_side.verify(submission).accepted
        outcome = NICBSSupervisor(task, n_samples=8).verify(submission)
        assert not outcome.accepted
        assert outcome.reason == RejectReason.ROOT_MISMATCH


class TestSamplesDependOnCommitment:
    def test_different_work_different_samples(self, password_task):
        # The derived samples move when the committed leaves change —
        # the property that forces grinding rather than free choice.
        honest = NICBSParticipant(password_task, HonestBehavior(), n_samples=8)
        cheat = NICBSParticipant(
            password_task, SemiHonestCheater(0.5), n_samples=8
        )
        s1 = honest.compute_and_submit()
        s2 = cheat.compute_and_submit()
        assert s1.root != s2.root
        assert [p.index for p in s1.proofs] != [p.index for p in s2.proofs]
