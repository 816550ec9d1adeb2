"""Tests for the interactive CBS scheme (paper §3.1, Theorems 1–3)."""

import dataclasses

import pytest

from repro.cheating import BernoulliGuess, HonestBehavior, SemiHonestCheater
from repro.core import CBSParticipant, CBSScheme, CBSSupervisor
from repro.core.protocol import SampleChallengeMsg
from repro.core.scheme import RejectReason
from repro.exceptions import ProtocolError, SchemeConfigurationError
from repro.merkle.tree import LeafEncoding
from repro.tasks import (
    MatchScreener,
    PasswordSearch,
    RangeDomain,
    TaskAssignment,
)


class TestSoundness:
    """Theorem 1: an honest participant always proves its honesty."""

    def test_honest_always_accepted(self, password_task):
        scheme = CBSScheme(n_samples=25)
        for seed in range(10):
            result = scheme.run(password_task, HonestBehavior(), seed=seed)
            assert result.outcome.accepted
            assert result.outcome.reason == RejectReason.OK
            assert all(v.accepted for v in result.outcome.verdicts)

    def test_honest_accepted_all_domain_sizes(self, password_fn):
        for n in (1, 2, 3, 7, 8, 100):
            task = TaskAssignment(f"t{n}", RangeDomain(0, n), password_fn)
            result = CBSScheme(n_samples=5).run(task, HonestBehavior(), seed=1)
            assert result.outcome.accepted, n

    def test_honest_accepted_raw_leaf_encoding(self, password_fn):
        # Paper-faithful Φ(L) = f(x): PasswordSearch results are 16
        # bytes, so pick md5 whose digests are too.
        task = TaskAssignment("t", RangeDomain(0, 32), password_fn)
        scheme = CBSScheme(
            n_samples=8, hash_name="md5", leaf_encoding=LeafEncoding.RAW
        )
        assert scheme.run(task, HonestBehavior(), seed=0).outcome.accepted


class TestUncheatability:
    """Theorem 2/3: cheaters are caught except with probability Eq. 2."""

    def test_zero_guess_cheater_always_caught_with_enough_samples(
        self, password_task
    ):
        # r=0.5, q≈0, m=30: escape probability 0.5^30 ≈ 1e-9.
        scheme = CBSScheme(n_samples=30)
        for seed in range(20):
            result = scheme.run(
                password_task, SemiHonestCheater(0.5), seed=seed
            )
            assert not result.outcome.accepted

    def test_failure_reason_is_wrong_result_for_committed_guess(
        self, password_task
    ):
        result = CBSScheme(n_samples=30).run(
            password_task, SemiHonestCheater(0.5), seed=3
        )
        failure = result.outcome.first_failure
        assert failure is not None
        assert failure.reason == RejectReason.WRONG_RESULT

    def test_lucky_guesses_escape(self, password_task):
        # q=1 (every guess correct): the cheater is indistinguishable.
        scheme = CBSScheme(n_samples=10)
        result = scheme.run(
            password_task, SemiHonestCheater(0.5, BernoulliGuess(1.0)), seed=1
        )
        assert result.outcome.accepted
        assert result.undetected_cheat

    def test_r_zero_caught_immediately(self, password_task):
        result = CBSScheme(n_samples=5).run(
            password_task, SemiHonestCheater(0.0), seed=2
        )
        assert not result.outcome.accepted

    def test_stop_on_first_failure_short_circuits(self, password_task):
        scheme = CBSScheme(n_samples=40, stop_on_first_failure=True)
        result = scheme.run(password_task, SemiHonestCheater(0.1), seed=5)
        assert not result.outcome.accepted
        assert len(result.outcome.verdicts) < 40

    def test_full_verification_mode(self, password_task):
        scheme = CBSScheme(n_samples=10, stop_on_first_failure=False)
        result = scheme.run(password_task, SemiHonestCheater(0.1), seed=5)
        assert len(result.outcome.verdicts) == 10


class TestCostAccounting:
    def test_honest_participant_evaluates_whole_domain(self, password_task):
        result = CBSScheme(n_samples=10).run(
            password_task, HonestBehavior(), seed=0
        )
        assert result.participant_ledger.evaluations == 500

    def test_cheater_evaluates_fraction(self, password_task):
        result = CBSScheme(n_samples=30).run(
            password_task, SemiHonestCheater(0.4), seed=0
        )
        assert result.participant_ledger.evaluations == 200

    def test_supervisor_verifies_at_most_m(self, password_task):
        result = CBSScheme(n_samples=10).run(
            password_task, HonestBehavior(), seed=0
        )
        assert result.supervisor_ledger.verifications == 10

    def test_communication_is_logarithmic_not_linear(self, password_fn):
        # Doubling n four times adds only ~m·digest bytes per doubling.
        bytes_at = {}
        for n in (256, 4096):
            task = TaskAssignment(f"t{n}", RangeDomain(0, n), password_fn)
            result = CBSScheme(n_samples=10, include_reports=False).run(
                task, HonestBehavior(), seed=0
            )
            bytes_at[n] = result.participant_ledger.bytes_sent
        growth = bytes_at[4096] - bytes_at[256]
        # 4 extra levels × 10 samples × 33 framed digest bytes ≈ 1320.
        assert growth < 2000
        assert bytes_at[4096] < 10_000  # vs 4096 × 17 ≈ 70k for naive

    def test_hash_count_linear_in_n(self, password_fn):
        task = TaskAssignment("t", RangeDomain(0, 256), password_fn)
        result = CBSScheme(n_samples=4, include_reports=False).run(
            task, HonestBehavior(), seed=0
        )
        # Tree build: 256 leaf hashes + 255 internal.
        assert result.participant_ledger.hashes >= 511

    def test_storage_recorded(self, password_task):
        result = CBSScheme(n_samples=4).run(
            password_task, HonestBehavior(), seed=0
        )
        assert result.participant_ledger.storage_digests > 500


class TestScreenerIntegration:
    def test_match_report_delivered(self, password_fn):
        domain = RangeDomain(0, 64)
        target = password_fn.target_for(42)
        task = TaskAssignment(
            "t", domain, password_fn, screener=MatchScreener(target)
        )
        participant = CBSParticipant(task, HonestBehavior())
        participant.compute_and_commit()
        reports = participant.reports()
        assert reports.reports == ("match:42",)

    def test_cheater_misses_report_in_skipped_region(self, password_fn):
        domain = RangeDomain(0, 64)
        target = password_fn.target_for(42)
        task = TaskAssignment(
            "t", domain, password_fn, screener=MatchScreener(target)
        )
        # Prefix cheater computing only the first 16: key 42 is skipped.
        cheater = SemiHonestCheater(0.25, selection="prefix")
        participant = CBSParticipant(task, cheater)
        participant.compute_and_commit()
        assert participant.reports().reports == ()


class TestProtocolStateMachine:
    def test_double_commit_rejected(self, password_task):
        participant = CBSParticipant(password_task, HonestBehavior())
        participant.compute_and_commit()
        with pytest.raises(ProtocolError):
            participant.compute_and_commit()

    def test_prove_before_commit_rejected(self, password_task):
        participant = CBSParticipant(password_task, HonestBehavior())
        with pytest.raises(ProtocolError):
            participant.prove(SampleChallengeMsg("task-pw", (0,)))

    def test_challenge_for_wrong_task_rejected(self, password_task):
        participant = CBSParticipant(password_task, HonestBehavior())
        participant.compute_and_commit()
        with pytest.raises(ProtocolError):
            participant.prove(SampleChallengeMsg("other", (0,)))

    def test_out_of_range_challenge_rejected(self, password_task):
        participant = CBSParticipant(password_task, HonestBehavior())
        participant.compute_and_commit()
        with pytest.raises(ProtocolError):
            participant.prove(SampleChallengeMsg("task-pw", (500,)))

    def test_supervisor_challenge_before_commitment(self, password_task):
        supervisor = CBSSupervisor(password_task, n_samples=5)
        with pytest.raises(ProtocolError):
            supervisor.make_challenge()

    def test_supervisor_rejects_wrong_leaf_count(self, password_task):
        from repro.core.protocol import CommitmentMsg

        supervisor = CBSSupervisor(password_task, n_samples=5)
        with pytest.raises(ProtocolError):
            supervisor.receive_commitment(
                CommitmentMsg("task-pw", b"\x00" * 32, n_leaves=7)
            )

    def test_supervisor_rejects_wrong_digest_width(self, password_task):
        from repro.core.protocol import CommitmentMsg

        supervisor = CBSSupervisor(password_task, n_samples=5)
        with pytest.raises(ProtocolError):
            supervisor.receive_commitment(
                CommitmentMsg("task-pw", b"\x00" * 8, n_leaves=500)
            )

    @pytest.mark.parametrize(
        "steps, refusal",
        [
            (("commit", "commit"), "duplicate commitment"),
            (("foreign_commit",), "commitment for task 'other'"),
            (("commit", "challenge", "challenge"), "duplicate challenge"),
            (("commit", "verify"), "verify before challenge"),
            (("commit", "challenge", "foreign_verify"), "proofs for task 'other'"),
        ],
        ids=lambda value: "-".join(value) if isinstance(value, tuple) else None,
    )
    def test_supervisor_refuses_out_of_turn_or_foreign_messages(
        self, password_task, steps, refusal
    ):
        participant = CBSParticipant(password_task, HonestBehavior())
        supervisor = CBSSupervisor(password_task, n_samples=5, seed=1)
        commitment = participant.compute_and_commit()
        proofs = participant.prove(SampleChallengeMsg("task-pw", (0, 1, 2, 3, 4)))
        actions = {
            "commit": lambda: supervisor.receive_commitment(commitment),
            "foreign_commit": lambda: supervisor.receive_commitment(
                dataclasses.replace(commitment, task_id="other")
            ),
            "challenge": supervisor.make_challenge,
            "verify": lambda: supervisor.verify(proofs),
            "foreign_verify": lambda: supervisor.verify(
                dataclasses.replace(proofs, task_id="other")
            ),
        }
        *before, last = steps
        for step in before:
            actions[step]()
        with pytest.raises(ProtocolError, match=refusal):
            actions[last]()

    def test_proof_count_mismatch_rejected(self, password_task):
        participant = CBSParticipant(password_task, HonestBehavior())
        supervisor = CBSSupervisor(password_task, n_samples=5, seed=1)
        supervisor.receive_commitment(participant.compute_and_commit())
        challenge = supervisor.make_challenge()
        short = participant.prove(
            dataclasses.replace(challenge, indices=challenge.indices[:-1])
        )
        outcome = supervisor.verify(short)
        assert not outcome.accepted
        assert outcome.reason == RejectReason.MALFORMED_PROOF


class TestConfiguration:
    def test_sample_count_validated(self, password_task):
        with pytest.raises(SchemeConfigurationError):
            CBSSupervisor(password_task, n_samples=0)

    def test_without_replacement_bounded_by_n(self, password_fn):
        task = TaskAssignment("t", RangeDomain(0, 4), password_fn)
        with pytest.raises(SchemeConfigurationError):
            CBSSupervisor(task, n_samples=10, with_replacement=False)

    def test_without_replacement_distinct_indices(self, password_task):
        supervisor = CBSSupervisor(
            password_task, n_samples=50, with_replacement=False, seed=3
        )
        participant = CBSParticipant(password_task, HonestBehavior())
        supervisor.receive_commitment(participant.compute_and_commit())
        challenge = supervisor.make_challenge()
        assert len(set(challenge.indices)) == 50

    def test_deterministic_given_seed(self, password_task):
        r1 = CBSScheme(n_samples=10).run(password_task, HonestBehavior(), seed=5)
        r2 = CBSScheme(n_samples=10).run(password_task, HonestBehavior(), seed=5)
        assert r1.participant_ledger.as_dict() == r2.participant_ledger.as_dict()
        assert r1.supervisor_ledger.as_dict() == r2.supervisor_ledger.as_dict()
