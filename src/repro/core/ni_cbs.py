"""The non-interactive CBS scheme (paper §4).

The interactive round (commit → challenge) is removed by deriving the
sample indices from the commitment itself::

    i_k = (g^k(Φ(R)) mod n) + 1,   k = 1..m          (Eq. 4)

where ``g`` is a one-way hash applied iteratively (``g^k`` means ``g``
applied ``k`` times; we realize the chain incrementally).  Because
``Φ(R)`` fixes the samples, the participant can self-select them only
*after* building the tree, and cannot steer them — except by the
**regrinding attack** (§4.2): rebuild the tree with fresh filler values
until all derived samples land in the computed subset.  The defence is
economic (Eq. 5): make ``g`` expensive enough (an
:class:`~repro.merkle.hashing.IteratedHash` with ``k`` rounds) that the
expected ``1/r^m`` attempts cost more than honest computation.
``repro.cheating.regrind`` implements the attack; experiment E5
measures both sides of the inequality.

Internally indices are 0-based (``mod n`` without the paper's ``+1``);
the arithmetic is otherwise identical.
"""

from __future__ import annotations

from repro.cheating.strategies import Behavior
from repro.core.cbs import CBSParticipant, transfer
from repro.core.protocol import NICBSSubmissionMsg, SampleChallengeMsg
from repro.core.scheme import (
    RejectReason,
    SchemeRunResult,
    VerificationOutcome,
    VerificationScheme,
    run_salt,
)
from repro.core.verification import verify_proof_bundle
from repro.exceptions import ProtocolError, SchemeConfigurationError
from repro.accounting import CostLedger
from repro.merkle.hashing import CountingHash, HashFunction, get_hash
from repro.merkle.tree import LeafEncoding
from repro.tasks.function import MeteredFunction
from repro.tasks.result import TaskAssignment


def derive_sample_indices(
    root: bytes, n: int, m: int, sample_hash: HashFunction
) -> list[int]:
    """Eq. (4): the ``m`` self-selected sample indices for a commitment.

    ``sample_hash`` is the paper's ``g``; the chain
    ``g(Φ(R)), g(g(Φ(R))), ...`` yields one index per link, reduced
    ``mod n`` (0-based).
    """
    if n < 1:
        raise SchemeConfigurationError(f"domain size must be >= 1, got {n}")
    if m < 1:
        raise SchemeConfigurationError(f"m must be >= 1, got {m}")
    return [
        int.from_bytes(link, "big") % n
        for link in sample_hash.digest_chain(root, m)
    ]


class NICBSParticipant(CBSParticipant):
    """Participant side of NI-CBS: commits, self-derives, proves.

    Extends :class:`~repro.core.cbs.CBSParticipant` with the Eq. (4)
    derivation; the sample-generation hash ``g`` is metered separately
    (it is the knob Eq. (5) turns).
    """

    def __init__(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        n_samples: int,
        sample_hash: HashFunction | None = None,
        hash_fn: HashFunction | None = None,
        leaf_encoding: LeafEncoding = LeafEncoding.HASHED,
        subtree_height: int | None = None,
        ledger: CostLedger | None = None,
        salt: bytes = b"",
    ) -> None:
        super().__init__(
            assignment,
            behavior,
            hash_fn=hash_fn,
            leaf_encoding=leaf_encoding,
            subtree_height=subtree_height,
            ledger=ledger,
            salt=salt,
        )
        self.n_samples = n_samples
        self.sample_hash = CountingHash(
            sample_hash or get_hash("sha256"), self.ledger
        )

    def compute_and_submit(self) -> NICBSSubmissionMsg:
        """One-shot: build tree, derive samples, bundle the proofs."""
        commitment = self.compute_and_commit()
        indices = derive_sample_indices(
            commitment.root,
            n=self.assignment.n_inputs,
            m=self.n_samples,
            sample_hash=self.sample_hash,
        )
        bundle = self.prove(
            SampleChallengeMsg(
                task_id=self.assignment.task_id, indices=tuple(indices)
            )
        )
        return NICBSSubmissionMsg(
            task_id=self.assignment.task_id,
            root=commitment.root,
            n_leaves=commitment.n_leaves,
            bundle=bundle.bundle,
        )


class NICBSSupervisor:
    """Supervisor side of NI-CBS: re-derive samples, verify proofs.

    No challenge is sent; the supervisor recomputes Eq. (4) from the
    submitted root (paying ``m`` evaluations of ``g``) and joins the
    submitted proofs with exactly those indices: a bundle whose counts
    do not fit them answers other samples.
    """

    def __init__(
        self,
        assignment: TaskAssignment,
        n_samples: int,
        sample_hash: HashFunction | None = None,
        hash_fn: HashFunction | None = None,
        leaf_encoding: LeafEncoding = LeafEncoding.HASHED,
        ledger: CostLedger | None = None,
        stop_on_first_failure: bool = True,
    ) -> None:
        if n_samples < 1:
            raise SchemeConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        self.assignment = assignment
        self.n_samples = n_samples
        self.ledger = ledger if ledger is not None else CostLedger()
        self.hash_fn = CountingHash(hash_fn or get_hash(), self.ledger)
        self.sample_hash = CountingHash(
            sample_hash or get_hash("sha256"), self.ledger
        )
        self.leaf_encoding = leaf_encoding
        self.stop_on_first_failure = stop_on_first_failure
        self._metered = MeteredFunction(assignment.function, self.ledger)

    def verify(self, submission: NICBSSubmissionMsg) -> VerificationOutcome:
        """Validate the one-shot submission end to end."""
        if submission.task_id != self.assignment.task_id:
            raise ProtocolError(
                f"submission for task {submission.task_id!r}, "
                f"expected {self.assignment.task_id!r}"
            )
        outcome = VerificationOutcome(
            task_id=self.assignment.task_id, accepted=True
        )
        if submission.n_leaves != self.assignment.n_inputs:
            outcome.accepted = False
            outcome.reason = RejectReason.PROTOCOL_VIOLATION
            return outcome
        if len(submission.root) != self.hash_fn.digest_size:
            outcome.accepted = False
            outcome.reason = RejectReason.PROTOCOL_VIOLATION
            return outcome

        expected = derive_sample_indices(
            submission.root,
            n=self.assignment.n_inputs,
            m=self.n_samples,
            sample_hash=self.sample_hash,
        )
        verdicts = verify_proof_bundle(
            submission.bundle,
            expected,
            root=submission.root,
            n_leaves=submission.n_leaves,
            domain=self.assignment.domain,
            function=self._metered,
            hash_fn=self.hash_fn,
            leaf_encoding=self.leaf_encoding,
            stop_on_first_failure=self.stop_on_first_failure,
        )
        if verdicts is None:
            # A bundle for other samples than Eq. 4's.
            outcome.accepted = False
            outcome.reason = RejectReason.SAMPLE_MISMATCH
            return outcome
        self.ledger.bump("samples_verified", len(verdicts))
        outcome.record(verdicts)
        return outcome


class NICBSScheme(VerificationScheme):
    """Full NI-CBS run behind the uniform scheme interface.

    ``sample_hash_name`` selects ``g``; use ``"md5^<k>"``-style names to
    reproduce the paper's iterated-MD5 hardening (Eq. 5).
    """

    def __init__(
        self,
        n_samples: int,
        sample_hash_name: str = "sha256",
        hash_name: str = "sha256",
        leaf_encoding: LeafEncoding = LeafEncoding.HASHED,
        subtree_height: int | None = None,
        stop_on_first_failure: bool = True,
    ) -> None:
        self.n_samples = n_samples
        self.sample_hash_name = sample_hash_name
        self.hash_name = hash_name
        self.leaf_encoding = leaf_encoding
        self.subtree_height = subtree_height
        self.stop_on_first_failure = stop_on_first_failure
        self.name = f"ni-cbs(m={n_samples}, g={sample_hash_name})"

    def participant(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        seed: int,
        ledger: CostLedger | None = None,
    ) -> NICBSParticipant:
        """The participant side of the round seeded ``seed``."""
        return NICBSParticipant(
            assignment,
            behavior,
            n_samples=self.n_samples,
            sample_hash=get_hash(self.sample_hash_name),
            hash_fn=get_hash(self.hash_name),
            leaf_encoding=self.leaf_encoding,
            subtree_height=self.subtree_height,
            ledger=ledger,
            salt=run_salt(seed),
        )

    def supervisor(
        self,
        assignment: TaskAssignment,
        seed: int,
        ledger: CostLedger | None = None,
    ) -> NICBSSupervisor:
        """The supervisor side of the round seeded ``seed`` (unread:
        the submission's root, not a seed, draws NI-CBS's samples)."""
        return NICBSSupervisor(
            assignment,
            n_samples=self.n_samples,
            sample_hash=get_hash(self.sample_hash_name),
            hash_fn=get_hash(self.hash_name),
            leaf_encoding=self.leaf_encoding,
            ledger=ledger,
            stop_on_first_failure=self.stop_on_first_failure,
        )

    def run(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        seed: int = 0,
    ) -> SchemeRunResult:
        participant_ledger = CostLedger()
        supervisor_ledger = CostLedger()
        participant = self.participant(
            assignment, behavior, seed, participant_ledger
        )
        supervisor = self.supervisor(assignment, seed, supervisor_ledger)

        submission = transfer(
            participant.compute_and_submit(), participant_ledger, supervisor_ledger
        )
        outcome = supervisor.verify(submission)

        return SchemeRunResult(
            outcome=outcome,
            participant_ledger=participant_ledger,
            supervisor_ledger=supervisor_ledger,
            work=participant.work,
        )
