"""The interactive Commitment-Based Sampling scheme (paper §3.1).

Protocol (Steps 1–4 of the paper):

1. **Building the Merkle tree.**  The participant evaluates ``f`` over
   its subdomain (or cheats — the behaviour decides), builds the tree
   with ``Φ(L_i) = f(x_i)``, and sends the root ``Φ(R)`` as its
   commitment.
2. **Sample selection.**  The supervisor draws ``m`` indices uniformly
   at random and sends them — crucially, *after* the commitment landed.
3. **Proof of honesty.**  For each sampled index the participant sends
   the claimed ``f(x_i)`` plus the sibling ``Φ`` values along the
   leaf-to-root path — as one multiproof, each digest once.
4. **Verification.**  The supervisor checks the claimed result and
   reconstructs the root; any failure means the participant is caught.

:class:`CBSParticipant` and :class:`CBSSupervisor` expose the four
steps as explicit methods (used directly by the examples), and
:class:`CBSScheme` packages a full run behind the uniform
:class:`~repro.core.scheme.VerificationScheme` interface with
byte-accurate communication accounting.

NI-CBS (:mod:`repro.core.ni_cbs`) changes only Step 2's source, the
seed here, to Eq. 4's chain over the root (the Fiat–Shamir move), so
both share this supervisor and one rule per malformed input: an
envelope (task id, leaf count, root width) not the assignment's is a
:class:`~repro.exceptions.ProtocolError`, a bundle whose counts do not
fit the samples ``malformed_proof``, the rest a per-sample verdict.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.cheating.strategies import Behavior, ComputedWork
from repro.core.protocol import (
    CommitmentMsg,
    NICBSSubmissionMsg,
    ProofBundleMsg,
    ReportsMsg,
    SampleChallengeMsg,
    VerdictMsg,
)
from repro.core.scheme import (
    RejectReason,
    SchemeRunResult,
    VerificationOutcome,
    VerificationScheme,
    run_salt,
)
from repro.core.storage_opt import TreeBackend
from repro.core.verification import verify_proof_bundle
from repro.exceptions import ProtocolError, SchemeConfigurationError
from repro.accounting import CostLedger
from repro.merkle.hashing import CountingHash, HashFunction, get_hash
from repro.merkle.tree import LeafEncoding
from repro.tasks.function import MeteredFunction
from repro.tasks.result import TaskAssignment


def _own(msg, assignment: TaskAssignment) -> None:
    """Refuse a message for another task: one wording for both sides."""
    if msg.task_id != assignment.task_id:
        raise ProtocolError(
            f"message for task {msg.task_id!r}, expected {assignment.task_id!r}"
        )


class CBSParticipant:
    """Participant side of interactive CBS.

    Parameters
    ----------
    assignment:
        The task (domain, function, screener).
    behavior:
        Honest or cheating strategy producing the leaf payloads.
    hash_fn, leaf_encoding:
        Merkle parameters (must match the supervisor's).
    subtree_height:
        ``None``/``0`` for the full tree; ``ℓ > 0`` enables the §3.3
        storage-optimized backend.
    ledger:
        Cost ledger charged with evaluations, hashing, storage and
        traffic; a fresh one is created if omitted.
    salt:
        Varies cheating fabrications across protocol retries.
    """

    def __init__(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        hash_fn: HashFunction | None = None,
        leaf_encoding: LeafEncoding = LeafEncoding.HASHED,
        subtree_height: int | None = None,
        ledger: CostLedger | None = None,
        salt: bytes = b"",
    ) -> None:
        self.assignment = assignment
        self.behavior = behavior
        self.ledger = ledger if ledger is not None else CostLedger()
        self.hash_fn = CountingHash(hash_fn or get_hash(), self.ledger)
        self.leaf_encoding = leaf_encoding
        self.subtree_height = subtree_height
        self.salt = salt
        self._metered = MeteredFunction(assignment.function, self.ledger)
        self.work: ComputedWork | None = None
        self.backend: TreeBackend | None = None

    # ------------------------------------------------------------------
    # Step 1
    # ------------------------------------------------------------------

    def compute_and_commit(self) -> CommitmentMsg:
        """Evaluate the task (per behaviour), build the tree, commit."""
        if self.work is not None:
            raise ProtocolError("compute_and_commit called twice")
        self.work = self.behavior.produce(
            self.assignment, self._metered.evaluate, salt=self.salt
        )

        def recompute(index: int) -> bytes:
            # §3.3 subtree rebuild: honestly-computed leaves cost a
            # real f-evaluation; fabricated leaves regenerate for free
            # (the cheater just re-draws the same guess).
            if index in self.work.honest_indices:
                return self._metered.evaluate(self.assignment.domain[index])
            return self.work.leaf_payloads[index]

        self.backend = TreeBackend(
            self.work.leaf_payloads,
            hash_fn=self.hash_fn,
            leaf_encoding=self.leaf_encoding,
            subtree_height=self.subtree_height,
            recompute=recompute,
        )
        self.ledger.record_storage(self.backend.stored_digests)
        self.ledger.bump("commitments")
        return CommitmentMsg(
            task_id=self.assignment.task_id,
            root=self.backend.root,
            n_leaves=self.assignment.n_inputs,
        )

    # ------------------------------------------------------------------
    # Step 3
    # ------------------------------------------------------------------

    def prove(self, challenge: SampleChallengeMsg) -> ProofBundleMsg:
        """Answer a sample challenge with claimed results + auth paths."""
        if self.backend is None:
            raise ProtocolError("prove() before compute_and_commit()")
        _own(challenge, self.assignment)
        n, indices = self.assignment.n_inputs, challenge.indices
        if indices and not 0 <= min(indices) <= max(indices) < n:
            index = next(i for i in indices if not 0 <= i < n)
            raise ProtocolError(f"challenged index {index} outside [0, {n})")
        bundle = self.backend.multiproof(indices)
        self.ledger.bump("proofs", len(indices))
        return ProofBundleMsg(task_id=self.assignment.task_id, bundle=bundle)

    # ------------------------------------------------------------------
    # Screener reports (the grid's normal payload, §2.1)
    # ------------------------------------------------------------------

    def reports(self) -> ReportsMsg:
        """Run the screener over the (claimed) results and report hits.

        The malicious behaviour corrupts this step (§2.2); semi-honest
        cheaters screen their fabrications, so skipped "interesting"
        inputs silently vanish — the damage the paper wants detectable.
        """
        if self.work is None:
            raise ProtocolError("reports() before compute_and_commit()")
        screener = self.assignment.screener
        if screener is None:
            return ReportsMsg(task_id=self.assignment.task_id, reports=())
        screener.reset()
        hits: list[str] = []
        for i in range(self.assignment.n_inputs):
            self.ledger.charge_screening(screener.cost)
            report = screener.screen(
                self.assignment.domain[i], self.work.leaf_payloads[i]
            )
            report = self.behavior.corrupt_report(report, i)
            if report is not None:
                hits.append(report)
        return ReportsMsg(task_id=self.assignment.task_id, reports=tuple(hits))


class CBSSupervisor:
    """Supervisor side of interactive CBS, and NI-CBS's with another
    :meth:`draw`.

    :meth:`check` (the envelope) and :meth:`judge` (Step 4 against a
    given root and given indices) keep no state; only the interactive
    calls keep the commitment and the challenge between them.  All
    verification work is charged to the supervisor's ledger.
    """

    def __init__(
        self,
        assignment: TaskAssignment,
        n_samples: int,
        hash_fn: HashFunction | None = None,
        leaf_encoding: LeafEncoding = LeafEncoding.HASHED,
        seed: int = 0,
        ledger: CostLedger | None = None,
        with_replacement: bool = True,
        stop_on_first_failure: bool = True,
    ) -> None:
        if n_samples < 1:
            raise SchemeConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        if not with_replacement and n_samples > assignment.n_inputs:
            raise SchemeConfigurationError(
                f"cannot draw {n_samples} distinct samples from "
                f"{assignment.n_inputs} inputs"
            )
        self.assignment = assignment
        self.n_samples = n_samples
        self.ledger = ledger if ledger is not None else CostLedger()
        self.hash_fn = CountingHash(hash_fn or get_hash(), self.ledger)
        self.leaf_encoding = leaf_encoding
        self.seed = seed
        self.with_replacement = with_replacement
        self.stop_on_first_failure = stop_on_first_failure
        self._commitment: CommitmentMsg | None = None
        self._challenge: SampleChallengeMsg | None = None

    # ------------------------------------------------------------------

    def check(self, msg: CommitmentMsg | NICBSSubmissionMsg) -> None:
        """Refuse a commitment (or submission) whose task id, leaf count
        or root width is not the assignment's."""
        _own(msg, self.assignment)
        if msg.n_leaves != self.assignment.n_inputs:
            raise ProtocolError(
                f"commitment covers {msg.n_leaves} leaves, "
                f"domain has {self.assignment.n_inputs}"
            )
        if len(msg.root) != self.hash_fn.digest_size:
            raise ProtocolError(
                f"root digest has {len(msg.root)} bytes, "
                f"expected {self.hash_fn.digest_size}"
            )

    def draw(self, root: bytes) -> tuple[int, ...]:
        """Step 2's ``m`` indices, from ``seed`` (``root`` is unread).

        Uniform *with replacement* by default, matching the independence
        assumption behind Eq. (2); ``with_replacement=False`` draws a
        distinct subset (slightly stronger in practice).
        """
        rng = random.Random(self.seed)
        n = self.assignment.n_inputs
        if not self.with_replacement:
            return tuple(rng.sample(range(n), self.n_samples))
        # ``rng.randrange(n)`` per sample, written out as the
        # ``getrandbits`` calls it makes: k-bit draws until one is below n.
        bits, k, indices = rng.getrandbits, n.bit_length(), []
        for _ in range(self.n_samples):
            draw = bits(k)
            while draw >= n:
                draw = bits(k)
            indices.append(draw)
        return tuple(indices)

    def judge(
        self,
        msg: ProofBundleMsg | NICBSSubmissionMsg,
        root: bytes,
        indices: Sequence[int],
    ) -> VerificationOutcome:
        """Step 4: ``msg``'s bundle against ``root`` at ``indices``.  A
        bundle whose counts do not fit the samples is malformed."""
        _own(msg, self.assignment)
        outcome = VerificationOutcome(
            task_id=self.assignment.task_id, accepted=True
        )
        verdicts = verify_proof_bundle(
            msg.bundle,
            indices,
            root=root,
            n_leaves=self.assignment.n_inputs,
            domain=self.assignment.domain,
            function=self.assignment.function,
            hash_fn=self.hash_fn,
            leaf_encoding=self.leaf_encoding,
            stop_on_first_failure=self.stop_on_first_failure,
            ledger=self.ledger,
        )
        if verdicts is None:
            outcome.accepted = False
            outcome.reason = RejectReason.MALFORMED_PROOF
            return outcome
        self.ledger.bump("samples_verified", len(verdicts))
        outcome.record(verdicts)
        return outcome

    # ------------------------------------------------------------------

    def receive_commitment(self, msg: CommitmentMsg) -> None:
        """Accept and validate the participant's commitment (Step 1)."""
        if self._commitment is not None:
            raise ProtocolError("duplicate commitment")
        self.check(msg)
        self._commitment = msg

    def make_challenge(self) -> SampleChallengeMsg:
        """Draw the ``m`` sample indices (Step 2)."""
        if self._commitment is None:
            raise ProtocolError("challenge before commitment")
        if self._challenge is not None:
            raise ProtocolError("duplicate challenge")
        self._challenge = SampleChallengeMsg(
            task_id=self.assignment.task_id,
            indices=self.draw(self._commitment.root),
        )
        return self._challenge

    def verify(self, bundle: ProofBundleMsg) -> VerificationOutcome:
        """Run Step 4 over the proof bundle and produce the verdict."""
        if self._challenge is None:
            raise ProtocolError("verify before challenge")
        return self.judge(bundle, self._commitment.root, self._challenge.indices)


def transfer(msg, sender: CostLedger, receiver: CostLedger):
    """Account a message transfer on both ledgers; return the message."""
    size = msg.wire_size()
    sender.record_send(size)
    receiver.record_receive(size)
    return msg


class CBSScheme(VerificationScheme):
    """Full interactive CBS run behind the uniform scheme interface.

    Parameters mirror the participant/supervisor constructors; ``m`` is
    the paper's sample count.  ``include_reports=True`` additionally
    ships the screener hits (the grid's useful output) so end-to-end
    traffic matches a real deployment.
    """

    def __init__(
        self,
        n_samples: int,
        hash_name: str = "sha256",
        leaf_encoding: LeafEncoding = LeafEncoding.HASHED,
        subtree_height: int | None = None,
        with_replacement: bool = True,
        include_reports: bool = True,
        stop_on_first_failure: bool = True,
    ) -> None:
        self.n_samples = n_samples
        self.hash_name = hash_name
        self.leaf_encoding = leaf_encoding
        self.subtree_height = subtree_height
        self.with_replacement = with_replacement
        self.include_reports = include_reports
        self.stop_on_first_failure = stop_on_first_failure
        self.name = f"cbs(m={n_samples})"

    def participant(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        seed: int,
        ledger: CostLedger | None = None,
    ) -> CBSParticipant:
        """The participant side of the round seeded ``seed``."""
        return CBSParticipant(
            assignment, behavior, subtree_height=self.subtree_height,
            salt=run_salt(seed), **self._side(ledger),
        )

    def supervisor(
        self,
        assignment: TaskAssignment,
        seed: int,
        ledger: CostLedger | None = None,
    ) -> CBSSupervisor:
        """The supervisor side of the round seeded ``seed``: its
        challenge is drawn from ``seed``."""
        return CBSSupervisor(
            assignment, self.n_samples, seed=seed,
            with_replacement=self.with_replacement,
            stop_on_first_failure=self.stop_on_first_failure,
            **self._side(ledger),
        )

    def _side(self, ledger: CostLedger | None) -> dict:
        """What both sides are built with: the tree's hash and leaf
        encoding, and the ledger they charge."""
        return {
            "hash_fn": get_hash(self.hash_name),
            "leaf_encoding": self.leaf_encoding,
            "ledger": ledger,
        }

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
        outcome = self._round(
            participant,
            supervisor,
            lambda msg: transfer(msg, participant_ledger, supervisor_ledger),
            lambda msg: transfer(msg, supervisor_ledger, participant_ledger),
        )
        return SchemeRunResult(
            outcome=outcome,
            participant_ledger=participant_ledger,
            supervisor_ledger=supervisor_ledger,
            work=participant.work,
        )

    def opening(self, participant: CBSParticipant) -> CommitmentMsg:
        """The participant's first message: Step 1's commitment."""
        return participant.compute_and_commit()

    def _round(self, participant, supervisor, up, down) -> VerificationOutcome:
        """Steps 1–4, each message carried ``up`` to the supervisor or
        ``down`` to the participant (and accounted on both ledgers)."""
        supervisor.receive_commitment(up(self.opening(participant)))
        challenge = down(supervisor.make_challenge())
        outcome = supervisor.verify(up(participant.prove(challenge)))
        down(VerdictMsg.of(outcome))
        if self.include_reports and participant.assignment.screener is not None:
            up(participant.reports())
        return outcome
