"""The non-interactive CBS scheme (paper §4).

The interactive round (commit → challenge) is removed by deriving the
sample indices from the commitment itself — the one substitution
:class:`NICBSSupervisor` makes in CBS's supervisor, as its ``draw``::

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

from itertools import repeat

from repro.cheating.strategies import Behavior
from repro.core.cbs import CBSParticipant, CBSScheme, CBSSupervisor
from repro.core.protocol import NICBSSubmissionMsg, SampleChallengeMsg
from repro.core.scheme import VerificationOutcome, run_salt
from repro.exceptions import SchemeConfigurationError
from repro.accounting import CostLedger
from repro.merkle.hashing import CountingHash, HashFunction, get_hash
from repro.merkle.tree import LeafEncoding
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
    links = sample_hash.digest_chain(root, m)
    return list(map(n.__rmod__, map(int.from_bytes, links, repeat("big"))))


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


class NICBSSupervisor(CBSSupervisor):
    """Supervisor side of NI-CBS: CBS's, with Eq. (4) as the draw.

    No challenge is sent: :meth:`draw` recomputes Eq. (4) from the root,
    paying ``m`` evaluations of ``g``, and :meth:`verify` is the whole
    round in one call — :meth:`check` the envelope, draw from the
    submitted root, :meth:`judge` the bundle.  It keeps no state, so one
    supervisor verifies any number of submissions.
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
        super().__init__(
            assignment, n_samples, hash_fn, leaf_encoding, ledger=ledger,
            stop_on_first_failure=stop_on_first_failure,
        )
        self.sample_hash = CountingHash(
            sample_hash or get_hash("sha256"), self.ledger
        )

    def draw(self, root: bytes) -> list[int]:
        """Eq. (4)'s ``m`` indices for ``root``, under ``g``."""
        return derive_sample_indices(
            root, self.assignment.n_inputs, self.n_samples, self.sample_hash
        )

    def verify(self, submission: NICBSSubmissionMsg) -> VerificationOutcome:
        """Validate the one-shot submission end to end."""
        self.check(submission)
        return self.judge(
            submission, submission.root, self.draw(submission.root)
        )


class NICBSScheme(CBSScheme):
    """Full NI-CBS run behind the uniform scheme interface.

    Its sides are CBS's sides with ``g`` added, and its round is one
    message, answered by the verdict.  ``sample_hash_name`` selects
    ``g``; use ``"md5^<k>"``-style names to reproduce the paper's
    iterated-MD5 hardening (Eq. 5).
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
        # Eq. 4's indices may repeat, and the one message ships no
        # screener reports.
        super().__init__(
            n_samples,
            hash_name=hash_name,
            leaf_encoding=leaf_encoding,
            subtree_height=subtree_height,
            with_replacement=True,
            include_reports=False,
            stop_on_first_failure=stop_on_first_failure,
        )
        self.sample_hash_name = sample_hash_name
        self.name = f"ni-cbs(m={n_samples}, g={sample_hash_name})"

    def participant(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        seed: int,
        ledger: CostLedger | None = None,
    ) -> NICBSParticipant:
        return NICBSParticipant(
            assignment, behavior, self.n_samples,
            subtree_height=self.subtree_height, salt=run_salt(seed),
            **self._side(ledger),
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
            assignment, self.n_samples,
            stop_on_first_failure=self.stop_on_first_failure,
            **self._side(ledger),
        )

    def _side(self, ledger: CostLedger | None) -> dict:
        """CBS's, plus ``g``."""
        side = super()._side(ledger)
        side["sample_hash"] = get_hash(self.sample_hash_name)
        return side

    def opening(self, participant: NICBSParticipant) -> NICBSSubmissionMsg:
        """The participant's one message: the whole submission."""
        return participant.compute_and_submit()

    def _round(self, participant, supervisor, up, down) -> VerificationOutcome:
        """One message: the submission, verified."""
        return supervisor.verify(up(self.opening(participant)))
