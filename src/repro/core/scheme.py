"""Uniform scheme interface and verification outcomes.

Every verification scheme — CBS, NI-CBS, and the baselines — implements
:class:`VerificationScheme`, so the grid simulator and the comparison
experiments can drive them interchangeably.  A scheme run produces a
:class:`SchemeRunResult` bundling the supervisor's verdict with both
sides' cost ledgers and the ground-truth work record (which the
supervisor, of course, never sees).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from itertools import filterfalse
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

from repro.cheating.strategies import Behavior, ComputedWork, WorkSummary
from repro.accounting import CostLedger
from repro.exceptions import SchemeConfigurationError
from repro.tasks.result import TaskAssignment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.jobs import SchemeJob


#: A run's seed is also its salt, eight bytes big-endian: the seeds
#: one run takes are ``[0, SEED_BOUND)``.
SEED_BOUND = 1 << 64


def run_salt(seed: int) -> bytes:
    """The salt a run seeded ``seed`` varies its fabrications by."""
    if not 0 <= seed < SEED_BOUND:
        raise SchemeConfigurationError(
            f"seed {seed} outside [0, 2**64): a run's salt is its seed in 8 bytes"
        )
    return seed.to_bytes(8, "big")


class RejectReason(enum.Enum):
    """Why a sample (or a whole run) was rejected.

    CBS and NI-CBS share every reason: a bundle answering other samples
    than the supervisor's — a seeded challenge or Eq. 4's — is
    ``MALFORMED_PROOF`` under both.
    """

    OK = "ok"
    WRONG_RESULT = "wrong_result"          # claimed f(x) fails verification
    ROOT_MISMATCH = "root_mismatch"        # Λ(f(x), λ...) != Φ(R)
    MALFORMED_PROOF = "malformed_proof"    # counts/widths do not fit the samples
    MISSING_RESULTS = "missing_results"    # naive schemes: wrong count
    REPLICA_DISAGREEMENT = "replica_disagreement"  # double-check baseline
    MISSING_RINGER = "missing_ringer"      # ringer baseline
    PROTOCOL_VIOLATION = "protocol_violation"

    # Members are singletons compared by identity: hash them the same
    # way, in C, instead of through Enum's hash of the name.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class SampleVerdict:
    """Per-sample verification result (CBS Step 4).

    Slotted: a service retains one per verified sample per session.
    """

    index: int
    accepted: bool
    reason: RejectReason = RejectReason.OK


_accepted = attrgetter("accepted")


@dataclass
class VerificationOutcome:
    """The supervisor's final decision for one participant's task."""

    task_id: str
    accepted: bool
    verdicts: list[SampleVerdict] = field(default_factory=list)
    reason: RejectReason = RejectReason.OK

    def record(self, verdicts: Sequence[SampleVerdict]) -> None:
        """Append sample verdicts; any rejected one rejects the task.

        The task's reason is that of the latest rejected sample, which
        under stop-on-first-failure is the only one.
        """
        self.verdicts.extend(verdicts)
        for verdict in filterfalse(_accepted, verdicts):
            self.accepted = False
            self.reason = verdict.reason

    @property
    def first_failure(self) -> SampleVerdict | None:
        """The first rejected sample, if any."""
        for verdict in self.verdicts:
            if not verdict.accepted:
                return verdict
        return None


@dataclass
class SchemeRunResult:
    """Everything produced by one scheme execution.

    ``work`` is ground truth (which indices were honestly computed);
    analyses use it to label runs as true/false accept/reject.  A
    direct :meth:`VerificationScheme.run` carries the full
    :class:`ComputedWork`; a result returned through any engine
    :class:`~repro.engine.executor.Executor` carries its
    :class:`WorkSummary` (same ``honesty_ratio``, no leaf vector).
    """

    outcome: VerificationOutcome
    participant_ledger: CostLedger
    supervisor_ledger: CostLedger
    work: ComputedWork | WorkSummary | None = None
    #: Ledger for third parties (broker, replicas); zero for 2-party runs.
    other_ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def cheated(self) -> bool:
        """Whether the participant actually skipped any input."""
        return self.work is not None and self.work.honesty_ratio < 1.0

    @property
    def true_detection(self) -> bool:
        """Cheater rejected (the defender's win condition)."""
        return self.cheated and not self.outcome.accepted

    @property
    def false_alarm(self) -> bool:
        """Honest participant rejected (soundness violation, Thm 1)."""
        return not self.cheated and not self.outcome.accepted

    @property
    def undetected_cheat(self) -> bool:
        """Cheater accepted (the Eq. 2 event)."""
        return self.cheated and self.outcome.accepted

    @property
    def total_bytes_on_wire(self) -> int:
        """Bytes sent by all parties in this run."""
        return (
            self.participant_ledger.bytes_sent
            + self.supervisor_ledger.bytes_sent
            + self.other_ledger.bytes_sent
        )


class VerificationScheme(abc.ABC):
    """A pluggable anti-cheating scheme (CBS, NI-CBS, or baseline)."""

    #: Human-readable scheme label used in reports and tables.
    name: str = "scheme"

    @abc.abstractmethod
    def run(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        seed: int = 0,
    ) -> SchemeRunResult:
        """Execute the full protocol for one assignment.

        ``seed`` drives all randomness (sample selection, fabrication
        salts), making runs exactly reproducible.
        """

    def run_batch(self, jobs: Sequence["SchemeJob"]) -> list[SchemeRunResult]:
        """Execute a batch of independent runs, in job order.

        This is the unit the execution engine ships to pooled workers
        (one pickled :class:`~repro.engine.jobs.SchemeBatch` per
        chunk).  The default is a plain loop — exactly equivalent to
        calling :meth:`run` per job — but schemes may override it to
        amortize per-batch setup, as long as per-job results stay
        identical to the serial semantics.
        """
        return [
            self.run(job.assignment, job.behavior, seed=job.seed)
            for job in jobs
        ]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
