"""Double-checking baseline (paper §1, the "straightforward solution").

The supervisor assigns the same task to ``replication`` participants
and compares their full result vectors (majority vote for three or
more replicas, exact agreement for two).  Detection is very strong —
a cheater is caught whenever any fabricated value disagrees with the
honest majority — but the price is the paper's complaint: the grid
performs the work ``k`` times ("wastage of processor cycles") and each
replica ships ``O(n)`` results.

The scheme interface evaluates the *subject* participant (the given
behaviour); replica behaviours are configurable so experiments can
model colluding or independently-cheating replicas.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.accounting import CostLedger
from repro.cheating.strategies import Behavior, HonestBehavior
from repro.core.cbs import transfer
from repro.core.protocol import FullResultsMsg, VerdictMsg
from repro.core.scheme import (
    RejectReason,
    SampleVerdict,
    SchemeRunResult,
    VerificationOutcome,
    VerificationScheme,
    run_salt,
)
from repro.exceptions import SchemeConfigurationError
from repro.tasks.function import MeteredFunction
from repro.tasks.result import TaskAssignment


class DoubleCheckScheme(VerificationScheme):
    """``k``-way replication with exact/majority comparison.

    Parameters
    ----------
    replication:
        Total number of participants computing the task (k >= 2).
    replica_behaviors:
        Behaviours for the ``k − 1`` non-subject replicas; defaults to
        all-honest.  Cycled if shorter than needed.
    """

    def __init__(
        self,
        replication: int = 2,
        replica_behaviors: Sequence[Behavior] | None = None,
    ) -> None:
        if replication < 2:
            raise SchemeConfigurationError(
                f"replication must be >= 2, got {replication}"
            )
        self.replication = replication
        self.replica_behaviors = (
            list(replica_behaviors) if replica_behaviors else [HonestBehavior()]
        )
        self.name = f"double-check(k={replication})"

    def run(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        seed: int = 0,
    ) -> SchemeRunResult:
        participant_ledger = CostLedger()
        supervisor_ledger = CostLedger()
        replicas_ledger = CostLedger()

        # Subject participant.
        metered = MeteredFunction(assignment.function, participant_ledger)
        work = behavior.produce(
            assignment, metered.evaluate, salt=run_salt(seed)
        )
        transfer(
            FullResultsMsg(
                task_id=assignment.task_id, results=tuple(work.leaf_payloads)
            ),
            participant_ledger,
            supervisor_ledger,
        )

        # Replicas (their cycles are the waste the paper laments).
        replica_vectors: list[list[bytes]] = []
        for j in range(self.replication - 1):
            replica_behavior = self.replica_behaviors[j % len(self.replica_behaviors)]
            replica_metered = MeteredFunction(assignment.function, replicas_ledger)
            replica_work = replica_behavior.produce(
                assignment,
                replica_metered.evaluate,
                salt=(seed * 31 + j + 1).to_bytes(8, "big"),
            )
            transfer(
                FullResultsMsg(
                    task_id=assignment.task_id,
                    results=tuple(replica_work.leaf_payloads),
                ),
                replicas_ledger,
                supervisor_ledger,
            )
            replica_vectors.append(replica_work.leaf_payloads)

        # Supervisor: per-index agreement check.
        outcome = VerificationOutcome(task_id=assignment.task_id, accepted=True)
        n = assignment.n_inputs
        for index in range(n):
            supervisor_ledger.bump("comparisons")
            votes = Counter(vec[index] for vec in replica_vectors)
            votes[work.leaf_payloads[index]] += 1
            majority_value, majority_count = votes.most_common(1)[0]
            agreed = (
                work.leaf_payloads[index] == majority_value
                and majority_count * 2 > self.replication
            )
            if not agreed:
                outcome.verdicts.append(
                    SampleVerdict(
                        index=index,
                        accepted=False,
                        reason=RejectReason.REPLICA_DISAGREEMENT,
                    )
                )
                outcome.accepted = False
                outcome.reason = RejectReason.REPLICA_DISAGREEMENT
                break

        transfer(VerdictMsg.of(outcome), supervisor_ledger, participant_ledger)
        return SchemeRunResult(
            outcome=outcome,
            participant_ledger=participant_ledger,
            supervisor_ledger=supervisor_ledger,
            work=work,
            other_ledger=replicas_ledger,
        )
