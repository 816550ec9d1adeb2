"""Naive sampling baseline (paper §1, the "improved solution").

The participant sends **all** ``n`` results to the supervisor, who
re-checks ``m`` random ones.  Detection power matches CBS (the results
were fixed before the samples were drawn, because they are already on
the supervisor's disk), but the communication cost stays ``O(n)`` — the
exact overhead CBS's ``O(m log n)`` commitment replaces.  E3 plots the
two side by side.
"""

from __future__ import annotations

import random

from repro.accounting import CostLedger
from repro.cheating.strategies import Behavior
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


class NaiveSamplingScheme(VerificationScheme):
    """Return-everything sampling: strong detection, ``O(n)`` traffic."""

    def __init__(self, n_samples: int, with_replacement: bool = True) -> None:
        if n_samples < 1:
            raise SchemeConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        self.n_samples = n_samples
        self.with_replacement = with_replacement
        self.name = f"naive-sampling(m={n_samples})"

    def run(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        seed: int = 0,
    ) -> SchemeRunResult:
        participant_ledger = CostLedger()
        supervisor_ledger = CostLedger()

        # Participant: compute (per behaviour) and ship everything.
        metered = MeteredFunction(assignment.function, participant_ledger)
        work = behavior.produce(
            assignment, metered.evaluate, salt=run_salt(seed)
        )
        message = FullResultsMsg(
            task_id=assignment.task_id, results=tuple(work.leaf_payloads)
        )
        transfer(message, participant_ledger, supervisor_ledger)

        # Supervisor: spot-check m random results.
        outcome = VerificationOutcome(task_id=assignment.task_id, accepted=True)
        n = assignment.n_inputs
        if len(message.results) != n:
            outcome.accepted = False
            outcome.reason = RejectReason.MISSING_RESULTS
        else:
            rng = random.Random(seed)
            if self.with_replacement:
                indices = [rng.randrange(n) for _ in range(self.n_samples)]
            else:
                indices = rng.sample(range(n), min(self.n_samples, n))
            checker = MeteredFunction(assignment.function, supervisor_ledger)
            for index in indices:
                supervisor_ledger.bump("samples_verified")
                ok = checker.verify(
                    assignment.domain[index], message.results[index]
                )
                outcome.verdicts.append(
                    SampleVerdict(
                        index=index,
                        accepted=ok,
                        reason=RejectReason.OK if ok else RejectReason.WRONG_RESULT,
                    )
                )
                if not ok:
                    outcome.accepted = False
                    outcome.reason = RejectReason.WRONG_RESULT
                    break

        transfer(VerdictMsg.of(outcome), supervisor_ledger, participant_ledger)
        return SchemeRunResult(
            outcome=outcome,
            participant_ledger=participant_ledger,
            supervisor_ledger=supervisor_ledger,
            work=work,
        )
