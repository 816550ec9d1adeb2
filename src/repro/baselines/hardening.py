"""Szajda–Lawson–Owen-style hardening [10] for non-one-way workloads.

Golle–Mironov ringers need a one-way ``f``; Szajda et al. extend the
idea to optimization and Monte-Carlo computations by planting *probes*
— inputs whose results the supervisor pre-computed — that are
indistinguishable from ordinary inputs.  Because ``f`` is not one-way,
the images cannot be published (a cheater could grep for them without
doing the work); instead the participant must return its full result
vector and the supervisor audits the planted positions.

This preserves the two properties the paper's comparison needs (E7):

* unlike ringers, it works for guessable/generic ``f`` — but a
  cheater's guess still slips through with probability ``q`` per
  missed probe, so detection degrades exactly like naive sampling;
* unlike CBS, the traffic stays ``O(n)`` (full vector on the wire) and
  the supervisor pays ``d`` full evaluations *up front* per task.

The implementation is a faithful simplification: the published scheme
also randomizes task boundaries and seeds sub-sequences for Monte-Carlo
workloads; those engineering layers do not change the cost/detection
shape measured here.
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
)
from repro.exceptions import SchemeConfigurationError
from repro.tasks.function import MeteredFunction
from repro.tasks.result import TaskAssignment


class HardenedProbeScheme(VerificationScheme):
    """Planted secret probes with full-result return.

    Parameters
    ----------
    n_probes:
        Number of pre-computed audit positions per task.
    """

    def __init__(self, n_probes: int) -> None:
        if n_probes < 1:
            raise SchemeConfigurationError(f"n_probes must be >= 1, got {n_probes}")
        self.n_probes = n_probes
        self.name = f"hardened-probes(d={n_probes})"

    def run(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        seed: int = 0,
    ) -> SchemeRunResult:
        participant_ledger = CostLedger()
        supervisor_ledger = CostLedger()
        n = assignment.n_inputs
        if self.n_probes > n:
            raise SchemeConfigurationError(
                f"cannot plant {self.n_probes} probes in {n} inputs"
            )

        # Supervisor setup: secretly pre-compute the probe results.
        rng = random.Random(seed)
        probe_indices = rng.sample(range(n), self.n_probes)
        setup = MeteredFunction(assignment.function, supervisor_ledger)
        expected = {
            index: setup.evaluate(assignment.domain[index])
            for index in probe_indices
        }

        # Participant: compute per behaviour and ship everything
        # (probes are indistinguishable, so nothing narrower works).
        metered = MeteredFunction(assignment.function, participant_ledger)
        work = behavior.produce(
            assignment, metered.evaluate, salt=seed.to_bytes(8, "big")
        )
        message = FullResultsMsg(
            task_id=assignment.task_id, results=tuple(work.leaf_payloads)
        )
        transfer(message, participant_ledger, supervisor_ledger)

        # Audit the planted positions.
        outcome = VerificationOutcome(task_id=assignment.task_id, accepted=True)
        if len(message.results) != n:
            outcome.accepted = False
            outcome.reason = RejectReason.MISSING_RESULTS
        else:
            for index in probe_indices:
                supervisor_ledger.bump("probes_checked")
                ok = message.results[index] == expected[index]
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

        transfer(
            VerdictMsg(
                task_id=assignment.task_id,
                accepted=outcome.accepted,
                reason=outcome.reason.value if not outcome.accepted else "",
            ),
            supervisor_ledger,
            participant_ledger,
        )
        return SchemeRunResult(
            outcome=outcome,
            participant_ledger=participant_ledger,
            supervisor_ledger=supervisor_ledger,
            work=work,
        )
