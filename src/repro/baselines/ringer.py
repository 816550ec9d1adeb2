"""The Golle–Mironov ringer scheme [8] (paper §1.1).

The supervisor pre-computes ``f`` on ``d`` secret inputs drawn from the
participant's subdomain and publishes only the *images* (the ringers).
While sweeping its domain, an honest participant inevitably encounters
every ringer preimage and reports it; a cheater that skipped part of
the domain misses the ringers hiding there — and, because ``f`` is
one-way, cannot find them any other way.

Escape probability for honesty ratio ``r`` with ``d`` ringers is
``≈ r^d`` (hypergeometric without replacement), mirroring CBS's
``r^m`` at ``q = 0``.  The scheme's two structural drawbacks are
exactly what the paper says in §1.1 and what E7 measures:

* it **requires one-way ``f``** — construction refuses otherwise;
* the supervisor pays ``d`` *full evaluations up front* per
  participant, whereas CBS verifies lazily (and may verify cheaply).
"""

from __future__ import annotations

import random

from repro.accounting import CostLedger
from repro.cheating.strategies import Behavior
from repro.core.cbs import transfer
from repro.core.protocol import ReportsMsg, VerdictMsg
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
from repro.utils.encoding import encode_bytes_list


class _RingerAnnouncement:
    """The published ringer images (supervisor → participant)."""

    def __init__(self, task_id: str, images: list[bytes]) -> None:
        self.task_id = task_id
        self.images = images

    def wire_size(self) -> int:
        return len(self.task_id.encode("utf-8")) + len(
            encode_bytes_list(self.images)
        )


class RingerScheme(VerificationScheme):
    """Golle–Mironov ringers: pre-computed secret images.

    Parameters
    ----------
    n_ringers:
        ``d``, the number of planted images per participant.
    require_all:
        Reject unless every ringer is reported (the basic GM scheme).
    """

    def __init__(self, n_ringers: int, require_all: bool = True) -> None:
        if n_ringers < 1:
            raise SchemeConfigurationError(f"n_ringers must be >= 1, got {n_ringers}")
        self.n_ringers = n_ringers
        self.require_all = require_all
        self.name = f"ringer(d={n_ringers})"

    def run(
        self,
        assignment: TaskAssignment,
        behavior: Behavior,
        seed: int = 0,
    ) -> SchemeRunResult:
        if not assignment.function.one_way:
            raise SchemeConfigurationError(
                "the ringer scheme requires a one-way task function "
                "(paper §1.1); use CBS for generic computations"
            )
        participant_ledger = CostLedger()
        supervisor_ledger = CostLedger()
        n = assignment.n_inputs
        if self.n_ringers > n:
            raise SchemeConfigurationError(
                f"cannot plant {self.n_ringers} ringers in {n} inputs"
            )

        # Supervisor setup: pre-compute d secret images (paid up front).
        rng = random.Random(seed)
        ringer_indices = rng.sample(range(n), self.n_ringers)
        setup = MeteredFunction(assignment.function, supervisor_ledger)
        images = {
            index: setup.evaluate(assignment.domain[index])
            for index in ringer_indices
        }
        announcement = _RingerAnnouncement(
            assignment.task_id, list(images.values())
        )
        transfer(announcement, supervisor_ledger, participant_ledger)

        # Participant: compute per behaviour, report matching inputs.
        metered = MeteredFunction(assignment.function, participant_ledger)
        work = behavior.produce(
            assignment, metered.evaluate, salt=run_salt(seed)
        )
        image_set = set(images.values())
        found = [
            i
            for i, payload in enumerate(work.leaf_payloads)
            if payload in image_set
        ]
        reports = ReportsMsg(
            task_id=assignment.task_id,
            reports=tuple(f"ringer-found:{i}" for i in found),
        )
        transfer(reports, participant_ledger, supervisor_ledger)

        # Supervisor verdict: every planted ringer must be reported.
        outcome = VerificationOutcome(task_id=assignment.task_id, accepted=True)
        found_set = set(found)
        for index in ringer_indices:
            supervisor_ledger.bump("ringers_checked")
            hit = index in found_set
            outcome.verdicts.append(
                SampleVerdict(
                    index=index,
                    accepted=hit,
                    reason=RejectReason.OK if hit else RejectReason.MISSING_RINGER,
                )
            )
            if not hit and self.require_all:
                outcome.accepted = False
                outcome.reason = RejectReason.MISSING_RINGER

        transfer(VerdictMsg.of(outcome), supervisor_ledger, participant_ledger)
        return SchemeRunResult(
            outcome=outcome,
            participant_ledger=participant_ledger,
            supervisor_ledger=supervisor_ledger,
            work=work,
        )
