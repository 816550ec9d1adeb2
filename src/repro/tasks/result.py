"""The task assignment handed to one participant."""

from __future__ import annotations

from dataclasses import dataclass

from repro.tasks.domain import Domain
from repro.tasks.function import TaskFunction
from repro.tasks.screener import Screener


@dataclass(frozen=True)
class TaskAssignment:
    """A unit of work handed to one participant (paper Problem 1).

    Attributes
    ----------
    task_id:
        Opaque identifier used by the protocol layer to correlate
        commitments, challenges and proofs.
    domain:
        The subdomain ``D`` the participant must evaluate.
    function:
        The task function ``f``.
    screener:
        The screener ``S`` selecting results of interest (may be
        ``None`` for pure verification experiments).
    """

    task_id: str
    domain: Domain
    function: TaskFunction
    screener: Screener | None = None

    @property
    def n_inputs(self) -> int:
        """``n = |D|``."""
        return len(self.domain)

