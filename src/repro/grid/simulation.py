"""Population-level grid simulation driving any verification scheme.

:class:`GridSimulation` realizes the paper's §2.1 environment
statistically: a global domain is partitioned across a population of
participants with assorted behaviours, the chosen scheme runs for each,
and the aggregate :class:`~repro.grid.report.DetectionReport` records
who was caught, at what cost, and how many bytes hit the supervisor.
Experiments E2/E3/E7 are parameter sweeps over these simulations.

Participant runs are independent protocol executions, so the
simulation dispatches them through the pluggable execution engine
(:mod:`repro.engine`): one :class:`~repro.engine.jobs.SchemeJob` per
participant, built by :func:`~repro.engine.seeding.slot_task`,
batched onto the configured backend.  Report ordering and
ledger-merge semantics are identical on every backend — the engine
returns results in participant order and the merge loop below is the
single aggregation point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cheating.strategies import Behavior, HonestBehavior
from repro.core.scheme import SEED_BOUND, VerificationScheme
from repro.engine import Executor, SchemeJob, run_scheme_jobs
from repro.engine.seeding import check_derived_seeds, slot_behavior, slot_task
from repro.exceptions import TaskError
from repro.grid.report import DetectionReport, ParticipantReport
from repro.tasks.domain import Domain
from repro.tasks.function import TaskFunction
from repro.tasks.screener import Screener


@dataclass
class SimulationConfig:
    """Everything one population run needs.

    ``behaviors`` is cycled over the population: with two entries and
    ten participants, participants 0, 2, 4... get the first behaviour.
    One behaviour instance therefore serves many participants, and on
    the thread/process backends its ``produce`` may run concurrently
    and/or on pickled copies — behaviours must be stateless across
    calls (all built-ins are; every per-run decision must derive from
    the assignment, seed and salt).  A behaviour that mutates itself
    would race under threads and silently diverge under processes;
    build one instance per participant (as
    :func:`repro.analysis.montecarlo.estimate_escape_rate` does with
    its per-trial factory) if state is unavoidable.

    ``engine`` selects the execution backend (``"serial"``,
    ``"threads"``, ``"processes"``, or a live
    :class:`~repro.engine.executor.Executor` to share a warm pool);
    ``workers`` and ``batch_size`` tune it.  Backends never change
    results — only wall-clock.
    """

    domain: Domain
    function: TaskFunction
    scheme: VerificationScheme
    n_participants: int = 4
    behaviors: Sequence[Behavior] = field(default_factory=lambda: [HonestBehavior()])
    screener: Screener | None = None
    seed: int = 0
    engine: str | Executor = "serial"
    workers: int | None = None
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.n_participants < 1:
            raise TaskError(
                f"n_participants must be >= 1, got {self.n_participants}"
            )
        if not self.behaviors:
            raise TaskError("behaviors must be non-empty")
        # Every participant's run seed must fit its 8-byte run salt.
        check_derived_seeds(
            self.seed, self.n_participants, 0, SEED_BOUND - 1,
            "a run salt's [0, 2**64)", TaskError,
        )


class GridSimulation:
    """Run one scheme over a partitioned domain and a mixed population."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config

    def jobs(self) -> list[SchemeJob]:
        """The population as engine jobs, one per participant."""
        cfg, n = self.config, self.config.n_participants
        jobs = []
        for i in range(n):
            assignment, seed = slot_task(
                i, n, cfg.domain, cfg.function, cfg.seed, cfg.screener
            )
            jobs.append(SchemeJob(assignment, slot_behavior(cfg.behaviors, i), seed))
        return jobs

    def run(self) -> DetectionReport:
        """Execute every participant's protocol; aggregate the report."""
        cfg = self.config
        jobs = self.jobs()
        results = run_scheme_jobs(
            cfg.scheme,
            jobs,
            engine=cfg.engine,
            workers=cfg.workers,
            batch_size=cfg.batch_size,
        )

        report = DetectionReport(scheme=cfg.scheme.name)
        for i, (job, result) in enumerate(zip(jobs, results)):
            work_ratio = (
                result.work.honesty_ratio if result.work is not None else 1.0
            )
            report.participants.append(
                ParticipantReport(
                    participant=f"participant-{i}",
                    behavior=job.behavior.name,
                    honesty_ratio=work_ratio,
                    accepted=result.outcome.accepted,
                    reason=result.outcome.reason,
                    participant_ledger=result.participant_ledger,
                    supervisor_ledger_delta=result.supervisor_ledger,
                )
            )
            report.supervisor_ledger.merge(result.supervisor_ledger)
        return report


def run_population(
    domain: Domain,
    function: TaskFunction,
    scheme: VerificationScheme,
    behaviors: Sequence[Behavior],
    n_participants: int = 4,
    screener: Screener | None = None,
    seed: int = 0,
    engine: str | Executor = "serial",
    workers: int | None = None,
    batch_size: int | None = None,
) -> DetectionReport:
    """One-call convenience wrapper over :class:`GridSimulation`."""
    return GridSimulation(
        SimulationConfig(
            domain=domain,
            function=function,
            scheme=scheme,
            n_participants=n_participants,
            behaviors=list(behaviors),
            screener=screener,
            seed=seed,
            engine=engine,
            workers=workers,
            batch_size=batch_size,
        )
    ).run()
