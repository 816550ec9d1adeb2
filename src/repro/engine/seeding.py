"""Deterministic per-task seed derivation, and the one rule for slot i.

Cross-backend reproducibility requires exactly one thing: every job's
seed is fixed *before* dispatch, as a pure function of the master seed
and the job index.  :func:`derive_seed` is the grid simulator's child
rule — the formula its serial loop always used::

    child = seed * 1_000_003 + index

``1_000_003`` is prime and far larger than any population size used in
the experiments, so distinct ``(seed, index)`` pairs never collide for
``index < 1_000_003``; the mapping is also trivially computable inside
a process-pool worker without shipping any RNG state.

Note the Monte-Carlo estimators keep their own historical rule
(``seed0 + trial`` — see :mod:`repro.analysis.montecarlo`); it is just
as deterministic, and changing it would silently shift every published
eq2/fig2 number.  Don't unify the two.

:func:`slot_task` is everything else slot ``i`` of ``n`` owns — its
task id, its subdomain and its run seed — and :func:`slot_behavior`
the population's behaviour cycling; the grid simulator's jobs and the
service's assignments are both built from them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.tasks.result import TaskAssignment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cheating.strategies import Behavior
    from repro.tasks.domain import Domain
    from repro.tasks.function import TaskFunction
    from repro.tasks.screener import Screener

#: Prime stride separating consecutive master seeds.
SEED_STRIDE = 1_000_003


def derive_seed(seed: int, index: int) -> int:
    """The child seed for run ``index`` under master ``seed``.

    Deterministic and injective for ``0 <= index < SEED_STRIDE`` —
    distinct runs of one population (or trial sweep) never share a
    seed, and the same ``(seed, index)`` always yields the same child
    regardless of which executor backend performs the run.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    return seed * SEED_STRIDE + index


def check_derived_seeds(
    seed: int, count: int, lo: int, hi: int, where: str, error: type[Exception]
) -> None:
    """Raise ``error`` unless the children of runs ``0..count-1`` under
    ``seed`` all lie in ``lo..hi`` (``where`` names that range)."""
    first, last = derive_seed(seed, 0), derive_seed(seed, count - 1)
    if first < lo or last > hi:
        raise error(
            f"seed {seed} with {count} participants derives seeds "
            f"{first}..{last}, outside {where}"
        )


def task_name(slot: int) -> str:
    """The task id of participant slot ``slot``."""
    return f"task-{slot}"


def slot_task(
    index: int,
    n_slots: int,
    domain: "Domain",
    function: "TaskFunction",
    seed: int,
    screener: "Screener | None" = None,
) -> tuple[TaskAssignment, int]:
    """Slot ``index`` of ``n_slots`` under master ``seed``: its task
    (id :func:`task_name`, subdomain ``domain.part(index, n_slots)``)
    and its run seed."""
    assignment = TaskAssignment(
        task_id=task_name(index),
        domain=domain.part(index, n_slots),
        function=function,
        screener=screener,
    )
    return assignment, derive_seed(seed, index)


def slot_behavior(behaviors: Sequence["Behavior"], index: int) -> "Behavior":
    """The behaviour slot ``index`` plays: ``behaviors`` cycled over
    the population."""
    return behaviors[index % len(behaviors)]
