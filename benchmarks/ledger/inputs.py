"""The generated inputs: what each workload feeds the program.

One place builds populations and sessions from ``(workload, seed)`` so
the timed run, the oracle and the pipeline replay all see the same
inputs.  The program receives only these objects, never a workload name.
"""

from __future__ import annotations

from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme, NICBSScheme
from repro.engine import Executor, derive_seed
from repro.grid.simulation import GridSimulation, SimulationConfig
from repro.tasks import PasswordSearch, RangeDomain
from repro.tasks.result import TaskAssignment

from declared import Workload

#: Cycled over participants: even indices honest, odd ones skip half.
BEHAVIORS = (HonestBehavior(), SemiHonestCheater(0.5))


def scheme_for(w: Workload):
    if w.protocol == "cbs":
        return CBSScheme(n_samples=w.m)
    return NICBSScheme(n_samples=w.m)


def simulation(w: Workload, seed: int, engine: str | Executor) -> GridSimulation:
    """The population of one epoch (``run_population``'s own config)."""
    return GridSimulation(
        SimulationConfig(
            domain=RangeDomain(0, w.domain),
            function=PasswordSearch(),
            scheme=scheme_for(w),
            n_participants=w.participants,
            behaviors=list(BEHAVIORS),
            seed=seed,
            engine=engine,
        )
    )


def session_inputs(w: Workload, seed: int, index: int):
    """Slot ``index`` exactly as ``repro.cli serve --seed <seed>`` cuts it."""
    size = w.inputs_each
    assignment = TaskAssignment(
        task_id=f"task-{index}",
        domain=RangeDomain(index * size, (index + 1) * size),
        function=PasswordSearch(),
    )
    return assignment, BEHAVIORS[index % len(BEHAVIORS)], derive_seed(seed, index)
