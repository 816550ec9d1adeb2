"""Grid-computing simulator substrate.

Models the paper's §2.1 environment: a supervisor partitioning a
domain across a population of untrusted participants, some of whom
drop out or cheat.  All costs land in
:class:`~repro.accounting.CostLedger` instances so experiments report
machine-independent shapes.  The same exchange over real framed bytes
— including the §4 broker topology — is :mod:`repro.service`.
"""

from repro.grid.faults import FlakyParticipant, RetryingScheme
from repro.grid.simulation import GridSimulation, SimulationConfig, run_population

__all__ = [
    "run_population",
    "FlakyParticipant",
    "RetryingScheme",
    "GridSimulation",
    "SimulationConfig",
]
