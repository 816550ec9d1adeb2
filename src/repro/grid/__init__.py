"""Grid-computing simulator substrate.

Models the paper's §2.1 environment: a supervisor partitioning a
domain across a population of untrusted participants, some of whom
drop out or cheat.  All costs land in
:class:`~repro.accounting.CostLedger` instances so experiments report
machine-independent shapes.  The same exchange over real framed bytes
— including the §4 broker topology — is :mod:`repro.service`.
"""

from repro import _reexport

_reexport(__name__, {
    "repro.grid.simulation": "run_population GridSimulation SimulationConfig",
    "repro.grid.faults": "FlakyParticipant RetryingScheme",
})
