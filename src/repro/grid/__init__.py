"""Grid-computing simulator substrate.

Models the paper's §2.1 environment: a supervisor, a population of
untrusted participants, an optional GRACE-style resource broker (§4),
and a network whose traffic is accounted byte-by-byte.  All costs land
in :class:`~repro.accounting.CostLedger` instances so experiments
report machine-independent shapes.
"""

from repro.accounting import CostLedger
from repro.grid.broker import GridResourceBroker
from repro.grid.faults import DroppedOut, FlakyParticipant, RetryingScheme
from repro.grid.network import Network
from repro.grid.participant import ParticipantNode
from repro.grid.report import DetectionReport, ParticipantReport
from repro.grid.simulation import GridSimulation, SimulationConfig, run_population
from repro.grid.supervisor import SupervisorNode

__all__ = [
    "run_population",
    "CostLedger",
    "Network",
    "ParticipantNode",
    "SupervisorNode",
    "GridResourceBroker",
    "FlakyParticipant",
    "RetryingScheme",
    "DroppedOut",
    "GridSimulation",
    "SimulationConfig",
    "DetectionReport",
    "ParticipantReport",
]
