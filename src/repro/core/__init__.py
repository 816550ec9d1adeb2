"""The paper's contribution: Commitment-Based Sampling and variants.

* :mod:`repro.core.cbs` — the interactive CBS scheme (§3.1, Steps 1–4).
* :mod:`repro.core.ni_cbs` — the non-interactive variant (§4) where
  sample indices are derived from the committed root.
* :mod:`repro.core.storage_opt` — the §3.3 storage/computation
  trade-off (partial Merkle tree backend and the ``rco`` closed form).
* :mod:`repro.core.protocol` — the wire messages, with real byte
  encodings for communication accounting.
* :mod:`repro.core.scheme` — the uniform ``VerificationScheme``
  interface the grid simulator drives, plus outcome dataclasses.
"""

from repro.core.cbs import CBSParticipant, CBSScheme, CBSSupervisor
from repro.core.ni_cbs import NICBSParticipant, NICBSScheme, NICBSSupervisor
from repro.core.storage_opt import predicted_rco, storage_for_rco

__all__ = [
    "CBSParticipant",
    "CBSSupervisor",
    "CBSScheme",
    "NICBSParticipant",
    "NICBSSupervisor",
    "NICBSScheme",
    "predicted_rco",
    "storage_for_rco",
]
