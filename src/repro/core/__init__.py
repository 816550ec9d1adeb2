"""The paper's contribution: Commitment-Based Sampling and variants.

* :mod:`repro.core.cbs` — the interactive CBS scheme (§3.1, Steps 1–4).
* :mod:`repro.core.ni_cbs` — the non-interactive variant (§4) where
  sample indices are derived from the committed root.
* :mod:`repro.core.storage_opt` — the §3.3 storage/computation
  trade-off's closed forms (``rco``, storage for a target ``rco``).
* :mod:`repro.core.protocol` — the wire messages, with real byte
  encodings for communication accounting.
* :mod:`repro.core.scheme` — the uniform ``VerificationScheme``
  interface the grid simulator drives, plus outcome dataclasses.
"""

from repro import _reexport

_reexport(__name__, {
    "repro.core.cbs": "CBSParticipant CBSSupervisor CBSScheme",
    "repro.core.ni_cbs": "NICBSParticipant NICBSSupervisor NICBSScheme",
    "repro.core.storage_opt": "predicted_rco storage_for_rco",
})
