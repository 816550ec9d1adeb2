"""Grid service layer: the supervisor as a networked asyncio system.

Everything below :mod:`repro.core` treats the paper's protocols as
in-process function calls; this package runs them as a service — the
§4 GRACE deployment shape, and the architecture the related
storage-subnet work uses for commitment verification against remote,
untrusted clients:

* :mod:`repro.service.codec` — the binary frame table (tag byte plus
  typed fields) that carries the canonical protocol messages and typed
  job payloads as raw length-delimited bytes, plus the shared workload
  catalogue.
* :mod:`repro.service.sessions` — the session protocol as one
  synchronous, I/O-free core (``SupervisorCore``: frame in, reply
  frame or verification to run out) over the lifecycle store: live
  sessions with TTL eviction, one state byte per slot once the
  verdict is out, the last 256 outcomes.
* :mod:`repro.service.server` — :class:`SupervisorServer`, the core's
  concurrent asyncio TCP (or in-process) shell: one coroutine per
  connection, each verification run on the loop or on the execution
  engine's pool by its measured cost.
* :mod:`repro.service.client` — the participant's round as one
  synchronous, I/O-free core (``ParticipantCore``) and its asyncio
  shell over one connection (``ServiceClient``).
* :mod:`repro.service.loadgen` — N concurrent honest/cheating
  participants, reporting a
  :class:`~repro.grid.report.DetectionReport` plus throughput and
  latency percentiles.

Transport mechanics — length-prefix framing, the HMAC shared-secret
handshake, TLS contexts, connect retry/backoff — live one layer down
in :mod:`repro.net`; :class:`repro.net.SecurityConfig` is how a
deployment hands the server and clients their secret and certificate
material (README "Security model").

CLI entry points: ``repro-experiments serve`` and
``repro-experiments loadgen``.
"""

from repro import _reexport

_reexport(__name__, {
    "repro.net.framing": "FRAME_HEADER_BYTES",
    "repro.service.codec": (
        "WORKLOADS resolve_workload TaskRequest TaskAssign CommitmentFrame "
        "ChallengeFrame ProofsFrame SubmissionFrame VerdictFrame ErrorFrame "
        "encode_frame decode_frame decode_frame_payload read_frame write_frame"
    ),
    "repro.service.sessions": "ServiceConfig SessionState SessionStore",
    "repro.service.server": "SupervisorServer memory_duplex",
    "repro.service.client": "ServiceClient",
    "repro.service.loadgen": "percentile run_loadgen run_service_loadgen",
})

__all__ = [
    # codec
    "FRAME_HEADER_BYTES",
    "WORKLOADS",
    "resolve_workload",
    "TaskRequest",
    "TaskAssign",
    "CommitmentFrame",
    "ChallengeFrame",
    "ProofsFrame",
    "SubmissionFrame",
    "VerdictFrame",
    "ErrorFrame",
    "encode_frame",
    "decode_frame",
    "decode_frame_payload",
    "read_frame",
    "write_frame",
    # sessions
    "ServiceConfig",
    "SessionState",
    "SessionStore",
    # server
    "SupervisorServer",
    "memory_duplex",
    # client
    "ServiceClient",
    # loadgen
    "percentile",
    "run_loadgen",
    "run_service_loadgen",
]
