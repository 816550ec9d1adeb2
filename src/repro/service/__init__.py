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
* :mod:`repro.service.sessions` — the assignment → commitment →
  outcome lifecycle store: live sessions with TTL eviction, one state
  byte per slot once the verdict is out, the last 256 outcomes.
* :mod:`repro.service.server` — :class:`SupervisorServer`, a
  concurrent asyncio TCP (or in-process) supervisor: one coroutine
  per connection, each verification run on the loop or on the
  execution engine's pool by its measured cost.
* :mod:`repro.service.client` — the async participant.
* :mod:`repro.service.loadgen` — N concurrent honest/cheating
  participants, reporting a
  :class:`~repro.grid.report.DetectionReport` plus throughput and
  latency percentiles.

Transport mechanics — length-prefix framing, the HMAC shared-secret
handshake, TLS contexts, connect retry/backoff — live one layer down
in :mod:`repro.net`; :class:`repro.net.SecurityConfig` (re-exported
here) is how a deployment hands the server and clients their secret
and certificate material (README "Security model").

CLI entry points: ``repro-experiments serve`` and
``repro-experiments loadgen``.
"""

from repro.net.transport import SecurityConfig

from repro.service.codec import (
    CLUSTER_WIRE_VERSION,
    FRAME_HEADER_BYTES,
    MAX_CLUSTER_FRAME_BYTES,
    MAX_CLUSTER_PAYLOAD_BYTES,
    MAX_FRAME_BYTES,
    WORKLOADS,
    ByeFrame,
    ChallengeFrame,
    CommitmentFrame,
    ErrorFrame,
    Frame,
    HeartbeatFrame,
    JobFrame,
    ProofsFrame,
    ResultFrame,
    StatsReply,
    StatsRequest,
    SubmissionFrame,
    TaskAssign,
    TaskRequest,
    VerdictFrame,
    WorkerHello,
    decode_cluster_payload,
    decode_frame,
    decode_frame_payload,
    encode_cluster_payload,
    encode_frame,
    read_frame,
    resolve_workload,
    write_frame,
)
from repro.service.client import ParticipantRun, ServiceClient
from repro.service.jobcodec import ensure_default_registry
from repro.service.loadgen import (
    LoadgenStats,
    percentile,
    run_loadgen,
    run_service_loadgen,
    run_service_loadgen_sync,
)
from repro.service.server import (
    MemoryStreamWriter,
    ServiceConfig,
    SupervisorServer,
    memory_duplex,
)
from repro.service.sessions import (
    Session,
    SessionState,
    SessionStore,
)

__all__ = [
    # codec
    "FRAME_HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "CLUSTER_WIRE_VERSION",
    "MAX_CLUSTER_FRAME_BYTES",
    "MAX_CLUSTER_PAYLOAD_BYTES",
    "WORKLOADS",
    "resolve_workload",
    "Frame",
    "TaskRequest",
    "TaskAssign",
    "CommitmentFrame",
    "ChallengeFrame",
    "ProofsFrame",
    "SubmissionFrame",
    "VerdictFrame",
    "ErrorFrame",
    "WorkerHello",
    "HeartbeatFrame",
    "JobFrame",
    "ResultFrame",
    "StatsRequest",
    "StatsReply",
    "ByeFrame",
    "encode_frame",
    "decode_frame",
    "decode_frame_payload",
    "encode_cluster_payload",
    "decode_cluster_payload",
    "read_frame",
    "write_frame",
    # transport security (repro.net)
    "SecurityConfig",
    # sessions
    "Session",
    "SessionState",
    "SessionStore",
    # server
    "ServiceConfig",
    "SupervisorServer",
    "MemoryStreamWriter",
    "memory_duplex",
    # client
    "ServiceClient",
    "ParticipantRun",
    # loadgen
    "LoadgenStats",
    "percentile",
    "run_loadgen",
    "run_service_loadgen",
    "run_service_loadgen_sync",
]

# Load the job codec's struct table now that every class it names can
# be imported: a drifted row fails this import, like a drifted frame or
# term table, instead of the first job.
ensure_default_registry()
