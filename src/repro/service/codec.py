"""Binary frame codec for the grid service wire protocol.

Every stream in the repository moves length-prefixed frames
(:mod:`repro.net.framing` owns the 4-byte prefix and the size caps);
this module owns what is inside one: ``tag byte ‖ fields``.  Each of
the 17 frame types is one row of :data:`FRAMES` — tag byte, wire name,
dataclass, ordered :class:`~repro.core.wire.Field` specs — walked by
the same :class:`~repro.core.wire.Layout` that walks the protocol
messages of :mod:`repro.core.protocol`; this module adds only the two
kinds frames alone carry (``payload``, ``json``).  A protocol message
or a typed job payload rides as the raw, length-delimited bytes it
already is: the wire bytes the E3 accounting measures are the bytes a
remote participant ships.  README "Wire formats" lists every row.

* Client ↔ supervisor: ``task_request`` → ``assign``, then the
  interactive CBS round of §3.1 (``commitment`` → ``challenge`` →
  ``proofs`` → ``verdict``) or the one-shot NI-CBS flow of §4
  (``submission`` → ``verdict``); ``error`` before a hang-up.
* Worker ↔ coordinator (:mod:`repro.engine.cluster`): ``hello``,
  ``heartbeat``, ``job`` out and exactly one ``result`` back per
  chunk.  Payloads are *data, never code*: typed job chunks and
  outcome lists, size-capped at encode and decode, behind an exact
  wire version.
* Either plane: ``stats_request`` → ``stats``, ``trace_get`` →
  ``trace``, and ``bye``.

JSON survives in one field kind, the *observability blob* (``stats``
snapshots, span exports): human-facing data whose shape belongs to
:mod:`repro.obs`, on the per-job path only while tracing is on.

Every decode path raises a :class:`~repro.exceptions.ReproError` and
nothing else: :class:`~repro.exceptions.ProtocolError` for an unknown
tag byte, trailing bytes or a value outside its declared range,
:class:`~repro.exceptions.CodecError` for malformed encodings
(truncated or overlong varints, lying length prefixes), oversized
payloads, a wrong wire version, or an inner message that fails to
decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, NamedTuple, Union

from repro.core.protocol import (
    AssignMsg,
    CommitmentMsg,
    NICBSSubmissionMsg,
    ProofBundleMsg,
    SampleChallengeMsg,
    VerdictMsg,
)
from repro.core.wire import KINDS as _SHARED_KINDS, Field, Layout, read_sized
from repro.exceptions import CodecError, ProtocolError
from repro.obs.metrics import SIZE_BUCKETS, default_registry
from repro.obs.spans import validate_wire_spans
from repro.obs.trace import MAX_TRACE_ID_LEN
# Framing geometry and size caps live in repro.net.framing, the cluster
# job envelope in repro.service.jobcodec; both are re-exported because
# this module is the wire-level import home for both planes.
from repro.net.framing import (
    FRAME_HEADER_BYTES as FRAME_HEADER_BYTES,
    MAX_CLUSTER_FRAME_BYTES as MAX_CLUSTER_FRAME_BYTES,
    MAX_CLUSTER_PAYLOAD_BYTES as MAX_CLUSTER_PAYLOAD_BYTES,
    MAX_FRAME_BYTES as MAX_FRAME_BYTES,
    check_payload_size,
    frame_buffer,
    read_frame_bytes,
    split_frame_buffer,
    write_frame_bytes,
)
from repro.service.jobcodec import (
    decode_cluster_chunk as decode_cluster_chunk,
    decode_cluster_outcomes as decode_cluster_outcomes,
    decode_cluster_payload as decode_cluster_payload,
    encode_cluster_chunk as encode_cluster_chunk,
    encode_cluster_outcomes as encode_cluster_outcomes,
    encode_cluster_payload as encode_cluster_payload,
)
from repro.tasks.function import TaskFunction
from repro.tasks.workloads import (
    FactoringTask,
    MersenneCheck,
    MoleculeScreening,
    MonteCarloEstimate,
    OptimizationSearch,
    PasswordSearch,
    SignalSearch,
)
from repro.utils.encoding import encode_bytes, read_bytes

#: Version every cluster peer declares in ``hello`` and every
#: payload-bearing cluster frame leads with.  There is no compat
#: window: ``hello`` decodes any plausible version so the coordinator
#: can answer a skewed peer with a ``bye`` naming the version it speaks
#: (:meth:`coordinator._serve_worker`); everything else must match.
CLUSTER_WIRE_VERSION = 8

#: Byte ceilings on text fields: a worker id (it becomes a metrics
#: label, a log field and a ``bye`` reason on the coordinator), a scheme
#: parameter name, and free text (``error`` messages, ``bye`` reasons).
MAX_WORKER_ID_BYTES = 128
MAX_NAME_BYTES = 128
MAX_TEXT_BYTES = 64 * 1024


# ----------------------------------------------------------------------
# Workload catalogue
# ----------------------------------------------------------------------

#: The shared work-unit catalogue: in real grids the client software
#: embeds the kernel, so the wire only names it (AssignMsg.workload).
WORKLOADS: dict[str, Callable[[], TaskFunction]] = {
    "PasswordSearch": PasswordSearch,
    "MoleculeScreening": MoleculeScreening,
    "SignalSearch": SignalSearch,
    "MersenneCheck": MersenneCheck,
    "MonteCarloEstimate": MonteCarloEstimate,
    "OptimizationSearch": OptimizationSearch,
    "FactoringTask": FactoringTask,
}


def resolve_workload(name: str) -> TaskFunction:
    """Instantiate the named workload with its canonical parameters."""
    if name not in WORKLOADS:
        raise ProtocolError(f"unknown workload {name!r}")
    return WORKLOADS[name]()


# ----------------------------------------------------------------------
# Frame dataclasses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaskRequest:
    """Client → supervisor: grant me a participant slot.

    ``participant`` pins a specific slot (the load generator does this
    so runs are reproducible); ``None`` asks for the next free one.
    ``trace_id``/``span_id`` are the optional trace context the client
    minted for this session; the supervisor attaches them to every log
    record and verdict for the task.
    """

    participant: int | None = None
    trace_id: str | None = None
    span_id: str | None = None


@dataclass(frozen=True)
class TaskAssign:
    """Supervisor → client: the assignment plus its service envelope.

    ``assign`` is the canonical :class:`AssignMsg`; the extra fields
    carry what the in-memory simulator shares implicitly — the
    subdomain bounds, scheme parameters and the per-task seed that
    makes the run reproducible on both sides.
    """

    assign: AssignMsg
    participant: int
    domain_start: int
    domain_stop: int
    protocol: str
    n_samples: int
    hash_name: str
    sample_hash_name: str
    leaf_encoding: str
    seed: int


@dataclass(frozen=True)
class CommitmentFrame:
    msg: CommitmentMsg


@dataclass(frozen=True)
class ChallengeFrame:
    msg: SampleChallengeMsg


@dataclass(frozen=True)
class ProofsFrame:
    msg: ProofBundleMsg


@dataclass(frozen=True)
class SubmissionFrame:
    msg: NICBSSubmissionMsg


@dataclass(frozen=True)
class VerdictFrame:
    msg: VerdictMsg


@dataclass(frozen=True)
class ErrorFrame:
    message: str


@dataclass(frozen=True)
class WorkerHello:
    """Worker → coordinator: register with id, capacity and version.

    ``version`` is decoded *leniently* (any plausible value), unlike
    every payload-bearing cluster frame: the coordinator must be able
    to read an incompatible peer's hello so it can answer with a clear
    ``bye`` naming the required version, instead of dying in the
    decoder where the peer learns nothing.  ``worker_id`` becomes a
    metrics label and a log field, so it is short and non-empty.
    """

    worker_id: str
    capacity: int
    version: int = CLUSTER_WIRE_VERSION


@dataclass(frozen=True)
class HeartbeatFrame:
    """Worker → coordinator: periodic liveness beacon."""

    worker_id: str


@dataclass(frozen=True)
class JobFrame:
    """Coordinator → worker: one chunk of work (typed job payloads).

    ``trace_id``/``span_id`` are the optional trace context of the
    population this chunk belongs to (trace) and of the chunk itself
    (span); the worker binds them around execution so its log records
    line up with the coordinator's dispatch/acceptance records.
    Results carry no trace fields — the coordinator correlates them by
    ``job_id``.
    """

    job_id: int
    payload: bytes
    version: int = CLUSTER_WIRE_VERSION
    trace_id: str | None = None
    span_id: str | None = None


@dataclass(frozen=True)
class ResultFrame:
    """Worker → coordinator: one chunk's outcome.

    ``ok`` distinguishes an encoded result (``True``) from an encoded
    error description (``False``) — a job that raises must come back
    as data, never crash the worker.

    ``spans`` carries the worker's completed spans for this chunk as
    validated wire dicts (:func:`repro.obs.spans.validate_wire_spans`),
    so the coordinator can assemble one distributed timeline; empty
    unless the chunk was traced.  ``cache_hits``/``cache_misses``
    report the worker's scheme-cache traffic while executing this
    chunk, so the coordinator can aggregate fleet-wide cache
    effectiveness without scraping every worker.
    """

    job_id: int
    ok: bool
    payload: bytes
    version: int = CLUSTER_WIRE_VERSION
    spans: tuple = ()
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass(frozen=True)
class StatsRequest:
    """Client → supervisor/worker: send me your metrics snapshot.

    Served only on authenticated connections (when the endpoint runs
    with a shared secret, the auth handshake has already happened
    before any frame is decoded); the reply is the registry snapshot.
    """


@dataclass(frozen=True)
class StatsReply:
    """Supervisor/worker → client: one registry snapshot.

    ``stats`` is the plain-dict form of
    :meth:`repro.obs.MetricsRegistry.snapshot` — JSON all the way
    down, so it rides the frame as an observability blob.
    """

    stats: dict


@dataclass(frozen=True)
class TraceGetRequest:
    """Client → supervisor: send me one assembled trace.

    Served only on authenticated connections, like ``stats_request``.
    ``trace_id`` names the trace (the id a ``--trace`` run printed or
    logged); the reply holds every buffered span of that trace.
    """

    trace_id: str


@dataclass(frozen=True)
class TraceReply:
    """Supervisor → client: one trace's spans, timeline-ordered.

    ``spans`` is a tuple of wire span dicts (the same validated shape
    that rides result frames) — ``repro.cli trace view`` renders
    it directly.  Empty means the trace id is unknown or already
    evicted from the bounded buffer.
    """

    trace_id: str
    spans: tuple = ()


@dataclass(frozen=True)
class ByeFrame:
    """Either side announces an orderly departure."""

    reason: str = ""


# ----------------------------------------------------------------------
# The two field kinds only frames carry (the rest: repro.core.wire)
# ----------------------------------------------------------------------

# ``payload`` is a typed job payload, ``check_payload_size``d at encode
# *and* decode; ``json`` is the observability blob — UTF-8 JSON whose
# shape :mod:`repro.obs` owns.  Its ``arg`` is ``(empty, validate)`` and
# zero length stands for ``empty()``, so an untraced result frame never
# touches ``json``.


def _encode_payload_field(field: Field, value: bytes) -> bytes:
    check_payload_size(field.attr, len(value), field.hi)
    return encode_bytes(value)


def _read_payload_field(field: Field, data: bytes, pos: int) -> tuple[bytes, int]:
    raw, pos = read_bytes(data, pos)
    check_payload_size(field.attr, len(raw), field.hi)
    return raw, pos


def _encode_json(field: Field, value: Any) -> bytes:
    if not value:
        return b"\x00"
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return encode_bytes(text.encode("utf-8"))


def _read_json(field: Field, data: bytes, pos: int) -> tuple[Any, int]:
    raw, pos = read_sized(field, data, pos)
    empty, validate = field.arg
    try:
        return (validate(json.loads(raw.decode("utf-8"))) if raw else empty()), pos
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"bad json: {exc}") from exc


#: The shared kinds plus the two only frames carry.
KINDS = {
    **_SHARED_KINDS,
    "payload": (_encode_payload_field, _read_payload_field),
    "json": (_encode_json, _read_json),
}


def _stats_object(value: object) -> dict:
    if not isinstance(value, dict):
        raise ValueError("stats must be an object")
    return value


_TRACE_ID = Field("trace_id", "str", 1, MAX_TRACE_ID_LEN)
_TRACE_CONTEXT = (
    _TRACE_ID._replace(optional=True),
    _TRACE_ID._replace(attr="span_id", optional=True),
)
_WORKER_ID = Field("worker_id", "str", 1, MAX_WORKER_ID_BYTES)
#: The per-task seed of an ``assign`` frame.  Public because whoever
#: derives those seeds (:class:`~repro.service.server.ServiceConfig`)
#: must keep every one of them inside this field's range.
ASSIGN_SEED = Field("seed", "uint")
# Exact on every payload-bearing frame; ``hello`` alone reads any
# plausible version, so the coordinator can answer a skewed peer.
_CHUNK = (
    Field(
        "version", "uint", CLUSTER_WIRE_VERSION, CLUSTER_WIRE_VERSION,
        error=CodecError,
    ),
    Field("job_id", "uint"),
)
_PAYLOAD = Field("payload", "payload", hi=MAX_CLUSTER_PAYLOAD_BYTES)
_SPANS = Field("spans", "json", hi=MAX_FRAME_BYTES, arg=(tuple, validate_wire_spans))


# ----------------------------------------------------------------------
# The frame table
# ----------------------------------------------------------------------


class FrameRow(NamedTuple):
    """One frame type: tag byte, wire name, dataclass, the ordered
    fields that follow the tag, and an optional cross-field check on a
    decoded frame.  ``layout`` is the bound walker of ``fields``, filled
    in when the table is indexed."""

    tag: int
    name: str
    cls: type
    fields: tuple[Field, ...] = ()
    check: Callable[[Any], None] | None = None
    layout: Layout | None = None


def _nonempty_domain(frame: TaskAssign) -> None:
    if frame.domain_stop <= frame.domain_start:
        raise ProtocolError(
            f"assign frame: domain [{frame.domain_start}, {frame.domain_stop}) "
            "is empty"
        )


def _msg_row(tag: int, name: str, cls: type, msg_cls: type) -> FrameRow:
    return FrameRow(
        tag, name, cls, (Field("msg", "msg", hi=MAX_FRAME_BYTES, arg=msg_cls),)
    )


#: The wire vocabulary — the only place a frame's tag byte, wire name
#: or layout is spelled.  Wire order is row order.  Tag bytes 0x0D and
#: 0x0E are unassigned: they decode as unknown tags.
FRAMES: tuple[FrameRow, ...] = (
    FrameRow(0x01, "task_request", TaskRequest, (
        Field("participant", "uint", optional=True),
        *_TRACE_CONTEXT,
    )),
    FrameRow(0x02, "assign", TaskAssign, (
        Field("assign", "msg", hi=MAX_FRAME_BYTES, arg=AssignMsg),
        Field("participant", "uint"),
        Field("domain_start", "int"),
        Field("domain_stop", "int"),
        Field("protocol", "str", hi=MAX_NAME_BYTES, arg=("cbs", "ni-cbs")),
        Field("n_samples", "uint", lo=1),
        Field("hash_name", "str", hi=MAX_NAME_BYTES),
        Field("sample_hash_name", "str", hi=MAX_NAME_BYTES),
        Field("leaf_encoding", "str", hi=MAX_NAME_BYTES, arg=("hashed", "raw")),
        ASSIGN_SEED,
    ), _nonempty_domain),
    _msg_row(0x03, "commitment", CommitmentFrame, CommitmentMsg),
    _msg_row(0x04, "challenge", ChallengeFrame, SampleChallengeMsg),
    _msg_row(0x05, "proofs", ProofsFrame, ProofBundleMsg),
    _msg_row(0x06, "submission", SubmissionFrame, NICBSSubmissionMsg),
    _msg_row(0x07, "verdict", VerdictFrame, VerdictMsg),
    FrameRow(0x08, "error", ErrorFrame, (Field("message", "str", hi=MAX_TEXT_BYTES),)),
    FrameRow(0x09, "hello", WorkerHello, (
        Field("version", "uint", hi=0xFFFF, error=CodecError),
        _WORKER_ID,
        Field("capacity", "uint", lo=1),
    )),
    FrameRow(0x0A, "heartbeat", HeartbeatFrame, (_WORKER_ID,)),
    FrameRow(0x0B, "job", JobFrame, (*_CHUNK, *_TRACE_CONTEXT, _PAYLOAD)),
    FrameRow(0x0C, "result", ResultFrame, (
        *_CHUNK, Field("ok", "flag"),
        Field("cache_hits", "uint"), Field("cache_misses", "uint"), _SPANS,
        _PAYLOAD,
    )),
    FrameRow(0x0F, "stats_request", StatsRequest),
    FrameRow(0x10, "stats", StatsReply, (
        Field("stats", "json", hi=MAX_FRAME_BYTES, arg=(dict, _stats_object)),
    )),
    FrameRow(0x11, "trace_get", TraceGetRequest, (_TRACE_ID,)),
    FrameRow(0x12, "trace", TraceReply, (_TRACE_ID, _SPANS)),
    FrameRow(0x13, "bye", ByeFrame, (Field("reason", "str", hi=MAX_TEXT_BYTES),)),
)


def _index_frames(rows: tuple[FrameRow, ...]) -> tuple[dict, dict]:
    """Bind every row's fields and index the table by tag byte and by
    class.  A duplicate tag, name or class, an unknown field kind, or a
    row that does not cover its dataclass's fields exactly, raises here
    — at import."""
    bound = [
        row._replace(layout=Layout(
            f"{row.name} frame",
            row.fields,
            [field.name for field in dataclass_fields(row.cls)],
            KINDS,
        ))
        for row in rows
    ]
    by_tag = {row.tag: row for row in bound}
    by_cls = {row.cls: row for row in bound}
    names = {row.name for row in bound}
    if not len(by_tag) == len(by_cls) == len(names) == len(rows):
        raise ValueError("duplicate tag byte, wire name or class in FRAMES")
    return by_tag, by_cls


_BY_TAG, _BY_CLASS = _index_frames(FRAMES)

#: Any frame: the union of the table's dataclasses, in row order.
Frame = Union[tuple(row.cls for row in FRAMES)]


# ----------------------------------------------------------------------
# Encode / decode: the row's bound layout does the walking
# ----------------------------------------------------------------------


def _encode_payload(frame: Frame) -> bytes:
    """One frame's payload bytes (no length prefix) — the single
    serialization rule both the sync and async writers use, so the two
    wire paths can never diverge."""
    row = _BY_CLASS.get(type(frame))
    if row is None:
        raise ProtocolError(f"cannot encode frame of type {type(frame).__name__}")
    return row.layout.encode(frame, bytes((row.tag,)))


def encode_frame(frame: Frame, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame: 4-byte length prefix + tag byte + fields."""
    return frame_buffer(_encode_payload(frame), max_frame=max_frame)


def decode_frame_payload(payload: bytes) -> Frame:
    """Decode the payload of one frame (length prefix stripped)."""
    row = _BY_TAG.get(payload[0]) if payload else None
    if row is None:
        raise ProtocolError(
            f"unknown frame tag {payload[:1].hex() or '(empty payload)'}: "
            f"wire v{CLUSTER_WIRE_VERSION} frames are binary — is the peer older?"
        )
    values, pos = row.layout.read(payload, 1)
    if pos != len(payload):
        raise ProtocolError(f"{row.name} frame: {len(payload) - pos} trailing bytes")
    frame = row.cls(**values)
    if row.check is not None:
        row.check(frame)
    return frame


def decode_frame(data: bytes, max_frame: int = MAX_FRAME_BYTES) -> Frame:
    """Decode a complete frame buffer (header + payload, nothing else)."""
    return decode_frame_payload(split_frame_buffer(data, max_frame=max_frame))


# ----------------------------------------------------------------------
# Async stream helpers (framing mechanics live in repro.net.framing)
# ----------------------------------------------------------------------

# Net-plane instrumentation lives on the process-global registry (one
# transport, one scrape), created lazily so importing the codec never
# touches the registry; each (frame type, direction) pair binds its
# two series on first use.
_net_series: dict[tuple[type, str], tuple] = {}


def _record_frame(frame: Frame, payload_len: int, direction: str) -> None:
    cls = type(frame)
    series = _net_series.get((cls, direction))
    if series is None:
        registry = default_registry()
        frames = registry.counter(
            "repro_net_frames_total",
            "Wire frames read/written, by frame type and direction",
            ("type", "direction"),
        )
        sizes = registry.histogram(
            "repro_net_frame_payload_bytes",
            "Frame payload sizes in bytes, by direction",
            ("direction",),
            buckets=SIZE_BUCKETS,
        )
        series = _net_series[cls, direction] = (
            frames.labels(type=_BY_CLASS[cls].name, direction=direction),
            sizes.labels(direction=direction),
        )
    series[0].inc()
    series[1].observe(payload_len)


async def read_frame(reader, max_frame: int = MAX_FRAME_BYTES) -> Frame | None:
    """Read one frame from an asyncio stream reader.

    Returns ``None`` on clean EOF (no partial header); raises
    :class:`ProtocolError` on a truncated or oversized frame.
    """
    payload = await read_frame_bytes(reader, max_frame=max_frame)
    if payload is None:
        return None
    frame = decode_frame_payload(payload)
    _record_frame(frame, len(payload), "in")
    return frame


async def write_frame(writer, frame: Frame, max_frame: int = MAX_FRAME_BYTES) -> None:
    """Write one frame and drain — the backpressure point for senders."""
    payload = _encode_payload(frame)
    _record_frame(frame, len(payload), "out")
    await write_frame_bytes(writer, payload, max_frame=max_frame)
