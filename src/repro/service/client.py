"""The participant's side of the supervisor service.

:class:`ParticipantCore` is one round as synchronous calls, with no
socket and no loop: built from the assign frame and a behaviour, it
rebuilds the task from the frame's service envelope (domain bounds +
the shared workload catalogue), resolves the frame's scheme
(:func:`~repro.service.codec.resolve_scheme`) and plays its
participant, whose first message is the scheme's
(:meth:`~repro.core.cbs.CBSScheme.opening`).  :class:`ServiceClient`
is its shell over one connection, computing inline on the loop.

The participant is the one the scheme builds for ``CBSScheme.run``,
salted by the same rule (:func:`~repro.core.scheme.run_salt`), so a
client at seed ``s`` produces byte-identical commitments and proofs to
``scheme.run(..., seed=s)`` — which is what makes service runs
comparable, outcome for outcome, with synchronous simulations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.accounting import CostLedger
from repro.cheating.strategies import Behavior
from repro.core.scheme import RejectReason
from repro.exceptions import ProtocolError
from repro.merkle.hashing import get_hash
from repro.merkle.proof import LeafEncoding
from repro.net.transport import SecurityConfig, close_writer, dial
from repro.obs.logging import get_logger, log_event
from repro.obs.trace import (
    bind_trace,
    current_span,
    current_trace,
    new_span_id,
)
from repro.service.codec import (
    ChallengeFrame,
    CommitmentFrame,
    ErrorFrame,
    Frame,
    ProofsFrame,
    StatsReply,
    StatsRequest,
    SubmissionFrame,
    TaskAssign,
    TaskRequest,
    TraceGetRequest,
    TraceReply,
    VerdictFrame,
    frame_of,
    read_frame,
    resolve_scheme,
    resolve_workload,
    write_frame,
)
from repro.tasks.domain import RangeDomain
from repro.tasks.result import TaskAssignment

_log = get_logger("client")

#: The supervisor frame that answers each participant frame.
_ANSWER = {
    CommitmentFrame: ChallengeFrame,
    ProofsFrame: VerdictFrame,
    SubmissionFrame: VerdictFrame,
}


def _expect(frame: Frame | None, expected: type) -> Frame:
    """``frame``, if it is an ``expected`` (``None``: end of stream)."""
    if frame is None:
        raise ProtocolError("supervisor closed the connection")
    if isinstance(frame, ErrorFrame):
        raise ProtocolError(f"supervisor error: {frame.message}")
    if not isinstance(frame, expected):
        raise ProtocolError(
            f"expected {expected.__name__}, got {type(frame).__name__}"
        )
    return frame


@dataclass
class ParticipantRun:
    """One completed protocol round, verdict plus ground truth (and the
    shell's request → verdict ``latency_s``: a core keeps no clock)."""

    participant: int
    task_id: str
    behavior: str
    honesty_ratio: float
    accepted: bool
    reason: RejectReason
    protocol: str
    n_samples: int
    ledger: CostLedger
    latency_s: float = 0.0


class ParticipantCore:
    """The participant's side of one round, as synchronous calls: an
    assign frame it cannot play, or a frame out of turn, is a
    :class:`~repro.exceptions.ProtocolError`."""

    def __init__(self, assign: TaskAssign, behavior: Behavior) -> None:
        msg = assign.assign
        n = assign.domain_stop - assign.domain_start
        if n != msg.n_inputs:
            raise ProtocolError(
                f"assign frame domain spans {n} inputs, "
                f"AssignMsg says {msg.n_inputs}"
            )
        assignment = TaskAssignment(
            task_id=msg.task_id,
            domain=RangeDomain(assign.domain_start, assign.domain_stop),
            function=resolve_workload(msg.workload),
        )
        scheme = resolve_scheme(
            assign.protocol, assign.n_samples, assign.hash_name,
            assign.sample_hash_name, assign.leaf_encoding,
        )
        digest_size = get_hash(assign.hash_name).digest_size
        result_size = assignment.function.result_size
        if scheme.leaf_encoding is LeafEncoding.RAW and digest_size != result_size:
            # A RAW leaf is its result, which must be one digest wide.
            raise ProtocolError(
                f"raw leaves over {msg.workload}'s {result_size}-byte results "
                f"need a {result_size}-byte hash, not {assign.hash_name}'s "
                f"{digest_size}-byte digest"
            )
        self.assign = assign
        self.scheme = scheme
        self.participant = scheme.participant(assignment, behavior, assign.seed)
        self._awaiting: type | None = None

    def open(self) -> Frame:
        """The round's first frame: what the scheme's participant sends
        first (its commitment, or its whole submission)."""
        return self._send(self.scheme.opening(self.participant))

    def receive(self, frame: Frame | None) -> Frame | ParticipantRun:
        """The reply to ``frame`` (``None``: the stream ended): the
        proofs for a challenge, or the finished round for its verdict."""
        if self._awaiting is None:
            raise ProtocolError(f"no frame awaited, got {type(frame).__name__}")
        frame = _expect(frame, self._awaiting)
        self.participant.ledger.record_receive(frame.msg.wire_size())
        if isinstance(frame, ChallengeFrame):
            return self._send(self.participant.prove(frame.msg))
        verdict, session = frame.msg, self.participant
        if verdict.task_id != session.assignment.task_id:
            raise ProtocolError(
                f"verdict for task {verdict.task_id!r}, "
                f"expected {session.assignment.task_id!r}"
            )
        self._awaiting = None
        return ParticipantRun(
            participant=self.assign.participant,
            task_id=verdict.task_id,
            behavior=session.behavior.name,
            honesty_ratio=session.work.honesty_ratio,
            accepted=verdict.accepted,
            reason=verdict.reject_reason,
            protocol=self.assign.protocol,
            n_samples=self.assign.n_samples,
            ledger=session.ledger,
        )

    def _send(self, msg) -> Frame:
        """``msg``'s frame, booked as sent; its answer is awaited next."""
        self.participant.ledger.record_send(msg.wire_size())
        frame = frame_of(msg)
        self._awaiting = _ANSWER[type(frame)]
        return frame


class ServiceClient:
    """One participant connection to the supervisor service."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open_tcp(
        cls,
        host: str,
        port: int,
        *,
        security: SecurityConfig | None = None,
        connect_retry_s: float = 0.0,
    ) -> "ServiceClient":
        """Dial a supervisor through :func:`repro.net.transport.dial`.

        ``connect_retry_s`` keeps re-dialling a supervisor that has not
        bound its port yet — a participant racing a slow-starting
        server is normal, not an error.  ``security`` carries the
        optional TLS pin and shared secret; when a secret is set the
        client authenticates before the first protocol frame.
        """
        reader, writer = await dial(
            host, port, security, connect_retry_s=connect_retry_s
        )
        return cls(reader, writer)

    async def authenticate(self, security: SecurityConfig) -> None:
        """Run the client side of the HMAC handshake (no-op without a
        secret).  Exposed separately so in-process (memory-duplex)
        connections can authenticate too."""
        try:
            await security.authenticate_outbound(self._reader, self._writer)
        except BaseException:
            await self.close()
            raise

    async def close(self) -> None:
        await close_writer(self._writer)

    async def _recv(self, expected: type) -> Frame:
        return _expect(await read_frame(self._reader), expected)

    async def stats(self) -> dict:
        """Fetch the supervisor's live metrics snapshot."""
        await write_frame(self._writer, StatsRequest())
        return (await self._recv(StatsReply)).stats

    async def trace(self, trace_id: str) -> list[dict]:
        """Fetch one distributed trace's wire spans from the supervisor.

        Returns the supervisor's assembled span list for ``trace_id``
        (each a validated wire dict — feed them to
        :meth:`repro.obs.Span.from_wire` / ``render_waterfall``).
        Empty list when the id is unknown or its spans aged out of the
        bounded buffer.
        """
        await write_frame(self._writer, TraceGetRequest(trace_id=trace_id))
        return list((await self._recv(TraceReply)).spans)

    async def request_task(self, participant: int | None = None) -> TaskAssign:
        """Ask for a slot; returns the supervisor's assign frame.

        When a trace is bound in the calling context, its id plus a
        fresh per-round span id ride the request, so supervisor-side
        records for this task correlate with the client's.
        """
        trace_id = current_trace()
        span_id = (
            (current_span() or new_span_id()) if trace_id is not None else None
        )
        request = TaskRequest(
            participant=participant, trace_id=trace_id, span_id=span_id
        )
        await write_frame(self._writer, request)
        return await self._recv(TaskAssign)

    async def run_participant(
        self, behavior: Behavior, participant: int | None = None
    ) -> ParticipantRun:
        """Run one full protocol round under ``behavior``: the
        :class:`ParticipantCore` of the slot's assign frame, its frames
        written and the supervisor's read back until the verdict.

        When the caller has a trace bound, the whole round runs under
        a fresh span so client records and the supervisor's verdict
        record share ids.
        """
        trace_id = current_trace()
        span_id = new_span_id() if trace_id is not None else None
        with bind_trace(trace_id, span_id):
            start = time.perf_counter()
            core = ParticipantCore(await self.request_task(participant), behavior)
            reply = core.open()
            while not isinstance(reply, ParticipantRun):
                await write_frame(self._writer, reply)
                reply = core.receive(await read_frame(self._reader))
            reply.latency_s = time.perf_counter() - start
            log_event(_log, "round_complete", task_id=reply.task_id,
                      participant=reply.participant, accepted=reply.accepted)
            return reply
