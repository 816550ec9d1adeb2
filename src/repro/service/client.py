"""Async participant client for the supervisor service.

One :class:`ServiceClient` drives one connection through a full
protocol round: request a slot, rebuild the
:class:`~repro.tasks.result.TaskAssignment` from the assign frame's
service envelope (domain bounds + the shared workload catalogue),
resolve the frame's scheme parameters into the scheme
(:func:`~repro.service.codec.resolve_scheme`), play its participant
side under a behaviour, and return the verdict with ground truth
attached.

The participant is the one the scheme builds for ``CBSScheme.run``,
salted by the same rule (:func:`~repro.core.scheme.run_salt`), so a
client at seed ``s`` produces byte-identical commitments and proofs to
``scheme.run(..., seed=s)`` — which is what makes service runs
comparable, outcome for outcome, with synchronous simulations.
"""

from __future__ import annotations

import asyncio
import functools
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
    read_frame,
    resolve_scheme,
    resolve_workload,
    write_frame,
)
from repro.tasks.domain import RangeDomain
from repro.tasks.result import TaskAssignment

_log = get_logger("client")


@dataclass
class ParticipantRun:
    """One completed protocol round, verdict plus ground truth."""

    participant: int
    task_id: str
    behavior: str
    honesty_ratio: float
    accepted: bool
    reason: RejectReason
    protocol: str
    n_samples: int
    latency_s: float
    ledger: CostLedger


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

    # ------------------------------------------------------------------

    async def _send(self, frame: Frame) -> None:
        await write_frame(self._writer, frame)

    async def _recv(self, expected: type) -> Frame:
        frame = await read_frame(self._reader)
        if frame is None:
            raise ProtocolError("supervisor closed the connection")
        if isinstance(frame, ErrorFrame):
            raise ProtocolError(f"supervisor error: {frame.message}")
        if not isinstance(frame, expected):
            raise ProtocolError(
                f"expected {expected.__name__}, got {type(frame).__name__}"
            )
        return frame

    # ------------------------------------------------------------------

    async def stats(self) -> dict:
        """Fetch the supervisor's live metrics snapshot."""
        await self._send(StatsRequest())
        reply = await self._recv(StatsReply)
        assert isinstance(reply, StatsReply)
        return reply.stats

    async def trace(self, trace_id: str) -> list[dict]:
        """Fetch one distributed trace's wire spans from the supervisor.

        Returns the supervisor's assembled span list for ``trace_id``
        (each a validated wire dict — feed them to
        :meth:`repro.obs.Span.from_wire` / ``render_waterfall``).
        Empty list when the id is unknown or its spans aged out of the
        bounded buffer.
        """
        await self._send(TraceGetRequest(trace_id=trace_id))
        reply = await self._recv(TraceReply)
        assert isinstance(reply, TraceReply)
        return list(reply.spans)

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
        await self._send(
            TaskRequest(
                participant=participant, trace_id=trace_id, span_id=span_id
            )
        )
        assign = await self._recv(TaskAssign)
        n = assign.domain_stop - assign.domain_start
        if n != assign.assign.n_inputs:
            raise ProtocolError(
                f"assign frame domain spans {n} inputs, "
                f"AssignMsg says {assign.assign.n_inputs}"
            )
        return assign

    @staticmethod
    def build_assignment(assign: TaskAssign) -> TaskAssignment:
        """Reconstruct the task from the wire envelope (shared kernel)."""
        return TaskAssignment(
            task_id=assign.assign.task_id,
            domain=RangeDomain(assign.domain_start, assign.domain_stop),
            function=resolve_workload(assign.assign.workload),
        )

    async def run_participant(
        self,
        behavior: Behavior,
        participant: int | None = None,
        compute_pool=None,
    ) -> ParticipantRun:
        """Run one full protocol round under ``behavior``.

        ``compute_pool`` is an optional ``concurrent.futures`` pool
        for the CPU-heavy participant side (evaluating ``f``, building
        the Merkle tree) so a load generator's event loop stays
        responsive; ``None`` computes inline.

        When the caller has a trace bound, the whole round runs under
        a fresh span so client records and the supervisor's verdict
        record share ids.
        """
        trace_id = current_trace()
        span_id = new_span_id() if trace_id is not None else None
        with bind_trace(trace_id, span_id):
            return await self._run_participant(
                behavior, participant, compute_pool
            )

    async def _run_participant(
        self,
        behavior: Behavior,
        participant: int | None = None,
        compute_pool=None,
    ) -> ParticipantRun:
        start = time.perf_counter()
        assign = await self.request_task(participant)
        assignment = self.build_assignment(assign)
        scheme = resolve_scheme(
            assign.protocol, assign.n_samples, assign.hash_name,
            assign.sample_hash_name, assign.leaf_encoding,
        )
        if scheme.leaf_encoding is LeafEncoding.RAW:
            # A RAW leaf is its result, which must be one digest wide.
            digest_size = get_hash(assign.hash_name).digest_size
            result_size = assignment.function.result_size
            if digest_size != result_size:
                raise ProtocolError(
                    f"raw leaves over {assign.assign.workload}'s "
                    f"{result_size}-byte results need a {result_size}-byte "
                    f"hash, not {assign.hash_name}'s {digest_size}-byte digest"
                )
        session = scheme.participant(assignment, behavior, assign.seed)

        if assign.protocol == "cbs":
            commitment = await self._compute(
                compute_pool, session.compute_and_commit
            )
            await self._send(CommitmentFrame(msg=commitment))
            challenge = await self._recv(ChallengeFrame)
            bundle = await self._compute(
                compute_pool, session.prove, challenge.msg
            )
            await self._send(ProofsFrame(msg=bundle))
        else:
            submission = await self._compute(
                compute_pool, session.compute_and_submit
            )
            await self._send(SubmissionFrame(msg=submission))

        verdict = await self._recv(VerdictFrame)
        if verdict.msg.task_id != assignment.task_id:
            raise ProtocolError(
                f"verdict for task {verdict.msg.task_id!r}, "
                f"expected {assignment.task_id!r}"
            )
        assert session.work is not None
        log_event(
            _log,
            "round_complete",
            task_id=assignment.task_id,
            participant=assign.participant,
            accepted=verdict.msg.accepted,
        )
        return ParticipantRun(
            participant=assign.participant,
            task_id=assignment.task_id,
            behavior=behavior.name,
            honesty_ratio=session.work.honesty_ratio,
            accepted=verdict.msg.accepted,
            reason=verdict.msg.reject_reason,
            protocol=assign.protocol,
            n_samples=assign.n_samples,
            latency_s=time.perf_counter() - start,
            ledger=session.ledger,
        )

    @staticmethod
    async def _compute(pool, fn, *args):
        if pool is None:
            return fn(*args)
        return await asyncio.get_running_loop().run_in_executor(
            pool, functools.partial(fn, *args)
        )
