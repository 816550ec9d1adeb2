"""The supervisor as a concurrent asyncio service.

This is the paper's §4 topology made executable: one long-lived
supervisor process verifying commitment-based submissions from many
remote, untrusted participants it never meets: framed bytes over TCP
or in-process (:func:`memory_duplex`), concurrent sessions,
backpressure, abandoned-session eviction, and verification placed on
the loop or on the execution engine (:mod:`repro.engine`) by its
measured cost.  A §4 broker is one connection that takes many slots
and relays each participant's submission.

Determinism is preserved end to end: task ``i`` gets subdomain ``i``
of the configured domain and seed ``derive_seed(config.seed, i)`` —
exactly the job list :class:`~repro.grid.simulation.GridSimulation`
builds — so a service run at a fixed seed produces byte-identical
:class:`~repro.core.scheme.VerificationOutcome`s to the synchronous
scheme layer (the parity tests pin this).  Both are arithmetic on
``i``, done when slot ``i`` is requested: the server holds no per-slot
table, and what it remembers of a slot once its verdict is out is one
byte (:mod:`repro.service.sessions`).

Concurrency model:

* one coroutine per connection runs read -> dispatch -> write: the next
  frame is read only after the last was answered (CBS rounds are
  stateful, so per-connection order matters), and a flooding
  participant fills its own socket buffer — TCP flow control slows the
  peer, never the supervisor;
* every verification is timed where it runs, in thread CPU seconds
  (:func:`~repro.service.verification_jobs.timed`), into one server-wide
  estimate that jumps to a dearer reading at once and decays towards
  cheaper ones.  A job runs inline on the loop iff the estimate is
  known and at or under :data:`INLINE_BUDGET_S`; the first job of a
  server, any job after a slow one and every job over the budget go
  through ``loop.run_in_executor`` to the engine's ``futures_pool``
  (``serial`` has none and is always inline).  The pool buys loop
  responsiveness — other sessions' frames move while a long fold runs
  — never GIL parallelism, so a sub-millisecond job is cheaper where
  its frame landed.  A server-wide semaphore bounds the verifications
  in flight under both placements;
* a sweeper task periodically evicts abandoned sessions.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from dataclasses import dataclass

from repro.core.cbs import CBSSupervisor
from repro.core.protocol import (
    AssignMsg,
    CommitmentMsg,
    NICBSSubmissionMsg,
    ProofBundleMsg,
    VerdictMsg,
)
from repro.core.scheme import VerificationOutcome
from repro.engine import Executor, derive_seed, get_executor
from repro.engine.executor import _metered_map
from repro.engine.seeding import check_derived_seeds
from repro.exceptions import ProtocolError, ReproError
from repro.merkle.hashing import get_hash
from repro.net.framing import MAX_FRAME_BYTES
from repro.net.transport import SecurityConfig
from repro.merkle.tree import LeafEncoding
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.spans import SpanBuffer, default_span_buffer
from repro.obs.trace import bind_trace
from repro.service.codec import (
    ASSIGN_SEED,
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
    resolve_workload,
    write_frame,
)
from repro.service.sessions import (
    Session,
    SessionState,
    SessionStore,
    task_name,
)
from repro.service.verification_jobs import (
    timed,
    verify_cbs_job,
    verify_nicbs_job,
)
from repro.tasks.domain import RangeDomain
from repro.tasks.result import TaskAssignment


@dataclass
class ServiceConfig:
    """Everything one service deployment needs.

    Mirrors :class:`~repro.grid.simulation.SimulationConfig` minus the
    behaviours (those live client-side, where cheating happens): the
    global domain is partitioned across ``n_participants`` slots, task
    ``i`` is seeded ``derive_seed(seed, i)``, and the scheme
    parameters are shipped to clients in the assign frame.

    Only :class:`~repro.tasks.domain.RangeDomain` travels over the
    wire — remote clients rebuild their subdomain from two integers,
    which is also how real grids describe work units (key ranges,
    chunk ids).
    """

    domain: RangeDomain
    workload: str = "PasswordSearch"
    protocol: str = "ni-cbs"
    n_samples: int = 16
    hash_name: str = "sha256"
    sample_hash_name: str = "sha256"
    leaf_encoding: LeafEncoding = LeafEncoding.HASHED
    n_participants: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in ("cbs", "ni-cbs"):
            raise ProtocolError(f"unknown protocol {self.protocol!r}")
        if not isinstance(self.domain, RangeDomain):
            raise ProtocolError(
                "the service ships domain bounds on the wire; only "
                f"RangeDomain is supported, got {type(self.domain).__name__}"
            )
        if self.n_participants < 1:
            raise ProtocolError(
                f"n_participants must be >= 1, got {self.n_participants}"
            )
        resolve_workload(self.workload)  # fail fast on unknown kernels
        # Participant i is assigned derive_seed(seed, i): the encoder
        # trusts its caller, so a child outside the assign frame's seed
        # field would be refused by every client, one session at a time.
        check_derived_seeds(
            self.seed, self.n_participants, ASSIGN_SEED.lo, ASSIGN_SEED.hi,
            f"the assign frame's {ASSIGN_SEED.lo}..{ASSIGN_SEED.hi}", ProtocolError,
        )


_log = get_logger("service")

#: Thread-CPU seconds a verification may cost and still run on the
#: loop: what decoding a 10 KB submission, done inline already, costs.
INLINE_BUDGET_S = 1e-3
#: Share of the gap to a *cheaper* reading the cost estimate closes per
#: job (a dearer one replaces it at once): one slow job sends the next
#: to the pool, and ~8 cheap ones in a row return from 2x the budget.
_COST_DECAY = 0.1


# ----------------------------------------------------------------------
# In-process transport (tests and self-contained load generation)
# ----------------------------------------------------------------------


class MemoryStreamWriter:
    """Write end of an in-process duplex: feeds the peer's reader.

    Duck-types the slice of :class:`asyncio.StreamWriter` the codec
    and server use (``write``/``drain``/``close``/``wait_closed``), so
    the same connection handler serves TCP sockets and tests without a
    loopback socket.
    """

    def __init__(self, peer_reader: asyncio.StreamReader) -> None:
        self._peer = peer_reader
        self._closed = False

    def write(self, data: bytes) -> None:
        if self._closed:
            raise ProtocolError("write to closed in-process transport")
        self._peer.feed_data(data)

    async def drain(self) -> None:
        await asyncio.sleep(0)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer.feed_eof()

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return None

    def get_extra_info(self, name: str, default=None):
        return default


def memory_duplex() -> tuple[
    tuple[asyncio.StreamReader, MemoryStreamWriter],
    tuple[asyncio.StreamReader, MemoryStreamWriter],
]:
    """Two connected (reader, writer) endpoints in one process."""
    a_reader = asyncio.StreamReader()
    b_reader = asyncio.StreamReader()
    return (a_reader, MemoryStreamWriter(b_reader)), (
        b_reader,
        MemoryStreamWriter(a_reader),
    )


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


class SupervisorServer:
    """Concurrent supervisor service over TCP or in-process streams."""

    def __init__(
        self,
        config: ServiceConfig,
        engine: str | Executor = "threads",
        workers: int | None = None,
        *,
        engine_options: dict | None = None,
        security: SecurityConfig | None = None,
        session_ttl: float = 300.0,
        max_pending_verifications: int = 128,
        max_frame: int = MAX_FRAME_BYTES,
        clock=time.monotonic,
        registry: MetricsRegistry | None = None,
        span_buffer: SpanBuffer | None = None,
    ) -> None:
        if max_pending_verifications < 1:
            raise ProtocolError(
                "max_pending_verifications must be >= 1, "
                f"got {max_pending_verifications}"
            )
        self.config = config
        # engine_options reach backend constructors (the cluster
        # engine's tuning knobs); an Executor instance takes none.
        self._executor = get_executor(engine, workers, **(engine_options or {}))
        self._owns_executor = self._executor is not engine
        # security gates the participant socket: optional TLS on the
        # listener, and — when a secret is configured — the repro.net
        # HMAC handshake before any frame is decoded.
        self._security = security
        self._max_frame = max_frame
        self._verify_slots = asyncio.Semaphore(max_pending_verifications)
        # Estimated thread-CPU seconds of one verification; None until
        # the first job has been timed (see _offload).
        self._job_cost: float | None = None
        # A fresh per-instance registry by default (exactly-counted,
        # isolated — what tests and embedded servers want); the CLI
        # injects the process-global default registry so one scrape
        # covers every subsystem.
        self.registry = registry if registry is not None else MetricsRegistry()
        # Completed spans (local and cluster-assembled) served over the
        # authenticated trace_get frame; the default is the process
        # global so the coordinator's assembly is visible here.
        self.span_buffer = (
            span_buffer if span_buffer is not None else default_span_buffer()
        )
        self.sessions = SessionStore(
            ttl=session_ttl, clock=clock, registry=self.registry
        )
        self._m_connections = self.registry.counter(
            "repro_connections_total", "Participant connections accepted"
        )
        frames = self.registry.counter(
            "repro_frames_total",
            "Service frames processed, by direction",
            ("direction",),
        )
        # Bound once: labels() on every frame was ~3% of the loop.
        self._m_frames_in = frames.labels(direction="in")
        self._m_frames_out = frames.labels(direction="out")
        self._m_verifications = self.registry.counter(
            "repro_verifications_total", "Verifications completed"
        )
        self._m_errors = self.registry.counter(
            "repro_errors_total",
            "Errors that dropped a connection or request, by site",
            ("site",),
        )
        self._m_auth_failures = self.registry.counter(
            "repro_auth_failures_total",
            "Rejected authentication handshakes, by plane",
            ("plane",),
        )
        self._m_latency = self.registry.histogram(
            "repro_submission_latency_seconds",
            "Wall-clock from submission/proofs arrival to verdict",
            buckets=LATENCY_BUCKETS,
        )

        self._function = resolve_workload(config.workload)
        # Slot subdomains are cut when requested; a domain with fewer
        # inputs than slots still fails here, not at the first request.
        config.domain.part(0, config.n_participants)
        # Where auto-assignment looks next; slots behind it are taken
        # unless eviction freed them.
        self._cursor = 0

        self._server: asyncio.base_events.Server | None = None
        self._sweeper: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the TCP listener; returns the actual (host, port)."""
        if self._server is not None:
            raise ProtocolError("server already started")
        # A *sync* connected-callback that spawns our own task: if
        # start_server wrapped a coroutine itself, its done-callback
        # would call task.exception() and log noise when stop()
        # cancels straggling connections.
        ssl_context = (
            self._security.server_ssl_context()
            if self._security is not None
            else None
        )
        self._server = await asyncio.start_server(
            self._spawn_connection, host, port, ssl=ssl_context
        )
        self._ensure_sweeper()
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def connect_memory(self) -> tuple[asyncio.StreamReader, MemoryStreamWriter]:
        """Open an in-process connection; returns the client endpoint."""
        (server_reader, server_writer), client = memory_duplex()
        self._ensure_sweeper()
        self._spawn_connection(server_reader, server_writer)
        return client

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ProtocolError("start() the server before serve_forever()")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close listener, connections, sweeper and (owned) executor."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            # Let in-flight rounds drain briefly, then cancel stragglers.
            _done, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=1.0
            )
            for task in pending:
                task.cancel()
            for task in pending:
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await task
        self._conn_tasks.clear()
        if self._owns_executor:
            self._executor.close()

    def _ensure_sweeper(self) -> None:
        if self._sweeper is None or self._sweeper.done():
            self._sweeper = asyncio.ensure_future(self._sweep_loop())

    async def _sweep_loop(self) -> None:
        interval = max(self.sessions.ttl / 4.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            evicted = self.sessions.evict_stale()
            if evicted:
                log_event(
                    _log,
                    "sessions_evicted",
                    count=len(evicted),
                    task_ids=evicted[:8],
                )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def outcomes(self) -> dict[str, VerificationOutcome]:
        """The most recent verdicts (``sessions.RECENT_OUTCOMES`` of them)."""
        return self.sessions.outcomes

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _spawn_connection(self, reader, writer) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(self, reader, writer) -> None:
        self._m_connections.inc()
        try:
            if self._security is not None:
                # The HMAC handshake runs underneath the codec: a peer
                # without the secret is cut off here, before a single
                # application frame is decoded.
                try:
                    await self._security.authenticate_inbound(reader, writer)
                except (ReproError, ConnectionError, OSError) as exc:
                    self._m_auth_failures.labels(plane="service").inc()
                    log_event(
                        _log,
                        "auth_failure",
                        level=logging.WARNING,
                        plane="service",
                        error=str(exc),
                    )
                    return
            await self._handle_connection(reader, writer)
        finally:
            with contextlib.suppress(Exception):
                writer.close()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await writer.wait_closed()

    async def _handle_connection(self, reader, writer) -> None:
        # The next frame is read only once the last was answered: a
        # peer that floods fills its own socket buffer, and a busy
        # verification pool slows exactly the connections waiting on it.
        trace_id = span_id = None
        try:
            while True:
                frame = await read_frame(reader, max_frame=self._max_frame)
                if frame is None:
                    return
                self._m_frames_in.inc()
                trace_id, span_id = self._trace_for(frame)
                with bind_trace(trace_id, span_id):
                    await self._send(writer, await self._dispatch(frame))
        except ReproError as exc:
            # A misbehaving peer gets one terminal error frame, then
            # the connection closes; the server itself never crashes.
            self._m_errors.labels(site="connection").inc()
            with bind_trace(trace_id, span_id):
                log_event(
                    _log,
                    "connection_error",
                    level=logging.WARNING,
                    site="connection",
                    error=str(exc),
                )
            with contextlib.suppress(Exception):
                await self._send(writer, ErrorFrame(str(exc)))

    async def _send(self, writer, frame: Frame) -> None:
        await write_frame(writer, frame, max_frame=self._max_frame)
        self._m_frames_out.inc()

    def _trace_for(self, frame: Frame) -> tuple[str | None, str | None]:
        """The trace context a frame belongs to.

        A task request carries its own ids; protocol frames inherit
        the ids their session was opened with (looked up without
        touching the TTL clock — unknown tasks fail in the handler).
        """
        if isinstance(frame, TaskRequest):
            return frame.trace_id, frame.span_id
        task_id = getattr(getattr(frame, "msg", None), "task_id", None)
        if task_id is not None:
            session = self.sessions.peek(task_id)
            if session is not None:
                return session.trace_id, session.span_id
        return None, None

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, frame: Frame) -> Frame:
        if isinstance(frame, TaskRequest):
            return self._handle_task_request(frame)
        if isinstance(frame, CommitmentFrame):
            return self._handle_commitment(frame.msg)
        if isinstance(frame, ProofsFrame):
            return await self._handle_proofs(frame.msg)
        if isinstance(frame, SubmissionFrame):
            return await self._handle_submission(frame.msg)
        if isinstance(frame, StatsRequest):
            return StatsReply(stats=self.registry.snapshot())
        if isinstance(frame, TraceGetRequest):
            return TraceReply(
                trace_id=frame.trace_id,
                spans=tuple(
                    s.to_wire() for s in self.span_buffer.trace(frame.trace_id)
                ),
            )
        raise ProtocolError(
            f"unexpected frame {type(frame).__name__} at the supervisor"
        )

    def _handle_task_request(self, request: TaskRequest) -> TaskAssign:
        config = self.config
        n_slots = config.n_participants
        if request.participant is not None:
            index = request.participant
            if not 0 <= index < n_slots:
                raise ProtocolError(
                    f"participant {index} outside [0, {n_slots})"
                )
        else:
            index = self.sessions.first_free(self._cursor, n_slots)
            if index is None:
                # Nothing ahead of the cursor, but eviction may have
                # freed slots behind it.
                index = self.sessions.first_free(0, self._cursor)
            if index is None:
                raise ProtocolError("no unassigned participant slots left")
            self._cursor = index + 1
        domain = config.domain.part(index, n_slots)
        assignment = TaskAssignment(
            task_id=task_name(index), domain=domain, function=self._function
        )
        seed = derive_seed(config.seed, index)
        self.sessions.create(
            task_id=assignment.task_id,
            participant=index,
            assignment=assignment,
            seed=seed,
            protocol=config.protocol,
            trace_id=request.trace_id,
            span_id=request.span_id,
        )
        log_event(
            _log,
            "task_assigned",
            level=logging.DEBUG,
            task_id=assignment.task_id,
            participant=index,
        )
        return TaskAssign(
            assign=AssignMsg(
                task_id=assignment.task_id,
                n_inputs=assignment.n_inputs,
                workload=config.workload,
            ),
            participant=index,
            domain_start=domain.start,
            domain_stop=domain.stop,
            protocol=config.protocol,
            n_samples=config.n_samples,
            hash_name=config.hash_name,
            sample_hash_name=config.sample_hash_name,
            leaf_encoding=config.leaf_encoding.value,
            seed=seed,
        )

    def _handle_commitment(self, msg: CommitmentMsg) -> ChallengeFrame:
        if self.config.protocol != "cbs":
            raise ProtocolError("commitments only arrive in interactive CBS")
        session = self.sessions.get(msg.task_id)
        # Validate and draw the challenge with the real CBS supervisor
        # (cheap: digest-size checks plus m RNG draws); the heavyweight
        # verify happens off-loop when the proofs arrive.
        supervisor = CBSSupervisor(
            session.assignment,
            n_samples=self.config.n_samples,
            hash_fn=get_hash(self.config.hash_name),
            leaf_encoding=self.config.leaf_encoding,
            seed=session.seed,
        )
        supervisor.receive_commitment(msg)
        challenge = supervisor.make_challenge()
        self.sessions.record_commitment(msg.task_id, msg, challenge)
        return ChallengeFrame(msg=challenge)

    async def _handle_proofs(self, msg: ProofBundleMsg) -> VerdictFrame:
        session = self.sessions.begin_verification(
            msg.task_id, SessionState.COMMITTED
        )
        assert session.commitment is not None
        outcome = await self._offload(
            verify_cbs_job,
            session.assignment,
            self.config.n_samples,
            self.config.hash_name,
            self.config.leaf_encoding.value,
            session.seed,
            session.commitment,
            msg,
        )
        return self._record_verdict(session, outcome)

    async def _handle_submission(self, msg: NICBSSubmissionMsg) -> VerdictFrame:
        if self.config.protocol != "ni-cbs":
            raise ProtocolError("one-shot submissions only arrive in NI-CBS")
        session = self.sessions.begin_verification(
            msg.task_id, SessionState.ASSIGNED
        )
        outcome = await self._offload(
            verify_nicbs_job,
            session.assignment,
            self.config.n_samples,
            self.config.sample_hash_name,
            self.config.hash_name,
            self.config.leaf_encoding.value,
            msg,
        )
        return self._record_verdict(session, outcome)

    def _record_verdict(
        self, session: Session, outcome: VerificationOutcome
    ) -> VerdictFrame:
        self.sessions.record_outcome(session.task_id, outcome)
        self._m_verifications.inc()
        verdict = "accepted" if outcome.accepted else outcome.reason.value
        log_event(
            _log,
            "verdict",
            task_id=session.task_id,
            participant=session.participant,
            outcome=verdict,
        )
        return VerdictFrame(
            msg=VerdictMsg(
                task_id=session.task_id,
                accepted=outcome.accepted,
                reason="" if outcome.accepted else outcome.reason.value,
            )
        )

    # ------------------------------------------------------------------
    # Verification placement
    # ------------------------------------------------------------------

    async def _offload(self, job, *args) -> VerificationOutcome:
        """Run one verification job where it is cheapest, bounded.

        Inline on the loop when the server's cost estimate is known and
        within :data:`INLINE_BUDGET_S` (or the engine has no pool),
        otherwise on the engine's ``futures_pool``.  The semaphore caps
        verifications in flight server-wide either way.
        """
        started = time.perf_counter()
        async with self._verify_slots:
            pool = self._executor.futures_pool
            inline = pool is None or (
                self._job_cost is not None
                and self._job_cost <= INLINE_BUDGET_S
            )
            # Each verification is a one-item engine map that bypasses
            # Executor.map: meter it here, under the name of the engine
            # that actually ran it, or the engine plane goes dark under
            # a pure service workload.
            with _metered_map("serial" if inline else self._executor.name, 1):
                if inline:
                    outcome, cost = timed(job, *args)
                else:
                    loop = asyncio.get_running_loop()
                    outcome, cost = await loop.run_in_executor(
                        pool, timed, job, *args
                    )
        self._m_latency.observe(time.perf_counter() - started)
        known = self._job_cost
        if known is not None and cost < known:
            cost = known + _COST_DECAY * (cost - known)
        self._job_cost = cost
        return outcome
