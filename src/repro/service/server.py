"""The supervisor as a concurrent asyncio service.

This is the paper's §4 topology made executable: one long-lived
supervisor process verifying commitment-based submissions from many
remote, untrusted participants it never meets: framed bytes over TCP
or in-process (:func:`memory_duplex`), concurrent sessions,
backpressure, abandoned-session eviction, and verification placed on
the loop or on the execution engine (:mod:`repro.engine`) by its
measured cost.  A §4 broker is one connection that takes many slots
and relays each participant's submission.

:class:`SupervisorServer` is the I/O shell around
:class:`~repro.service.sessions.SupervisorCore`, which holds every
rule of a round: the shell reads a frame, hands it to the core, writes
the reply, and runs each :class:`~repro.service.sessions.Verify` the
core returns before handing its outcome back.  Stats and trace frames
read the registry and the span buffer, not sessions, and stay here.

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
  known and at or under the pool's :func:`inline_budget`; the first
  job of a server, any job after a slow one and every job over the
  budget go through ``loop.run_in_executor`` to the engine's
  ``futures_pool`` (``serial`` has none and is always inline).  A
  thread pool buys loop responsiveness — other sessions' frames move
  while a long fold runs — never GIL parallelism, and not even that
  for a job that ends within the switch interval (the loop cannot
  take the GIL back sooner), so on ``threads`` the budget is
  ``sys.getswitchinterval()`` (5 ms) and on an out-of-process engine
  :data:`INLINE_BUDGET_S` (1 ms).  A server-wide semaphore bounds the
  verifications in flight under both placements;
* a sweeper task periodically evicts abandoned sessions.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import logging
import sys
import time

from repro.core.scheme import VerificationOutcome
from repro.engine import Executor, get_executor
from repro.engine.executor import _metered_map
from repro.exceptions import ProtocolError, ReproError
from repro.net.framing import MAX_FRAME_BYTES
from repro.net.transport import Listener, SecurityConfig
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.spans import SpanBuffer, default_span_buffer
from repro.obs.trace import bind_trace
from repro.service.codec import (
    ErrorFrame,
    Frame,
    StatsReply,
    StatsRequest,
    TraceGetRequest,
    TraceReply,
    read_frame,
    write_frame,
)
from repro.service.sessions import (
    ServiceConfig,
    SessionStore,
    SupervisorCore,
    Verify,
)
from repro.service.verification_jobs import timed


_log = get_logger("service")

#: Thread-CPU seconds a verification may cost and still run on the
#: loop: what decoding a 10 KB submission, done inline already, costs.
INLINE_BUDGET_S = 1e-3
#: Verifications that may wait for or run on the engine at once.
MAX_PENDING_VERIFICATIONS = 128
#: Share of the gap to a *cheaper* reading the cost estimate closes per
#: job (a dearer one replaces it at once): one slow job sends the next
#: to the pool, and ~8 cheap ones in a row return from 2x the budget.
_COST_DECAY = 0.1


def inline_budget(pool: concurrent.futures.Executor) -> float:
    """Thread-CPU seconds a job may cost and still run on the loop,
    given the pool it would otherwise go to.

    A verification is pure Python and holds the GIL for its whole run
    (``hashlib`` lets it go only for inputs of 2 KiB or more), and the
    loop thread must wait out the switch interval before it can force
    the GIL back.  So a job on a thread pool that ends within the
    interval buys neither parallelism nor a responsive loop, only the
    hop: a future, thread wake-ups and GIL hand-offs.  On a thread pool
    the budget is therefore the larger of :data:`INLINE_BUDGET_S` and
    ``sys.getswitchinterval()``, read now; a pool out of the process
    (``processes``, ``cluster``) runs beside the loop, and keeps
    :data:`INLINE_BUDGET_S`.
    """
    if isinstance(pool, concurrent.futures.ThreadPoolExecutor):
        return max(INLINE_BUDGET_S, sys.getswitchinterval())
    return INLINE_BUDGET_S


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

    async def wait_closed(self) -> None:
        return None


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
        clock=time.monotonic,
        registry: MetricsRegistry | None = None,
        span_buffer: SpanBuffer | None = None,
    ) -> None:
        self.config = config
        # engine_options reach backend constructors (the cluster
        # engine's tuning knobs); an Executor instance takes none.
        self._executor = get_executor(engine, workers, **(engine_options or {}))
        self._owns_executor = self._executor is not engine
        self._verify_slots = asyncio.Semaphore(MAX_PENDING_VERIFICATIONS)
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
        self.core = SupervisorCore(
            config, SessionStore(session_ttl, clock, self.registry)
        )
        self.sessions = self.core.sessions
        # security gates the participant socket: optional TLS on the
        # listener, and — when a secret is configured — the repro.net
        # HMAC handshake before any frame is decoded.
        self._listener = Listener(
            self._handle_connection, security, self.registry, "service"
        )
        self._m_connections = self.registry.counter(
            "repro_connections_total",
            "Participant connections that passed the handshake",
        )
        frames = self.registry.counter(
            "repro_frames_total",
            "Service frames processed, by direction",
            ("direction",),
        )
        # Bound once: labels() on every frame was ~3% of the loop.
        self._m_frames_in = frames.labels(direction="in")
        self._m_frames_out = frames.labels(direction="out")
        self._m_errors = self.registry.counter(
            "repro_errors_total",
            "Errors that dropped a connection or request, by site",
            ("site",),
        )
        self._m_latency = self.registry.histogram(
            "repro_submission_latency_seconds",
            "Wall-clock from submission/proofs arrival to verdict",
            buckets=LATENCY_BUCKETS,
        )
        self._sweeper: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the TCP listener; returns the actual (host, port)."""
        address = await self._listener.start(host, port)
        self._ensure_sweeper()
        return address

    def connect_memory(self) -> tuple[asyncio.StreamReader, MemoryStreamWriter]:
        """Open an in-process connection; returns the client endpoint."""
        server_end, client = memory_duplex()
        self._ensure_sweeper()
        self._listener.accept(*server_end)
        return client

    async def stop(self) -> None:
        """Close listener, connections, sweeper and (owned) executor."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None
        # Let in-flight rounds drain briefly, then cancel stragglers.
        await self._listener.stop(grace=1.0)
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

    async def _handle_connection(self, reader, writer) -> None:
        # The next frame is read only once the last was answered: a
        # peer that floods fills its own socket buffer, and a busy
        # verification pool slows exactly the connections waiting on it.
        self._m_connections.inc()
        trace_id = span_id = None
        try:
            while True:
                frame = await read_frame(reader, max_frame=MAX_FRAME_BYTES)
                if frame is None:
                    return
                self._m_frames_in.inc()
                trace_id, span_id = self.core.trace_for(frame)
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
        await write_frame(writer, frame, max_frame=MAX_FRAME_BYTES)
        self._m_frames_out.inc()

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, frame: Frame) -> Frame:
        if isinstance(frame, StatsRequest):
            return StatsReply(stats=self.registry.snapshot())
        if isinstance(frame, TraceGetRequest):
            return TraceReply(
                trace_id=frame.trace_id,
                spans=tuple(
                    s.to_wire() for s in self.span_buffer.trace(frame.trace_id)
                ),
            )
        reply = self.core.receive(frame)
        if isinstance(reply, Verify):
            outcome = await self._offload(reply.job, *reply.args)
            reply = self.core.verdict(reply, outcome)
        return reply

    # ------------------------------------------------------------------
    # Verification placement
    # ------------------------------------------------------------------

    async def _offload(self, job, *args) -> VerificationOutcome:
        """Run one verification job where it is cheapest, bounded.

        Inline on the loop when the server's cost estimate is known and
        within :func:`inline_budget` of the pool (or the engine has no
        pool), otherwise on the engine's ``futures_pool``.  The
        semaphore caps verifications in flight server-wide either way.
        """
        started = time.perf_counter()
        async with self._verify_slots:
            pool = self._executor.futures_pool
            inline = pool is None or (
                self._job_cost is not None
                and self._job_cost <= inline_budget(pool)
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
