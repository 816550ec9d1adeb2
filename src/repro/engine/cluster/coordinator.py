"""Cluster coordinator: the distributed :class:`Executor` backend.

:class:`ClusterExecutor` satisfies the engine protocol — ``map(fn,
items)`` with results in submission order — by sharding typed
``(fn, args, kwargs)`` job specs (:mod:`repro.service.jobcodec`:
registered callable names plus schema-checked arguments — data, never
code) across remote worker daemons
(:mod:`repro.engine.cluster.worker`) over the service layer's
length-prefixed frame protocol.  Call sites do not change: anything
that dispatches through :func:`repro.engine.executor.get_executor`
(``GridSimulation``, ``analysis.montecarlo``, ``analysis.sweep``, the
supervisor service, every ``--engine`` CLI flag) gains multi-host
execution by naming ``"cluster"``.

Topology and scheduling:

* the coordinator binds a TCP listener; workers dial in and register
  with a ``hello`` frame (id, capacity, wire version);
* each worker gets a **bounded in-flight window** (capacity ×
  ``window_depth`` chunks): a slow worker fills its window and simply
  stops receiving work — backpressure, not starvation of the fast
  workers;
* scheduling is **throughput-adaptive**: every completed chunk updates
  the worker's EWMA jobs/sec, and the next chunk sent to that worker
  is sized so it takes roughly ``chunk_target_s`` seconds, clamped to
  ``[chunk_min, chunk_max]`` and to a fair share of the remaining
  queue.  Fast workers get bigger chunks, stragglers get smaller ones
  — resizing regroups jobs at the transport layer only, so results
  stay byte-identical to serial no matter how the chunks fall;
* liveness is EOF *plus* heartbeats: a SIGKILLed worker drops its
  socket and is detected immediately; a silently wedged one trips the
  heartbeat timeout.  Either way its in-flight chunks are disbanded
  and their jobs requeued (bounded by ``max_attempts`` per job);
* ``job_timeout`` (optional) additionally requeues chunks stuck on a
  *live but slow* worker — the budget scales with the chunk's job
  count, so a big chunk is not punished for being big.  The race
  between the slow original and the reassigned copy is settled per
  job, exactly once: the **first arriving result wins** (every job is
  a pure function of its payload, so the copies are byte-identical)
  and the loser's duplicate is dropped cleanly — never double-set,
  never double-requeued;
* a chunk's ordered outcomes arrive in exactly one ``result`` frame,
  and only from the worker the chunk was sent to — an answer for
  another worker's chunk is a protocol violation that drops the sender;
* results are reassembled in submission order, which is what makes a
  cluster population run produce byte-identical
  :class:`~repro.grid.report.DetectionReport`'s to the serial backend.

Deployment modes: **spawn-local** (default — the coordinator launches
``workers`` daemon subprocesses on this host; benches, tests, and the
CLI's ``--engine cluster --cluster-workers N``) and **external**
(``spawn_local=False`` — bind a fixed port and let operators start
workers on other hosts with ``python -m repro.cli worker``;
``min_workers`` optionally blocks the first dispatch until that many
have registered).

The coordinator's event loop runs on a dedicated background thread, so
the synchronous ``map()`` contract holds whether the caller is a plain
script, a pytest process, or the supervisor service (whose asyncio
loop reaches the cluster through :attr:`ClusterExecutor.futures_pool`).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import logging
import math
import os
import subprocess
import sys
import threading
import time
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Sequence

from repro.engine.executor import Executor, _metered_map, default_workers
from repro.exceptions import CodecError, EngineError, ReproError
from repro.net.transport import SecurityConfig
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import SIZE_BUCKETS, MetricsRegistry, log_buckets
from repro.obs.spans import Span, SpanBuffer, default_span_buffer
from repro.obs.trace import bind_trace, current_trace, new_span_id
from repro.service.codec import (
    CLUSTER_WIRE_VERSION,
    MAX_CLUSTER_FRAME_BYTES,
    MAX_CLUSTER_PAYLOAD_BYTES,
    ByeFrame,
    JobFrame,
    ResultFrame,
    WorkerHello,
    decode_cluster_outcomes,
    decode_cluster_payload,
    encode_cluster_chunk,
    read_frame,
    write_frame,
)
from repro.service.jobcodec import encode_job

#: Seconds between liveness beacons requested from spawned workers.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: Seconds of silence (no frame, no heartbeat) before a worker is
#: declared dead.  Generous relative to the beacon interval: EOF
#: detection catches crashes instantly, this only fences network
#: half-death.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Smallest chunk the adaptive scheduler will send.  One job is the
#: probing size: an unmeasured (or demoted) worker costs at most one
#: job's latency to size up.
DEFAULT_CHUNK_MIN = 1

#: Largest chunk the adaptive scheduler will send.  Bounds both the
#: work stranded on a worker that dies and the result bytes one frame
#: has to carry.
DEFAULT_CHUNK_MAX = 32

#: Target seconds of work per chunk: a worker's next chunk is sized as
#: ``ewma_rate * chunk_target_s`` jobs (clamped).  Small enough to
#: re-observe throughput frequently, large enough to amortize framing.
DEFAULT_CHUNK_TARGET_S = 0.25

#: EWMA smoothing for per-worker throughput samples.  0.4 weights the
#: newest chunk heavily (workers change speed when co-tenants arrive)
#: without letting one noisy sample whipsaw the chunk size.
EWMA_ALPHA = 0.4

#: Byte budget for one outgoing chunk payload: leave chunk-envelope
#: headroom under the hard payload cap so regrouped jobs always frame.
_CHUNK_BYTE_BUDGET = MAX_CLUSTER_PAYLOAD_BYTES // 2

#: Chunk-size histogram buckets: chunk job counts are small powers-ish.
_CHUNK_JOBS_BUCKETS = tuple(float(1 << i) for i in range(11))

#: The counter keys of :attr:`ClusterExecutor.stats` and what each one
#: reads off the coordinator.
_STAT_COUNTERS = {
    "jobs_completed": attrgetter("_m_jobs_completed.value"),
    "jobs_requeued": attrgetter("_m_jobs_requeued.value"),
    "chunks_completed": attrgetter("_m_chunks_completed.value"),
    "chunks_requeued": attrgetter("_m_chunks_requeued.value"),
    "result_bytes": attrgetter("_m_result_bytes.sum"),
    "workers_lost": attrgetter("_m_workers_lost.value"),
    "auth_rejects": attrgetter("_m_auth_rejects.value"),
    "scheme_cache_hits": attrgetter("_m_cache_hits.value"),
    "scheme_cache_misses": attrgetter("_m_cache_misses.value"),
}

_log = get_logger("cluster.coordinator")


class _Job:
    """One submitted call: payload, caller future, retry accounting.

    ``trace_id`` is the population-level trace the submitting caller
    had bound (if any); chunks built from this job inherit it.
    """

    __slots__ = ("job_id", "payload", "future", "attempts", "trace_id")

    def __init__(
        self,
        job_id: int,
        payload: bytes,
        future: concurrent.futures.Future,
        trace_id: str | None = None,
    ) -> None:
        self.job_id = job_id
        self.payload = payload
        self.future = future
        self.attempts = 0
        self.trace_id = trace_id


class _Chunk:
    """One wire assignment: an ordered group of jobs on one worker.

    Chunk ids are never reused, and every job resolves its caller
    future exactly once no matter how many assignments raced: the
    first arriving copy of a job's result wins (all copies are
    byte-identical — jobs are pure functions of their payload), and
    any later duplicate is dropped exactly once, cleanly.

    ``requeued`` marks a chunk whose jobs went back to the queue after
    a ``job_timeout`` while its worker is still *live*: the chunk
    lingers as a zombie so the slow worker's late result can still win
    the race for any job the reassigned copy has not finished — and is
    retired the moment its worker's link dies (no result can arrive on
    a dead link) or all its jobs are resolved.
    """

    __slots__ = ("chunk_id", "job_ids", "worker_id", "started_at",
                 "requeued", "trace_id", "span_id")

    def __init__(
        self,
        chunk_id: int,
        job_ids: tuple[int, ...],
        worker_id: str,
        started_at: float,
        trace_id: str | None = None,
        span_id: str | None = None,
    ) -> None:
        self.chunk_id = chunk_id
        self.job_ids = job_ids
        self.worker_id = worker_id
        self.started_at = started_at
        self.requeued = False
        # Trace of the population this chunk serves; span minted per
        # chunk at dispatch.  Ride the JobFrame so the worker's records
        # line up with the coordinator's.
        self.trace_id = trace_id
        self.span_id = span_id


class _WorkerLink:
    """Coordinator-side state for one registered worker connection."""

    __slots__ = ("worker_id", "capacity", "writer", "window", "inflight",
                 "last_seen", "ewma_rate")

    def __init__(
        self, worker_id: str, capacity: int, writer, window: int, now: float
    ) -> None:
        self.worker_id = worker_id
        self.capacity = capacity
        self.writer = writer
        self.window = window
        self.inflight: set[int] = set()  # chunk ids
        self.last_seen = now
        self.ewma_rate: float | None = None  # jobs/sec, None until observed


class _Coordinator:
    """Loop-thread-only scheduling state.  Never touched off-loop."""

    def __init__(
        self,
        *,
        max_frame: int,
        window_depth: int,
        heartbeat_timeout: float,
        job_timeout: float | None,
        max_attempts: int,
        chunk_min: int,
        chunk_max: int,
        chunk_target_s: float,
        more_workers_expected: Callable[[], bool],
        security: SecurityConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
        trace: bool = False,
        span_buffer: SpanBuffer | None = None,
    ) -> None:
        self.max_frame = max_frame
        self.security = security
        self.window_depth = window_depth
        self.heartbeat_timeout = heartbeat_timeout
        self.job_timeout = job_timeout
        self.max_attempts = max_attempts
        self.chunk_min = chunk_min
        self.chunk_max = chunk_max
        self.chunk_target_s = chunk_target_s
        self.more_workers_expected = more_workers_expected
        self.clock = clock

        self.workers: dict[str, _WorkerLink] = {}
        self.jobs: dict[int, _Job] = {}
        self.chunks: dict[int, _Chunk] = {}
        self.pending: deque[int] = deque()
        # job_id -> park time: jobs at max_attempts whose only hope is
        # a zombie chunk's late result (see _requeue_jobs).  Bounded by
        # one extra job_timeout of grace in _scan_timeouts.
        self.parked: dict[int, float] = {}
        # All scheduling counters live in the registry (one per
        # executor by default; the CLI injects the process-global one).
        # The cached label children keep the hot paths to one inc().
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        # Distributed span assembly: root coordinator.chunk spans plus
        # worker-exported spans land here for trace_get / trace view.
        self.span_buffer = (
            span_buffer if span_buffer is not None else default_span_buffer()
        )
        # Stall watchdog input: monotonic stamp of the last dispatch or
        # accepted chunk; the monitor turns it into a gauge while jobs
        # are pending so /readyz can flag a wedged cluster.
        self._last_progress = self.clock()
        jobs = self.registry.counter(
            "repro_cluster_jobs_total", "Cluster jobs, by event", ("event",)
        )
        chunks = self.registry.counter(
            "repro_cluster_chunks_total", "Cluster chunks, by event", ("event",)
        )
        self._m_jobs_completed = jobs.labels(event="completed")
        self._m_jobs_requeued = jobs.labels(event="requeued")
        self._m_chunks_completed = chunks.labels(event="completed")
        self._m_chunks_requeued = chunks.labels(event="requeued")
        self._m_workers_lost = self.registry.counter(
            "repro_cluster_workers_lost_total",
            "Workers dropped (EOF, heartbeat timeout, protocol violation)",
        )
        self._m_auth_rejects = self.registry.counter(
            "repro_auth_failures_total",
            "Rejected authentication handshakes, by plane",
            ("plane",),
        ).labels(plane="cluster")
        self._m_errors = self.registry.counter(
            "repro_errors_total",
            "Errors that dropped a connection or request, by site",
            ("site",),
        )
        self._m_workers_live = self.registry.gauge(
            "repro_cluster_workers_live", "Workers currently registered"
        )
        self._m_chunk_jobs = self.registry.histogram(
            "repro_cluster_chunk_jobs",
            "Jobs per dispatched chunk (adaptive sizing)",
            buckets=_CHUNK_JOBS_BUCKETS,
        )
        self._m_dispatch_latency = self.registry.histogram(
            "repro_cluster_chunk_seconds",
            "Wall-clock from chunk dispatch to accepted result",
            buckets=log_buckets(1e-3, 100.0),
        )
        self._m_worker_rate = self.registry.gauge(
            "repro_cluster_worker_rate_jobs_per_s",
            "Per-worker EWMA throughput",
            ("worker",),
        )
        self._m_stall = self.registry.gauge(
            "repro_cluster_stall_seconds",
            "Seconds since the coordinator last dispatched or accepted "
            "a chunk while jobs were pending (0 when idle or flowing)",
        )
        # The coordinator's view of the typed job plane: spec bytes at
        # submission, plus the cluster-wide scheme-cache totals summed
        # from the ``cache_hits``/``cache_misses`` deltas workers ship
        # on result frames
        # (workers count their own activity under plane="worker" on
        # their own registries — distinct labels, no double counting
        # when both ends share a process).
        self._m_job_bytes = self.registry.histogram(
            "repro_job_bytes",
            "Encoded job-spec payload bytes, by plane",
            ("plane",),
            buckets=SIZE_BUCKETS,
        ).labels(plane="coordinator")
        # The return path's wire budget, per accepted result: a leaf
        # vector creeping back into results shows here first.
        self._m_result_bytes = self.registry.histogram(
            "repro_result_bytes",
            "Encoded per-job result payload bytes, by plane",
            ("plane",),
            buckets=SIZE_BUCKETS,
        ).labels(plane="coordinator")
        self._m_cache_hits = self.registry.counter(
            "repro_scheme_cache_hits_total",
            "Scheme-cache hits (schemes reused across chunks), by plane",
            ("plane",),
        ).labels(plane="coordinator")
        self._m_cache_misses = self.registry.counter(
            "repro_scheme_cache_misses_total",
            "Scheme-cache misses (schemes constructed), by plane",
            ("plane",),
        ).labels(plane="coordinator")
        self._next_job_id = 0
        self._next_chunk_id = 0
        self._server: asyncio.base_events.Server | None = None
        self._monitor_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._send_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle (awaited from the loop thread)
    # ------------------------------------------------------------------

    async def start(self, host: str, port: int) -> tuple[str, int]:
        ssl_context = (
            self.security.server_ssl_context()
            if self.security is not None
            else None
        )
        self._server = await asyncio.start_server(
            self._spawn_connection, host, port, ssl=ssl_context
        )
        self._monitor_task = asyncio.ensure_future(self._monitor())
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop(self) -> None:
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
            self._monitor_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in list(self.workers.values()):
            with contextlib.suppress(Exception):
                await write_frame(
                    link.writer,
                    ByeFrame(reason="coordinator shutdown"),
                    max_frame=self.max_frame,
                )
            with contextlib.suppress(Exception):
                link.writer.close()
        self.workers.clear()
        for task in list(self._conn_tasks) + list(self._send_tasks):
            task.cancel()
        for task in list(self._conn_tasks) + list(self._send_tasks):
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._conn_tasks.clear()
        self._send_tasks.clear()
        self._fail_all(EngineError("cluster executor closed"))

    def _fail_all(self, exc: Exception) -> None:
        for job in list(self.jobs.values()):
            if not job.future.done():
                job.future.set_exception(exc)
        self.jobs.clear()
        self.chunks.clear()
        self.pending.clear()
        self.parked.clear()

    # ------------------------------------------------------------------
    # Submission (scheduled onto the loop via call_soon_threadsafe)
    # ------------------------------------------------------------------

    def submit(
        self,
        payload: bytes,
        future: concurrent.futures.Future,
        trace_id: str | None = None,
    ) -> None:
        job_id = self._next_job_id
        self._next_job_id += 1
        self.jobs[job_id] = _Job(job_id, payload, future, trace_id=trace_id)
        self.pending.append(job_id)
        self._pump()

    # ------------------------------------------------------------------
    # Adaptive scheduling
    # ------------------------------------------------------------------

    def _observe_rate(self, link: _WorkerLink, sample: float) -> None:
        """Fold one throughput sample (jobs/sec) into the worker EWMA."""
        if link.ewma_rate is None:
            link.ewma_rate = sample
        else:
            link.ewma_rate = (
                EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * link.ewma_rate
            )
        self._m_worker_rate.labels(worker=link.worker_id).set(link.ewma_rate)

    def _chunk_size(self, link: _WorkerLink) -> int:
        """How many jobs the next chunk for this worker should carry.

        Unmeasured workers probe at ``chunk_min``; measured ones aim
        for ``chunk_target_s`` seconds of work.  The fair-share clamp
        (remaining queue / live workers) keeps one fast worker from
        swallowing the whole tail while its peers idle.
        """
        if link.ewma_rate is None:
            size = self.chunk_min
        else:
            size = int(link.ewma_rate * self.chunk_target_s)
        size = max(self.chunk_min, min(self.chunk_max, size))
        fair = math.ceil(len(self.pending) / max(1, len(self.workers)))
        return max(1, min(size, fair))

    def _take_jobs(self, limit: int) -> list[_Job]:
        """Pop up to ``limit`` live pending jobs (byte-budget bounded)."""
        taken: list[_Job] = []
        total_bytes = 0
        while self.pending and len(taken) < limit:
            if taken and total_bytes + len(
                self.jobs.get(self.pending[0], _EMPTY_JOB).payload
            ) > _CHUNK_BYTE_BUDGET:
                break
            job_id = self.pending.popleft()
            job = self.jobs.get(job_id)
            if job is None:
                continue
            if job.future.done():
                # Cancelled by the caller: forget it.
                del self.jobs[job_id]
                continue
            taken.append(job)
            total_bytes += len(job.payload)
        return taken

    def _pump(self) -> None:
        """Assign pending jobs to workers with free window slots."""
        progress = True
        while self.pending and progress:
            progress = False
            for link in list(self.workers.values()):
                if not self.pending:
                    break
                if len(link.inflight) >= link.window:
                    continue
                chunk_jobs = self._take_jobs(self._chunk_size(link))
                if not chunk_jobs:
                    continue
                now = self.clock()
                chunk_id = self._next_chunk_id
                self._next_chunk_id += 1
                for job in chunk_jobs:
                    job.attempts += 1
                trace_id = next(
                    (j.trace_id for j in chunk_jobs if j.trace_id), None
                )
                span_id = (
                    new_span_id()
                    if (trace_id is not None or self.trace)
                    else None
                )
                chunk = _Chunk(
                    chunk_id,
                    tuple(job.job_id for job in chunk_jobs),
                    link.worker_id,
                    now,
                    trace_id=trace_id,
                    span_id=span_id,
                )
                self.chunks[chunk_id] = chunk
                link.inflight.add(chunk_id)
                self._last_progress = now
                self._m_chunk_jobs.observe(len(chunk_jobs))
                with bind_trace(chunk.trace_id, chunk.span_id):
                    log_event(
                        _log,
                        "chunk_dispatched",
                        level=logging.DEBUG,
                        chunk=chunk_id,
                        worker=link.worker_id,
                        jobs=len(chunk_jobs),
                        attempt=max(j.attempts for j in chunk_jobs),
                    )
                payloads = tuple(job.payload for job in chunk_jobs)
                task = asyncio.ensure_future(
                    self._send_chunk(link, chunk, payloads)
                )
                self._send_tasks.add(task)
                task.add_done_callback(self._send_tasks.discard)
                progress = True

    async def _send_chunk(
        self, link: _WorkerLink, chunk: _Chunk, payloads: tuple[bytes, ...]
    ) -> None:
        try:
            frame = JobFrame(
                job_id=chunk.chunk_id,
                payload=encode_cluster_chunk(payloads),
                trace_id=chunk.trace_id,
                span_id=chunk.span_id,
            )
        except CodecError as exc:
            # The byte budget makes this unreachable in practice; if a
            # pathological payload set slips through anyway, fail those
            # jobs loudly rather than punishing the worker.
            self._retire_chunk(link, chunk.chunk_id)
            self._fail_jobs(
                chunk.job_ids, EngineError(f"chunk does not frame: {exc}")
            )
            return
        try:
            await write_frame(link.writer, frame, max_frame=self.max_frame)
        except Exception as exc:
            # The link is dead mid-write; _drop_worker requeues the
            # chunk.  Counted and logged — a worker vanishing on the
            # send path must be distinguishable from a scheduler bug.
            self._m_errors.labels(site="cluster.chunk_send").inc()
            log_event(
                _log,
                "chunk_send_failed",
                level=logging.WARNING,
                worker=link.worker_id,
                chunk=chunk.chunk_id,
                error=str(exc),
            )
            self._drop_worker(link)

    # ------------------------------------------------------------------
    # Worker connections
    # ------------------------------------------------------------------

    def _spawn_connection(self, reader, writer) -> None:
        task = asyncio.ensure_future(self._serve_worker(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_worker(self, reader, writer) -> None:
        link: _WorkerLink | None = None
        try:
            if self.security is not None:
                # The repro.net HMAC handshake gates the job plane: a
                # peer without the shared secret is rejected here,
                # before any frame or typed payload is decoded.
                try:
                    await self.security.authenticate_inbound(reader, writer)
                except (ReproError, ConnectionError, OSError) as exc:
                    self._m_auth_rejects.inc()
                    log_event(
                        _log,
                        "auth_failure",
                        level=logging.WARNING,
                        plane="cluster",
                        error=str(exc),
                    )
                    return
            frame = await read_frame(reader, max_frame=self.max_frame)
            if not isinstance(frame, WorkerHello):
                with contextlib.suppress(Exception):
                    await write_frame(
                        writer,
                        ByeFrame(reason="expected hello"),
                        max_frame=self.max_frame,
                    )
                return
            if frame.version != CLUSTER_WIRE_VERSION:
                # Version skew: refuse loudly with the required
                # version so the operator knows exactly what to
                # upgrade, then hang up before any job bytes flow.
                log_event(
                    _log,
                    "worker_version_rejected",
                    level=logging.WARNING,
                    worker=frame.worker_id,
                    version=frame.version,
                )
                with contextlib.suppress(Exception):
                    await write_frame(
                        writer,
                        ByeFrame(
                            reason=(
                                f"incompatible cluster wire version "
                                f"{frame.version}: this coordinator "
                                f"speaks v{CLUSTER_WIRE_VERSION}; "
                                f"upgrade the worker"
                            )
                        ),
                        max_frame=self.max_frame,
                    )
                return
            if frame.worker_id in self.workers:
                with contextlib.suppress(Exception):
                    await write_frame(
                        writer,
                        ByeFrame(reason=f"duplicate id {frame.worker_id!r}"),
                        max_frame=self.max_frame,
                    )
                return
            link = _WorkerLink(
                worker_id=frame.worker_id,
                capacity=frame.capacity,
                writer=writer,
                window=max(1, frame.capacity) * self.window_depth,
                now=self.clock(),
            )
            self.workers[link.worker_id] = link
            self._m_workers_live.set(len(self.workers))
            log_event(
                _log,
                "worker_registered",
                worker=link.worker_id,
                capacity=link.capacity,
            )
            self._pump()
            while True:
                frame = await read_frame(reader, max_frame=self.max_frame)
                if frame is None or isinstance(frame, ByeFrame):
                    return
                link.last_seen = self.clock()
                if isinstance(frame, ResultFrame):
                    self._on_result(link, frame)
                # A heartbeat only refreshes last_seen; anything else
                # from a registered worker is ignored.
                if self.workers.get(link.worker_id) is not link:
                    return  # dropped for a protocol violation mid-loop
        except (ReproError, ConnectionError, OSError) as exc:
            # A misbehaving/dying worker never takes the pool down —
            # but the drop is counted and logged, never silent.
            self._m_errors.labels(site="cluster.worker_conn").inc()
            log_event(
                _log,
                "worker_connection_error",
                level=logging.WARNING,
                worker=link.worker_id if link is not None else None,
                error=str(exc),
            )
        finally:
            if link is not None:
                self._drop_worker(link)
            with contextlib.suppress(Exception):
                writer.close()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _on_result(self, link: _WorkerLink, frame: ResultFrame) -> None:
        chunk = self.chunks.get(frame.job_id)
        if chunk is not None and chunk.worker_id != link.worker_id:
            # Answering a chunk this link was never sent is a protocol
            # violation: the chunk stays with its owner (window slot,
            # EWMA sample and all) and the sender is dropped.
            log_event(
                _log,
                "result_not_owned",
                level=logging.WARNING,
                worker=link.worker_id,
                chunk=frame.job_id,
                owner=chunk.worker_id,
            )
            self._drop_worker(link)
            return
        link.inflight.discard(frame.job_id)
        # The worker's scheme-cache deltas count even for a zombie or
        # duplicate chunk — the construction (or reuse) really happened.
        if frame.cache_hits:
            self._m_cache_hits.inc(frame.cache_hits)
        if frame.cache_misses:
            self._m_cache_misses.inc(frame.cache_misses)
        if chunk is None:
            # The chunk id was retired (its worker was declared dead
            # and the jobs rehomed, or it already delivered) — this
            # straggler duplicate is dropped here, exactly once.
            self._pump()
            return
        del self.chunks[frame.job_id]
        if not frame.ok:
            if chunk.requeued:
                # A zombie chunk erroring changes nothing: its jobs
                # were requeued at timeout and will be (or were)
                # delivered by the reassigned copies.
                self._pump()
                return
            try:
                message = decode_cluster_payload(frame.payload)
            except CodecError:
                message = "<undecodable error payload>"
            self._fail_jobs(
                chunk.job_ids,
                EngineError(
                    f"remote chunk {frame.job_id} failed on "
                    f"{link.worker_id}: {message}"
                ),
            )
            self._pump()
            return
        try:
            entries = decode_cluster_outcomes(frame.payload)
        except CodecError as exc:
            if not chunk.requeued:
                self._fail_jobs(
                    chunk.job_ids,
                    EngineError(
                        f"undecodable result from {link.worker_id}: {exc}"
                    ),
                )
            self._pump()
            return
        self._complete_chunk(link, chunk, entries, frame.spans)
        self._pump()

    def _complete_chunk(
        self,
        link: _WorkerLink,
        chunk: _Chunk,
        entries: list[tuple[bool, bytes]],
        wire_spans: tuple = (),
    ) -> None:
        if len(entries) != len(chunk.job_ids):
            # A zombie's malformed answer changes nothing — its jobs
            # were requeued at timeout and the live copies own them.
            if not chunk.requeued:
                self._fail_jobs(
                    chunk.job_ids,
                    EngineError(
                        f"worker {link.worker_id} returned {len(entries)} "
                        f"outcomes for a {len(chunk.job_ids)}-job chunk"
                    ),
                )
            return
        elapsed = max(self.clock() - chunk.started_at, 1e-9)
        self._last_progress = self.clock()
        self._observe_rate(link, len(chunk.job_ids) / elapsed)
        self._m_chunks_completed.inc()
        self._m_dispatch_latency.observe(elapsed)
        with bind_trace(chunk.trace_id, chunk.span_id):
            log_event(
                _log,
                "chunk_completed",
                level=logging.DEBUG,
                chunk=chunk.chunk_id,
                worker=link.worker_id,
                jobs=len(chunk.job_ids),
                elapsed_s=round(elapsed, 6),
            )
        accept_span: Span | None = None
        if chunk.trace_id is not None and chunk.span_id is not None:
            # Root of the distributed waterfall: wall-clock bracket of
            # the whole dispatch→accept round trip, carrying the same
            # span id the worker parented its spans under.
            now_wall = time.time()
            self.span_buffer.add(
                Span(
                    trace_id=chunk.trace_id,
                    span_id=chunk.span_id,
                    parent_id=None,
                    name="coordinator.chunk",
                    start_wall=now_wall - elapsed,
                    start_mono=0.0,
                    end_wall=now_wall,
                    end_mono=elapsed,
                    attributes={
                        "worker": link.worker_id,
                        "chunk": chunk.chunk_id,
                        "jobs": len(chunk.job_ids),
                    },
                )
            )
            for wire in wire_spans:
                # Codec validation already bounded these; a decode
                # surprise must not fail the chunk's jobs.
                try:
                    self.span_buffer.add(Span.from_wire(wire))
                except (KeyError, TypeError, ValueError):
                    pass
            accept_span = Span.begin(
                "coordinator.accept",
                trace_id=chunk.trace_id,
                parent_id=chunk.span_id,
            )
        for job_id, (ok, payload) in zip(chunk.job_ids, entries):
            job = self.jobs.pop(job_id, None)
            if job is None or job.future.done():
                # Cancelled by the caller (a sibling failed mid-map):
                # drop the bookkeeping so a long-lived pool cannot
                # accumulate it.
                continue
            self._m_jobs_completed.inc()
            if ok:
                self._m_result_bytes.observe(len(payload))
                try:
                    result = decode_cluster_payload(payload)
                except CodecError as exc:
                    job.future.set_exception(
                        EngineError(
                            f"undecodable result from {link.worker_id}: {exc}"
                        )
                    )
                else:
                    job.future.set_result(result)
            else:
                try:
                    message = decode_cluster_payload(payload)
                except CodecError:
                    message = "<undecodable error payload>"
                job.future.set_exception(
                    EngineError(
                        f"remote job {job_id} failed on "
                        f"{link.worker_id}: {message}"
                    )
                )
        if accept_span is not None:
            self.span_buffer.add(accept_span.finish(jobs=len(chunk.job_ids)))

    def _fail_jobs(self, job_ids: Sequence[int], exc: Exception) -> None:
        for job_id in job_ids:
            job = self.jobs.pop(job_id, None)
            if job is not None and not job.future.done():
                job.future.set_exception(exc)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _retire_chunk(self, link: _WorkerLink, chunk_id: int) -> None:
        link.inflight.discard(chunk_id)
        self.chunks.pop(chunk_id, None)

    def _drop_worker(self, link: _WorkerLink) -> None:
        if self.workers.get(link.worker_id) is link:
            del self.workers[link.worker_id]
            self._m_workers_lost.inc()
            self._m_workers_live.set(len(self.workers))
            log_event(
                _log,
                "worker_lost",
                level=logging.WARNING,
                worker=link.worker_id,
                inflight_chunks=len(link.inflight),
            )
        with contextlib.suppress(Exception):
            link.writer.close()
        # Sorted so jobs re-enter the queue in submission order — the
        # scheduler keeps its front-of-queue bias after any failure.
        for chunk_id in sorted(link.inflight):
            chunk = self.chunks.pop(chunk_id, None)
            if chunk is not None and not chunk.requeued:
                self._requeue_chunk(chunk, "worker_lost")
        link.inflight.clear()
        # Zombie chunks (timed out earlier, jobs already requeued) can
        # never deliver on a dead link: retire their ids now, so any
        # frame claiming them later is dropped.
        for chunk in [
            c for c in self.chunks.values()
            if c.worker_id == link.worker_id
        ]:
            del self.chunks[chunk.chunk_id]
        self._pump()

    def _requeue_chunk(self, chunk: _Chunk, reason: str) -> None:
        """Count, log under the chunk's trace, and requeue its jobs."""
        self._m_chunks_requeued.inc()
        with bind_trace(chunk.trace_id, chunk.span_id):
            log_event(
                _log,
                "chunk_requeued",
                level=logging.WARNING,
                chunk=chunk.chunk_id,
                worker=chunk.worker_id,
                reason=reason,
            )
        self._requeue_jobs(chunk.job_ids)

    def _requeue_jobs(self, job_ids: Sequence[int]) -> None:
        # appendleft in reverse keeps the jobs contiguous and ordered
        # at the front of the queue.
        for job_id in reversed(job_ids):
            job = self.jobs.get(job_id)
            if job is None:
                continue
            if job.future.done():  # cancelled by the caller: forget it
                del self.jobs[job_id]
                continue
            if job.attempts >= self.max_attempts:
                if self._zombie_holds(job_id):
                    # Every assignment is spent, but a timed-out copy
                    # is still running on a live worker and first
                    # result wins: park the job for one more grace
                    # window (_scan_timeouts) rather than failing it
                    # while an answer may be seconds away.
                    self.parked.setdefault(job_id, self.clock())
                    continue
                self._fail_spent(job)
                continue
            self._m_jobs_requeued.inc()
            self.pending.appendleft(job_id)

    def _fail_spent(self, job: _Job) -> None:
        """Fail a job no assignment, live or zombie, can still answer."""
        self._fail_jobs(
            (job.job_id,),
            EngineError(
                f"cluster job {job.job_id} failed after "
                f"{job.attempts} assignments"
            ),
        )

    def _zombie_holds(self, job_id: int) -> bool:
        """True if a live worker's zombie chunk still carries this job.

        Such a chunk timed out but its link is up, so its late result
        can still resolve the job (first result wins).
        """
        return any(
            chunk.requeued
            and chunk.worker_id in self.workers
            and job_id in chunk.job_ids
            for chunk in self.chunks.values()
        )

    def _scan_timeouts(self, now: float) -> None:
        """Requeue chunks stuck past their (size-scaled) job timeout.

        The timed-out chunk's jobs go back to the queue, but the chunk
        itself lingers as a zombie (``requeued=True``) on its still-live
        worker: whichever copy of a job finishes first wins, so a slow
        worker that eventually answers is progress, not garbage.
        Zombies whose jobs have all been resolved elsewhere are GC'd
        here, so a long-lived pool cannot accumulate them.

        Parked jobs (out of assignments, waiting only on a zombie's
        late result) are swept last: they fail once their grace window
        expires or the last zombie holding them dies, so a hung worker
        still bounds every job at roughly
        ``(max_attempts + 1) * job_timeout``.
        """
        if self.job_timeout is None:
            return
        for chunk in list(self.chunks.values()):
            if chunk.requeued:
                if all(jid not in self.jobs for jid in chunk.job_ids):
                    link = self.workers.get(chunk.worker_id)
                    if link is not None:
                        link.inflight.discard(chunk.chunk_id)
                    del self.chunks[chunk.chunk_id]
                continue
            budget = self.job_timeout * max(1, len(chunk.job_ids))
            if now - chunk.started_at > budget:
                chunk.requeued = True
                link = self.workers.get(chunk.worker_id)
                if link is not None:
                    link.inflight.discard(chunk.chunk_id)
                self._requeue_chunk(chunk, "timeout")
        for job_id, since in list(self.parked.items()):
            if job_id not in self.jobs:
                del self.parked[job_id]  # a zombie's copy won the race
                continue
            if (
                now - since <= self.job_timeout
                and self._zombie_holds(job_id)
            ):
                continue
            del self.parked[job_id]
            self._fail_spent(self.jobs[job_id])

    async def _monitor(self) -> None:
        interval = min(self.heartbeat_timeout / 4.0, 0.25)
        while True:
            await asyncio.sleep(interval)
            now = self.clock()
            self._m_stall.set(
                max(now - self._last_progress, 0.0) if self.jobs else 0.0
            )
            for link in list(self.workers.values()):
                if now - link.last_seen > self.heartbeat_timeout:
                    self._drop_worker(link)
            self._scan_timeouts(now)
            if (
                self.jobs
                and not self.workers
                and not self.more_workers_expected()
            ):
                self._fail_all(
                    EngineError(
                        "all cluster workers are gone and none can rejoin"
                    )
                )
            self._pump()


#: Sentinel for :meth:`_Coordinator._take_jobs`'s byte-budget peek when
#: the head-of-queue job was already forgotten.
_EMPTY_JOB = _Job(-1, b"", concurrent.futures.Future())


class _ClusterFuturesPool(concurrent.futures.Executor):
    """``concurrent.futures`` facade over a :class:`ClusterExecutor`.

    This is the asyncio bridge: the supervisor service hands this to
    ``loop.run_in_executor``, so ``--engine cluster`` pushes
    verification jobs to remote workers with zero server changes.
    Lifetime belongs to the owning executor — ``shutdown`` is a no-op.
    """

    def __init__(self, owner: "ClusterExecutor") -> None:
        self._owner = owner

    def submit(self, fn, /, *args, **kwargs) -> concurrent.futures.Future:
        return self._owner.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass  # the ClusterExecutor owns the worker pool lifecycle


class ClusterExecutor(Executor):
    """Distributed engine backend over remote worker daemons.

    ``workers`` is the number of *local worker daemons* to spawn in
    the default self-hosting mode (tests, benches, ``--engine cluster
    --cluster-workers N``).  With ``spawn_local=False`` the coordinator
    only binds ``host:port`` and serves whatever external workers
    register — start them with ``python -m repro.cli worker --host
    <coordinator> --port <port>`` on any number of hosts
    (``min_workers`` blocks the first dispatch until that many joined).

    Tuning surface (see README "Cluster tuning"): ``chunk_min`` /
    ``chunk_max`` bound the adaptive per-worker chunk size and
    ``chunk_target_s`` sets how many seconds of work one chunk should
    carry.

    Security surface (see README "Security model"): ``secret_file``
    enables the mutual repro.net HMAC handshake — every worker must
    prove the shared secret *before* any envelope is decoded — and
    ``tls_cert``/``tls_key`` put the listener behind TLS (external
    workers pin the cert with ``repro.cli worker --tls-cert``;
    spawn-local daemons inherit both flags automatically).  Jobs
    themselves are data, never code: :func:`repro.service.jobcodec.encode_job`
    only ships registered callable names with schema-checked
    arguments, so the port is not a code-execution surface even to an
    authenticated peer.  ``worker_preload`` names modules each
    spawn-local worker imports at startup — the registration hook for
    jobs defined outside the built-in registry (external workers use
    ``repro.cli worker --preload``).
    """

    name = "cluster"

    def __init__(
        self,
        workers: int | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_local: bool = True,
        min_workers: int | None = None,
        worker_engine: str = "serial",
        worker_processes: int | None = None,
        window_depth: int = 2,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        job_timeout: float | None = None,
        max_attempts: int = 3,
        chunk_min: int = DEFAULT_CHUNK_MIN,
        chunk_max: int = DEFAULT_CHUNK_MAX,
        chunk_target_s: float = DEFAULT_CHUNK_TARGET_S,
        secret_file: str | None = None,
        tls_cert: str | None = None,
        tls_key: str | None = None,
        startup_timeout: float = 60.0,
        max_frame: int = MAX_CLUSTER_FRAME_BYTES,
        registry: MetricsRegistry | None = None,
        trace: bool = False,
        span_buffer: SpanBuffer | None = None,
        worker_preload: Sequence[str] = (),
    ) -> None:
        if workers is not None and workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        if min_workers is not None and min_workers < 1:
            raise EngineError(f"min_workers must be >= 1, got {min_workers}")
        if window_depth < 1:
            raise EngineError(f"window_depth must be >= 1, got {window_depth}")
        if max_attempts < 1:
            raise EngineError(f"max_attempts must be >= 1, got {max_attempts}")
        if chunk_min < 1:
            raise EngineError(f"chunk_min must be >= 1, got {chunk_min}")
        if chunk_max < chunk_min:
            raise EngineError(
                f"chunk_max ({chunk_max}) must be >= chunk_min ({chunk_min})"
            )
        if chunk_target_s <= 0:
            raise EngineError(
                f"chunk_target_s must be positive, got {chunk_target_s}"
            )
        if heartbeat_interval <= 0:
            raise EngineError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if heartbeat_timeout <= 0:
            raise EngineError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise EngineError(
                f"job_timeout must be positive or None, got {job_timeout}"
            )
        if startup_timeout <= 0:
            raise EngineError(
                f"startup_timeout must be positive, got {startup_timeout}"
            )
        if worker_engine == "cluster":
            raise EngineError("cluster workers cannot use the cluster engine")
        # Security material (repro.net): shared-secret HMAC auth gates
        # every worker connection before any frame is decoded; the TLS
        # cert/key pair encrypts the wire.  A TLS coordinator needs
        # both; workers pin the cert (no key) — validated here so a
        # misconfigured deployment fails at construction, not mid-map.
        if tls_cert is not None and tls_key is None:
            raise EngineError(
                "a TLS coordinator needs both tls_cert and tls_key"
            )
        try:
            self._security = SecurityConfig.from_options(
                secret_file=secret_file, tls_cert=tls_cert, tls_key=tls_key
            )
        except ReproError as exc:
            raise EngineError(f"bad cluster security options: {exc}") from exc
        self._secret_file = secret_file
        self._tls_cert = tls_cert
        self._n_local = workers or default_workers()
        if (
            spawn_local
            and min_workers is not None
            and min_workers > self._n_local
        ):
            raise EngineError(
                f"min_workers ({min_workers}) cannot exceed the "
                f"{self._n_local} spawn-local worker daemons — startup "
                "would stall until the timeout"
            )
        self._host = host
        self._port = port
        self._spawn_local = spawn_local
        self._min_workers = min_workers
        self._worker_engine = worker_engine
        self._worker_processes = worker_processes
        self._window_depth = window_depth
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._job_timeout = job_timeout
        self._max_attempts = max_attempts
        self._chunk_min = chunk_min
        self._chunk_max = chunk_max
        self._chunk_target_s = chunk_target_s
        self._startup_timeout = startup_timeout
        self._max_frame = max_frame
        self._registry = registry
        self._trace = trace
        self._span_buffer = span_buffer
        self._worker_preload = tuple(worker_preload)
        for module_name in self._worker_preload:
            if not isinstance(module_name, str) or not module_name:
                raise EngineError(
                    "worker_preload entries must be non-empty module "
                    f"names, got {module_name!r}"
                )

        self._lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._co: _Coordinator | None = None
        self._procs: list[subprocess.Popen] = []
        self._address: tuple[str, int] | None = None
        # Built eagerly: the facade is a stateless handle on `self`, and
        # creating it lazily in the property was an unlocked check-then-
        # set race (two threads could each build one).
        self._pool_facade = _ClusterFuturesPool(self)
        self._closed = False

    # ------------------------------------------------------------------
    # Executor protocol
    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Total registered capacity (spawn target before startup)."""
        co = self._co
        # Snapshot, as in ``stats``: the loop thread registers and
        # drops workers while callers read this.
        links = list(co.workers.values()) if co is not None else []
        if links:
            return max(1, sum(link.capacity for link in links))
        return max(1, self._n_local)

    @property
    def address(self) -> tuple[str, int] | None:
        """The coordinator's bound ``(host, port)`` once started."""
        return self._address

    @property
    def stats(self) -> dict:
        """Scheduling counters (jobs/chunks completed and requeued,
        accepted result bytes, worker churn, per-worker EWMA rates)."""
        co = self._co
        counts = dict.fromkeys(_STAT_COUNTERS, 0)
        links: list[_WorkerLink] = []
        if co is not None:
            for key, read in _STAT_COUNTERS.items():
                counts[key] = int(read(co))
            # list() snapshots atomically under the GIL: the loop
            # thread mutates co.workers while callers read stats.
            links = list(co.workers.values())
        return {
            **counts,
            "workers_live": len(links),
            "worker_rates": {
                link.worker_id: round(link.ewma_rate, 3)
                for link in links
                if link.ewma_rate is not None
            },
        }

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[Any]:
        if not items:
            if self._closed:
                raise EngineError("cluster executor already closed")
            return []
        with _metered_map(self.name, len(items)):
            futures = [self.submit(fn, item) for item in items]
            try:
                return [future.result() for future in futures]
            except BaseException:
                for future in futures:
                    future.cancel()
                raise

    def submit(self, fn, /, *args, **kwargs) -> concurrent.futures.Future:
        """Ship one call to the cluster; returns a waitable future.

        ``fn`` must be jobcodec-registered (and its arguments
        encodable): the job travels as a typed spec, not code, so an
        unregistered callable raises
        :class:`~repro.exceptions.CodecError` here — before anything
        touches the wire.
        """
        self._ensure_started()
        payload = encode_job(fn, args, kwargs)
        future: concurrent.futures.Future = concurrent.futures.Future()
        assert self._loop is not None and self._co is not None
        self._co._m_job_bytes.observe(len(payload))
        # The caller's trace context lives in this thread's contextvars;
        # the coordinator runs on its own loop thread, so the id is
        # captured here and handed over explicitly.
        self._loop.call_soon_threadsafe(
            self._co.submit, payload, future, current_trace()
        )
        return future

    @property
    def futures_pool(self) -> concurrent.futures.Executor:
        self._ensure_started()
        return self._pool_facade

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            loop, thread, co = self._loop, self._thread, self._co
            self._loop = self._thread = self._co = None
        if loop is not None and co is not None:
            with contextlib.suppress(Exception):
                asyncio.run_coroutine_threadsafe(co.stop(), loop).result(
                    timeout=10.0
                )
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=10.0)
            loop.close()
        # Detach the daemon list under the lock, then tear the
        # processes down unlocked — terminate/wait can block for
        # seconds and must not hold up concurrent callers.
        with self._lock:
            procs, self._procs = self._procs, []
        for proc in procs:
            with contextlib.suppress(Exception):
                proc.terminate()
        for proc in procs:
            with contextlib.suppress(Exception):
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def _more_workers_expected(self) -> bool:
        """May a worker (re)join?  External pools: always.  Spawn-local
        pools: only while at least one daemon process is alive."""
        if not self._spawn_local:
            return True
        return any(proc.poll() is None for proc in self._procs)

    def _ensure_started(self) -> None:
        with self._lock:
            if self._closed:
                raise EngineError("cluster executor already closed")
            if self._thread is not None:
                return
            loop = asyncio.new_event_loop()
            thread = threading.Thread(
                target=loop.run_forever, name="repro-cluster", daemon=True
            )
            thread.start()
            co = _Coordinator(
                max_frame=self._max_frame,
                window_depth=self._window_depth,
                heartbeat_timeout=self._heartbeat_timeout,
                job_timeout=self._job_timeout,
                max_attempts=self._max_attempts,
                chunk_min=self._chunk_min,
                chunk_max=self._chunk_max,
                chunk_target_s=self._chunk_target_s,
                more_workers_expected=self._more_workers_expected,
                security=self._security,
                registry=self._registry,
                trace=self._trace,
                span_buffer=self._span_buffer,
            )
            try:
                self._address = asyncio.run_coroutine_threadsafe(
                    co.start(self._host, self._port), loop
                ).result(timeout=self._startup_timeout)
            except Exception:
                loop.call_soon_threadsafe(loop.stop)
                thread.join(timeout=5.0)
                loop.close()
                raise
            self._loop, self._thread, self._co = loop, thread, co
        if self._spawn_local:
            self._spawn_workers()
            self._await_workers(self._min_workers or self._n_local)
        else:
            self._await_workers(self._min_workers or 1)

    def _spawn_workers(self) -> None:
        assert self._address is not None
        host, port = self._address
        env = dict(os.environ)
        # Workers must import repro exactly as this process does,
        # wherever pytest/CLI put it on sys.path.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        # A -c shim rather than -m: runpy re-executing worker.py under
        # a package whose __init__ already imported it would warn.
        entry = (
            "import sys; from repro.engine.cluster.worker import main; "
            "sys.exit(main(sys.argv[1:]))"
        )
        spawned: list[subprocess.Popen] = []
        for i in range(self._n_local):
            cmd = [
                sys.executable, "-c", entry,
                "--host", host,
                "--port", str(port),
                "--engine", self._worker_engine,
                "--id", f"local-{i}",
                "--heartbeat", str(self._heartbeat_interval),
            ]
            if self._worker_processes is not None:
                cmd += ["--workers", str(self._worker_processes)]
            for module_name in self._worker_preload:
                cmd += ["--preload", module_name]
            if self._secret_file is not None:
                cmd += ["--secret-file", self._secret_file]
            if self._tls_cert is not None:
                cmd += ["--tls-cert", self._tls_cert]
            if self._trace:
                cmd += ["--trace"]
            spawned.append(
                subprocess.Popen(
                    cmd, env=env, stdout=subprocess.DEVNULL
                )
            )
        # Publish in one locked step: close() snapshots _procs under
        # the same lock, so a concurrent teardown either sees all these
        # daemons or none — never a half-appended list.
        with self._lock:
            self._procs.extend(spawned)

    def _await_workers(self, target: int) -> None:
        """Block until ``target`` workers registered (or fail loudly)."""
        deadline = time.monotonic() + self._startup_timeout
        while True:
            co = self._co
            if co is None:
                raise EngineError("cluster executor closed during startup")
            if len(co.workers) >= target:
                return
            if self._spawn_local:
                dead = [p for p in self._procs if p.poll() is not None]
                if dead and len(co.workers) + sum(
                    1 for p in self._procs if p.poll() is None
                ) < target:
                    raise EngineError(
                        f"cluster worker exited with code "
                        f"{dead[0].returncode} before registering"
                    )
            if time.monotonic() >= deadline:
                raise EngineError(
                    f"only {len(co.workers)} of {target} cluster workers "
                    f"registered within {self._startup_timeout}s"
                )
            time.sleep(0.02)

    # ------------------------------------------------------------------
    # Local worker management (test hooks)
    # ------------------------------------------------------------------

    @property
    def local_worker_pids(self) -> list[int]:
        """PIDs of spawned local workers (fault-injection tests)."""
        return [proc.pid for proc in self._procs if proc.poll() is None]
