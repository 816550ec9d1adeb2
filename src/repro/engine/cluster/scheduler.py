"""Cluster scheduler: what happens next, decided without touching a socket.

:class:`Scheduler` is the one owner of the coordinator's scheduling
state — workers, jobs, chunks, the pending queue, parked jobs — and of
every policy over it.  It is plain synchronous Python: no coroutine, no
socket, no thread.  The shell that moves bytes
(:class:`repro.engine.cluster.coordinator._Coordinator`) and the
property test (``tests/test_scheduler_machine.py``) drive it through
the same events:

==============================================  ==============================
event                                           when the shell raises it
==============================================  ==============================
``submit(jobs, trace_id)``                      a caller submitted a batch
                                                of ``(payload, future)``
                                                pairs (a whole ``map``, or
                                                one call)
``worker_joined(worker_id, capacity)``          a ``hello`` passed the
                                                handshake (ids are unique
                                                among live workers)
``worker_seen(worker_id)``                      any frame arrived from it
``result(worker_id, ResultFrame)``              a ``result`` frame arrived
``worker_left(worker_id, reason)``              EOF, connection error or a
                                                failed send
``tick(now, more_workers_expected)``            the monitor's timer fired
``close(exc)``                                  the executor is shutting down
==============================================  ==============================

Its outputs, besides resolving caller futures, are two injected
callables: ``send(worker_id, JobFrame)`` (ship one chunk) and
``hang_up(worker_id)`` (the scheduler dropped this worker: close its
connection).  Neither may call back into the scheduler synchronously.

Topology and scheduling — one fixed policy, not a tuning surface (the
constants below; only tests construct a ``Scheduler`` with others):

* each worker gets a **bounded in-flight window** (capacity ×
  ``window_depth`` chunks): a slow worker fills its window and simply
  stops receiving work — backpressure, not starvation of the fast
  workers;
* scheduling is **throughput-adaptive**: every completed chunk updates
  the worker's EWMA jobs/sec, and the next chunk sent to that worker
  is sized so it takes roughly ``chunk_target_s`` seconds, clamped to
  ``[chunk_min, chunk_max]``.  Fast workers get bigger chunks,
  stragglers get smaller ones — resizing regroups jobs at the
  transport layer only, so results stay byte-identical to serial no
  matter how the chunks fall;
* chunks are cut by **factoring** (Hummel, Schonberg & Flynn, 1992):
  no chunk carries more than ``ceil(pending / Σ window)`` jobs, its
  share of what is left spread over every window slot of every live
  worker.  A ``map`` arrives as one ``submit``, so the first chunks are
  shares of the whole map; sizes then fall geometrically as the queue
  drains and the last chunks are single jobs, so the workers finish
  together instead of one idling while another works through a large
  tail chunk;
* liveness is EOF *plus* heartbeats: a SIGKILLed worker drops its
  socket and is detected immediately (``worker_left``); a silently
  wedged one trips the heartbeat timeout (``tick``).  Either way its
  in-flight chunks are disbanded and their jobs requeued (bounded by
  ``max_attempts`` per job);
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
* shutdown is not a fault: ``close`` fails what is unresolved and
  forgets everything, so nothing is requeued or counted lost;
* results are reassembled in submission order, which is what makes a
  cluster population run produce byte-identical
  :class:`~repro.grid.report.DetectionReport`'s to the serial backend.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import logging
import math
import time
from collections import deque
from typing import Callable, Sequence

from repro.exceptions import CodecError, EngineError
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import SIZE_BUCKETS, MetricsRegistry
from repro.obs.spans import Span, SpanBuffer, default_span_buffer
from repro.obs.trace import bind_trace, new_span_id
from repro.service.codec import JobFrame, ResultFrame
# The payload cap comes with the chunk envelope that enforces it: the
# scheduler imports nothing from repro.net, the socket layer.
from repro.service.jobcodec import (
    MAX_CLUSTER_PAYLOAD_BYTES,
    decode_cluster_outcomes,
    decode_cluster_payload,
    encode_cluster_chunk,
)

# Smallest chunk the adaptive scheduler will send while the queue
# holds at least that many jobs per window slot (see ``_chunk_size``).
# One job is the probing size: an unmeasured (or demoted) worker costs
# at most one job's latency to size up.
_CHUNK_MIN = 1

# Largest chunk the adaptive scheduler will send.  Bounds both the
# work stranded on a worker that dies and the result bytes one frame
# has to carry.
_CHUNK_MAX = 32

# Target seconds of work per chunk: a worker's next chunk is sized as
# ``ewma_rate * chunk_target_s`` jobs (clamped).  Small enough to
# re-observe throughput frequently, large enough to amortize framing.
_CHUNK_TARGET_S = 0.25

# EWMA smoothing for per-worker throughput samples.  0.4 weights the
# newest chunk heavily (workers change speed when co-tenants arrive)
# without letting one noisy sample whipsaw the chunk size.
_EWMA_ALPHA = 0.4

# Chunks in flight per unit of worker capacity: one computing, one
# already on the wire behind it, so a worker never idles on a round
# trip.
_WINDOW_DEPTH = 2

#: Byte budget for one outgoing chunk payload: leave chunk-envelope
#: headroom under the hard payload cap so regrouped jobs always frame.
_CHUNK_BYTE_BUDGET = MAX_CLUSTER_PAYLOAD_BYTES // 2

#: Chunk-size histogram buckets: chunk job counts are small powers-ish.
_CHUNK_JOBS_BUCKETS = tuple(float(1 << i) for i in range(11))

# The coordinator's logger: these records are its scheduling trail
# (README "Observability"), whichever class emits them.
_log = get_logger("cluster.coordinator")


@dataclasses.dataclass(slots=True, eq=False)
class _Job:
    """One submitted call: payload, caller future, retry accounting.

    ``trace_id`` is the population-level trace the submitting caller
    had bound (if any); chunks built from this job inherit it.
    """

    job_id: int
    payload: bytes
    future: concurrent.futures.Future
    trace_id: str | None = None
    attempts: int = 0


@dataclasses.dataclass(slots=True, eq=False)
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
    retired the moment its worker leaves (no result can arrive on
    a dead link) or all its jobs are resolved.
    """

    chunk_id: int
    job_ids: tuple[int, ...]
    worker_id: str
    started_at: float
    # Trace of the population this chunk serves; span minted per
    # chunk at dispatch.  Ride the JobFrame so the worker's records
    # line up with the coordinator's.
    trace_id: str | None = None
    span_id: str | None = None
    requeued: bool = False


@dataclasses.dataclass(slots=True, eq=False)
class _Worker:
    """Scheduling state for one registered worker."""

    worker_id: str
    capacity: int
    window: int
    last_seen: float
    inflight: set[int] = dataclasses.field(default_factory=set)  # chunk ids
    ewma_rate: float | None = None  # jobs/sec, None until observed


def _error_text(payload: bytes) -> object:
    """The message a worker shipped in place of a result."""
    try:
        return decode_cluster_payload(payload)
    except CodecError:
        return "<undecodable error payload>"


class Scheduler:
    """The coordinator's scheduling state and every decision over it.

    Single-threaded by contract: the shell calls every event from its
    loop thread.  Other threads may only *read* (``ClusterExecutor.stats``
    snapshots ``workers`` and the counters).
    """

    def __init__(
        self,
        *,
        heartbeat_timeout: float,
        job_timeout: float | None,
        max_attempts: int,
        send: Callable[[str, JobFrame], None],
        hang_up: Callable[[str], None],
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
        trace: bool = False,
        span_buffer: SpanBuffer | None = None,
        window_depth: int = _WINDOW_DEPTH,
        chunk_min: int = _CHUNK_MIN,
        chunk_max: int = _CHUNK_MAX,
        chunk_target_s: float = _CHUNK_TARGET_S,
    ) -> None:
        self.window_depth = window_depth
        self.heartbeat_timeout = heartbeat_timeout
        self.job_timeout = job_timeout
        self.max_attempts = max_attempts
        self.chunk_min = chunk_min
        self.chunk_max = chunk_max
        self.chunk_target_s = chunk_target_s
        self.send = send
        self.hang_up = hang_up
        self.clock = clock

        self.workers: dict[str, _Worker] = {}
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
        # accepted chunk; tick turns it into a gauge while jobs are
        # pending so /readyz can flag a wedged cluster.
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
        self._m_workers_live = self.registry.gauge(
            "repro_cluster_workers_live", "Workers currently registered"
        )
        self._m_chunk_jobs = self.registry.histogram(
            "repro_cluster_chunk_jobs",
            "Jobs per dispatched chunk (adaptive sizing)",
            buckets=_CHUNK_JOBS_BUCKETS,
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
        # The return path's wire budget, per accepted result (a leaf
        # vector creeping back into results shows here first), and the
        # cluster-wide scheme-cache totals summed from the
        # ``cache_hits``/``cache_misses`` deltas workers ship on result
        # frames.
        self._m_result_bytes = self.registry.histogram(
            "repro_result_bytes",
            "Encoded per-job result payload bytes",
            buckets=SIZE_BUCKETS,
        ).labels()
        self._m_cache_hits = self.registry.counter(
            "repro_scheme_cache_hits_total",
            "Scheme-cache hits (schemes reused across chunks)",
        ).labels()
        self._m_cache_misses = self.registry.counter(
            "repro_scheme_cache_misses_total",
            "Scheme-cache misses (schemes constructed)",
        ).labels()
        self._next_job_id = 0
        self._next_chunk_id = 0

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def submit(
        self,
        jobs: Sequence[tuple[bytes, concurrent.futures.Future]],
        trace_id: str | None = None,
    ) -> None:
        """Queue a batch of encoded jobs, then dispatch once.

        Queuing the whole batch before the pump is what lets the first
        chunks be sized against all of it.
        """
        for payload, future in jobs:
            job_id = self._next_job_id
            self._next_job_id += 1
            self.jobs[job_id] = _Job(job_id, payload, future, trace_id=trace_id)
            self.pending.append(job_id)
        self._pump()

    def worker_joined(self, worker_id: str, capacity: int) -> None:
        self.workers[worker_id] = _Worker(
            worker_id,
            capacity,
            window=max(1, capacity) * self.window_depth,
            last_seen=self.clock(),
        )
        self._m_workers_live.set(len(self.workers))
        log_event(
            _log, "worker_registered", worker=worker_id, capacity=capacity
        )
        self._pump()

    def worker_seen(self, worker_id: str) -> None:
        """Any frame, heartbeats included, is a sign of life."""
        link = self.workers.get(worker_id)
        if link is not None:
            link.last_seen = self.clock()

    def result(self, worker_id: str, frame: ResultFrame) -> None:
        link = self.workers.get(worker_id)
        if link is None:
            return  # already dropped: every chunk it held is retired
        chunk = self.chunks.get(frame.job_id)
        if chunk is not None and chunk.worker_id != worker_id:
            # Answering a chunk this worker was never sent is a protocol
            # violation: the chunk stays with its owner (window slot,
            # EWMA sample and all) and the sender is dropped.
            log_event(
                _log,
                "result_not_owned",
                level=logging.WARNING,
                worker=worker_id,
                chunk=frame.job_id,
                owner=chunk.worker_id,
            )
            self.worker_left(worker_id, "protocol_violation")
            return
        link.inflight.discard(frame.job_id)
        # The worker's scheme-cache deltas count even for a zombie or
        # duplicate chunk — the construction (or reuse) really happened.
        if frame.cache_hits:
            self._m_cache_hits.inc(frame.cache_hits)
        if frame.cache_misses:
            self._m_cache_misses.inc(frame.cache_misses)
        if chunk is not None:
            del self.chunks[frame.job_id]
            self._accept(link, chunk, frame)
        # else the chunk id was retired (its worker was declared dead
        # and the jobs rehomed, or it already delivered) — this
        # straggler duplicate is dropped here, exactly once.
        self._pump()

    def worker_left(self, worker_id: str, reason: str) -> None:
        link = self.workers.pop(worker_id, None)
        if link is None:
            return
        self._m_workers_lost.inc()
        self._m_workers_live.set(len(self.workers))
        log_event(
            _log,
            "worker_lost",
            level=logging.WARNING,
            worker=worker_id,
            reason=reason,
            inflight_chunks=len(link.inflight),
        )
        self.hang_up(worker_id)
        # Sorted so jobs re-enter the queue in submission order — the
        # scheduler keeps its front-of-queue bias after any failure.
        for chunk_id in sorted(link.inflight):
            chunk = self.chunks.pop(chunk_id, None)
            if chunk is not None and not chunk.requeued:
                self._requeue_chunk(chunk, "worker_lost")
        # Zombie chunks (timed out earlier, jobs already requeued) can
        # never deliver on a dead link: retire their ids now, so any
        # frame claiming them later is dropped.
        for chunk in [
            c for c in self.chunks.values() if c.worker_id == worker_id
        ]:
            del self.chunks[chunk.chunk_id]
        self._pump()

    def tick(self, now: float, more_workers_expected: bool) -> None:
        """One monitor beat: stall gauge, heartbeat expiry, timeouts.

        ``more_workers_expected`` is the shell's answer to "may a worker
        still (re)join?"; when it is false and none is left, every
        tracked job fails rather than waiting forever.
        """
        self._m_stall.set(
            max(now - self._last_progress, 0.0) if self.jobs else 0.0
        )
        for link in list(self.workers.values()):
            if now - link.last_seen > self.heartbeat_timeout:
                self.worker_left(link.worker_id, "heartbeat_timeout")
        self._scan_timeouts(now)
        if self.jobs and not self.workers and not more_workers_expected:
            self.close(
                EngineError("all cluster workers are gone and none can rejoin")
            )
        self._pump()

    def close(self, exc: Exception) -> None:
        """Fail every unresolved job with ``exc`` and forget everything.

        Not a fault: nothing is requeued, no worker is counted lost,
        and the shell says goodbye to its connections itself.
        """
        for job in list(self.jobs.values()):
            if not job.future.done():
                job.future.set_exception(exc)
        self.jobs.clear()
        self.chunks.clear()
        self.pending.clear()
        self.parked.clear()
        self.workers.clear()
        self._m_workers_live.set(0)

    # ------------------------------------------------------------------
    # Adaptive scheduling
    # ------------------------------------------------------------------

    def _observe_rate(self, link: _Worker, sample: float) -> None:
        """Fold one throughput sample (jobs/sec) into the worker EWMA."""
        if link.ewma_rate is None:
            link.ewma_rate = sample
        else:
            link.ewma_rate = (
                _EWMA_ALPHA * sample + (1.0 - _EWMA_ALPHA) * link.ewma_rate
            )
        self._m_worker_rate.labels(worker=link.worker_id).set(link.ewma_rate)

    def _chunk_size(self, link: _Worker) -> int:
        """How many jobs the next chunk for this worker should carry.

        Unmeasured workers probe at ``chunk_min``; measured ones aim
        for ``chunk_target_s`` seconds of work.  Either way the chunk
        takes at most one window slot's share of the queue — remaining
        jobs / Σ window over live workers (factoring) — so with
        ``window_depth`` 2 one dispatch takes at most half of this
        worker's share of what is left, sizes halve as the queue
        drains, and the tail goes out as single jobs.  Dividing by live
        workers alone would ignore the peers' in-flight windows and hand
        the first worker back half of what is left while its peer idles
        at the end.
        """
        if link.ewma_rate is None:
            size = self.chunk_min
        else:
            size = int(link.ewma_rate * self.chunk_target_s)
        size = max(self.chunk_min, min(self.chunk_max, size))
        slots = sum(worker.window for worker in self.workers.values())
        fair = math.ceil(len(self.pending) / max(1, slots))
        return max(1, min(size, fair))

    def _take_jobs(self, limit: int) -> list[_Job]:
        """Pop up to ``limit`` live pending jobs (byte-budget bounded)."""
        taken: list[_Job] = []
        total_bytes = 0
        while self.pending and len(taken) < limit:
            job = self.jobs.get(self.pending[0])
            if job is None or job.future.done():
                # Resolved elsewhere, or cancelled by the caller: forget it.
                self.jobs.pop(self.pending.popleft(), None)
                continue
            if taken and total_bytes + len(job.payload) > _CHUNK_BYTE_BUDGET:
                break
            self.pending.popleft()
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
                if chunk_jobs:
                    self._dispatch(link, chunk_jobs)
                    progress = True

    def _dispatch(self, link: _Worker, chunk_jobs: list[_Job]) -> None:
        job_ids = tuple(job.job_id for job in chunk_jobs)
        try:
            payload = encode_cluster_chunk(
                tuple(job.payload for job in chunk_jobs)
            )
        except CodecError as exc:
            # The byte budget makes this unreachable in practice; if a
            # pathological payload set slips through anyway, fail those
            # jobs loudly rather than punishing the worker.
            self._fail_jobs(
                job_ids, EngineError(f"chunk does not frame: {exc}")
            )
            return
        now = self.clock()
        chunk_id = self._next_chunk_id
        self._next_chunk_id += 1
        for job in chunk_jobs:
            job.attempts += 1
        trace_id = next((j.trace_id for j in chunk_jobs if j.trace_id), None)
        span_id = (
            new_span_id() if (trace_id is not None or self.trace) else None
        )
        self.chunks[chunk_id] = _Chunk(
            chunk_id, job_ids, link.worker_id, now,
            trace_id=trace_id, span_id=span_id,
        )
        link.inflight.add(chunk_id)
        self._last_progress = now
        self._m_chunk_jobs.observe(len(chunk_jobs))
        with bind_trace(trace_id, span_id):
            log_event(
                _log,
                "chunk_dispatched",
                level=logging.DEBUG,
                chunk=chunk_id,
                worker=link.worker_id,
                jobs=len(chunk_jobs),
                attempt=max(j.attempts for j in chunk_jobs),
            )
        self.send(
            link.worker_id,
            JobFrame(
                job_id=chunk_id,
                payload=payload,
                trace_id=trace_id,
                span_id=span_id,
            ),
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _accept(self, link: _Worker, chunk: _Chunk, frame: ResultFrame) -> None:
        """Resolve an owned chunk's jobs from its one answer frame."""
        entries: list[tuple[bool, bytes]] = []
        problem: str | None = None
        if not frame.ok:
            problem = (
                f"remote chunk {chunk.chunk_id} failed on "
                f"{link.worker_id}: {_error_text(frame.payload)}"
            )
        else:
            try:
                entries = decode_cluster_outcomes(frame.payload)
            except CodecError as exc:
                problem = f"undecodable result from {link.worker_id}: {exc}"
            if problem is None and len(entries) != len(chunk.job_ids):
                problem = (
                    f"worker {link.worker_id} returned {len(entries)} "
                    f"outcomes for a {len(chunk.job_ids)}-job chunk"
                )
        if problem is None:
            self._complete_chunk(link, chunk, entries, frame.spans)
        elif not chunk.requeued:
            self._fail_jobs(chunk.job_ids, EngineError(problem))
        # else a zombie's error or malformed answer changes nothing: its
        # jobs were requeued at timeout and will be (or were) delivered
        # by the reassigned copies.

    def _complete_chunk(
        self,
        link: _Worker,
        chunk: _Chunk,
        entries: list[tuple[bool, bytes]],
        wire_spans: tuple = (),
    ) -> None:
        elapsed = max(self.clock() - chunk.started_at, 1e-9)
        self._last_progress = self.clock()
        self._observe_rate(link, len(chunk.job_ids) / elapsed)
        self._m_chunks_completed.inc()
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
                job.future.set_exception(
                    EngineError(
                        f"remote job {job_id} failed on "
                        f"{link.worker_id}: {_error_text(payload)}"
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
