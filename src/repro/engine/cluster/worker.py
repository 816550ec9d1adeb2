"""Cluster worker daemon: execute typed job chunks for a coordinator.

One worker is one long-lived, serial process on one host: it runs one
chunk at a time, so a host uses its cores by running one daemon per
core (the coordinator's spawn-local mode does exactly that).  It dials
the coordinator, registers with a ``hello`` frame (id, capacity 1,
wire version), then serves ``job`` frames until a ``bye``, an EOF or a
shutdown signal: each payload is a *chunk* — an ordered sequence of
typed ``(fn, args, kwargs)`` job specs (:mod:`repro.service.jobcodec`
— data, never code: functions arrive as registered names, arguments as
schema-checked values), sized per worker by the coordinator's
throughput tracker — executed in order and answered with the chunk's
ordered per-job ``(ok, payload)`` outcomes in the same typed encoding.

Scheme memory: cacheable structs (the verification schemes) decode
through one process-wide LRU keyed by (scheme name, canonical param
bytes), so one population constructs its scheme once per worker,
not once per chunk.  Hit/miss deltas ride back on each result frame
(``cache_hits``/``cache_misses``) and feed the coordinator's
``repro_scheme_cache_*_total`` counters.

A chunk's outcomes travel home in exactly one ``result`` frame.

Survival contract: a worker never dies because of a job.  A corrupted
or oversized chunk payload — or outcomes too large to frame — comes
back as a chunk-level ``ok=False`` result; a single job whose function
raises (or whose result the typed codec cannot encode) comes back as
that job's ``ok=False`` outcome while its chunk siblings succeed — and
the worker keeps serving.
Jobs run off the event loop, on a thread, so heartbeats keep flowing
while a chunk computes — that is what lets the coordinator tell *busy*
from *dead*.

Run it standalone (``python -m repro.engine.cluster.worker``) or via
the CLI (``python -m repro.cli worker``); the coordinator's spawn-local
mode launches exactly this module.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import importlib
import logging
import os
import secrets
import sys
import time

from repro.exceptions import EngineError, ReproError
from repro.launch import DEFAULT_HEARTBEAT_INTERVAL, add_worker_args
from repro.net.framing import MAX_CLUSTER_FRAME_BYTES
from repro.net.transport import (
    SecurityConfig,
    close_writer,
    dial,
    heartbeat_loop,
)
from repro.obs.health import Daemon, HealthState
from repro.obs.spans import Span, default_span_buffer
from repro.obs.logging import configure_logging, get_logger, log_event
from repro.obs.metrics import default_registry
from repro.obs.trace import bind_trace
from repro.service.jobcodec import (
    SchemeCache,
    decode_cluster_chunk,
    decode_job,
    encode_cluster_outcomes,
    encode_cluster_payload,
)
from repro.service.codec import (
    ByeFrame,
    HeartbeatFrame,
    JobFrame,
    ResultFrame,
    WorkerHello,
    read_frame,
    write_frame,
)

_log = get_logger("cluster.worker")

# One scheme cache per worker process, shared by every chunk it runs:
# a population's scheme is built once, not once per chunk.
_scheme_cache = SchemeCache()


def default_worker_id() -> str:
    """A collision-resistant id: pid plus a random suffix."""
    return f"worker-{os.getpid()}-{secrets.token_hex(3)}"


def execute_payload(raw: bytes) -> object:
    """Decode one typed job spec and run it (the worker-side hot path).

    The payload must decode to a ``(fn, args, kwargs)`` job spec whose
    ``fn`` is a registered callable; anything else — junk bytes, an
    unregistered name, the wrong shape — raises
    :class:`~repro.exceptions.CodecError`.  Cacheable schemes decode
    through this process's one :class:`SchemeCache`.
    """
    fn, args, kwargs = decode_job(raw, cache=_scheme_cache)
    return fn(*args, **kwargs)


def execute_chunk_report(
    raw: bytes, throttle: float = 0.0
) -> tuple[list[tuple[bool, bytes]], dict]:
    """Run one chunk payload; return outcomes plus an execution report.

    The chunk envelope itself must decode (a corrupted chunk raises
    :class:`~repro.exceptions.CodecError` — the chunk-level failure
    path); inside it, every job is isolated: a job that raises, or
    whose result the typed codec cannot encode, becomes its own
    ``ok=False`` outcome carrying the error text while its siblings
    still succeed.

    The report dict carries ``cache_hits``/``cache_misses``: this
    chunk's scheme-cache deltas, exact because a worker runs one chunk
    at a time.
    ``throttle`` sleeps that many seconds after each job — an
    artificial straggler for benchmarks and scheduler tests, never set
    in production.
    """
    before = _scheme_cache.stats()
    out: list[tuple[bool, bytes]] = []
    for job_raw in decode_cluster_chunk(raw):
        try:
            result = execute_payload(job_raw)
            out.append((True, encode_cluster_payload(result)))
        except Exception as exc:
            out.append(
                (False, encode_cluster_payload(f"{type(exc).__name__}: {exc}"))
            )
        if throttle > 0.0:
            time.sleep(throttle)
    after = _scheme_cache.stats()
    report = {
        "cache_hits": after["hits"] - before["hits"],
        "cache_misses": after["misses"] - before["misses"],
    }
    return out, report


async def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    throttle: float = 0.0,
    connect_retry_s: float = 0.0,
    security: SecurityConfig | None = None,
    max_frame: int = MAX_CLUSTER_FRAME_BYTES,
    shutdown: asyncio.Event | None = None,
    health: HealthState | None = None,
    preload: tuple[str, ...] = (),
) -> int:
    """Serve one coordinator until bye/EOF/``shutdown``; return jobs done.

    Chunks run one at a time, in arrival order, on a thread off the
    loop.  ``throttle`` adds an artificial per-job delay (straggler
    injection for benches and scheduler tests).  ``connect_retry_s``
    keeps re-dialling a coordinator that has not bound its port yet —
    workers racing the coordinator's startup across hosts is normal,
    not an error (:func:`repro.net.transport.dial`).  ``security``
    carries the coordinator's shared secret and TLS pin: when a secret
    is set the worker completes the repro.net HMAC handshake before its
    ``hello`` frame.  ``shutdown`` is the graceful-exit hook the signal
    handlers set; set while the worker is still dialling, it returns 0
    at once.  ``health`` (optional) tracks readiness: ready once the
    hello is sent, flipped to draining the moment a shutdown begins —
    the ``/readyz`` half of a worker's ``--metrics-port`` endpoint.
    ``preload`` names modules imported before serving, so third-party
    jobcodec registrations exist before the first chunk; ``max_frame``
    caps frames both ways (a test hook for the answer path).
    """
    if heartbeat_interval <= 0:
        raise EngineError(
            f"heartbeat interval must be positive, got {heartbeat_interval}"
        )
    if throttle < 0:
        raise EngineError(f"throttle must be >= 0, got {throttle}")
    worker_id = worker_id or default_worker_id()
    jobs_done = 0
    # Preloads resolve before dialling: a misspelled --preload module
    # is a startup error, not a per-chunk surprise.
    for name in preload:
        importlib.import_module(name)

    loop = asyncio.get_running_loop()
    # Without a shutdown event the stop never comes.
    stop_task = (
        asyncio.ensure_future(shutdown.wait())
        if shutdown is not None
        else loop.create_future()
    )
    dialling = asyncio.ensure_future(
        dial(host, port, security, connect_retry_s=connect_retry_s)
    )
    try:
        await asyncio.wait(
            (dialling, stop_task), return_when=asyncio.FIRST_COMPLETED
        )
        if not dialling.done():
            # A stop while dialling: nothing registered, nothing to drain.
            dialling.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await dialling
            return 0
        reader, writer = dialling.result()
    except BaseException:
        stop_task.cancel()
        dialling.cancel()
        raise
    write_lock = asyncio.Lock()
    # One chunk computes at a time; the rest wait here in arrival
    # order (the coordinator keeps up to two in flight).
    compute_lock = asyncio.Lock()
    inflight: set[asyncio.Task] = set()

    async def send(frame) -> None:
        async with write_lock:
            await write_frame(writer, frame, max_frame=max_frame)

    def heartbeats():
        return heartbeat_loop(
            lambda: send(HeartbeatFrame(worker_id=worker_id)),
            heartbeat_interval,
        )

    async def run_job(frame: JobFrame) -> None:
        nonlocal jobs_done
        # Span export: a traced chunk's execution is
        # timed as a span parented under the coordinator's chunk
        # span, recorded locally (flight recorder) and attached to
        # the result envelope so the coordinator can assemble the
        # full distributed waterfall.  Untraced chunks pay nothing.
        exec_span: Span | None = None
        try:
            async with compute_lock:
                with bind_trace(frame.trace_id, frame.span_id):
                    log_event(
                        _log,
                        "chunk_executing",
                        level=logging.DEBUG,
                        chunk=frame.job_id,
                        worker=worker_id,
                    )
                started = time.perf_counter()
                if frame.trace_id is not None:
                    exec_span = Span.begin(
                        "worker.execute",
                        trace_id=frame.trace_id,
                        parent_id=frame.span_id,
                    )
                    exec_span.attributes.update(
                        worker=worker_id, chunk=frame.job_id
                    )
                # The loop's default thread pool keeps heartbeats
                # alive during compute.
                entries, report = await loop.run_in_executor(
                    None,
                    functools.partial(
                        execute_chunk_report, frame.payload, throttle
                    ),
                )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            with bind_trace(frame.trace_id, frame.span_id):
                log_event(
                    _log,
                    "chunk_failed",
                    level=logging.WARNING,
                    chunk=frame.job_id,
                    worker=worker_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
            # The survival contract: a chunk envelope that does not
            # decode (CodecError) — or any other chunk-level
            # surprise — comes back as data, never a worker crash.
            # Per-job failures were already folded into ``entries``
            # by execute_chunk_report and do not land here.
            error_spans: tuple = ()
            if exec_span is not None:
                exec_span.finish(status=f"error:{type(exc).__name__}")
                default_span_buffer().add(exec_span)
                error_spans = (exec_span.to_wire(),)
            await send(
                ResultFrame(
                    job_id=frame.job_id,
                    ok=False,
                    payload=encode_cluster_payload(
                        f"{type(exc).__name__}: {exc}"
                    ),
                    spans=error_spans,
                )
            )
            return
        jobs_done += len(entries)
        with bind_trace(frame.trace_id, frame.span_id):
            log_event(
                _log,
                "chunk_executed",
                level=logging.DEBUG,
                chunk=frame.job_id,
                worker=worker_id,
                jobs=len(entries),
                elapsed_s=round(time.perf_counter() - started, 6),
            )
        wire_spans: tuple = ()
        if exec_span is not None:
            exec_span.finish(jobs=len(entries))
            default_span_buffer().add(exec_span)
            wire_spans = (exec_span.to_wire(),)
        try:
            await send(
                ResultFrame(
                    job_id=frame.job_id,
                    ok=True,
                    payload=encode_cluster_outcomes(entries),
                    spans=wire_spans,
                    cache_hits=report["cache_hits"],
                    cache_misses=report["cache_misses"],
                )
            )
        except ReproError as exc:
            # The survival contract extends to the *answer* path:
            # outcomes that will not encode or frame (past the
            # payload cap, or past a small max_frame) must come back
            # as a chunk-level error — an unanswered chunk would
            # hang the caller forever on a worker that still
            # heartbeats.  (Transport errors propagate: EOF handling
            # owns those.)
            await send(
                ResultFrame(
                    job_id=frame.job_id,
                    ok=False,
                    payload=encode_cluster_payload(
                        f"{type(exc).__name__}: {exc}"
                    ),
                )
            )

    hb_task = asyncio.ensure_future(heartbeats())
    try:
        await send(WorkerHello(worker_id=worker_id, capacity=1))
        if health is not None:
            # Registered with a coordinator and able to take work —
            # the moment /readyz should start answering 200.
            health.set_ready(True)
        while True:
            frame_task = asyncio.ensure_future(
                read_frame(reader, max_frame=max_frame)
            )
            done, _pending = await asyncio.wait(
                (frame_task, stop_task), return_when=asyncio.FIRST_COMPLETED
            )
            if stop_task in done:
                if health is not None:
                    # Drain: flip readiness *before* flushing
                    # in-flight chunks so an LB stops routing
                    # while the work completes.
                    health.set_ready(False, "draining")
                frame_task.cancel()
                with contextlib.suppress(
                    asyncio.CancelledError, ReproError
                ):
                    await frame_task
                if inflight:  # flush chunks already computing
                    await asyncio.wait(inflight, timeout=5.0)
                with contextlib.suppress(Exception):
                    await send(ByeFrame(reason="worker shutdown"))
                break
            frame = frame_task.result()  # ProtocolError/CodecError here
            if frame is None:
                break
            if isinstance(frame, ByeFrame):
                # A refusal (version skew, bad hello) is an
                # operator problem — exit loudly, not a quiet
                # zero-job success.
                if frame.reason.startswith("incompatible"):
                    raise EngineError(
                        f"coordinator refused worker: {frame.reason}"
                    )
                break
            if isinstance(frame, JobFrame):
                task = asyncio.ensure_future(run_job(frame))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
            # Anything else from a well-behaved coordinator is
            # unexpected but harmless; ignore it.
    finally:
        if health is not None:
            health.set_ready(False, "stopped")
        for task in (hb_task, stop_task, *inflight):
            task.cancel()
        for task in (hb_task, stop_task, *inflight):
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        await close_writer(writer)
    return jobs_done


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster-worker",
        description="Cluster worker daemon for the repro execution engine",
    )
    add_worker_args(parser)
    return parser


def run_parsed(args: argparse.Namespace) -> int:
    """Run the daemon from :func:`repro.launch.add_worker_args`' flags;
    returns a process exit code.

    The shared entry point behind ``python -m repro.cli worker`` and
    ``python -m repro.engine.cluster.worker``, inside the
    :class:`~repro.obs.health.Daemon` shell (graceful SIGINT/SIGTERM
    exit, ``--metrics-port``, ``--flight-dir``).  ``--secret-file`` and
    ``--tls-cert`` are the operator-distributed security material (see
    README "Security model"); ``--trace`` turns on JSON logging at DEBUG
    so chunk execution records (with the coordinator's trace/span ids)
    reach stderr.
    """
    if args.trace:
        configure_logging(json=True, level=logging.DEBUG)
    worker_id = args.worker_id or default_worker_id()
    try:
        security = SecurityConfig.from_options(
            secret_file=args.secret_file, tls_cert=args.tls_cert
        )
    except ReproError as exc:
        print(f"cluster worker failed: {exc}", file=sys.stderr)
        return 1

    async def runner() -> int:
        async with Daemon(
            worker_id if worker_id.startswith("worker-") else f"worker-{worker_id}",
            default_registry(),
            flight_dir=args.flight_dir,
            metrics_port=args.metrics_port,
        ) as daemon:
            # Not ready until run_worker has registered with a coordinator.
            daemon.health.set_ready(False, "not connected")
            port = daemon.expose()
            if port is not None:
                print(
                    f"cluster worker metrics on http://127.0.0.1:{port}/metrics",
                    flush=True,
                )
            return await run_worker(
                args.host,
                args.port,
                worker_id=worker_id,
                heartbeat_interval=args.heartbeat_interval,
                throttle=args.throttle,
                connect_retry_s=args.connect_retry_s,
                security=security,
                shutdown=daemon.stop,
                health=daemon.health,
                preload=tuple(args.preload or ()),
            )

    try:
        jobs_done = asyncio.run(runner())
    except (ReproError, ConnectionError, OSError) as exc:
        print(f"cluster worker failed: {exc}", file=sys.stderr)
        return 1
    print(f"cluster worker done ({jobs_done} jobs)", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: run one worker daemon until signalled or dismissed."""
    return run_parsed(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
