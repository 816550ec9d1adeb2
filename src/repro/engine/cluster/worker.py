"""Cluster worker daemon: execute typed job chunks for a coordinator.

One worker is one long-lived process on one host.  It dials the
coordinator, registers with a ``hello`` frame (id, capacity, wire
version), then serves ``job`` frames until a ``bye``, an EOF or a
shutdown signal: each payload is a *chunk* — an ordered sequence of
typed ``(fn, args, kwargs)`` job specs (:mod:`repro.service.jobcodec`
— data, never code: functions arrive as registered names, arguments as
schema-checked values), sized per worker by the coordinator's
throughput tracker — executed on the worker's *local* execution engine
(serial, threads or processes — a cluster worker is itself a
single-host engine user) and answered with the chunk's ordered
per-job ``(ok, payload)`` outcomes in the same typed encoding.

Scheme memory: cacheable structs (the verification schemes) decode
through a bounded process-wide LRU keyed by (scheme name, canonical
param bytes), so one population constructs its scheme once per worker
process, not once per chunk.  Hit/miss deltas ride back on each
result frame (``cache_hits``/``cache_misses``) and feed this worker's
own ``repro_scheme_cache_*_total`` counters.

A chunk's outcomes travel home in exactly one ``result`` frame.

Survival contract: a worker never dies because of a job.  A corrupted
or oversized chunk payload — or outcomes too large to frame — comes
back as a chunk-level ``ok=False`` result; a single job whose function
raises (or whose result the typed codec cannot encode) comes back as
that job's ``ok=False`` outcome while its chunk siblings succeed — and
the worker keeps serving.
Jobs run off the event loop (on the engine's pool, or a thread for
the serial engine) so heartbeats keep flowing while a chunk computes
— that is what lets the coordinator tell *busy* from *dead*.

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
import signal
import sys
import time

from repro.engine.executor import get_executor
from repro.exceptions import EngineError, ReproError
from repro.net.transport import (
    DEFAULT_HEARTBEAT_INTERVAL,
    SecurityConfig,
    close_writer,
    heartbeat_loop,
    open_connection,
)
from repro.obs.health import HealthState
from repro.obs.http import MetricsServer
from repro.obs.recorder import FlightRecorder, install_flight_recorder
from repro.obs.spans import Span, default_span_buffer
from repro.obs.logging import configure_logging, get_logger, log_event
from repro.obs.metrics import LATENCY_BUCKETS, SIZE_BUCKETS, default_registry
from repro.obs.trace import bind_trace
from repro.service.jobcodec import (
    SchemeCache,
    decode_job,
    ensure_default_registry,
)
from repro.service.codec import (
    MAX_CLUSTER_FRAME_BYTES,
    ByeFrame,
    HeartbeatFrame,
    JobFrame,
    ResultFrame,
    WorkerHello,
    decode_cluster_chunk,
    encode_cluster_outcomes,
    encode_cluster_payload,
    read_frame,
    write_frame,
)

_log = get_logger("cluster.worker")

# Worker-side instruments live on the process-global registry: one
# worker daemon is one process, so there is no instance to scope to,
# and ``--metrics-port`` scrapes exactly this registry.
_metrics_handles: tuple | None = None


def _worker_metrics():
    global _metrics_handles
    if _metrics_handles is None:
        reg = default_registry()
        _metrics_handles = (
            reg.counter(
                "repro_worker_chunks_total",
                "Chunks executed by this worker, by outcome",
                ("outcome",),
            ),
            reg.counter(
                "repro_worker_jobs_total",
                "Jobs executed by this worker (chunk entries)",
            ),
            reg.histogram(
                "repro_worker_dispatch_seconds",
                "Seconds a chunk waits for a local pool slot",
                buckets=LATENCY_BUCKETS,
            ),
            reg.histogram(
                "repro_job_bytes",
                "Encoded job-spec payload bytes, by plane",
                ("plane",),
                buckets=SIZE_BUCKETS,
            ),
            reg.histogram(
                "repro_result_bytes",
                "Encoded per-job result payload bytes, by plane",
                ("plane",),
                buckets=SIZE_BUCKETS,
            ),
            reg.counter(
                "repro_scheme_cache_hits_total",
                "Scheme-cache hits (schemes reused across chunks), by plane",
                ("plane",),
            ),
            reg.counter(
                "repro_scheme_cache_misses_total",
                "Scheme-cache misses (schemes constructed), by plane",
                ("plane",),
            ),
        )
    return _metrics_handles


# One scheme cache per worker *process*: the daemon shares it across
# chunks on the serial/threads engines, and each process-pool child
# grows its own copy — either way a population's scheme is built once
# per process, not once per chunk.
_scheme_cache = SchemeCache()


def scheme_cache() -> SchemeCache:
    """This process's job-decode scheme cache (tests and stats)."""
    return _scheme_cache


def _import_preload(preload: tuple[str, ...]) -> None:
    """Import codec-registration modules by name (idempotent).

    ``sys.modules`` makes repeat calls free, so this can run inside
    every chunk execution — which is exactly what gets third-party
    struct/callable registrations into process-pool children that
    never ran the daemon's startup path.
    """
    for name in preload:
        importlib.import_module(name)


def default_worker_id() -> str:
    """A collision-resistant id: pid plus a random suffix."""
    return f"worker-{os.getpid()}-{secrets.token_hex(3)}"


def execute_payload(raw: bytes) -> object:
    """Decode one typed job spec and run it (the worker-side hot path).

    The payload must decode to a ``(fn, args, kwargs)`` job spec whose
    ``fn`` is a registered callable; anything else — junk bytes, an
    unregistered name, the wrong shape — raises
    :class:`~repro.exceptions.CodecError`.  Cacheable schemes decode
    through this process's :func:`scheme_cache`.  Module-level so the
    process-engine pool can ship it by reference.
    """
    fn, args, kwargs = decode_job(raw, cache=_scheme_cache)
    return fn(*args, **kwargs)


def execute_chunk_report(
    raw: bytes,
    throttle: float = 0.0,
    preload: tuple[str, ...] = (),
) -> tuple[list[tuple[bool, bytes]], dict]:
    """Run one chunk payload; return outcomes plus an execution report.

    The chunk envelope itself must decode (a corrupted chunk raises
    :class:`~repro.exceptions.CodecError` — the chunk-level failure
    path); inside it, every job is isolated: a job that raises, or
    whose result the typed codec cannot encode, becomes its own
    ``ok=False`` outcome carrying the error text while its siblings
    still succeed.  Module-level so the process-engine pool can ship
    it by reference — the report travels back with the outcomes, which
    is how scheme-cache activity inside pool children reaches the
    daemon.

    The report dict carries ``cache_hits``/``cache_misses`` (this
    chunk's scheme-cache deltas) and ``job_bytes`` (per-job encoded
    spec sizes).  ``throttle`` sleeps that many seconds after each job
    — an artificial straggler for benchmarks and scheduler tests,
    never set in production.
    """
    ensure_default_registry()
    _import_preload(preload)
    before = _scheme_cache.stats()
    out: list[tuple[bool, bytes]] = []
    job_bytes: list[int] = []
    for job_raw in decode_cluster_chunk(raw):
        job_bytes.append(len(job_raw))
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
        "job_bytes": job_bytes,
    }
    return out, report


async def run_worker(
    host: str,
    port: int,
    *,
    engine: str = "serial",
    workers: int | None = None,
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

    ``engine``/``workers`` pick the worker's local execution backend —
    ``"cluster"`` is rejected (a worker must not recurse into another
    coordinator).  ``throttle`` adds
    an artificial per-job delay (straggler injection for benches and
    scheduler tests).  ``connect_retry_s`` keeps re-dialling a
    coordinator that has not bound its port yet — workers racing the
    coordinator's startup across hosts is normal, not an error
    (shared :func:`repro.net.transport.open_connection` backoff).
    ``security`` carries the coordinator's shared secret and TLS pin:
    when a secret is set the worker completes the repro.net HMAC
    handshake before its ``hello`` frame.  ``shutdown`` is the
    graceful-exit hook the signal handlers set.  ``health`` (optional)
    tracks readiness: ready once the hello is sent, flipped to
    draining the moment a shutdown begins — the ``/readyz`` half of a
    worker's ``--metrics-port`` endpoint.  ``preload`` names modules
    imported before serving (and again inside every chunk, where
    ``sys.modules`` makes it free) so third-party jobcodec
    registrations exist in the daemon *and* in process-pool children.
    """
    if engine == "cluster":
        raise EngineError("a cluster worker cannot use the cluster engine")
    if heartbeat_interval <= 0:
        raise EngineError(
            f"heartbeat interval must be positive, got {heartbeat_interval}"
        )
    if throttle < 0:
        raise EngineError(f"throttle must be >= 0, got {throttle}")
    if connect_retry_s < 0:
        raise EngineError(
            f"connect retry must be >= 0, got {connect_retry_s}"
        )
    worker_id = worker_id or default_worker_id()
    jobs_done = 0
    preload = tuple(preload)
    # Registry + preloads resolve before dialling: a misspelled
    # --preload module is a startup error, not a per-chunk surprise.
    ensure_default_registry()
    _import_preload(preload)

    with get_executor(engine, workers) as executor:
        loop = asyncio.get_running_loop()
        # Warm the local pool before dialling: the coordinator starts
        # scheduling the moment the hello lands, and the first chunk
        # must not pay process-pool startup on the request path.
        # Synchronous on purpose — nothing else is on the loop yet.
        executor.prewarm()
        reader, writer = await open_connection(
            host,
            port,
            ssl_context=(
                security.client_ssl_context() if security is not None else None
            ),
            connect_retry_s=connect_retry_s,
        )
        if security is not None:
            # Authenticate before the hello: a worker that cannot
            # prove the shared secret never gets to speak the codec.
            try:
                await security.authenticate_outbound(reader, writer)
            except BaseException:
                await close_writer(writer)
                raise
        write_lock = asyncio.Lock()
        slots = asyncio.Semaphore(executor.workers)
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
            (
                m_chunks,
                m_jobs,
                m_dispatch,
                m_job_bytes,
                m_result_bytes,
                m_cache_hits,
                m_cache_misses,
            ) = _worker_metrics()
            queued_at = time.perf_counter()
            # Span export: a traced chunk's execution is
            # timed as a span parented under the coordinator's chunk
            # span, recorded locally (flight recorder) and attached to
            # the result envelope so the coordinator can assemble the
            # full distributed waterfall.  Untraced chunks pay nothing.
            exec_span: Span | None = None
            try:
                async with slots:
                    m_dispatch.observe(time.perf_counter() - queued_at)
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
                    # futures_pool is None on the serial engine; the
                    # loop's default thread pool keeps heartbeats alive
                    # during compute either way.
                    entries, report = await loop.run_in_executor(
                        executor.futures_pool,
                        functools.partial(
                            execute_chunk_report,
                            frame.payload,
                            throttle,
                            preload,
                        ),
                    )
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                m_chunks.labels(outcome="error").inc()
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
            m_chunks.labels(outcome="ok").inc()
            m_jobs.inc(len(entries))
            cache_hits = report["cache_hits"]
            cache_misses = report["cache_misses"]
            for size in report["job_bytes"]:
                m_job_bytes.labels(plane="worker").observe(size)
            observe_result = m_result_bytes.labels(plane="worker").observe
            for ok, payload in entries:
                if ok:
                    observe_result(len(payload))
            if cache_hits:
                m_cache_hits.labels(plane="worker").inc(cache_hits)
            if cache_misses:
                m_cache_misses.labels(plane="worker").inc(cache_misses)
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
                        cache_hits=cache_hits,
                        cache_misses=cache_misses,
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
        stop_task = (
            asyncio.ensure_future(shutdown.wait())
            if shutdown is not None
            else None
        )
        try:
            await send(
                WorkerHello(worker_id=worker_id, capacity=executor.workers)
            )
            if health is not None:
                # Registered with a coordinator and able to take work —
                # the moment /readyz should start answering 200.
                health.set_ready(True)
            while True:
                frame_task = asyncio.ensure_future(
                    read_frame(reader, max_frame=max_frame)
                )
                waits = {frame_task}
                if stop_task is not None:
                    waits.add(stop_task)
                done, _pending = await asyncio.wait(
                    waits, return_when=asyncio.FIRST_COMPLETED
                )
                if stop_task is not None and stop_task in done:
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
            hb_task.cancel()
            if stop_task is not None:
                stop_task.cancel()
            for task in list(inflight):
                task.cancel()
            for task in (hb_task, stop_task, *inflight):
                if task is not None:
                    with contextlib.suppress(
                        asyncio.CancelledError, Exception
                    ):
                        await task
            await close_writer(writer)
    return jobs_done


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def add_worker_args(parser: argparse.ArgumentParser) -> None:
    """The worker daemon's flags — shared by this module's standalone
    parser and the CLI's ``worker`` subcommand, so the two entry points
    cannot drift."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="coordinator host")
    parser.add_argument("--port", type=int, required=True,
                        help="coordinator port")
    parser.add_argument("--engine", default="serial",
                        choices=("serial", "threads", "processes"),
                        help="local execution backend for job chunks")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        help="local pool size (default: CPU count)")
    parser.add_argument("--id", default=None, dest="worker_id",
                        help="worker id (default: pid-based)")
    parser.add_argument("--heartbeat", type=float,
                        default=DEFAULT_HEARTBEAT_INTERVAL,
                        dest="heartbeat_interval",
                        help="seconds between liveness beacons "
                        "(default: %(default)s)")
    parser.add_argument("--throttle", type=float, default=0.0,
                        help="artificial per-job delay in seconds "
                        "(straggler injection for benches/tests)")
    parser.add_argument("--preload", action="append", default=None,
                        metavar="MODULE", dest="preload",
                        help="import this module before serving (repeat "
                        "for more) — the hook for registering extra "
                        "jobcodec structs/callables on the worker; "
                        "imported again inside each chunk so "
                        "process-pool children get the registrations "
                        "too")
    parser.add_argument("--connect-retry", type=float, default=0.0,
                        dest="connect_retry_s",
                        help="seconds to keep re-dialling a coordinator "
                        "that is not accepting yet (default: fail fast)")
    parser.add_argument("--secret-file", default=None, dest="secret_file",
                        help="path to the coordinator's shared secret; "
                        "the worker authenticates (HMAC-SHA256 "
                        "challenge/response) before its hello frame")
    parser.add_argument("--tls-cert", default=None, dest="tls_cert",
                        help="path to the coordinator's TLS certificate "
                        "(pinned as the trust anchor; enables TLS)")
    parser.add_argument("--trace", action="store_true",
                        help="emit structured JSON log records (DEBUG) "
                        "carrying the trace/span ids each chunk arrived "
                        "with — the worker half of a --trace run")
    parser.add_argument("--metrics-port", type=int, default=None,
                        dest="metrics_port",
                        help="serve this worker's /metrics (Prometheus "
                        "text), /stats (JSON) and /healthz + /readyz "
                        "probes on this localhost port (0 picks a free "
                        "one)")
    parser.add_argument("--flight-dir", default=None, dest="flight_dir",
                        help="arm the flight recorder: dump a JSON "
                        "artifact of recent events + spans into this "
                        "directory on crash, SIGUSR1, and clean "
                        "shutdown")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster-worker",
        description="Cluster worker daemon for the repro execution engine",
    )
    add_worker_args(parser)
    return parser


def run_worker_sync(
    host: str,
    port: int,
    *,
    engine: str = "serial",
    workers: int | None = None,
    worker_id: str | None = None,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    throttle: float = 0.0,
    connect_retry_s: float = 0.0,
    secret_file: str | None = None,
    tls_cert: str | None = None,
    trace: bool = False,
    metrics_port: int | None = None,
    flight_dir: str | None = None,
    preload: tuple[str, ...] = (),
) -> int:
    """Blocking daemon wrapper with graceful SIGINT/SIGTERM exit.

    The shared entry point behind ``python -m repro.cli worker`` and
    ``python -m repro.engine.cluster.worker``; returns a process exit
    code.  ``secret_file``/``tls_cert`` are the operator-distributed
    security material (see README "Security model").  ``trace`` turns
    on JSON logging at DEBUG so chunk execution records (with the
    coordinator's trace/span ids) reach stderr; ``metrics_port``
    serves the worker's registry plus ``/healthz``/``/readyz`` over
    localhost HTTP; ``flight_dir`` arms the flight recorder (dump on
    crash, SIGUSR1, and clean shutdown).
    """
    if trace:
        configure_logging(json=True, level=logging.DEBUG)
    recorder: FlightRecorder | None = None
    if flight_dir is not None:
        recorder = FlightRecorder(
            process=f"worker-{worker_id or default_worker_id()}"
        )
        recorder.attach()
        install_flight_recorder(recorder, flight_dir)
    try:
        security = SecurityConfig.from_options(
            secret_file=secret_file, tls_cert=tls_cert
        )
    except ReproError as exc:
        print(f"cluster worker failed: {exc}", file=sys.stderr)
        return 1

    async def runner() -> int:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled: list[signal.Signals] = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                handled.append(sig)
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        try:
            return await run_worker(
                host,
                port,
                engine=engine,
                workers=workers,
                worker_id=worker_id,
                heartbeat_interval=heartbeat_interval,
                throttle=throttle,
                connect_retry_s=connect_retry_s,
                security=security,
                shutdown=stop,
                health=health,
                preload=preload,
            )
        finally:
            for sig in handled:
                loop.remove_signal_handler(sig)

    # Not ready until run_worker has registered with a coordinator.
    health = HealthState()
    health.set_ready(False, "not connected")
    metrics_server: MetricsServer | None = None
    try:
        if metrics_port is not None:
            metrics_server = MetricsServer(
                default_registry(), port=metrics_port, health=health
            )
            print(
                f"cluster worker metrics on http://127.0.0.1:"
                f"{metrics_server.port}/metrics",
                flush=True,
            )
        jobs_done = asyncio.run(runner())
    except (ReproError, ConnectionError, OSError) as exc:
        print(f"cluster worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if recorder is not None and flight_dir is not None:
            with contextlib.suppress(OSError):
                path = recorder.dump_to_dir(flight_dir, reason="shutdown")
                print(f"flight recorder dump: {path}", flush=True)
    print(f"cluster worker done ({jobs_done} jobs)", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: run one worker daemon until signalled or dismissed."""
    args = build_parser().parse_args(argv)
    return run_worker_sync(
        args.host,
        args.port,
        engine=args.engine,
        workers=args.workers,
        worker_id=args.worker_id,
        heartbeat_interval=args.heartbeat_interval,
        throttle=args.throttle,
        connect_retry_s=args.connect_retry_s,
        secret_file=args.secret_file,
        tls_cert=args.tls_cert,
        trace=args.trace,
        metrics_port=args.metrics_port,
        flight_dir=args.flight_dir,
        preload=tuple(args.preload or ()),
    )


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
