"""Cluster worker daemon: the socket shell around the chunk protocol.

One worker is one long-lived, serial process on one host, so a host
uses its cores by running one daemon per core (the coordinator's
spawn-local mode does exactly that).  It dials the coordinator,
registers with a ``hello`` frame (id, capacity 1, wire version), then
answers ``job`` frames until a ``bye``, an EOF or a shutdown signal.
What a chunk means is :func:`repro.engine.cluster.chunk.answer`,
synchronous and socket-free; this module only moves its frames.  Chunks
compute one at a time, in arrival order, on a thread off the loop, so
heartbeats keep flowing while one computes (that is how the coordinator
tells *busy* from *dead*) and each result is written while the next
chunk computes.

Run it standalone (``python -m repro.engine.cluster.worker``) or via
the CLI (``python -m repro.cli worker``); the coordinator's spawn-local
mode launches exactly this module.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import contextlib
import importlib
import logging
import os
import secrets
import sys

from repro.engine.cluster.chunk import answer, failed
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
from repro.obs.logging import configure_logging
from repro.obs.metrics import default_registry
from repro.service.codec import (
    ByeFrame,
    HeartbeatFrame,
    JobFrame,
    WorkerHello,
    read_frame,
    write_frame,
)


def default_worker_id() -> str:
    """A collision-resistant id: pid plus a random suffix."""
    return f"worker-{os.getpid()}-{secrets.token_hex(3)}"


async def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    throttle: float = 0.0,
    connect_retry_s: float = 0.0,
    security: SecurityConfig | None = None,
    max_frame: int = MAX_CLUSTER_FRAME_BYTES,
    shutdown: asyncio.Event | None = None,
    health: HealthState | None = None,
    preload: tuple[str, ...] = (),
) -> int:
    """Serve one coordinator until bye/EOF/``shutdown``; return jobs done.

    ``throttle`` adds an artificial per-job delay (straggler injection
    for benches and scheduler tests, :func:`answer`).  ``connect_retry_s``
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
    # One thread computes chunks in arrival order (the coordinator keeps
    # up to two in flight); ``answers`` holds each chunk's pending
    # answer, in the same order, for the one coroutine that writes them.
    compute = concurrent.futures.ThreadPoolExecutor(
        1, thread_name_prefix="repro-worker"
    )
    answers: asyncio.Queue = asyncio.Queue()

    async def send(frame) -> None:
        # Synchronous up to its drain: heartbeats and results cannot
        # interleave.
        await write_frame(writer, frame, max_frame=max_frame)

    async def write_answers() -> None:
        nonlocal jobs_done
        while True:
            frame, answering = await answers.get()
            result, jobs = await answering
            jobs_done += jobs
            try:
                await send(result)
            except ReproError as exc:
                # A result that will not frame (past a small max_frame)
                # is still answered: an unanswered chunk would hang the
                # caller on a worker that heartbeats.  Transport errors
                # propagate; EOF handling owns those.
                await send(failed(frame, exc))
            answers.task_done()

    tasks = (
        asyncio.ensure_future(
            heartbeat_loop(
                lambda: send(HeartbeatFrame(worker_id=worker_id)),
                DEFAULT_HEARTBEAT_INTERVAL,
            )
        ),
        asyncio.ensure_future(write_answers()),
    )
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
                # Flush the chunks already received.
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(answers.join(), 5.0)
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
                answering = loop.run_in_executor(
                    compute, answer, frame, worker_id, throttle
                )
                answers.put_nowait((frame, answering))
            # Anything else from a well-behaved coordinator is
            # unexpected but harmless; ignore it.
    finally:
        if health is not None:
            health.set_ready(False, "stopped")
        compute.shutdown(wait=False, cancel_futures=True)
        for task in (*tasks, stop_task):
            task.cancel()
        for task in (*tasks, stop_task):
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
