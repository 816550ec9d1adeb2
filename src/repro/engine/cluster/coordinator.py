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

Two classes, one owner each.  *What happens next* — which worker gets
which jobs, what is requeued, parked, failed or resolved — is decided
by :class:`repro.engine.cluster.scheduler.Scheduler`, synchronous and
I/O-free (its module docstring has the topology, the scheduling policy
and the event table).  :class:`_Coordinator` here is the socket shell
around it: it listens through :class:`repro.net.transport.Listener`
(which runs the auth handshake), reads each worker's ``hello``, turns
each connection's frames into scheduler events, writes the chunks the
scheduler sends, and ticks it from a timer.  It holds writers and
tasks, and no scheduling state.

Deployment modes: **spawn-local** (default — the coordinator launches
``workers`` daemon subprocesses on this host; benches, tests, and the
CLI's ``--engine cluster --workers N``) and **external**
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
import os
import subprocess
import sys
import threading
import time
from operator import attrgetter
from typing import Any, Callable, Sequence

from repro.engine.cluster.scheduler import Scheduler
from repro.engine.executor import Executor, _metered_map, default_workers
from repro.exceptions import EngineError, ReproError
from repro.net.framing import MAX_CLUSTER_FRAME_BYTES
from repro.net.transport import Listener, SecurityConfig
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanBuffer
from repro.obs.trace import current_trace
from repro.service.codec import (
    CLUSTER_WIRE_VERSION,
    ByeFrame,
    JobFrame,
    ResultFrame,
    WorkerHello,
    read_frame,
    write_frame,
)
from repro.service.jobcodec import encode_job

#: Seconds of silence (no frame, no heartbeat) before a worker is
#: declared dead.  Generous relative to the workers' beacon interval
#: (``repro.launch.DEFAULT_HEARTBEAT_INTERVAL``): EOF detection catches
#: crashes instantly, this only fences network half-death.
HEARTBEAT_TIMEOUT = 10.0

#: Assignments a job gets before its map fails with the last error.
MAX_ATTEMPTS = 3

#: Seconds the first ``map`` waits for the listener to bind, then again
#: for the workers to register.
STARTUP_TIMEOUT = 60.0

#: The ``python -c`` program a spawn-local worker runs.  A shim rather
#: than ``-m``: the daemon runs as the module repro.engine.cluster.worker,
#: not as a ``__main__`` copy of it.
WORKER_ENTRY = (
    "import sys; from repro.engine.cluster.worker import main; "
    "sys.exit(main(sys.argv[1:]))"
)

#: The counter keys of :attr:`ClusterExecutor.stats` and what each one
#: reads off the coordinator.
_STAT_COUNTERS = {
    "jobs_completed": attrgetter("scheduler._m_jobs_completed.value"),
    "jobs_requeued": attrgetter("scheduler._m_jobs_requeued.value"),
    "chunks_completed": attrgetter("scheduler._m_chunks_completed.value"),
    "chunks_requeued": attrgetter("scheduler._m_chunks_requeued.value"),
    "result_bytes": attrgetter("scheduler._m_result_bytes.sum"),
    "workers_lost": attrgetter("scheduler._m_workers_lost.value"),
    "auth_rejects": attrgetter("listener.auth_failures.value"),
    "scheme_cache_hits": attrgetter("scheduler._m_cache_hits.value"),
    "scheme_cache_misses": attrgetter("scheduler._m_cache_misses.value"),
}

_log = get_logger("cluster.coordinator")


class _Coordinator:
    """The socket shell around a :class:`Scheduler`.

    Loop-thread-only.  Owns the listener (which holds one task per
    connection), one task per outgoing chunk and the ``writers`` map
    (worker id -> the stream its frames go out on); a connection speaks
    for its worker id exactly while its writer is the one in that map.
    """

    def __init__(
        self,
        *,
        more_workers_expected: Callable[[], bool],
        security: SecurityConfig | None = None,
        registry: MetricsRegistry | None = None,
        **scheduling,
    ) -> None:
        self._more_workers_expected = more_workers_expected
        self.registry = registry if registry is not None else MetricsRegistry()
        # Everything else the executor was configured with is scheduling
        # policy, and goes to its one owner unread.
        self.scheduler = Scheduler(
            send=self._send,
            hang_up=self._hang_up,
            registry=self.registry,
            **scheduling,
        )
        self.writers: dict[str, asyncio.StreamWriter] = {}
        # The repro.net HMAC handshake gates the job plane: a peer
        # without the shared secret is rejected before any frame or
        # typed payload is decoded.
        self.listener = Listener(
            self._serve_worker, security, self.registry, "cluster"
        )
        self._m_errors = self.registry.counter(
            "repro_errors_total",
            "Errors that dropped a connection or request, by site",
            ("site",),
        )
        self._monitor_task: asyncio.Task | None = None
        self._send_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle (awaited from the loop thread)
    # ------------------------------------------------------------------

    async def start(self, host: str, port: int) -> tuple[str, int]:
        address = await self.listener.start(host, port)
        self._monitor_task = asyncio.ensure_future(self._monitor())
        return address

    async def stop(self) -> None:
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
            self._monitor_task = None
        await self.listener.close()
        # Shutdown is not a fault: the scheduler forgets its work and
        # its workers first, so tearing the connections down below
        # requeues nothing and counts no worker lost.
        self.scheduler.close(EngineError("cluster executor closed"))
        for writer in list(self.writers.values()):
            await self._say_bye(writer, "coordinator shutdown")
        self.writers.clear()
        # Each connection's task closes its writer as it is cancelled.
        await self.listener.stop()
        for task in list(self._send_tasks):
            task.cancel()
        for task in list(self._send_tasks):
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._send_tasks.clear()

    async def _monitor(self) -> None:
        scheduler = self.scheduler
        interval = min(scheduler.heartbeat_timeout / 4.0, 0.25)
        while True:
            await asyncio.sleep(interval)
            scheduler.tick(scheduler.clock(), self._more_workers_expected())

    # ------------------------------------------------------------------
    # The scheduler's outputs
    # ------------------------------------------------------------------

    def _send(self, worker_id: str, frame: JobFrame) -> None:
        # One task per send, created — and so run — in dispatch order.
        task = asyncio.ensure_future(
            self._send_chunk(worker_id, self.writers[worker_id], frame)
        )
        self._send_tasks.add(task)
        task.add_done_callback(self._send_tasks.discard)

    async def _send_chunk(self, worker_id: str, writer, frame: JobFrame) -> None:
        try:
            await write_frame(writer, frame, max_frame=MAX_CLUSTER_FRAME_BYTES)
        except Exception as exc:
            # The link is dead mid-write; the scheduler requeues the
            # chunk.  Counted and logged — a worker vanishing on the
            # send path must be distinguishable from a scheduler bug.
            self._m_errors.labels(site="cluster.chunk_send").inc()
            log_event(
                _log,
                "chunk_send_failed",
                level=logging.WARNING,
                worker=worker_id,
                chunk=frame.job_id,
                error=str(exc),
            )
            if self.writers.get(worker_id) is writer:
                self.scheduler.worker_left(worker_id, "send_failed")

    def _hang_up(self, worker_id: str) -> None:
        writer = self.writers.pop(worker_id, None)
        if writer is not None:
            with contextlib.suppress(Exception):
                writer.close()

    # ------------------------------------------------------------------
    # Worker connections
    # ------------------------------------------------------------------

    async def _say_bye(self, writer, reason: str) -> None:
        with contextlib.suppress(Exception):
            await write_frame(
                writer,
                ByeFrame(reason=reason),
                max_frame=MAX_CLUSTER_FRAME_BYTES,
            )

    async def _serve_worker(self, reader, writer) -> None:
        worker_id: str | None = None
        try:
            frame = await read_frame(reader, max_frame=MAX_CLUSTER_FRAME_BYTES)
            if not isinstance(frame, WorkerHello):
                await self._say_bye(writer, "expected hello")
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
                await self._say_bye(
                    writer,
                    f"incompatible cluster wire version {frame.version}: "
                    f"this coordinator speaks v{CLUSTER_WIRE_VERSION}; "
                    f"upgrade the worker",
                )
                return
            if frame.worker_id in self.writers:
                await self._say_bye(writer, f"duplicate id {frame.worker_id!r}")
                return
            worker_id = frame.worker_id
            self.writers[worker_id] = writer
            self.scheduler.worker_joined(worker_id, frame.capacity)
            while True:
                frame = await read_frame(
                    reader, max_frame=MAX_CLUSTER_FRAME_BYTES
                )
                if frame is None or isinstance(frame, ByeFrame):
                    return
                # A heartbeat is only a sign of life; anything else but
                # a result from a registered worker is ignored.
                self.scheduler.worker_seen(worker_id)
                if isinstance(frame, ResultFrame):
                    self.scheduler.result(worker_id, frame)
                if self.writers.get(worker_id) is not writer:
                    return  # the scheduler hung up on it mid-loop
        except (ReproError, ConnectionError, OSError) as exc:
            # A misbehaving/dying worker never takes the pool down —
            # but the drop is counted and logged, never silent.
            self._m_errors.labels(site="cluster.worker_conn").inc()
            log_event(
                _log,
                "worker_connection_error",
                level=logging.WARNING,
                worker=worker_id,
                error=str(exc),
            )
        finally:
            if worker_id is not None and self.writers.get(worker_id) is writer:
                self.scheduler.worker_left(worker_id, "connection_closed")


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
    --workers N``).  With ``spawn_local=False`` the coordinator
    only binds ``host:port`` and serves whatever external workers
    register — start them with ``python -m repro.cli worker --host
    <coordinator> --port <port>``, one per core, on any number of hosts
    (``min_workers`` blocks the first dispatch until that many joined).

    Chunk sizing and liveness are fixed policy
    (:mod:`repro.engine.cluster.scheduler`, :data:`HEARTBEAT_TIMEOUT`,
    :data:`MAX_ATTEMPTS`); the one liveness option left is
    ``job_timeout``, the straggler fence (README "Cluster tuning").

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
        job_timeout: float | None = None,
        secret_file: str | None = None,
        tls_cert: str | None = None,
        tls_key: str | None = None,
        registry: MetricsRegistry | None = None,
        trace: bool = False,
        span_buffer: SpanBuffer | None = None,
        worker_preload: Sequence[str] = (),
    ) -> None:
        if workers is not None and workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        if min_workers is not None and min_workers < 1:
            raise EngineError(f"min_workers must be >= 1, got {min_workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise EngineError(
                f"job_timeout must be positive or None, got {job_timeout}"
            )
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
        self._job_timeout = job_timeout
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
        links = list(co.scheduler.workers.values()) if co is not None else []
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
        links = []
        if co is not None:
            for key, read in _STAT_COUNTERS.items():
                counts[key] = int(read(co))
            # list() snapshots atomically under the GIL: the loop
            # thread mutates the worker table while callers read stats.
            links = list(co.scheduler.workers.values())
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
            self._ensure_started()
            # Every item is encoded before any is queued: an item that
            # does not encode fails the map with nothing dispatched, and
            # the scheduler sizes the first chunks against the whole map.
            futures = self._submit(
                [encode_job(fn, (item,), {}) for item in items]
            )
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
        [future] = self._submit([encode_job(fn, args, kwargs)])
        return future

    def _submit(
        self, payloads: list[bytes]
    ) -> list[concurrent.futures.Future]:
        """Hand encoded jobs to the loop thread as one scheduler event."""
        futures = [concurrent.futures.Future() for _ in payloads]
        assert self._loop is not None and self._co is not None
        # The caller's trace context lives in this thread's contextvars;
        # the coordinator runs on its own loop thread, so the id is
        # captured here and handed over explicitly.
        self._loop.call_soon_threadsafe(
            self._co.scheduler.submit,
            list(zip(payloads, futures)),
            current_trace(),
        )
        return futures

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
                heartbeat_timeout=HEARTBEAT_TIMEOUT,
                job_timeout=self._job_timeout,
                max_attempts=MAX_ATTEMPTS,
                more_workers_expected=self._more_workers_expected,
                security=self._security,
                registry=self._registry,
                trace=self._trace,
                span_buffer=self._span_buffer,
            )
            try:
                self._address = asyncio.run_coroutine_threadsafe(
                    co.start(self._host, self._port), loop
                ).result(timeout=STARTUP_TIMEOUT)
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
        spawned: list[subprocess.Popen] = []
        for i in range(self._n_local):
            cmd = [
                sys.executable, "-c", WORKER_ENTRY,
                "--host", host,
                "--port", str(port),
                "--id", f"local-{i}",
            ]
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
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            co = self._co
            if co is None:
                raise EngineError("cluster executor closed during startup")
            registered = len(co.scheduler.workers)
            if registered >= target:
                return
            if self._spawn_local:
                dead = [p for p in self._procs if p.poll() is not None]
                if dead and registered + sum(
                    1 for p in self._procs if p.poll() is None
                ) < target:
                    raise EngineError(
                        f"cluster worker exited with code "
                        f"{dead[0].returncode} before registering"
                    )
            if time.monotonic() >= deadline:
                raise EngineError(
                    f"only {registered} of {target} cluster workers "
                    f"registered within {STARTUP_TIMEOUT}s"
                )
            time.sleep(0.02)

    # ------------------------------------------------------------------
    # Local worker management (test hooks)
    # ------------------------------------------------------------------

    @property
    def local_worker_pids(self) -> list[int]:
        """PIDs of spawned local workers (fault-injection tests)."""
        return [proc.pid for proc in self._procs if proc.poll() is None]
