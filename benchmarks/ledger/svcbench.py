"""Service workloads: ``repro.cli serve`` under a two-client closed loop.

The supervisor runs as its own process; this process is the only load
generator.  Each of two clients opens a connection, runs one
participant, closes, and takes the next slot index -- a closed loop, so
a slower server receives less load.  The first sessions are discarded
as warm-up; the timed part is cut into windows of a quarter second or more.
"""

from __future__ import annotations

import asyncio
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from repro.engine import ThreadPoolExecutor
from repro.exceptions import ReproError
from repro.net.transport import SecurityConfig, generate_self_signed_cert
from repro.obs.trace import bind_trace, new_trace_id
from repro.service.client import ServiceClient
from repro.service.loadgen import percentile

import inputs
import procs
from declared import Workload
from measure import (
    SETUP_REPEATS, Stopwatch, Window, end_to_end, slowness, wire_bytes,
    wire_counters,
)
from oracle import failed_sessions
from popbench import map_floor_us
from replay import replay_sessions

CLIENTS = 2
WINDOW_S = 0.25
WINDOW_SESSIONS = 24
READY_TIMEOUT_S = 30.0
TRACE_BLOCK = 128       # sessions per untraced/traced block in the traced run
TRACED_SESSIONS = 512


@dataclass
class Session:
    index: int
    start: float
    connected: float | None
    end: float
    round_s: float | None       # the client's own latency_s: assign -> verdict
    verdict: tuple[bool, str] | None
    trace_id: str | None = None
    slowness: float = 1.0       # of the block it ran in (traced run only)

    @property
    def session_s(self) -> float:
        return self.end - self.start


class Material:
    """Secret + self-signed cert in a temp dir inside the checkout."""

    def __init__(self, secured: bool) -> None:
        self.dir: str | None = None
        self.flags: list[str] = []
        self.security: SecurityConfig | None = None
        self.listener_security: SecurityConfig | None = None
        if not secured:
            return
        procs.RESULTS_DIR.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="tls-", dir=procs.RESULTS_DIR)
        secret, cert, key = (
            f"{self.dir}/{name}" for name in ("secret", "cert.pem", "key.pem")
        )
        with open(secret, "w", encoding="ascii") as fh:
            fh.write(secrets.token_hex(32) + "\n")
        generate_self_signed_cert(cert, key, common_name="ledger", days=1)
        self.flags = [
            "--secret-file", secret, "--tls-cert", cert, "--tls-key", key,
        ]
        # The client pins the cert and holds the secret, never the key;
        # the listening side (serve, and the replay's bare listeners)
        # holds all three.
        self.security = SecurityConfig.from_options(
            secret_file=secret, tls_cert=cert
        )
        self.listener_security = SecurityConfig.from_options(
            secret_file=secret, tls_cert=cert, tls_key=key
        )

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


class Server:
    """One ``repro.cli serve`` child process."""

    def __init__(self, w: Workload, seed: int, material: Material) -> None:
        self.security = material.security
        self.port = procs.free_port()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", str(self.port),
                "--engine", w.engine, "--workers", "2",
                "--n", str(w.domain), "--participants", str(w.participants),
                "--m", str(w.m), "--protocol", w.protocol,
                "--workload", "PasswordSearch", "--seed", str(seed),
                *material.flags,
            ],
            env=procs.child_env(), stdout=subprocess.DEVNULL,
        )

    async def connect(self) -> ServiceClient:
        return await ServiceClient.open_tcp(
            "127.0.0.1", self.port, security=self.security
        )

    async def wait_ready(self) -> None:
        """Until the first connect (TCP + TLS + HMAC) succeeds."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            try:
                client = await self.connect()
            except (ReproError, ConnectionError, OSError):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"serve exited with {self.proc.returncode} before listening"
                    ) from None
                if time.perf_counter() > deadline:
                    raise
                await asyncio.sleep(0.005)
            else:
                await client.close()
                return

    def close(self) -> None:
        procs.reap(self.proc)


async def start_server(w: Workload, seed: int, material: Material):
    """Spawn serve and wait until ready; returns ``(server, seconds)``
    in reference-speed seconds."""
    with Stopwatch() as watch:
        server = Server(w, seed, material)
        try:
            await server.wait_ready()
        except BaseException:
            server.close()
            raise
    return server, watch.seconds


class ClosedLoop:
    """Two clients taking slot indices from one counter."""

    def __init__(self, w: Workload, server: Server) -> None:
        self.w, self.server = w, server
        self.next_index = 0
        self.done: list[Session] = []
        self.after_session = lambda: None

    async def _session(self, index: int, traced: bool) -> Session:
        behavior = inputs.BEHAVIORS[index % len(inputs.BEHAVIORS)]
        trace_id = new_trace_id() if traced else None
        start = time.perf_counter()
        connected = None
        try:
            client = await self.server.connect()
            connected = time.perf_counter()
            try:
                with bind_trace(trace_id):
                    run = await client.run_participant(behavior, participant=index)
            finally:
                await client.close()
        except (ReproError, ConnectionError, OSError):
            return Session(index, start, connected, time.perf_counter(), None, None)
        return Session(
            index, start, connected, time.perf_counter(), run.latency_s,
            (run.accepted, run.reason.value), trace_id,
        )

    async def run(self, stop, traced: bool = False) -> list[Session]:
        """Run sessions until ``stop(sessions_so_far)`` or slots run out."""
        first = len(self.done)

        async def client() -> None:
            while (
                self.next_index < self.w.participants
                and not stop(len(self.done) - first)
            ):
                index, self.next_index = self.next_index, self.next_index + 1
                self.done.append(await self._session(index, traced))
                self.after_session()

        await asyncio.gather(*(client() for _ in range(CLIENTS)))
        return self.done[first:]


class Sampler:
    """Cuts the timed part into windows.

    A window closes at the completion of a session, once it holds at
    least ``WINDOW_SESSIONS`` sessions and ``WINDOW_S`` seconds -- so
    its session count is exact and its wall is not quantised, whether
    the workload does 500 sessions a second or 50.
    """

    def __init__(self, loop_: ClosedLoop, server_pid: int) -> None:
        self.loop_, self.pid = loop_, server_pid
        self.samples: list[tuple] = []

    def _stamp(self) -> tuple:
        return (
            time.perf_counter(), len(self.loop_.done), time.process_time(),
            procs.cpu_seconds(self.pid), wire_counters(),
        )

    def sample(self) -> None:
        """Close a window, time the reference kernel, open the next.

        The kernel blocks this process's event loop for ~5 ms; the
        stamps on either side keep that out of both windows.
        """
        closing = self._stamp()
        slow = slowness()
        self.samples.append((closing, slow, self._stamp()))

    def after_session(self) -> None:
        opened_at, opened_n = self.samples[-1][2][:2]
        if (
            len(self.loop_.done) - opened_n >= WINDOW_SESSIONS
            and time.perf_counter() - opened_at >= WINDOW_S
        ):
            self.sample()

    def windows(self) -> list[Window]:
        out = []
        for (_, slow_a, a), (b, slow_b, _) in zip(self.samples, self.samples[1:]):
            supervisor = b[3] - a[3]
            out.append(Window(
                wall_s=b[0] - a[0], participants=b[1] - a[1],
                cpu_s=(b[2] - a[2]) + supervisor, supervisor_cpu_s=supervisor,
                wire_bytes=wire_bytes(a[4], b[4]), frames=b[4][1] - a[4][1],
                slowness=0.5 * (slow_a + slow_b),
            ))
        return out


def _check(w: Workload, seed: int, sessions: list[Session], smoke: bool):
    """(attempted, failed): no verdict, or one that differs from the
    in-process ``scheme.run`` of the same slot."""
    verdicts = {s.index: s.verdict for s in sessions if s.verdict is not None}
    wrong = failed_sessions(w, seed, verdicts, in_process=smoke)
    return len(sessions), (len(sessions) - len(verdicts)) + wrong


async def _untraced_live(w: Workload, seed: int, seconds: float, smoke: bool,
                         material: Material):
    setups: list[float] = []
    server: Server | None = None
    try:
        for _ in range(1 if smoke else SETUP_REPEATS):
            if server is not None:
                server.close()
            server, setup_s = await start_server(w, seed, material)
            setups.append(setup_s)
        loop_ = ClosedLoop(w, server)
        await loop_.run(lambda n: n >= w.warmup_sessions)
        sampler = Sampler(loop_, server.proc.pid)
        sampler.sample()
        loop_.after_session = sampler.after_session
        deadline = time.perf_counter() + seconds
        await loop_.run(
            (lambda n: n >= 4) if smoke
            else (lambda n: time.perf_counter() >= deadline)
        )
        if smoke:
            sampler.sample()
        rss = procs.peak_rss_mib() + procs.peak_rss_mib(server.proc.pid)
    finally:
        if server is not None:
            server.close()
    return setups, loop_.done, sampler.windows(), rss


def run_untraced(w: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    material = Material(w.secured)
    try:
        setups, sessions, windows, rss = asyncio.run(
            _untraced_live(w, seed, seconds, smoke, material)
        )
    finally:
        material.close()
    attempted, failed = _check(w, seed, sessions, smoke)
    metrics, detail = end_to_end(windows, setups, rss)
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "detail": detail,
    }


async def _traced_live(w: Workload, seed: int, seconds: float, smoke: bool,
                       material: Material):
    """Alternating untraced/traced blocks of sessions against one server.

    Every block is bracketed by reference-kernel samples; a session's
    times are scaled by its block's slowness (``Session.slowness``).
    """
    out: dict[str, float] = {}
    size = 4 if smoke else TRACE_BLOCK
    target = 4 if smoke else TRACED_SESSIONS
    server, _setup_s = await start_server(w, seed, material)
    try:
        loop_ = ClosedLoop(w, server)
        cpu_s = 0.0  # harness + serve over all blocks, reference-speed

        async def block(traced: bool, until) -> tuple[list[Session], float]:
            nonlocal cpu_s
            with Stopwatch() as watch:
                cpu0 = time.process_time() + procs.cpu_seconds(server.proc.pid)
                sessions = await loop_.run(until, traced=traced)
                cpu1 = time.process_time() + procs.cpu_seconds(server.proc.pid)
            for session in sessions:
                session.slowness = watch.slowness
            cpu_s += (cpu1 - cpu0) / watch.slowness
            return sessions, watch.seconds

        _, out["engine.warmup_epoch_s"] = await block(
            False, lambda n: n >= w.warmup_sessions
        )
        cpu_s = 0.0
        plain: list[Session] = []
        traced: list[Session] = []
        wire0 = wire_counters()
        deadline = time.perf_counter() + 0.5 * seconds
        while len(traced) < target and (
            smoke or not traced or time.perf_counter() < deadline
        ):
            plain += (await block(False, lambda n: n >= size))[0]
            traced += (await block(True, lambda n: n >= size))[0]
        n_sessions = len(plain) + len(traced)
        out["service.codec.frames_per_participant"] = (
            wire_counters()[1] - wire0[1]
        ) / n_sessions
        probe = await server.connect()
        try:
            spans = 0
            for s in traced:
                spans += len(await probe.trace(s.trace_id))
            stats = await probe.stats()
        finally:
            await probe.close()
        out["obs.spans_per_epoch"] = spans
        latency = stats["repro_submission_latency_seconds"]["values"][0]
        out["service.server.submission_ms_mean"] = (
            1e3 * latency["sum"] / latency["count"]
        )
        out["service.server.peak_rss_mb"] = procs.peak_rss_mib(server.proc.pid)
    finally:
        server.close()
    return out, loop_.done, plain, traced, cpu_s / n_sessions


def run_traced(w: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    material = Material(w.secured)
    try:
        out, sessions, plain, traced, cpu_per_session = asyncio.run(
            _traced_live(w, seed, seconds, smoke, material)
        )
        layer_metrics, harness_spans = replay_sessions(
            w, seed, material.security, material.listener_security,
            cpu_per_session,
        )
    finally:
        material.close()
    out.update(layer_metrics)

    # The untraced blocks are the tracing-off session sample.
    good = [s for s in plain if s.verdict is not None]
    walls = [s.session_s / s.slowness for s in good]
    out["service.client.session_ms_p50"] = 1e3 * percentile(walls, 0.5)
    out["service.client.session_ms_p90"] = 1e3 * percentile(walls, 0.9)
    out["service.client.session_ms_p99"] = 1e3 * percentile(walls, 0.99)
    out["service.client.round_ms_p50"] = 1e3 * statistics.median(
        s.round_s / s.slowness for s in good
    )
    out["net.transport.connect_ms_p50"] = 1e3 * statistics.median(
        (s.connected - s.start) / s.slowness for s in good
    )
    plain_wall = statistics.median(walls)
    out["obs.tracing_overhead_share"] = (
        statistics.median(
            s.session_s / s.slowness for s in traced if s.verdict is not None
        )
        - plain_wall
    ) / plain_wall

    with ThreadPoolExecutor(workers=2) as pool:  # the server's engine, here
        pool.prewarm()
        out["engine.map_floor_us_per_item"] = map_floor_us(pool, 1 if smoke else 5)

    attempted, failed = _check(w, seed, sessions, smoke)
    return {
        "metrics": out, "attempted": attempted, "failed": failed,
        "detail": {
            "plain_sessions": len(plain), "traced_sessions": len(traced),
            "session_samples": len(walls),
            "cpu_s_per_session": cpu_per_session,
        },
        "spans": harness_spans,
    }
