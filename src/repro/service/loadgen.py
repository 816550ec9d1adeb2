"""Participant load generator for the supervisor service.

Drives ``n_participants`` concurrent protocol rounds — honest and
cheating behaviours cycled exactly like
:class:`~repro.grid.simulation.SimulationConfig` — against a
supervisor reachable over TCP or the in-process transport, and
reports both the paper's product (a
:class:`~repro.grid.report.DetectionReport`: who was caught) and the
system's product (:class:`LoadgenStats`: submissions/sec, p50/p99
latency).  Each participant is one
:class:`~repro.service.client.ServiceClient` on one connection, its
round computed inline on the loop.

Participant ``i`` always claims slot ``i``, so a loadgen run at a
fixed server seed is deterministic and comparable, outcome for
outcome, with the equivalent synchronous
:class:`~repro.grid.simulation.GridSimulation`.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Sequence

from repro.accounting import CostLedger
from repro.cheating.strategies import Behavior
from repro.exceptions import ProtocolError, ReproError
from repro.grid.report import DetectionReport, ParticipantReport
from repro.net.transport import SecurityConfig
from repro.service.client import ParticipantRun, ServiceClient
from repro.service.server import SupervisorServer
from repro.service.sessions import ServiceConfig


@dataclass
class LoadgenStats:
    """Throughput and latency over one load-generation run."""

    n_participants: int
    n_completed: int
    n_errors: int
    elapsed_s: float
    submissions_per_s: float
    p50_latency_s: float
    p99_latency_s: float

    def summary(self) -> dict:
        """Flat row for tables / JSON."""
        return {
            "participants": self.n_participants,
            "completed": self.n_completed,
            "errors": self.n_errors,
            "elapsed_s": round(self.elapsed_s, 4),
            "submissions_per_s": round(self.submissions_per_s, 1),
            "p50_latency_ms": round(self.p50_latency_s * 1e3, 2),
            "p99_latency_ms": round(self.p99_latency_s * 1e3, 2),
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list.

    Returns the smallest sample whose empirical CDF reaches ``q`` —
    the 1-indexed order statistic ``ceil(q * N)`` — so the result is
    always an actual sample, ``q=1.0`` is the maximum even for
    single-sample lists, and no interpolation ever manufactures a
    latency nobody measured.  (The previous ``round``-based rank
    drifted one order statistic low near the top of the distribution
    — banker's rounding pulled p99 of 64 samples to index 62.)
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    # min() guards float overshoot (e.g. 0.99 * N landing on N + eps).
    rank = min(math.ceil(q * len(ordered)) - 1, len(ordered) - 1)
    return ordered[rank]


async def run_loadgen(
    n_participants: int,
    behaviors: Sequence[Behavior],
    *,
    host: str | None = None,
    port: int | None = None,
    server: SupervisorServer | None = None,
    security: SecurityConfig | None = None,
    connect_retry_s: float = 0.0,
    concurrency: int = 32,
) -> tuple[DetectionReport, LoadgenStats]:
    """Drive ``n_participants`` rounds; aggregate report and stats.

    Exactly one transport must be given: ``host``/``port`` for a TCP
    supervisor, or ``server`` for in-process streams.  Each
    participant computes inline on the loop: a thread pool sharing the
    GIL bought no throughput (``benchmarks/NOTES.md``, 2026-10-19).

    A participant whose round fails with a protocol or transport error
    is counted in ``stats.n_errors`` and *omitted* from the report —
    there is no verdict and no ground truth for it, so a fabricated
    row would corrupt the detection/false-alarm rates.

    ``security`` carries the supervisor's TLS pin and shared secret
    (every participant connection authenticates before its first
    frame); ``connect_retry_s`` is the shared repro.net connect
    retry/backoff budget, so a loadgen racing a slow-starting server
    keeps dialling instead of failing hard.
    """
    if (host is None) == (server is None):
        raise ProtocolError("pass exactly one of host/port or server")
    if host is not None and port is None:
        raise ProtocolError("TCP loadgen needs both host and port")
    if n_participants < 1:
        raise ProtocolError(
            f"n_participants must be >= 1, got {n_participants}"
        )
    if not behaviors:
        raise ProtocolError("behaviors must be non-empty")

    semaphore = asyncio.Semaphore(max(1, concurrency))
    errors = 0

    async def one_round(index: int) -> ParticipantRun | None:
        nonlocal errors
        behavior = behaviors[index % len(behaviors)]
        async with semaphore:
            try:
                if server is not None:
                    reader, writer = server.connect_memory()
                    client = ServiceClient(reader, writer)
                    if security is not None:
                        await client.authenticate(security)
                else:
                    client = await ServiceClient.open_tcp(
                        host,
                        port,
                        security=security,
                        connect_retry_s=connect_retry_s,
                    )
                try:
                    return await client.run_participant(behavior, participant=index)
                finally:
                    await client.close()
            except (ReproError, ConnectionError, OSError):
                errors += 1
                return None

    start = time.perf_counter()
    runs = await asyncio.gather(*(one_round(i) for i in range(n_participants)))
    elapsed = time.perf_counter() - start

    completed = [run for run in runs if run is not None]
    scheme_label = (
        f"service:{completed[0].protocol}(m={completed[0].n_samples})"
        if completed
        else "service"
    )
    report = DetectionReport(scheme=scheme_label)
    for run in completed:
        report.participants.append(
            ParticipantReport(
                participant=f"participant-{run.participant}",
                behavior=run.behavior,
                honesty_ratio=run.honesty_ratio,
                accepted=run.accepted,
                reason=run.reason,
                participant_ledger=run.ledger,
                supervisor_ledger_delta=CostLedger(),
            )
        )

    latencies = [run.latency_s for run in completed]
    stats = LoadgenStats(
        n_participants=n_participants,
        n_completed=len(completed),
        n_errors=errors,
        elapsed_s=elapsed,
        submissions_per_s=len(completed) / elapsed if elapsed > 0 else 0.0,
        p50_latency_s=percentile(latencies, 0.50) if latencies else 0.0,
        p99_latency_s=percentile(latencies, 0.99) if latencies else 0.0,
    )
    return report, stats


async def run_service_loadgen(
    config: ServiceConfig,
    behaviors: Sequence[Behavior],
    *,
    transport: str = "memory",
    engine: str = "threads",
    workers: int | None = None,
    engine_options: dict | None = None,
    security: SecurityConfig | None = None,
    concurrency: int = 32,
) -> tuple[DetectionReport, LoadgenStats, SupervisorServer]:
    """Self-contained run: spin up a supervisor, drive it, tear down.

    ``transport`` is ``"memory"`` (in-process streams) or ``"tcp"``
    (a real loopback listener).  ``engine_options`` forward to the
    server's execution backend (the cluster tuning knobs).
    ``security`` applies to both ends: the server gates its socket
    with it, the generated participants authenticate with it.  The
    stopped server is returned so callers can inspect
    ``server.outcomes`` / ``server.registry`` — e.g. the parity tests
    comparing service verdicts against the synchronous simulator.
    """
    if transport not in ("memory", "tcp"):
        raise ProtocolError(f"unknown transport {transport!r}")
    server = SupervisorServer(
        config,
        engine=engine,
        workers=workers,
        engine_options=engine_options,
        security=security,
    )
    try:
        if transport == "tcp":
            host, port = await server.start()
            report, stats = await run_loadgen(
                config.n_participants,
                behaviors,
                host=host,
                port=port,
                security=security,
                concurrency=concurrency,
            )
        else:
            report, stats = await run_loadgen(
                config.n_participants,
                behaviors,
                server=server,
                security=security,
                concurrency=concurrency,
            )
    finally:
        await server.stop()
    return report, stats, server
