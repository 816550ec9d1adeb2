"""Liveness/readiness plane: the answers a load balancer asks for.

The ROADMAP's admission-control direction fronts the supervisor with
an LB/orchestrator; both need machine-readable answers to two distinct
questions:

* **liveness** (``/healthz``) — "is this process running at all?"
  Always 200 while the HTTP thread can answer; restarts are the
  orchestrator's call, not ours.
* **readiness** (``/readyz``) — "should traffic be routed here *now*?"
  A :class:`HealthState` aggregates a drain flag plus named per-plane
  probes (event-loop lag, worker-pool liveness, coordinator stall
  watchdog); any failing probe or an
  active drain flips the endpoint to 503 with a JSON body explaining
  which probe and why.

Probes are plain callables returning ``(ok, detail_dict)``; a probe
that raises reports not-ready with the error in its detail rather
than breaking the scrape.  ``set_ready(False, "draining")`` is called
by serve/worker on SIGTERM *before* the graceful drain starts, so an
LB observes the 503 and stops routing while in-flight work completes.

:class:`Daemon` is the process shell both long-running commands enter:
signals, the flight recorder, the readiness state and the
``--metrics-port`` endpoint that serves it.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Any, Callable, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, install_flight_recorder

__all__ = [
    "Daemon",
    "EventLoopLagProbe",
    "HealthState",
    "gauge_max_probe",
    "gauge_min_probe",
]

#: Seconds between two event-loop lag samples.
LAG_SAMPLE_INTERVAL_S = 0.25

#: A probe returns (ok, detail).  Detail must be JSON-serializable.
Probe = Callable[[], tuple[bool, Mapping[str, Any]]]


class HealthState:
    """Thread-safe readiness aggregate: drain flag + named probes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ready = True
        self._reason = ""
        self._probes: dict[str, Probe] = {}

    def add_probe(self, name: str, probe: Probe) -> None:
        with self._lock:
            self._probes[name] = probe

    def set_ready(self, ready: bool, reason: str = "") -> None:
        """Flip the administrative readiness flag (drain control)."""
        with self._lock:
            self._ready = bool(ready)
            self._reason = reason

    @property
    def draining(self) -> bool:
        with self._lock:
            return not self._ready

    def liveness(self) -> dict:
        return {"status": "alive"}

    def readiness(self) -> tuple[bool, dict]:
        """(ready, detail): ready iff not draining and every probe ok."""
        with self._lock:
            ready = self._ready
            reason = self._reason
            probes = list(self._probes.items())
        detail: dict[str, Any] = {"probes": {}}
        if not ready and reason:
            detail["reason"] = reason
        for name, probe in probes:
            try:
                ok, probe_detail = probe()
            except Exception as exc:
                ok, probe_detail = False, {"error": repr(exc)}
            detail["probes"][name] = {"ok": bool(ok), **dict(probe_detail)}
            ready = ready and bool(ok)
        detail["ready"] = ready
        return ready, detail


class EventLoopLagProbe:
    """Readiness probe + sampler for asyncio event-loop lag.

    :meth:`run` is an awaitable the owning loop schedules as a task:
    it sleeps :data:`LAG_SAMPLE_INTERVAL_S` and measures how late the
    wakeup was —
    the canonical saturation signal for a single-loop server.  The
    probe itself is synchronous (called from the metrics HTTP thread)
    and reads the last sample.
    """

    def __init__(self, threshold_s: float = 1.0) -> None:
        self.threshold_s = threshold_s
        self.lag_s = 0.0

    def __call__(self) -> tuple[bool, dict]:
        return (
            self.lag_s <= self.threshold_s,
            {"lag_s": round(self.lag_s, 6), "threshold_s": self.threshold_s},
        )

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(LAG_SAMPLE_INTERVAL_S)
            self.lag_s = max(
                0.0, loop.time() - before - LAG_SAMPLE_INTERVAL_S
            )


def gauge_max_probe(
    registry: MetricsRegistry,
    name: str,
    threshold: float,
    **labels: str,
) -> Probe:
    """Ready while a gauge/counter series stays at or below a bound.

    The coordinator stall watchdog uses this: the monitor task keeps
    ``repro_cluster_stall_seconds`` fresh, and readiness fails once
    the age of the last scheduler progress exceeds the threshold.
    """

    def probe() -> tuple[bool, dict]:
        value = registry.value(name, **labels)
        return value <= threshold, {"value": value, "max": threshold}

    return probe


def gauge_min_probe(
    registry: MetricsRegistry,
    name: str,
    minimum: float,
    **labels: str,
) -> Probe:
    """Ready while a gauge/counter series stays at or above a floor
    (worker-pool liveness: ``repro_cluster_workers_live >= 1``)."""

    def probe() -> tuple[bool, dict]:
        value = registry.value(name, **labels)
        return value >= minimum, {"value": value, "min": minimum}

    return probe


class Daemon:
    """The process shell ``serve`` and the worker daemon share.

    An async context for the daemon's lifetime.  Entering it arms the
    flight recorder (``flight_dir``: crash and SIGUSR1 dumps) and routes
    SIGINT/SIGTERM to :attr:`stop`; leaving it restores the signals,
    closes the endpoint and writes the shutdown dump.  :attr:`health`
    is the readiness the endpoint serves; :meth:`expose` starts the
    ``--metrics-port`` endpoint, called after the caller's banner so
    the banner stays the first line of output.
    """

    def __init__(
        self,
        process: str,
        registry: MetricsRegistry,
        *,
        flight_dir: str | None = None,
        metrics_port: int | None = None,
    ) -> None:
        self.health = HealthState()
        self.recorder = FlightRecorder(process=process)
        self.stop = asyncio.Event()
        self._registry = registry
        self._flight_dir = flight_dir
        self._metrics_port = metrics_port
        self._metrics = None
        self._signals: list[signal.Signals] = []

    async def __aenter__(self) -> "Daemon":
        if self._flight_dir is not None:
            self.recorder.attach()
            install_flight_recorder(self.recorder, self._flight_dir)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # non-Unix
                loop.add_signal_handler(sig, self.stop.set)
                self._signals.append(sig)
        return self

    def expose(self) -> int | None:
        """Start the ``--metrics-port`` endpoint, if one was asked for;
        returns the port it bound."""
        if self._metrics_port is None:
            return None
        from repro.obs.http import MetricsServer

        self._metrics = MetricsServer(
            self._registry, port=self._metrics_port, health=self.health
        )
        return self._metrics.port

    async def __aexit__(self, *exc_info) -> None:
        loop = asyncio.get_running_loop()
        for sig in self._signals:
            loop.remove_signal_handler(sig)
        # The endpoint closes only now, so the drain's 503s were
        # observable; the flight dump is the shutdown record.
        if self._metrics is not None:
            self._metrics.close()
        if self._flight_dir is not None:
            with contextlib.suppress(OSError):
                path = self.recorder.dump_to_dir(
                    self._flight_dir, reason="shutdown"
                )
                print(f"flight recorder dumped to {path}", flush=True)
