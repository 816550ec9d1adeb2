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
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Mapping

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "EventLoopLagProbe",
    "HealthState",
    "gauge_max_probe",
    "gauge_min_probe",
]

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
    it sleeps ``interval_s`` and measures how late the wakeup was —
    the canonical saturation signal for a single-loop server.  The
    probe itself is synchronous (called from the metrics HTTP thread)
    and reads the last sample.
    """

    def __init__(
        self,
        threshold_s: float = 1.0,
        interval_s: float = 0.25,
        gauge: Any = None,
    ) -> None:
        self.threshold_s = threshold_s
        self.interval_s = interval_s
        self.gauge = gauge
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
            await asyncio.sleep(self.interval_s)
            self.lag_s = max(0.0, loop.time() - before - self.interval_s)
            if self.gauge is not None:
                self.gauge.set(self.lag_s)


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
