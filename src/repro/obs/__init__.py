"""Unified observability plane: metrics, traces, structured logs.

Every plane counts into one substrate with a shared schema, so one
scrape covers the process and one population's chunk can be followed
from coordinator dispatch through worker execution to result
acceptance:

* :mod:`repro.obs.metrics` — thread-safe labelled counters, gauges and
  log-bucket histograms in a :class:`MetricsRegistry`; per-instance
  registries for tests/embedding, one process-global default registry
  (:func:`default_registry`) for the CLI entry points.
* :mod:`repro.obs.trace` — ``trace_id``/``span_id`` minting and
  contextvars binding; the ids ride optional wire fields so old peers
  ignore them.
* :mod:`repro.obs.logging` — structured (optionally JSON) log records
  under the ``repro`` logger hierarchy, NullHandler by default,
  trace ids stamped automatically.
* :mod:`repro.obs.spans` — real timed spans (:class:`Span`, the
  buffer they land in, a ``span`` context manager) that compose with
  ``bind_trace`` and ride result envelopes cross-process, plus the
  :func:`render_waterfall` ASCII timeline.
* :mod:`repro.obs.recorder` — the per-process flight recorder: a
  bounded ring of recent events + spans, dumped as one JSON artifact
  on crash, SIGUSR1, or clean shutdown.
* :mod:`repro.obs.health` — liveness/readiness aggregation
  (:class:`HealthState` and per-plane probes) and :class:`Daemon`, the
  process shell of ``serve`` and the worker daemon.
* :mod:`repro.obs.http` — the ``--metrics-port`` scrape endpoint
  (``/metrics`` Prometheus text, ``/stats`` JSON, ``/healthz`` and
  ``/readyz`` probes).

Layering rule: :mod:`repro.obs` imports nothing from any other
``repro`` subpackage except nothing at all — it sits below
:mod:`repro.net` and everything else stands on it.
"""

from repro import _reexport

_reexport(__name__, {
    "repro.obs.metrics": "MetricsRegistry default_registry",
    "repro.obs.spans": "Span render_waterfall",
    "repro.obs.health": "EventLoopLagProbe gauge_max_probe gauge_min_probe",
    "repro.obs.trace": "new_trace_id bind_trace",
    "repro.obs.logging": "configure_logging get_logger log_event",
})

__all__ = [
    # metrics
    "MetricsRegistry",
    "default_registry",
    # spans
    "Span",
    "render_waterfall",
    # health
    "EventLoopLagProbe",
    "gauge_max_probe",
    "gauge_min_probe",
    # trace
    "new_trace_id",
    "bind_trace",
    # logging
    "configure_logging",
    "get_logger",
    "log_event",
]
