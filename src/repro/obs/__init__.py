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
* :mod:`repro.obs.spans` — real timed spans (:class:`Span`,
  :class:`SpanBuffer`, the :func:`span` context manager) that compose
  with ``bind_trace`` and ride result envelopes cross-process, plus
  the :func:`render_waterfall` ASCII timeline.
* :mod:`repro.obs.recorder` — the per-process flight recorder: a
  bounded ring of recent events + spans, dumped as one JSON artifact
  on crash, SIGUSR1, or clean shutdown.
* :mod:`repro.obs.health` — liveness/readiness aggregation
  (:class:`HealthState` and per-plane probes).
* :mod:`repro.obs.http` — the ``--metrics-port`` scrape endpoint
  (``/metrics`` Prometheus text, ``/stats`` JSON, ``/healthz`` and
  ``/readyz`` probes).

Layering rule: :mod:`repro.obs` imports nothing from any other
``repro`` subpackage except nothing at all — it sits below
:mod:`repro.net` and everything else stands on it.
"""

from repro.obs.health import (
    EventLoopLagProbe,
    HealthState,
    gauge_max_probe,
    gauge_min_probe,
)
from repro.obs.http import MetricsServer
from repro.obs.logging import (
    JsonFormatter,
    TraceContextFilter,
    configure_logging,
    get_logger,
    log_event,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MAX_LABEL_SETS_PER_METRIC,
    OVERFLOW_LABEL_VALUE,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    install_process_metrics,
    log_buckets,
)
from repro.obs.recorder import FlightRecorder, install_flight_recorder
from repro.obs.spans import (
    MAX_WIRE_SPANS,
    Span,
    SpanBuffer,
    default_span_buffer,
    render_waterfall,
    span,
    validate_wire_span,
    validate_wire_spans,
)
from repro.obs.trace import (
    MAX_TRACE_ID_LEN,
    bind_trace,
    current_span,
    current_trace,
    new_span_id,
    new_trace_id,
)

__all__ = [
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "default_registry",
    "log_buckets",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "MAX_LABEL_SETS_PER_METRIC",
    "OVERFLOW_LABEL_VALUE",
    "install_process_metrics",
    # spans
    "Span",
    "SpanBuffer",
    "span",
    "default_span_buffer",
    "render_waterfall",
    "validate_wire_span",
    "validate_wire_spans",
    "MAX_WIRE_SPANS",
    # recorder
    "FlightRecorder",
    "install_flight_recorder",
    # health
    "HealthState",
    "EventLoopLagProbe",
    "gauge_max_probe",
    "gauge_min_probe",
    # trace
    "new_trace_id",
    "new_span_id",
    "bind_trace",
    "current_trace",
    "current_span",
    "MAX_TRACE_ID_LEN",
    # logging
    "configure_logging",
    "get_logger",
    "log_event",
    "TraceContextFilter",
    "JsonFormatter",
    # http
    "MetricsServer",
]
