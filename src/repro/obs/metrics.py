"""Labelled metrics registry: counters, gauges, log-bucket histograms.

The planes above (service supervisor, cluster coordinator, worker
daemons, the net transport) each used to keep private ad-hoc counter
dicts with no shared schema and no histograms.  This module is the one
substrate they all record into: a thread-safe
:class:`MetricsRegistry` of labelled :class:`Counter`, :class:`Gauge`
and :class:`Histogram` instruments that can be snapshotted as a plain
dict (for the service ``stats`` frame and the CLI) or rendered as
Prometheus text exposition (for the ``--metrics-port`` endpoint).

Dependency-free by design — no prometheus_client, no third-party
anything — and cheap enough to be always on: instruments are
deliberately kept *out* of the core scheme hot loops (leaf hashing,
Merkle folding); only plane boundaries (frames, chunks, submissions)
are metered.

Two deployment shapes, one class:

* **Per-instance registries** (the default for ``SupervisorServer``,
  ``ClusterExecutor``, ``SessionStore``) keep tests and embedded uses
  exactly-counted and isolated from each other.
* **The process-global default registry** (:func:`default_registry`)
  is what the CLI entry points inject everywhere, so one scrape of a
  ``serve`` or ``worker`` process sees every subsystem at once.

Label cardinality is capped per metric: past
``MAX_LABEL_SETS_PER_METRIC`` distinct label combinations, further
novel combinations collapse into a single ``"~overflow"`` series so a
mis-labelled hot path (e.g. a per-task id used as a label) degrades
into one bounded series instead of an unbounded memory leak.
"""

from __future__ import annotations

import contextlib
import math
import re
import threading
import time
from typing import Callable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MAX_LABEL_SETS_PER_METRIC",
    "OVERFLOW_LABEL_VALUE",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "log_buckets",
    "default_registry",
    "install_process_metrics",
]

# Past this many distinct label sets on one metric, new combinations
# collapse into the single overflow series below.
MAX_LABEL_SETS_PER_METRIC = 256
OVERFLOW_LABEL_VALUE = "~overflow"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(lo: float, hi: float, per_decade: int = 3) -> tuple[float, ...]:
    """Fixed log-scale bucket boundaries from ``lo`` up through ``hi``.

    Boundaries are spaced ``per_decade`` per power of ten, rounded to
    a stable short decimal so renderings are reproducible across
    platforms.  ``+Inf`` is implicit (every histogram gets it).
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    bounds: list[float] = []
    exp = math.floor(math.log10(lo) * per_decade)
    while True:
        bound = round(10.0 ** (exp / per_decade), 12)
        if bound > hi * (1 + 1e-9):
            break
        if bound >= lo * (1 - 1e-9):
            bounds.append(bound)
        exp += 1
    return tuple(bounds)


# Latencies from 100us to 10s; payload/chunk sizes from 64B to 64MiB.
LATENCY_BUCKETS = log_buckets(1e-4, 10.0, per_decade=3)
SIZE_BUCKETS = tuple(float(64 << (3 * i)) for i in range(8))


def _validate_labels(
    labelnames: Sequence[str], labels: Mapping[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match "
            f"declared labelnames {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Child:
    """One (metric, label-values) series.  All mutation is locked."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class _GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class _HistogramChild:
    __slots__ = ("_lock", "bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # Linear scan: bucket lists are short (<= ~20) and fixed, and
        # a scan beats bisect's call overhead at that size.
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1


class _Metric:
    """A named instrument family; ``labels()`` vends per-series children."""

    kind = "untyped"
    _child_cls: type = _Child

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str]
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            # Label-less metrics are their own single series.
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self):
        return self._child_cls()

    def labels(self, **labels: str):
        key = _validate_labels(self.labelnames, labels)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= MAX_LABEL_SETS_PER_METRIC:
                    key = (OVERFLOW_LABEL_VALUE,) * len(self.labelnames)
                    child = self._children.get(key)
                    if child is not None:
                        return child
                child = self._make_child()
                self._children[key] = child
        return child

    # Convenience: label-less metrics can be recorded on directly.
    def _require_default(self):
        if self._default is None:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                f"call .labels(...) first"
            )
        return self._default

    def series(self) -> list[tuple[dict[str, str], object]]:
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]


class Counter(_Metric):
    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class Gauge(_Metric):
    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float],
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} has duplicate buckets")
        self.bounds = bounds
        super().__init__(name, help, labelnames)

    def _make_child(self):
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)


def _escape_label_value(value: str) -> str:
    # Exposition format 0.0.4: backslash FIRST (it is the escape
    # character), then double-quote, then newline.
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    # HELP lines escape backslash and newline only (quotes are legal
    # there) — an unescaped newline would split the line and corrupt
    # the whole exposition.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in labels.items()
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """A process- or instance-scoped family of named instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling
    twice with the same name returns the same instrument, and calling
    with a conflicting type or label set raises — two subsystems
    cannot silently fight over one name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collect_hooks: list[Callable[[], None]] = []

    def add_collect_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` at the start of every snapshot/render.

        The pull-model escape hatch for values that are only
        meaningful at scrape time (uptime, queue depths computed from
        another structure).  Hooks must be cheap and exception-safe;
        a raising hook is suppressed rather than corrupting a scrape.
        """
        with self._lock:
            self._collect_hooks.append(hook)

    def _run_collect_hooks(self) -> None:
        with self._lock:
            hooks = list(self._collect_hooks)
        for hook in hooks:
            with contextlib.suppress(Exception):
                hook()

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------

    def _get_or_create(
        self, cls: type, name: str, help: str, labelnames: Sequence[str], **kw
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if type(metric) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, not {cls.kind}"
                    )
                if metric.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{metric.labelnames}, not {tuple(labelnames)}"
                    )
                return metric
            metric = cls(name, help, labelnames, **kw)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view of every series, JSON-serializable as-is."""
        self._run_collect_hooks()
        out: dict[str, dict] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            values = []
            for labels, child in metric.series():
                if isinstance(child, _HistogramChild):
                    with child._lock:
                        values.append(
                            {
                                "labels": labels,
                                "buckets": [
                                    [bound, count]
                                    for bound, count in zip(
                                        child.bounds, child.bucket_counts
                                    )
                                ]
                                + [["+Inf", child.bucket_counts[-1]]],
                                "sum": child.sum,
                                "count": child.count,
                            }
                        )
                else:
                    values.append({"labels": labels, "value": child.value})
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "values": values,
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        self._run_collect_hooks()
        lines: list[str] = []
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        for metric in metrics:
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} {_escape_help(metric.help)}"
                )
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for labels, child in metric.series():
                if isinstance(child, _HistogramChild):
                    with child._lock:
                        counts = list(child.bucket_counts)
                        total = child.count
                        summed = child.sum
                    cumulative = 0
                    for bound, count in zip(child.bounds, counts):
                        cumulative += count
                        le_labels = dict(labels)
                        le_labels["le"] = _format_value(bound)
                        lines.append(
                            f"{metric.name}_bucket{_label_str(le_labels)} "
                            f"{cumulative}"
                        )
                    inf_labels = dict(labels)
                    inf_labels["le"] = "+Inf"
                    lines.append(
                        f"{metric.name}_bucket{_label_str(inf_labels)} {total}"
                    )
                    lines.append(
                        f"{metric.name}_sum{_label_str(labels)} "
                        f"{_format_value(summed)}"
                    )
                    lines.append(
                        f"{metric.name}_count{_label_str(labels)} {total}"
                    )
                else:
                    lines.append(
                        f"{metric.name}{_label_str(labels)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Introspection helpers (tests, CLI summaries)
    # ------------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge series (0.0 if unseen)."""
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        key = _validate_labels(metric.labelnames, labels)
        child = metric._children.get(key)
        if child is None:
            return 0.0
        return child.value

    def sum_values(self, name: str, **fixed: str) -> float:
        """Sum of all series of ``name`` matching the given label subset."""
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        total = 0.0
        for labels, child in metric.series():
            if all(labels.get(k) == v for k, v in fixed.items()):
                if isinstance(child, _HistogramChild):
                    total += child.count
                else:
                    total += child.value
        return total


_default_registry: MetricsRegistry | None = None
_default_lock = threading.Lock()

# Uptime is measured from module import (= process start for every
# CLI entry point; close enough for the embedded case).
_PROCESS_START_MONOTONIC = time.monotonic()


def install_process_metrics(registry: MetricsRegistry) -> None:
    """Register process-identity metrics on ``registry``.

    ``repro_build_info`` is the standard Prometheus identity idiom: a
    constant-1 gauge whose labels carry the package version and the
    Python runtime, so every scrape says *what* is answering.
    ``repro_uptime_seconds`` is refreshed by a collect hook at scrape
    time, and therefore also lands in ``/stats`` snapshots and
    ``repro.cli stats --json``.
    """
    import platform

    from repro._version import __version__

    build = registry.gauge(
        "repro_build_info",
        "Build/runtime identity; the value is always 1",
        ("version", "python"),
    )
    build.labels(version=__version__, python=platform.python_version()).set(
        1.0
    )
    uptime = registry.gauge(
        "repro_uptime_seconds",
        "Seconds since this process imported repro.obs.metrics",
    )
    registry.add_collect_hook(
        lambda: uptime.set(time.monotonic() - _PROCESS_START_MONOTONIC)
    )


def default_registry() -> MetricsRegistry:
    """The process-global registry the CLI entry points inject.

    Created on first use with the process-identity metrics installed,
    so any scrape of a CLI process carries ``repro_build_info`` and a
    live ``repro_uptime_seconds`` without per-entry-point wiring.
    """
    global _default_registry
    if _default_registry is None:
        with _default_lock:
            if _default_registry is None:
                registry = MetricsRegistry()
                install_process_metrics(registry)
                _default_registry = registry
    return _default_registry
