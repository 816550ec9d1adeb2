"""Timed spans: the second story of the trace plane.

PR 7's :mod:`repro.obs.trace` propagates trace/span *ids* through
frames and job envelopes — enough to grep one chunk's timeline out of
DEBUG logs, not enough to see it.  This module records the timeline
itself: a :class:`Span` is one named, timed operation (trace id, span
id, parent id, monotonic + wall-clock start/end, attributes, status)
and a :class:`SpanBuffer` is the bounded thread-safe ring every
process records completed spans into.

Spans are created with the :func:`span` context manager, which
composes with :func:`repro.obs.trace.bind_trace`: the current trace id
is inherited (or minted for a root span), the current span id becomes
the parent, and the new span id is bound for the duration of the block
so nested spans and log records chain correctly.

Cross-process spans travel as plain dicts (:meth:`Span.to_wire` /
:func:`validate_wire_span`) attached to cluster result envelopes —
optional, size-capped, junk-rejected at the codec like ``tid``/``sid``
— so the coordinator can assemble one distributed waterfall per trace
and :func:`render_waterfall` can draw it without touching a log file.

Recording is deliberately *boundary-grained*: one span per chunk /
map / submission, never per item, and only when a trace is bound on
the hot engine path — the ledger's ``obs.tracing_overhead_share`` row
reads the cost.
"""

from __future__ import annotations

import collections
import contextlib
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import (
    MAX_TRACE_ID_LEN,
    bind_trace,
    current_span,
    current_trace,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "MAX_SPAN_ATTRS",
    "MAX_SPAN_ATTR_KEY_LEN",
    "MAX_SPAN_ATTR_STR_LEN",
    "MAX_SPAN_NAME_LEN",
    "MAX_WIRE_SPANS",
    "Span",
    "SpanBuffer",
    "default_span_buffer",
    "render_waterfall",
    "span",
    "validate_wire_span",
    "validate_wire_spans",
]

# Wire validity window for span payloads riding result envelopes —
# the same philosophy as MAX_TRACE_ID_LEN for tid/sid: a hostile or
# buggy peer can at worst make us hold a few KiB of strings.
MAX_WIRE_SPANS = 32
MAX_SPAN_NAME_LEN = 120
MAX_SPAN_STATUS_LEN = 120
MAX_SPAN_ATTRS = 16
MAX_SPAN_ATTR_KEY_LEN = 64
MAX_SPAN_ATTR_STR_LEN = 256

#: Default capacity of the process-global buffer: enough for the
#: recent-history window an operator actually asks about, bounded so
#: an unscraped long-lived process cannot grow without limit.
DEFAULT_SPAN_BUFFER_CAPACITY = 4096


@dataclass
class Span:
    """One named, timed operation within a trace.

    ``start_mono``/``end_mono`` carry the authoritative duration
    (immune to wall-clock steps); ``start_wall``/``end_wall`` place
    the span on a cross-process timeline.  Spans decoded from the
    wire only have wall times — their monotonic fields are rebased so
    :attr:`duration_s` still answers from the wall-clock interval.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_wall: float
    start_mono: float
    end_wall: float | None = None
    end_mono: float | None = None
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def begin(
        cls,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        span_id: str | None = None,
    ) -> "Span":
        """Open a span now; ids default from the bound trace context."""
        return cls(
            trace_id=trace_id or current_trace() or new_trace_id(),
            span_id=span_id or new_span_id(),
            parent_id=parent_id if parent_id is not None else current_span(),
            name=name,
            start_wall=time.time(),
            start_mono=time.monotonic(),
        )

    def finish(self, status: str = "ok", **attributes: Any) -> "Span":
        """Close the span (idempotent); returns self for chaining."""
        if self.end_mono is None:
            self.end_mono = time.monotonic()
            self.end_wall = time.time()
        self.status = status
        if attributes:
            self.attributes.update(attributes)
        return self

    @property
    def duration_s(self) -> float:
        if self.end_mono is not None:
            return max(0.0, self.end_mono - self.start_mono)
        return 0.0

    # ------------------------------------------------------------------
    # Wire / JSON representation
    # ------------------------------------------------------------------

    def to_wire(self) -> dict:
        """Compact JSON-safe dict (the ``sp`` wire field element)."""
        out: dict[str, Any] = {
            "tid": self.trace_id,
            "sid": self.span_id,
            "name": self.name,
            "ts": self.start_wall,
            "dur": self.duration_s,
        }
        if self.parent_id is not None:
            out["pid"] = self.parent_id
        if self.status != "ok":
            out["st"] = self.status
        if self.attributes:
            out["attrs"] = dict(self.attributes)
        return out

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "Span":
        """Rebuild a span from a validated wire dict.

        Monotonic fields are rebased onto the wall interval — a
        decoded span only answers "when and for how long", never
        "relative to this process's monotonic clock".
        """
        start = float(obj["ts"])
        duration = float(obj["dur"])
        return cls(
            trace_id=obj["tid"],
            span_id=obj["sid"],
            parent_id=obj.get("pid"),
            name=obj["name"],
            start_wall=start,
            start_mono=0.0,
            end_wall=start + duration,
            end_mono=duration,
            status=obj.get("st", "ok"),
            attributes=dict(obj.get("attrs", {})),
        )


def _check_id(value: Any, key: str, *, required: bool) -> str | None:
    if value is None:
        if required:
            raise ValueError(f"span field {key!r} missing")
        return None
    if not isinstance(value, str) or not value:
        raise ValueError(f"span field {key!r} must be a non-empty string")
    if len(value) > MAX_TRACE_ID_LEN:
        raise ValueError(
            f"span field {key!r} exceeds {MAX_TRACE_ID_LEN} chars"
        )
    return value


def validate_wire_span(obj: Any) -> dict:
    """Validate one wire span dict; raises ``ValueError`` on junk.

    The validity window mirrors the codec's ``tid``/``sid`` policy:
    everything bounded, nothing executable, unknown keys rejected so a
    frame cannot smuggle arbitrary structure under ``sp``.
    """
    if not isinstance(obj, dict):
        raise ValueError("wire span must be an object")
    unknown = set(obj) - {"tid", "sid", "pid", "name", "st", "ts", "dur",
                          "attrs"}
    if unknown:
        raise ValueError(f"wire span has unknown keys {sorted(unknown)}")
    _check_id(obj.get("tid"), "tid", required=True)
    _check_id(obj.get("sid"), "sid", required=True)
    _check_id(obj.get("pid"), "pid", required=False)
    name = obj.get("name")
    if (
        not isinstance(name, str)
        or not name
        or len(name) > MAX_SPAN_NAME_LEN
    ):
        raise ValueError("wire span 'name' must be a short non-empty string")
    status = obj.get("st", "ok")
    if (
        not isinstance(status, str)
        or not status
        or len(status) > MAX_SPAN_STATUS_LEN
    ):
        raise ValueError("wire span 'st' must be a short non-empty string")
    for key in ("ts", "dur"):
        value = obj.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"wire span {key!r} must be a number")
        if not math.isfinite(value):
            raise ValueError(f"wire span {key!r} must be finite")
    if float(obj["dur"]) < 0:
        raise ValueError("wire span 'dur' must be >= 0")
    attrs = obj.get("attrs", {})
    if not isinstance(attrs, dict):
        raise ValueError("wire span 'attrs' must be an object")
    if len(attrs) > MAX_SPAN_ATTRS:
        raise ValueError(f"wire span has more than {MAX_SPAN_ATTRS} attrs")
    for key, value in attrs.items():
        if not isinstance(key, str) or len(key) > MAX_SPAN_ATTR_KEY_LEN:
            raise ValueError("wire span attr keys must be short strings")
        if isinstance(value, str):
            if len(value) > MAX_SPAN_ATTR_STR_LEN:
                raise ValueError("wire span attr string value too long")
        elif isinstance(value, (int, float)):
            if not isinstance(value, bool) and not math.isfinite(value):
                raise ValueError("wire span attr numbers must be finite")
        elif value is not None and not isinstance(value, bool):
            raise ValueError("wire span attr values must be scalars")
    return obj


def validate_wire_spans(value: Any) -> tuple[dict, ...]:
    """Validate a whole ``sp`` wire field (a list of span dicts)."""
    if not isinstance(value, list):
        raise ValueError("wire spans must be a list")
    if len(value) > MAX_WIRE_SPANS:
        raise ValueError(
            f"wire spans exceed the per-envelope cap of {MAX_WIRE_SPANS}"
        )
    return tuple(validate_wire_span(item) for item in value)


class SpanBuffer:
    """Bounded thread-safe ring of completed spans.

    Overflow drops the *oldest* span and increments
    ``repro_spans_dropped_total`` on the owning registry — recent
    history is what post-mortems and ``trace view`` ask for.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_BUFFER_CAPACITY,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: collections.deque[Span] = collections.deque()
        self._registry = registry
        self._dropped = None  # lazy counter; registry may not exist yet

    def _dropped_counter(self):
        counter = self._dropped
        if counter is None:
            registry = self._registry or default_registry()
            counter = registry.counter(
                "repro_spans_dropped_total",
                "Completed spans evicted from a full SpanBuffer "
                "(oldest-first)",
            )
            # Publish under the lock: two racing callers both resolve
            # the same registry counter (get-or-create), but the cached
            # attribute must be written exactly once.
            with self._lock:
                if self._dropped is None:
                    self._dropped = counter
                counter = self._dropped
        return counter

    def add(self, span: Span) -> None:
        dropped = 0
        with self._lock:
            self._spans.append(span)
            while len(self._spans) > self.capacity:
                self._spans.popleft()
                dropped += 1
        if dropped:
            self._dropped_counter().inc(dropped)

    def extend(self, spans: Sequence[Span]) -> None:
        for item in spans:
            self.add(item)

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def trace(self, trace_id: str) -> list[Span]:
        """All buffered spans of one trace, timeline-ordered."""
        with self._lock:
            matched = [s for s in self._spans if s.trace_id == trace_id]
        matched.sort(key=lambda s: (s.start_wall, s.name))
        return matched

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in the buffer, most recent last."""
        seen: dict[str, None] = {}
        with self._lock:
            for item in self._spans:
                seen[item.trace_id] = None
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_default_buffer: SpanBuffer | None = None
_default_buffer_lock = threading.Lock()


def default_span_buffer() -> SpanBuffer:
    """The process-global span ring (mirrors ``default_registry``)."""
    global _default_buffer
    if _default_buffer is None:
        with _default_buffer_lock:
            if _default_buffer is None:
                _default_buffer = SpanBuffer()
    return _default_buffer


@contextlib.contextmanager
def span(
    name: str,
    *,
    buffer: SpanBuffer | None = None,
    attributes: Mapping[str, Any] | None = None,
) -> Iterator[Span]:
    """Record one timed span around a block.

    Inherits the bound trace (or mints a root trace id), parents under
    the currently bound span, and binds its own span id for the block
    so nested spans and log records chain.  The completed span lands
    in ``buffer`` (default: the process-global one); an exception
    marks ``status="error:<Type>"`` and re-raises.
    """
    target = buffer if buffer is not None else default_span_buffer()
    current = Span.begin(name)
    if attributes:
        current.attributes.update(attributes)
    try:
        with bind_trace(current.trace_id, current.span_id):
            yield current
    except BaseException as exc:
        target.add(current.finish(status=f"error:{type(exc).__name__}"))
        raise
    else:
        target.add(current.finish(current.status))


# ----------------------------------------------------------------------
# ASCII waterfall
# ----------------------------------------------------------------------


def _span_depth(item: Span, by_id: Mapping[str, Span]) -> int:
    depth, parent, hops = 0, item.parent_id, 0
    while parent is not None and hops < 16:  # hop cap guards id cycles
        parent_span = by_id.get(parent)
        depth += 1
        parent = parent_span.parent_id if parent_span is not None else None
        hops += 1
    return depth


def _attr_text(item: Span, limit: int = 48) -> str:
    parts = [f"{k}={v}" for k, v in sorted(item.attributes.items())]
    text = " ".join(parts)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


def _end_wall(item: Span) -> float:
    return item.end_wall if item.end_wall is not None else item.start_wall


def _worker_lines(ordered: Sequence[Span], t0: float, t1: float) -> list[str]:
    """One line per worker, from the ``worker`` attribute its
    ``worker.execute`` spans carry: busy ms, chunks, jobs, and idle ms
    within the map — the ``engine.map`` spans' interval when the trace
    has them, else the whole trace."""
    maps = [s for s in ordered if s.name == "engine.map"]
    if maps:
        t0 = min(s.start_wall for s in maps)
        t1 = max(_end_wall(s) for s in maps)
    executed: dict[str, list[Span]] = {}
    for item in ordered:
        worker = item.attributes.get("worker")
        if item.name == "worker.execute" and worker is not None:
            executed.setdefault(str(worker), []).append(item)
    lines = []
    for worker, chunks in sorted(executed.items()):
        busy = sum(s.duration_s for s in chunks)
        jobs = sum(int(s.attributes.get("jobs", 0)) for s in chunks)
        idle = max(0.0, t1 - t0 - busy)
        lines.append(
            f"worker {worker}: busy {busy * 1e3:.2f}ms, "
            f"{len(chunks)} chunks, {jobs} jobs, idle {idle * 1e3:.2f}ms"
        )
    return lines


def render_waterfall(spans: Sequence[Span], width: int = 100) -> str:
    """Render one trace's spans as an ASCII waterfall.

    One row per span, indented by parent depth, with a proportional
    bar on a shared wall-clock axis — the dispatch → execute → accept
    shape is visible at a glance, no log grepping.  A cluster trace
    ends with one line per worker (:func:`_worker_lines`), so an uneven
    split of the map reads from the trace alone.
    """
    if not spans:
        return "(no spans)"
    ordered = sorted(spans, key=lambda s: (s.start_wall, s.name))
    by_id = {s.span_id: s for s in ordered}
    t0 = min(s.start_wall for s in ordered)
    t1 = max(_end_wall(s) for s in ordered)
    total = max(t1 - t0, 1e-9)
    labels = [
        "  " * _span_depth(s, by_id) + s.name for s in ordered
    ]
    label_w = min(max(len(lb) for lb in labels), 40)
    bar_w = max(20, width - label_w - 24)
    trace_ids = {s.trace_id for s in ordered}
    header = (
        f"trace {', '.join(sorted(trace_ids))} — {len(ordered)} spans, "
        f"{total * 1e3:.2f} ms"
    )
    lines = [header]
    for item, label in zip(ordered, labels):
        offset = int((item.start_wall - t0) / total * (bar_w - 1))
        length = max(1, round(item.duration_s / total * bar_w))
        length = min(length, bar_w - offset)
        bar = " " * offset + "#" * length
        row = (
            f"{label[:label_w]:<{label_w}} "
            f"|{bar:<{bar_w}}| "
            f"{item.duration_s * 1e3:>9.2f}ms"
        )
        if item.status != "ok":
            row += f" !{item.status}"
        attrs = _attr_text(item)
        if attrs:
            row += f"  {attrs}"
        lines.append(row)
    lines.extend(_worker_lines(ordered, t0, t1))
    return "\n".join(lines)
