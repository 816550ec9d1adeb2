"""Span timelines, flight recorder, and the health/readiness plane.

The acceptance surface of the second observability story:

* **spans** — the ``span()`` context manager nests/parents correctly,
  buffers bound their memory by dropping the *oldest* (counted on
  ``repro_spans_dropped_total``), and wire dicts are policed as
  strictly as ``tid``/``sid``;
* **flight recorder** — the bounded ring captures structured log
  events and dumps one self-contained JSON artifact the trace viewer
  can re-render;
* **health** — ``/healthz`` stays 200 while ``/readyz`` flips to 503
  on drain or a failing probe, a busy port names the flag to change,
  and concurrent scrapes from many threads never corrupt output;
* **process identity** — ``repro_build_info`` and a live
  ``repro_uptime_seconds`` ride every snapshot, and hostile HELP/label
  text renders escaped.
"""

import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.health import (
    EventLoopLagProbe,
    HealthState,
    gauge_max_probe,
    gauge_min_probe,
)
from repro.obs.http import MetricsServer
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry, install_process_metrics
from repro.obs.recorder import FlightRecorder, install_flight_recorder
from repro.obs.spans import (
    MAX_WIRE_SPANS,
    Span,
    SpanBuffer,
    render_waterfall,
    span,
    validate_wire_span,
    validate_wire_spans,
)
from repro.obs.trace import bind_trace, current_span, current_trace


# ----------------------------------------------------------------------
# Span + span() context manager
# ----------------------------------------------------------------------


class TestSpan:
    def test_begin_finish_times_the_block(self):
        item = Span.begin("unit.work")
        time.sleep(0.01)
        item.finish(jobs=3)
        assert item.duration_s >= 0.009
        assert item.status == "ok"
        assert item.attributes == {"jobs": 3}
        assert item.end_wall is not None and item.end_wall >= item.start_wall

    def test_finish_is_idempotent(self):
        item = Span.begin("unit.work").finish()
        first_end = item.end_mono
        time.sleep(0.005)
        item.finish()
        assert item.end_mono == first_end

    def test_wire_round_trip_preserves_timeline(self):
        item = Span.begin("unit.work", trace_id="t" * 16, parent_id="p1")
        item.finish("error:Boom", worker="w-0")
        wire = item.to_wire()
        validate_wire_span(wire)
        back = Span.from_wire(wire)
        assert back.trace_id == item.trace_id
        assert back.span_id == item.span_id
        assert back.parent_id == "p1"
        assert back.status == "error:Boom"
        assert back.attributes == {"worker": "w-0"}
        # Monotonic fields are rebased, but the answers survive.
        assert back.duration_s == pytest.approx(item.duration_s)
        assert back.start_wall == pytest.approx(item.start_wall)

    def test_ok_status_and_empty_attrs_stay_off_the_wire(self):
        wire = Span.begin("x").finish().to_wire()
        assert "st" not in wire and "attrs" not in wire and "pid" not in wire


class TestSpanContextManager:
    def test_composes_with_bind_trace(self):
        buf = SpanBuffer(registry=MetricsRegistry())
        with bind_trace("trace-a", "root-span"):
            with span("outer", buffer=buf) as outer:
                assert current_trace() == "trace-a"
                assert current_span() == outer.span_id
                with span("inner", buffer=buf) as inner:
                    assert inner.parent_id == outer.span_id
        outer_rec, = [s for s in buf.snapshot() if s.name == "outer"]
        inner_rec, = [s for s in buf.snapshot() if s.name == "inner"]
        assert outer_rec.trace_id == inner_rec.trace_id == "trace-a"
        assert outer_rec.parent_id == "root-span"

    def test_exception_marks_error_status_and_reraises(self):
        buf = SpanBuffer(registry=MetricsRegistry())
        with pytest.raises(RuntimeError):
            with span("doomed", buffer=buf):
                raise RuntimeError("nope")
        rec, = buf.snapshot()
        assert rec.status == "error:RuntimeError"
        assert rec.end_mono is not None

    def test_root_span_mints_a_trace(self):
        buf = SpanBuffer(registry=MetricsRegistry())
        with span("root", buffer=buf) as root:
            assert root.parent_id is None
            assert root.trace_id
        assert buf.trace(root.trace_id)


class TestSpanBuffer:
    def test_overflow_drops_oldest_and_counts(self):
        reg = MetricsRegistry()
        buf = SpanBuffer(capacity=3, registry=reg)
        for i in range(5):
            buf.add(Span.begin(f"s{i}").finish())
        assert len(buf) == 3
        assert [s.name for s in buf.snapshot()] == ["s2", "s3", "s4"]
        assert reg.value("repro_spans_dropped_total") == 2

    def test_trace_filters_and_orders(self):
        buf = SpanBuffer(registry=MetricsRegistry())
        late = Span.begin("late", trace_id="t1").finish()
        early = Span.begin("early", trace_id="t1").finish()
        early.start_wall = late.start_wall - 1.0
        buf.extend([late, early, Span.begin("other", trace_id="t2").finish()])
        assert [s.name for s in buf.trace("t1")] == ["early", "late"]
        assert buf.trace_ids() == ["t1", "t2"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanBuffer(capacity=0)


class TestWireSpanValidation:
    def _good(self) -> dict:
        return {"tid": "t1", "sid": "s1", "name": "n", "ts": 1.0, "dur": 0.5}

    def test_good_span_accepted(self):
        assert validate_wire_span(self._good())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda w: w.update(evil="x"),  # unknown key
            lambda w: w.update(name=""),
            lambda w: w.update(name="n" * 200),
            lambda w: w.update(tid=""),
            lambda w: w.update(tid="t" * 200),
            lambda w: w.update(sid=7),
            lambda w: w.update(ts="now"),
            lambda w: w.update(dur=float("inf")),
            lambda w: w.update(dur=-1.0),
            lambda w: w.update(ts=True),
            lambda w: w.update(st=""),
            lambda w: w.update(attrs=[1, 2]),
            lambda w: w.update(attrs={"k": ["nested"]}),
            lambda w: w.update(attrs={"k" * 100: 1}),
            lambda w: w.update(attrs={"k": "v" * 1000}),
            lambda w: w.update(attrs={f"k{i}": i for i in range(40)}),
        ],
    )
    def test_junk_rejected(self, mutate):
        wire = self._good()
        mutate(wire)
        with pytest.raises(ValueError):
            validate_wire_span(wire)

    def test_span_list_cap(self):
        good = self._good()
        validate_wire_spans([good] * MAX_WIRE_SPANS)
        with pytest.raises(ValueError):
            validate_wire_spans([good] * (MAX_WIRE_SPANS + 1))
        with pytest.raises(ValueError):
            validate_wire_spans({"not": "a list"})


class TestWaterfall:
    def test_renders_parented_rows(self):
        root = Span.begin("coordinator.chunk", trace_id="t1").finish()
        child = Span.begin(
            "worker.execute", trace_id="t1", parent_id=root.span_id
        ).finish("error:Boom")
        text = render_waterfall([root, child], width=80)
        lines = text.splitlines()
        assert "trace t1" in lines[0]
        assert any("coordinator.chunk" in ln and "#" in ln for ln in lines)
        # Children indent under their parent and errors are flagged.
        child_line, = [ln for ln in lines if "worker.execute" in ln]
        assert child_line.startswith("  ")
        assert "!error:Boom" in child_line

    def test_empty_input(self):
        assert render_waterfall([]) == "(no spans)"

    @staticmethod
    def timed(name, start_ms, end_ms, status="ok", **attributes) -> Span:
        start, end = 1000.0 + start_ms / 1e3, 1000.0 + end_ms / 1e3
        return Span(
            trace_id="t1", span_id=f"{name}@{start_ms}", parent_id=None,
            name=name, start_wall=start, start_mono=0.0, end_wall=end,
            end_mono=end - start, status=status, attributes=attributes,
        )

    def test_ends_with_one_line_per_worker(self):
        spans = [
            self.timed("engine.map", 0, 100, engine="cluster", items=9),
            self.timed("worker.execute", 0, 40, worker="a", chunk=0, jobs=4),
            self.timed("worker.execute", 40, 90, worker="a", chunk=2, jobs=3),
            self.timed("worker.execute", 0, 30, worker="b", chunk=1, jobs=2),
            # A failed chunk ran (busy, counted) but finished no job.
            self.timed("worker.execute", 30, 35, "error:Boom", worker="b",
                       chunk=3),
            # Coordinator spans name a worker too; only execution counts.
            self.timed("coordinator.chunk", 0, 45, worker="a", chunk=0, jobs=4),
        ]
        lines = render_waterfall(spans).splitlines()
        assert lines[-2:] == [
            "worker a: busy 90.00ms, 2 chunks, 7 jobs, idle 10.00ms",
            "worker b: busy 35.00ms, 2 chunks, 2 jobs, idle 65.00ms",
        ]

    def test_idle_is_read_against_the_whole_trace_without_a_map_span(self):
        spans = [
            self.timed("coordinator.chunk", 0, 50, worker="a", chunk=0, jobs=1),
            self.timed("worker.execute", 10, 40, worker="a", chunk=0, jobs=1),
        ]
        assert render_waterfall(spans).splitlines()[-1] == (
            "worker a: busy 30.00ms, 1 chunks, 1 jobs, idle 20.00ms"
        )


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_captures_log_events_and_bounds_memory(self):
        recorder = FlightRecorder(
            process="unit", capacity=4,
            span_buffer=SpanBuffer(registry=MetricsRegistry()),
        )
        recorder.attach()
        try:
            log = get_logger("unit_flight")
            log.setLevel(logging.DEBUG)
            for i in range(10):
                log_event(log, "tick", level=logging.DEBUG, i=i)
        finally:
            recorder.detach()
        events = recorder.dump("test")["events"]
        assert len(events) == 4  # oldest evicted
        assert all(e["event"] == "tick" for e in events)

    def test_dump_artifact_is_self_contained(self, tmp_path):
        buf = SpanBuffer(registry=MetricsRegistry())
        buf.add(Span.begin("worker.execute", trace_id="t9").finish())
        recorder = FlightRecorder(process="unit/worker 1", span_buffer=buf)
        recorder.record("drain_started", grace_s=2)
        path = recorder.dump_to_dir(str(tmp_path), reason="shutdown")
        with open(path, encoding="utf-8") as fh:
            artifact = json.load(fh)
        assert artifact["kind"] == "repro-flight-recorder"
        assert artifact["reason"] == "shutdown"
        assert artifact["events"][0]["event"] == "drain_started"
        # Spans land in wire form — the trace viewer's input.
        spans = [Span.from_wire(w) for w in artifact["spans"]]
        assert spans[0].name == "worker.execute"
        assert "/" not in path.rsplit("flight-", 1)[1]  # sanitized name

    def test_crash_hook_dumps_and_chains(self, tmp_path, monkeypatch):
        import sys

        recorder = FlightRecorder(
            process="unit", span_buffer=SpanBuffer(registry=MetricsRegistry())
        )
        seen = []
        monkeypatch.setattr(sys, "excepthook", lambda *a: seen.append(a))
        install_flight_recorder(recorder, str(tmp_path), on_signal=False)
        try:
            raise ValueError("boom")
        except ValueError:
            sys.excepthook(*sys.exc_info())
        assert seen, "original excepthook still runs"
        dumps = list(tmp_path.glob("flight-*-crash.json"))
        assert len(dumps) == 1
        artifact = json.loads(dumps[0].read_text())
        crash, = [e for e in artifact["events"]
                  if e["event"] == "unhandled_crash"]
        assert crash["exc_type"] == "ValueError"


# ----------------------------------------------------------------------
# Health state + probes
# ----------------------------------------------------------------------


class TestHealthState:
    def test_ready_by_default_and_drain_flips(self):
        health = HealthState()
        assert health.readiness()[0] is True
        health.set_ready(False, "draining")
        ready, detail = health.readiness()
        assert ready is False and detail["reason"] == "draining"
        assert health.draining

    def test_failing_probe_flips_readiness_with_detail(self):
        health = HealthState()
        health.add_probe("always_sad", lambda: (False, {"why": "test"}))
        ready, detail = health.readiness()
        assert ready is False
        assert detail["probes"]["always_sad"] == {
            "ok": False, "why": "test",
        }

    def test_raising_probe_reports_not_ready_not_crash(self):
        health = HealthState()
        health.add_probe("broken", lambda: 1 / 0)
        ready, detail = health.readiness()
        assert ready is False
        assert "ZeroDivisionError" in detail["probes"]["broken"]["error"]

    def test_gauge_probes_watch_registry_series(self):
        reg = MetricsRegistry()
        live = reg.gauge("repro_cluster_workers_live", "live")
        stall = reg.gauge("repro_cluster_stall_seconds", "stall")
        workers_ok = gauge_min_probe(reg, "repro_cluster_workers_live", 1.0)
        stall_ok = gauge_max_probe(reg, "repro_cluster_stall_seconds", 60.0)
        assert workers_ok()[0] is False  # no workers yet
        live.set(2)
        assert workers_ok() == (True, {"value": 2.0, "min": 1.0})
        stall.set(120.0)
        assert stall_ok()[0] is False

    def test_event_loop_lag_probe_threshold(self):
        probe = EventLoopLagProbe(threshold_s=0.5)
        assert probe()[0] is True
        probe.lag_s = 2.0
        ok, detail = probe()
        assert ok is False and detail["lag_s"] == 2.0


# ----------------------------------------------------------------------
# HTTP endpoint: probes, busy port, concurrent scrapes
# ----------------------------------------------------------------------


def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


class TestHealthEndpoints:
    def test_healthz_and_readyz_follow_state(self):
        reg = MetricsRegistry()
        health = HealthState()
        with MetricsServer(reg, port=0, health=health) as server:
            base = f"http://127.0.0.1:{server.port}"
            status, body = _get(f"{base}/healthz")
            assert status == 200 and json.loads(body)["status"] == "alive"
            status, body = _get(f"{base}/readyz")
            assert status == 200 and json.loads(body)["ready"] is True
            health.set_ready(False, "draining")
            status, body = _get(f"{base}/readyz")
            detail = json.loads(body)
            assert status == 503
            assert detail["ready"] is False
            assert detail["reason"] == "draining"
            # Liveness is unaffected by a drain: restartable != routable.
            assert _get(f"{base}/healthz")[0] == 200

    def test_port_in_use_error_names_the_flag(self):
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            port = squatter.getsockname()[1]
            with pytest.raises(OSError, match=r"--metrics-port"):
                MetricsServer(MetricsRegistry(), port=port)

    def test_concurrent_scrapes_stay_coherent(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_scrape_unit_total", "test counter")
        counter.inc(41)
        with MetricsServer(reg, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            failures: list[str] = []

            def scrape(path: str) -> None:
                for _ in range(10):
                    status, body = _get(f"{base}{path}")
                    if status != 200:
                        failures.append(f"{path}: {status}")
                    elif path == "/metrics" and (
                        b"repro_scrape_unit_total" not in body
                    ):
                        failures.append(f"{path}: truncated body")

            threads = [
                threading.Thread(target=scrape, args=(path,))
                for path in ("/metrics", "/stats", "/healthz", "/readyz")
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not failures


# ----------------------------------------------------------------------
# Build info, uptime, and exposition escaping
# ----------------------------------------------------------------------


class TestProcessMetrics:
    def test_build_info_and_uptime_installed(self):
        from repro._version import __version__

        reg = MetricsRegistry()
        install_process_metrics(reg)
        snap = reg.snapshot()
        info, = snap["repro_build_info"]["values"]
        assert info["labels"]["version"] == __version__
        assert info["labels"]["python"].count(".") == 2
        assert info["value"] == 1.0
        assert snap["repro_uptime_seconds"]["values"][0]["value"] >= 0.0

    def test_uptime_refreshes_per_scrape(self):
        reg = MetricsRegistry()
        install_process_metrics(reg)
        first = reg.snapshot()["repro_uptime_seconds"]["values"][0]["value"]
        time.sleep(0.02)
        second = reg.snapshot()["repro_uptime_seconds"]["values"][0]["value"]
        assert second > first

    def test_build_info_renders_in_prometheus_text(self):
        reg = MetricsRegistry()
        install_process_metrics(reg)
        text = reg.render_prometheus()
        assert 'repro_build_info{' in text
        assert "# TYPE repro_build_info gauge" in text


class TestPrometheusEscaping:
    def test_hostile_label_values_escape_in_order(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_escape_total", "help", ("who",))
        counter.labels(who='a\\b"c\nd').inc()
        text = reg.render_prometheus()
        # Backslash first, then quote and newline — the exposition
        # format's required order, so the line parses back losslessly.
        assert 'who="a\\\\b\\"c\\nd"' in text
        line, = [ln for ln in text.splitlines()
                 if ln.startswith("repro_escape_total{")]
        assert "\n" not in line

    def test_hostile_help_text_cannot_break_exposition(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_helpful_total",
            'multi\nline \\ help{injection="1"} 99',
        ).inc()
        text = reg.render_prometheus()
        help_line, = [ln for ln in text.splitlines()
                      if ln.startswith("# HELP repro_helpful_total")]
        # The newline and backslash are escaped; no stray sample line
        # was injected through the help string.
        assert help_line == (
            "# HELP repro_helpful_total "
            'multi\\nline \\\\ help{injection="1"} 99'
        )
        samples = [ln for ln in text.splitlines()
                   if ln.startswith("repro_helpful_total")]
        assert samples == ["repro_helpful_total 1"]
