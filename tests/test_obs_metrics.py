"""Unit tests for the observability plane: registry, trace, logging.

The metrics registry is the substrate every plane records into
(README "Observability"), so its semantics are pinned here in
isolation: instrument identity, label validation, cardinality
overflow, histogram bucketing, Prometheus rendering, and thread
safety under concurrent recording — and every series ``src``
registers has a row in that section's catalogue.
"""

import ast
import json
import logging
import pathlib
import re
import threading
import urllib.request

import pytest
from test_service_codec import _readme_section, _table_rows

from repro.obs.http import MetricsServer
from repro.obs.recorder import FlightRecorder
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
    MetricsRegistry,
    default_registry,
    log_buckets,
)
from repro.obs.trace import (
    bind_trace,
    current_span,
    current_trace,
    new_span_id,
    new_trace_id,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestCounters:
    def test_counts_up_and_snapshots(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        snap = reg.snapshot()
        assert snap["repro_test_total"]["type"] == "counter"
        assert snap["repro_test_total"]["values"] == [
            {"labels": {}, "value": 3.5}
        ]

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_series_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_evt_total", "", ("event",))
        c.labels(event="a").inc()
        c.labels(event="a").inc()
        c.labels(event="b").inc(5)
        assert reg.value("repro_evt_total", event="a") == 2
        assert reg.value("repro_evt_total", event="b") == 5
        assert reg.sum_values("repro_evt_total") == 7

    def test_labelled_metric_rejects_direct_record(self):
        c = MetricsRegistry().counter("repro_evt_total", "", ("event",))
        with pytest.raises(ValueError, match="has labels"):
            c.inc()

    def test_wrong_label_names_rejected(self):
        c = MetricsRegistry().counter("repro_evt_total", "", ("event",))
        with pytest.raises(ValueError, match="do not match"):
            c.labels(evnt="typo")

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_x_total") is reg.counter("repro_x_total")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered as"):
            reg.gauge("repro_x_total")

    def test_label_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "", ("a",))
        with pytest.raises(ValueError, match="already registered with"):
            reg.counter("repro_x_total", "", ("b",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("0bad")
        with pytest.raises(ValueError):
            reg.counter("repro_ok_total", "", ("bad-label",))


class TestGauges:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("repro_live")
        g.set(10)
        g.inc(3)
        g.dec()
        assert g.value == 12


class TestCardinalityCap:
    def test_overflow_collapses_into_one_series(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_ids_total", "", ("task",))
        for i in range(MAX_LABEL_SETS_PER_METRIC + 50):
            c.labels(task=f"task-{i}").inc()
        series = c.series()
        assert len(series) == MAX_LABEL_SETS_PER_METRIC + 1
        overflow = reg.value(
            "repro_ids_total", task=OVERFLOW_LABEL_VALUE
        )
        assert overflow == 50
        # Existing series keep recording normally after the cap.
        c.labels(task="task-0").inc()
        assert reg.value("repro_ids_total", task="task-0") == 2


class TestHistograms:
    def test_log_buckets_shape(self):
        bounds = log_buckets(0.001, 1.0, per_decade=1)
        assert bounds == (0.001, 0.01, 0.1, 1.0)
        with pytest.raises(ValueError):
            log_buckets(0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 0.5)

    def test_observations_land_in_correct_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = reg.snapshot()["repro_lat_seconds"]["values"][0]
        assert snap["buckets"] == [
            [0.1, 1], [1.0, 2], [10.0, 1], ["+Inf", 1]
        ]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_prometheus_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.render_prometheus()
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text

    def test_bucket_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            reg.histogram("repro_h", buckets=())
        with pytest.raises(ValueError, match="duplicate"):
            reg.histogram("repro_h2", buckets=(1.0, 1.0))

    def test_default_latency_buckets_span_expected_range(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert LATENCY_BUCKETS[-1] == pytest.approx(10.0)


class TestPrometheusRendering:
    def test_labels_escaped_and_types_declared(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "a help line", ("site",))
        c.labels(site='we"ird\\path\n').inc()
        text = reg.render_prometheus()
        assert "# HELP repro_x_total a help line" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'site="we\\"ird\\\\path\\n"' in text
        assert text.endswith("\n")

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total", "", ("x",)).labels(x="1").inc()
        reg.gauge("repro_b").set(2)
        reg.histogram("repro_c", buckets=(1.0,)).observe(0.5)
        json.dumps(reg.snapshot())


class TestThreadSafety:
    def test_concurrent_increments_are_not_lost(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_hot_total", "", ("t",))
        h = reg.histogram("repro_hot_seconds", buckets=(0.5,))
        n, threads = 2000, 8

        def hammer(tid):
            child = c.labels(t=str(tid % 2))
            for _ in range(n):
                child.inc()
                h.observe(0.1)

        pool = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert reg.sum_values("repro_hot_total") == n * threads
        assert reg.snapshot()["repro_hot_seconds"]["values"][0]["count"] == (
            n * threads
        )

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()


class TestTraceContext:
    def test_id_shapes(self):
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        int(new_trace_id(), 16)  # valid hex

    def test_bind_nests_and_restores(self):
        assert current_trace() is None
        with bind_trace("t1", "s1"):
            assert (current_trace(), current_span()) == ("t1", "s1")
            with bind_trace("t2"):
                assert (current_trace(), current_span()) == ("t2", None)
            assert (current_trace(), current_span()) == ("t1", "s1")
        assert current_trace() is None

    def test_bind_is_per_thread(self):
        seen = {}

        def worker():
            seen["other"] = current_trace()

        with bind_trace("t1"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["other"] is None


class TestStructuredLogging:
    def test_log_event_stamps_trace_ids(self, caplog):
        logger = get_logger("obs_test")
        with caplog.at_level(logging.INFO, logger="repro.obs_test"):
            with bind_trace("tid123", "sid45"):
                log_event(logger, "thing_happened", detail=7)
        [record] = caplog.records
        assert record.event == "thing_happened"
        assert record.trace_id == "tid123"
        assert record.span_id == "sid45"
        assert record.detail == 7

    def test_json_formatter_emits_one_object_per_line(self):
        handler = logging.Handler()
        captured = []
        handler.emit = lambda r: captured.append(
            JsonFormatter().format(r)
        )
        handler.addFilter(TraceContextFilter())
        logger = get_logger("obs_json_test")
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        try:
            with bind_trace("tidX"):
                log_event(
                    logger, "evt", level=logging.DEBUG, jobs=3
                )
        finally:
            logger.removeHandler(handler)
        payload = json.loads(captured[0])
        assert payload["event"] == "evt"
        assert payload["jobs"] == 3
        assert payload["trace_id"] == "tidX"
        assert payload["level"] == "DEBUG"

    def test_configure_logging_is_idempotent(self):
        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            h1 = configure_logging(json=True, level=logging.WARNING)
            h2 = configure_logging(json=False, level=logging.WARNING)
            ours = [
                h for h in root.handlers
                if getattr(h, "_repro_obs_handler", False)
            ]
            assert ours == [h2]
            assert h1 not in root.handlers
        finally:
            for h in list(root.handlers):
                if getattr(h, "_repro_obs_handler", False):
                    root.removeHandler(h)
            assert [
                h for h in root.handlers if h not in before
            ] == []


class TestMetricsHttp:
    def test_scrape_and_stats_endpoints(self):
        reg = MetricsRegistry()
        reg.counter("repro_scraped_total").inc(4)
        with MetricsServer(reg, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                text = resp.read().decode()
                assert resp.headers["Content-Type"].startswith("text/plain")
            assert "repro_scraped_total 4" in text
            with urllib.request.urlopen(f"{base}/stats") as resp:
                snap = json.loads(resp.read())
            assert snap["repro_scraped_total"]["values"][0]["value"] == 4
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope")


def _src_calls():
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                yield node


def _callee(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _first_str(node: ast.Call) -> str | None:
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        return value if isinstance(value, str) else None
    return None


def _registered_metrics() -> set[str]:
    """Each ``repro_*`` name ``src`` registers through a string literal,
    plus the two process-identity series."""
    registered = {"repro_build_info", "repro_uptime_seconds"}
    for node in _src_calls():
        name = _first_str(node)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("counter", "gauge", "histogram")
            and name is not None
            and name.startswith("repro_")
        ):
            registered.add(name)
    assert "repro_spans_dropped_total" in registered  # the walk ran
    return registered


def _emitted_span_names() -> set[str]:
    """Span names ``src`` records: ``Span.begin("…")``, ``span("…")``
    and ``Span(name="…")`` with a literal name."""
    names = set()
    for node in _src_calls():
        callee = _callee(node)
        if callee in ("begin", "span", "_span"):
            name = _first_str(node)
        elif callee == "Span":
            name = next(
                (
                    kw.value.value
                    for kw in node.keywords
                    if kw.arg == "name" and isinstance(kw.value, ast.Constant)
                ),
                None,
            )
        else:
            continue
        if name is not None:
            names.add(name)
    return names


def _table_after(header: str) -> list[str]:
    """Body rows of the README "Observability" table after ``header``."""
    _, _, rest = _readme_section("Observability").partition(header)
    assert rest, f"README has no {header!r}"
    return _table_rows(rest.lstrip("\n").split("\n\n", 1)[0])


def _top_level_keys(jsonc: str) -> set[str]:
    """The keys of the outermost object in a JSON(C) sketch."""
    keys, depth = set(), 0
    for match in re.finditer(r'[{}\[\]]|"(\w+)"\s*:', jsonc):
        token = match.group(0)
        if token in "{[":
            depth += 1
        elif token in "}]":
            depth -= 1
        elif depth == 1:
            keys.add(match.group(1))
    return keys


class TestMetricCatalogue:
    """README "Observability" and ``src`` name the same signals: every
    metric, span name and flight-recorder field one side has, the
    other has too."""

    def test_every_registered_metric_is_in_the_readme(self):
        """Each registered metric has a row (or a sentence) in README
        "Observability"."""
        section = _readme_section("Observability")
        assert [
            n for n in sorted(_registered_metrics()) if f"`{n}`" not in section
        ] == []

    def test_every_catalogue_row_is_registered(self):
        """A catalogue row names only metrics ``src`` registers: a
        deleted metric takes its row with it."""
        named = {
            name
            for row in _table_after("The metric catalogue:")
            for name in re.findall(r"`(repro_\w+)`", row.split("|")[1])
        }
        assert len(named) > 20  # the table parsed
        assert sorted(named - _registered_metrics()) == []

    def test_span_table_matches_src(self):
        table = {
            re.search(r"`([\w.]+)`", row).group(1)
            for row in _table_after("`src` emits):")
        }
        assert table == _emitted_span_names() == {
            "engine.map",
            "coordinator.chunk",
            "coordinator.accept",
            "worker.execute",
        }

    def test_flight_recorder_artifact_keys_match_dump(self):
        section = _readme_section("Observability")
        _, _, rest = section.partition("### Flight recorder")
        sketch = rest.split("```jsonc\n", 1)[1].split("```", 1)[0]
        dumped = FlightRecorder(process="unit").dump()
        assert _top_level_keys(sketch) == set(dumped)
