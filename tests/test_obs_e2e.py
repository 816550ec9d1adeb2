"""End-to-end observability: wire-propagated traces, stats frames.

Three acceptance properties of the observability plane:

* **one trace across three record types** — a population mapped on a
  cluster with a trace bound produces coordinator dispatch, worker
  execution, and coordinator acceptance records all carrying the same
  ``trace_id`` (and the same ``span_id`` per chunk), reconstructed
  here from log records alone;
* **the stats frame rides the authenticated path** — a secured
  supervisor serves its registry snapshot to an authenticated client
  and refuses an unkeyed one before decoding anything;
* **trace fields are policed at the codec** — junk ``tid``/``sid``
  values are protocol errors, absent ones are fine (old peers).
"""

import asyncio
import dataclasses
import json
import logging
import socket
import threading
import urllib.request

import pytest

from repro.engine import ClusterExecutor
from repro.engine.cluster.worker import run_worker
from repro.core.protocol import NICBSSubmissionMsg
from repro.exceptions import ProtocolError, ReproError
from repro.merkle.multiproof import Multiproof
from repro.net.transport import SecurityConfig
from repro.obs.http import MetricsServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanBuffer, render_waterfall
from repro.obs.trace import bind_trace, new_trace_id
from repro.service.client import ServiceClient
from repro.service.codec import (
    FRAMES,
    JobFrame,
    StatsReply,
    StatsRequest,
    SubmissionFrame,
    TaskRequest,
    VerdictFrame,
    decode_frame,
    decode_frame_payload,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.service.server import ServiceConfig, SupervisorServer
from repro.tasks import RangeDomain
from repro.utils.encoding import encode_bytes
from test_engine_cluster import PRELOAD, _square

# Tag bytes of the two frames the codec tests below craft by hand.
TASK_REQUEST, STATS = (
    bytes((row.tag,)) for row in FRAMES if row.name in ("task_request", "stats")
)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ----------------------------------------------------------------------
# Trace context through a cluster population
# ----------------------------------------------------------------------


class TestClusterTraceEndToEnd:
    def test_one_chunk_timeline_reconstructable_from_logs(self, caplog):
        """Dispatch, execution and acceptance share trace + span ids."""
        port = _free_port()
        executor = ClusterExecutor(
            workers=1, port=port, spawn_local=False
        )

        def worker_thread() -> None:
            async def dial() -> None:
                for _ in range(200):  # coordinator may not be bound yet
                    try:
                        await run_worker("127.0.0.1", port)
                        return
                    except (ConnectionError, OSError):
                        await asyncio.sleep(0.05)

            asyncio.run(dial())

        thread = threading.Thread(target=worker_thread, daemon=True)
        thread.start()
        trace_id = new_trace_id()
        try:
            with caplog.at_level(logging.DEBUG, logger="repro"):
                with bind_trace(trace_id):
                    assert executor.map(_square, range(8)) == [
                        i * i for i in range(8)
                    ]
        finally:
            executor.close()
        thread.join(timeout=10)

        by_event: dict[str, list] = {}
        for record in caplog.records:
            event = getattr(record, "event", None)
            if event is not None:
                by_event.setdefault(event, []).append(record)
        # The worker ran in-process (run_worker in a thread), so all
        # three legs of the timeline landed in this process's records.
        assert by_event.get("chunk_dispatched"), "coordinator dispatch"
        assert by_event.get("chunk_executed"), "worker execution"
        assert by_event.get("chunk_completed"), "result acceptance"
        for event in ("chunk_dispatched", "chunk_executed", "chunk_completed"):
            for record in by_event[event]:
                assert record.trace_id == trace_id, event
        # Spans correlate per chunk: every accepted chunk's span was
        # both dispatched and executed under the same id.
        dispatched = {r.span_id for r in by_event["chunk_dispatched"]}
        executed = {r.span_id for r in by_event["chunk_executed"]}
        for record in by_event["chunk_completed"]:
            assert record.span_id in dispatched
            assert record.span_id in executed

    def test_untraced_run_emits_no_ids(self, caplog):
        with ClusterExecutor(workers=1, worker_preload=PRELOAD) as executor:
            with caplog.at_level(logging.DEBUG, logger="repro"):
                executor.map(_square, range(4))
        for record in caplog.records:
            if getattr(record, "event", None) == "chunk_dispatched":
                assert getattr(record, "trace_id", None) is None


# ----------------------------------------------------------------------
# Stats frame over the service protocol
# ----------------------------------------------------------------------


def auth_failures(server) -> float:
    return server.registry.value("repro_auth_failures_total", plane="service")


def _service_config() -> ServiceConfig:
    return ServiceConfig(
        domain=RangeDomain(0, 1 << 8),
        protocol="cbs",
        n_samples=8,
        n_participants=4,
        seed=7,
    )


class TestStatsFrame:
    def test_authenticated_client_fetches_snapshot(self, secret_file):
        async def scenario():
            security = SecurityConfig.from_options(secret_file=secret_file)
            server = SupervisorServer(
                _service_config(), engine="serial", security=security
            )
            host, port = await server.start()
            try:
                client = await ServiceClient.open_tcp(
                    host, port, security=security
                )
                try:
                    await client.request_task(participant=0)
                    snap = await client.stats()
                finally:
                    await client.close()
            finally:
                await server.stop()
            return snap

        snap = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        # The snapshot is the JSON-ready registry dump.
        json.dumps(snap)
        assert snap["repro_connections_total"]["values"][0]["value"] >= 1
        assert snap["repro_frames_total"]["type"] == "counter"
        assert "repro_sessions_total" in snap

    def test_unkeyed_client_cannot_fetch_stats(self, secret_file):
        async def scenario():
            security = SecurityConfig.from_options(secret_file=secret_file)
            server = SupervisorServer(
                _service_config(), engine="serial", security=security
            )
            host, port = await server.start()
            try:
                client = await ServiceClient.open_tcp(host, port)
                with pytest.raises((ReproError, ConnectionError, OSError)):
                    await asyncio.wait_for(client.stats(), timeout=20)
                await client.close()
                assert auth_failures(server) >= 1
            finally:
                await server.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))

    def test_stats_round_trip_over_memory_transport(self):
        async def scenario():
            server = SupervisorServer(_service_config(), engine="serial")
            try:
                reader, writer = server.connect_memory()
                client = ServiceClient(reader, writer)
                try:
                    return await client.stats()
                finally:
                    await client.close()
            finally:
                await server.stop()

        snap = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        assert "repro_verifications_total" in snap

    def test_scrape_sees_a_live_session_without_any_stats_frame(self):
        """``repro_sessions_active`` moves with the store, not with the
        last ``stats`` frame: an HTTP scrape between an assignment and
        its verdict reads 1, and 0 after — no ``stats`` frame sent."""

        def scrape(port: int) -> str:
            url = f"http://127.0.0.1:{port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as resp:
                return resp.read().decode()

        async def scenario():
            server = SupervisorServer(
                dataclasses.replace(_service_config(), protocol="ni-cbs"),
                engine="serial",
            )
            with MetricsServer(server.registry, port=0) as http:
                try:
                    reader, writer = server.connect_memory()
                    await write_frame(writer, TaskRequest(participant=0))
                    await read_frame(reader)
                    during = await asyncio.to_thread(scrape, http.port)
                    # Any submission earns a verdict; this one a refusal.
                    await write_frame(
                        writer,
                        SubmissionFrame(
                            msg=NICBSSubmissionMsg(
                                task_id="task-0", root=b"\x00" * 32,
                                n_leaves=1, bundle=Multiproof((), ()),
                            )
                        ),
                    )
                    assert isinstance(await read_frame(reader), VerdictFrame)
                    writer.close()
                    return during, await asyncio.to_thread(scrape, http.port)
                finally:
                    await server.stop()

        during, after = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        assert "repro_sessions_active 1" in during.splitlines()
        assert "repro_sessions_active 0" in after.splitlines()


# ----------------------------------------------------------------------
# Codec policing of the new optional fields
# ----------------------------------------------------------------------


class TestTraceFieldCodec:
    def test_task_request_round_trips_trace_ids(self):
        frame = TaskRequest(participant=3, trace_id="a" * 16, span_id="b" * 8)
        out = decode_frame(encode_frame(frame))
        assert (out.trace_id, out.span_id) == ("a" * 16, "b" * 8)

    def test_absent_fields_decode_as_none(self):
        # participant, trace id, span id: three presence flags, all clear.
        out = decode_frame_payload(TASK_REQUEST + b"\x00\x00\x00")
        assert out == TaskRequest()
        assert out.trace_id is None and out.span_id is None

    @pytest.mark.parametrize("junk", [b"\xff", b"\xc3\x28", b"\xed\xa0\x80"])
    def test_non_utf8_tid_rejected(self, junk):
        raw = TASK_REQUEST + b"\x00\x01" + encode_bytes(junk) + b"\x00"
        with pytest.raises(ProtocolError):
            decode_frame_payload(raw)

    def test_empty_and_oversized_ids_rejected(self):
        for bad in (b"", b"x" * 65):
            raw = TASK_REQUEST + b"\x00\x00\x01" + encode_bytes(bad)
            with pytest.raises(ProtocolError):
                decode_frame_payload(raw)
        for bad in ("", "x" * 65):
            with pytest.raises(ProtocolError):
                decode_frame(encode_frame(TaskRequest(trace_id=bad)))

    def test_job_frame_carries_trace_ids(self):
        frame = JobFrame(
            job_id=1, payload=b"p", trace_id="t" * 16, span_id="s" * 8
        )
        out = decode_frame(encode_frame(frame))
        assert (out.trace_id, out.span_id) == ("t" * 16, "s" * 8)

    def test_stats_frames_round_trip(self):
        assert decode_frame(encode_frame(StatsRequest())) == StatsRequest()
        reply = StatsReply(stats={"repro_x_total": {"type": "counter"}})
        assert decode_frame(encode_frame(reply)) == reply

    def test_stats_reply_requires_object(self):
        for bad in (None, 3, "x", []):
            raw = STATS + encode_bytes(json.dumps(bad).encode())
            with pytest.raises(ProtocolError):
                decode_frame_payload(raw)
        for junk in (b"{", b"\xff{}", b"{" * 100_000):
            with pytest.raises(ProtocolError):
                decode_frame_payload(STATS + encode_bytes(junk))


# ----------------------------------------------------------------------
# Distributed span timelines over the trace_get frame
# ----------------------------------------------------------------------


class TestDistributedTraceFrame:
    def test_cluster_waterfall_served_over_one_authenticated_frame(
        self, secret_file
    ):
        """The PR's acceptance path end to end: a traced cluster map
        records coordinator dispatch, worker execution, and result
        acceptance as real spans; a single authenticated ``trace_get``
        frame returns the assembled timeline; ``render_waterfall``
        draws it."""
        buffer = SpanBuffer(registry=MetricsRegistry())
        port = _free_port()
        executor = ClusterExecutor(
            workers=1, port=port, spawn_local=False, span_buffer=buffer,
        )

        def worker_thread() -> None:
            async def dial() -> None:
                for _ in range(200):
                    try:
                        await run_worker("127.0.0.1", port)
                        return
                    except (ConnectionError, OSError):
                        await asyncio.sleep(0.05)

            asyncio.run(dial())

        thread = threading.Thread(target=worker_thread, daemon=True)
        thread.start()
        trace_id = new_trace_id()
        try:
            with bind_trace(trace_id):
                assert executor.map(_square, range(8)) == [
                    i * i for i in range(8)
                ]
        finally:
            executor.close()
        thread.join(timeout=10)

        # The worker's spans crossed the wire and the coordinator
        # assembled them under the chunk's span id.
        spans = buffer.trace(trace_id)
        by_name = {s.name: s for s in spans}
        assert {"coordinator.chunk", "worker.execute",
                "coordinator.accept"} <= set(by_name)
        chunk = by_name["coordinator.chunk"]
        assert by_name["worker.execute"].parent_id == chunk.span_id
        assert by_name["coordinator.accept"].parent_id == chunk.span_id
        assert chunk.parent_id is None

        async def scenario() -> list:
            security = SecurityConfig.from_options(secret_file=secret_file)
            server = SupervisorServer(
                _service_config(), engine="serial", security=security,
                span_buffer=buffer,
            )
            host, sport = await server.start()
            try:
                client = await ServiceClient.open_tcp(
                    host, sport, security=security
                )
                try:
                    return await client.trace(trace_id)
                finally:
                    await client.close()
            finally:
                await server.stop()

        wire = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        json.dumps(wire)  # the reply is JSON-clean wire dicts
        fetched = [Span.from_wire(w) for w in wire]
        assert {s.name for s in fetched} >= {
            "coordinator.chunk", "worker.execute", "coordinator.accept"
        }
        text = render_waterfall(fetched)
        assert trace_id in text.splitlines()[0]
        assert any(
            line.lstrip().startswith("worker.execute") and "#" in line
            for line in text.splitlines()
        )

    def test_unknown_trace_id_returns_empty_reply(self):
        async def scenario():
            server = SupervisorServer(
                _service_config(), engine="serial",
                span_buffer=SpanBuffer(registry=MetricsRegistry()),
            )
            try:
                reader, writer = server.connect_memory()
                client = ServiceClient(reader, writer)
                try:
                    return await client.trace("no-such-trace")
                finally:
                    await client.close()
            finally:
                await server.stop()

        assert asyncio.run(asyncio.wait_for(scenario(), timeout=60)) == []
