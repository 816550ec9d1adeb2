"""Tests for the distributed cluster engine (repro.engine.cluster).

The acceptance property mirrors the other backends, raised to
distributed systems: a :class:`ClusterExecutor` sharding chunks across
remote worker processes must produce **byte-identical**
:class:`~repro.grid.report.DetectionReport`'s to the serial backend —
including when a worker is SIGKILLed mid-population (requeue +
at-most-once result acceptance).  Alongside parity: ordering, error
propagation (a failing job surfaces as :class:`EngineError`, never a
worker crash), payload hygiene and the external-worker topology.
"""

import asyncio
import concurrent.futures
import logging
import os
import re
import signal
import threading
import time
import types

import pytest

from repro.baselines import NaiveSamplingScheme
from repro.cheating import (
    ColludingCheater,
    HonestBehavior,
    MaliciousBehavior,
    SemiHonestCheater,
)
from repro.cheating.strategies import ComputedWork, WorkSummary
from repro.core import CBSScheme, NICBSScheme
from repro.engine import (
    ClusterExecutor,
    SchemeBatch,
    SchemeJob,
    execute_batch,
    get_executor,
    run_scheme_jobs,
)
from repro.engine.cluster.scheduler import Scheduler
from repro.engine.cluster.worker import (
    execute_chunk_report,
    execute_payload,
    run_worker,
)
from repro.exceptions import CodecError, EngineError, ProtocolError
from repro.grid.faults import FlakyParticipant, RetryingScheme
from repro.grid.simulation import (
    GridSimulation,
    SimulationConfig,
    run_population,
)
from repro.net.framing import frame_buffer
from repro.obs.metrics import MetricsRegistry
from repro.service.codec import (
    CLUSTER_WIRE_VERSION,
    FRAMES,
    JobFrame,
    ResultFrame,
    decode_cluster_chunk,
    decode_frame_payload,
    encode_cluster_chunk,
    encode_cluster_outcomes,
    encode_cluster_payload,
)
from repro.service.jobcodec import encode_job
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment
from repro.utils.encoding import encode_bytes, encode_uint

from cluster_helpers import (
    _boom,
    _boom_on_three,
    _sleepy_square,
    _square,
    _worker_pid,
)


def report_fingerprint(report) -> bytes:
    """Value-level canonical encoding (same rule as test_engine)."""
    return repr(
        {
            "scheme": report.scheme,
            "participants": [
                (
                    p.participant,
                    p.behavior,
                    p.honesty_ratio,
                    p.accepted,
                    p.reason.value,
                    sorted(p.participant_ledger.as_dict().items()),
                    sorted(p.supervisor_ledger_delta.as_dict().items()),
                )
                for p in report.participants
            ],
            "supervisor": sorted(report.supervisor_ledger.as_dict().items()),
        }
    ).encode("utf-8")


def population(scheme, engine, n=1 << 10, participants=8, **kwargs):
    return run_population(
        RangeDomain(0, n),
        PasswordSearch(),
        scheme,
        behaviors=[HonestBehavior(), SemiHonestCheater(0.6)],
        n_participants=participants,
        seed=3,
        engine=engine,
        **kwargs,
    )


def sigkill_mid_population(executor, victim, run, n_jobs):
    """Run ``run`` on a thread; SIGKILL ``victim`` provably mid-flight.

    Event-driven, not a sleep: the kill fires once ``executor.stats``
    shows at least one of the population's ``n_jobs`` accepted while
    the rest are still outstanding, however fast results ship.
    Returns the stats once the coordinator has noticed the death.
    """
    before = executor.stats["jobs_completed"]
    thread = threading.Thread(target=run)
    thread.start()
    deadline = time.monotonic() + 60.0
    done = 0
    while done < 1 and time.monotonic() < deadline:
        time.sleep(0.001)
        done = executor.stats["jobs_completed"] - before
    os.kill(victim, signal.SIGKILL)
    assert 1 <= done < n_jobs, f"kill missed the population: {done}/{n_jobs}"
    thread.join(timeout=120)
    assert not thread.is_alive()
    # The EOF for the killed worker may still be in flight right after
    # the map returns; give the loop a moment.
    deadline = time.monotonic() + 10.0
    while executor.stats["workers_lost"] < 1 and time.monotonic() < deadline:
        time.sleep(0.05)
    return executor.stats


#: Worker-side registration hook for this module's job functions: the
#: daemons import ``cluster_helpers`` (tests/ rides the coordinator's
#: PYTHONPATH propagation) so the typed codec can resolve the names.
PRELOAD = ("cluster_helpers",)


@pytest.fixture(scope="module")
def cluster():
    """One warm 2-worker cluster shared across this module's tests."""
    with ClusterExecutor(workers=2, worker_preload=PRELOAD) as executor:
        yield executor


class TestRegistry:
    def test_cluster_in_engine_names(self):
        from repro.engine import ENGINE_NAMES

        assert "cluster" in ENGINE_NAMES

    def test_get_executor_builds_cluster(self):
        executor = get_executor("cluster", 2)
        try:
            assert isinstance(executor, ClusterExecutor)
            assert executor.name == "cluster"
            # Construction is lazy: no workers spawned until first use.
            assert executor.local_worker_pids == []
        finally:
            executor.close()

    def test_bad_worker_count_rejected(self):
        with pytest.raises(EngineError):
            ClusterExecutor(workers=0)

    def test_worker_engine_cannot_recurse(self):
        with pytest.raises(EngineError):
            ClusterExecutor(worker_engine="cluster")

    def test_map_after_close_rejected(self):
        executor = ClusterExecutor(workers=1)
        executor.close()
        with pytest.raises(EngineError):
            executor.map(_square, [1])

    def test_close_is_idempotent(self):
        executor = ClusterExecutor(workers=1)
        executor.close()
        executor.close()


class TestMapSemantics:
    def test_map_preserves_order(self, cluster):
        assert cluster.map(_square, range(50)) == [i * i for i in range(50)]

    def test_empty_map_without_spawning(self):
        executor = ClusterExecutor(workers=1)
        try:
            assert executor.map(_square, []) == []
            assert executor.local_worker_pids == []
        finally:
            executor.close()

    def test_remote_failure_raises_engine_error(self, cluster):
        with pytest.raises(EngineError, match="boom"):
            cluster.map(_boom, [7])
        # The survival contract: the pool keeps serving afterwards.
        assert cluster.map(_square, [3]) == [9]

    def test_failed_map_leaves_no_job_bookkeeping_behind(self, cluster):
        # A failing chunk cancels its siblings; a long-lived pool must
        # drain their coordinator entries instead of leaking them.
        with pytest.raises(EngineError, match="boom"):
            cluster.map(_boom_on_three, range(6))
        deadline = time.monotonic() + 10.0
        while cluster._co.scheduler.jobs and time.monotonic() < deadline:
            time.sleep(0.05)
        assert cluster._co.scheduler.jobs == {}
        assert cluster.map(_square, [4]) == [16]

    def test_unregistered_job_rejected_before_dispatch(self, cluster):
        with pytest.raises(CodecError):
            cluster.map(lambda x: x, [1])  # not a registered callable

    def test_map_that_cannot_encode_leaves_nothing_running(self):
        """The last item does not encode: the three before it must not
        run either — the map is encoded whole before anything queues."""
        with ClusterExecutor(workers=1, worker_preload=PRELOAD) as executor:
            assert executor.map(_square, [0]) == [0]  # started and idle
            registry = executor._co.registry
            stats = executor.stats
            dispatched = registry.sum_values("repro_cluster_chunk_jobs")
            with pytest.raises(CodecError):
                executor.map(_square, [1, 2, 3, object()])
            # Anything queued would be dispatched on the next loop turn
            # and answered well within this wait.
            time.sleep(0.5)
            assert registry.sum_values("repro_cluster_chunk_jobs") == dispatched
            assert executor.stats == stats
            assert executor._co.scheduler.jobs == {}

    def test_futures_pool_submits_single_calls(self, cluster):
        future = cluster.futures_pool.submit(_square, 12)
        assert future.result(timeout=30) == 144

    def test_workers_property_reports_capacity(self, cluster):
        cluster.map(_square, [1])  # ensure both workers registered
        assert cluster.workers == 2


class TestWorkerPayloadHygiene:
    """Garbage must come back as CodecError, never kill a worker."""

    def test_garbage_bytes(self):
        with pytest.raises(CodecError):
            execute_payload(b"\x00\x01 not a typed payload")

    def test_non_triple_payload(self):
        with pytest.raises(CodecError):
            execute_payload(encode_cluster_payload({"not": "a triple"}))

    def test_non_callable_fn(self):
        with pytest.raises(CodecError):
            execute_payload(encode_cluster_payload((42, (), {})))

    def test_oversized_payload_rejected_at_submit(self):
        with pytest.raises(CodecError):
            encode_cluster_payload(b"\x00" * 128, max_bytes=64)


class TestPopulationParity:
    @pytest.mark.parametrize(
        "scheme",
        [CBSScheme(n_samples=8), NICBSScheme(n_samples=8)],
        ids=lambda s: s.name,
    )
    def test_byte_identical_reports(self, cluster, scheme):
        serial = report_fingerprint(population(scheme, engine="serial"))
        clustered = report_fingerprint(population(scheme, engine=cluster))
        assert serial == clustered

    def test_batch_size_never_changes_results(self, cluster):
        scheme = CBSScheme(n_samples=6)
        fingerprints = {
            report_fingerprint(
                population(scheme, engine=cluster, batch_size=bs)
            )
            for bs in (1, 3, 8)
        }
        assert len(fingerprints) == 1

    @pytest.mark.parametrize(
        "scheme",
        [
            CBSScheme(n_samples=8),
            CBSScheme(n_samples=8, subtree_height=3),
            NICBSScheme(n_samples=8),
        ],
        ids=["cbs", "cbs-partial", "ni-cbs"],
    )
    def test_ragged_partition_is_identical_on_every_engine(self, cluster, scheme):
        """7 participants over 1000 inputs: subdomains of 143 and 142,
        neither a power of two, each evaluated, fabricated and metered
        as one batch, by every kind of behaviour."""

        def ragged(engine, **kwargs):
            return report_fingerprint(
                run_population(
                    RangeDomain(0, 1000),
                    PasswordSearch(cost=0.1),
                    scheme,
                    behaviors=[
                        HonestBehavior(),
                        SemiHonestCheater(0.6),
                        SemiHonestCheater(0.9, selection="prefix"),
                        ColludingCheater(0.5, b"cartel"),
                        MaliciousBehavior(),
                    ],
                    n_participants=7,
                    seed=5,
                    engine=engine,
                    **kwargs,
                )
            )

        serial = ragged("serial")
        assert ragged("threads", workers=2) == serial
        assert ragged("processes", workers=2) == serial
        assert ragged(cluster) == serial

    def test_scheme_cache_reused_across_chunks(self, cluster):
        """One population, many chunks: the scheme is constructed once
        per worker (misses) and reused for every later chunk (hits),
        with the workers' deltas aggregated into coordinator stats."""
        population(CBSScheme(n_samples=6), engine=cluster, batch_size=1)
        stats = cluster.stats
        assert stats["scheme_cache_hits"] > 0
        assert stats["scheme_cache_misses"] > 0
        assert stats["scheme_cache_hits"] > stats["scheme_cache_misses"]


class TestLeanResults:
    """What comes back through an executor is verdicts, not work: the
    same lean results on every backend, O(m) bytes whatever |D| is."""

    @staticmethod
    def jobs(participants=6):
        return GridSimulation(
            SimulationConfig(
                domain=RangeDomain(0, 1 << 9),
                function=PasswordSearch(),
                scheme=CBSScheme(n_samples=8),  # jobs() never reads it
                n_participants=participants,
                behaviors=[HonestBehavior(), SemiHonestCheater(0.6)],
                seed=3,
            )
        ).jobs()

    @pytest.mark.parametrize(
        "scheme",
        [CBSScheme(n_samples=8), NICBSScheme(n_samples=8),
         NaiveSamplingScheme(8)],
        ids=lambda s: s.name,
    )
    def test_every_engine_returns_the_same_lean_results(self, cluster, scheme):
        jobs = self.jobs()
        direct = [scheme.run(j.assignment, j.behavior, seed=j.seed) for j in jobs]
        assert all(type(r.work) is ComputedWork for r in direct)
        serial = run_scheme_jobs(scheme, jobs, engine="serial")
        for engine in ("threads", "processes", cluster):
            assert run_scheme_jobs(scheme, jobs, engine=engine, workers=2) == serial
        for lean, full in zip(serial, direct):
            assert type(lean.work) is WorkSummary
            assert lean.work.honesty_ratio == full.work.honesty_ratio
            assert lean.work == full.work.summary()
            assert lean.cheated == full.cheated
            assert lean.outcome == full.outcome

    def test_unreturned_work_stays_none(self):
        scheme = RetryingScheme(CBSScheme(n_samples=4), max_retries=0)
        jobs = [
            SchemeJob(j.assignment, FlakyParticipant(j.behavior, 0.999), j.seed)
            for j in self.jobs(participants=4)
        ]
        for engine in ("serial", "threads"):
            results = run_scheme_jobs(scheme, jobs, engine=engine)
            assert [r.work for r in results] == [None] * 4

    def test_result_bytes_do_not_grow_with_the_domain(self):
        """The return path is O(m): at the same m, 64x the inputs cost
        only the varint width of the two counts."""

        def encoded(n):
            task = TaskAssignment("task-0", RangeDomain(0, n), PasswordSearch())
            job = SchemeJob(task, HonestBehavior(), seed=5)
            batch = SchemeBatch(CBSScheme(n_samples=16), (job,))
            return encode_cluster_payload(execute_batch(batch))

        def count_width(n):  # a non-negative int term: zigzag varint
            return len(encode_uint(n << 1))

        small, large = encoded(1 << 8), encoded(1 << 14)
        assert len(large) - len(small) == 2 * (
            count_width(1 << 14) - count_width(1 << 8)
        )
        assert len(large) < 512

    def test_wire_budget_per_result(self, cluster):
        """Deterministic: a payload vector creeping back into results
        (83 KB each at this size before they went lean) fails here."""
        before = cluster.stats
        population(
            CBSScheme(n_samples=16), engine=cluster, n=16 * 4096,
            participants=16, batch_size=1,
        )
        after = cluster.stats
        results = after["jobs_completed"] - before["jobs_completed"]
        assert results == 16
        per_result = (after["result_bytes"] - before["result_bytes"]) / results
        assert 0 < per_result < 1024
        coordinator_side = cluster._co.registry.snapshot()["repro_result_bytes"]
        assert coordinator_side["values"][0]["labels"] == {"plane": "coordinator"}


class TestFaultTolerance:
    def test_sigkill_one_worker_mid_population(self):
        """The ISSUE acceptance test: requeue keeps the report identical."""
        scheme = CBSScheme(n_samples=16)
        serial = report_fingerprint(
            population(scheme, engine="serial", n=1 << 16, participants=32)
        )
        # chunk_max=2 with batch_size=1: at least 16 chunks, so the
        # first accepted result leaves most of the run outstanding.
        with ClusterExecutor(
            workers=2, chunk_max=2, worker_preload=PRELOAD
        ) as executor:
            executor.map(_square, [0])  # force startup; pids known
            victim = executor.local_worker_pids[0]
            report_box: list = []

            def run() -> None:
                report_box.append(
                    population(
                        scheme,
                        engine=executor,
                        n=1 << 16,
                        participants=32,
                        batch_size=1,
                    )
                )

            stats = sigkill_mid_population(executor, victim, run, n_jobs=32)
        assert stats["workers_lost"] >= 1
        assert stats["jobs_requeued"] >= 1  # the victim died holding work
        assert report_fingerprint(report_box[0]) == serial

    def test_slow_worker_chunk_requeued(self):
        """job_timeout requeues a stuck chunk; first result wins."""
        with ClusterExecutor(
            workers=2, job_timeout=0.3, worker_preload=PRELOAD
        ) as executor:
            items = [(0.9, 1)] + [(0.0, x) for x in range(2, 8)]
            assert executor.map(_sleepy_square, items) == [
                x * x for _delay, x in items
            ]
            assert executor.stats["jobs_requeued"] >= 1


class TestShutdown:
    def test_close_with_work_in_flight_is_not_a_fault(self, caplog):
        """Closing mid-population fails what is unresolved, once, and
        is not mistaken for worker loss: nothing requeued, nothing
        counted lost, no fault record logged."""
        registry = MetricsRegistry()
        executor = ClusterExecutor(
            workers=2, worker_preload=PRELOAD, registry=registry
        )
        try:
            futures = [
                executor.submit(_sleepy_square, (1.0, x)) for x in range(6)
            ]
            time.sleep(0.3)  # four chunks in flight, two jobs queued
        finally:
            with caplog.at_level(logging.WARNING, logger="repro"):
                executor.close()
        for future in futures:
            with pytest.raises(EngineError, match="cluster executor closed"):
                future.result(timeout=10)
        assert registry.value("repro_cluster_chunks_total", event="requeued") == 0
        assert registry.value("repro_cluster_jobs_total", event="requeued") == 0
        assert registry.value("repro_cluster_workers_lost_total") == 0
        logged = {getattr(record, "event", None) for record in caplog.records}
        assert not logged & {"chunk_requeued", "worker_lost"}


class TestWarmPoolLifecycle:
    """The worker daemon's local pool is prewarmed at startup and
    reused across every chunk it serves — never respawned between
    chunks — and a signalled worker drains cleanly."""

    def test_process_pool_reused_across_consecutive_chunks(self):
        with ClusterExecutor(
            workers=1,
            worker_engine="processes",
            worker_processes=2,
            worker_preload=PRELOAD,
        ) as executor:
            first = set(executor.map(_worker_pid, range(16)))
            second = set(executor.map(_worker_pid, range(16)))
        assert first and second
        # One warm pool of 2 processes serving both maps: a pool
        # respawn between chunks would surface fresh pids here.
        assert len(first | second) <= 2

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_signalled_worker_drains_cleanly(self, sig):
        import socket
        import subprocess
        import sys

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        # Same path-injection rule as the coordinator's spawn-local
        # mode: the daemon must import cluster_helpers' registrations.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        with ClusterExecutor(
            workers=1, port=port, spawn_local=False, startup_timeout=30.0
        ) as executor:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.engine.cluster.worker",
                    "--port", str(port), "--engine", "processes",
                    "--workers", "2", "--connect-retry", "10",
                    "--preload", "cluster_helpers",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            try:
                assert executor.map(_square, range(6)) == [
                    i * i for i in range(6)
                ]
                proc.send_signal(sig)
                out, err = proc.communicate(timeout=30)
            finally:
                if proc.poll() is None:
                    # Don't communicate() here: the daemon's forked
                    # pool children hold the pipes open after a kill.
                    proc.kill()
                    proc.wait(timeout=10)
                    proc.stdout.close()
                    proc.stderr.close()
        assert proc.returncode == 0, err
        assert "cluster worker done" in out


class TestExternalWorkers:
    def test_worker_dialing_a_fixed_port(self):
        """spawn_local=False serves operator-started remote workers."""
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        executor = ClusterExecutor(
            workers=1, port=port, spawn_local=False, startup_timeout=30.0
        )

        def worker_thread() -> None:
            import asyncio

            async def dial() -> None:
                for _ in range(200):  # coordinator may not be bound yet
                    try:
                        await run_worker("127.0.0.1", port, engine="serial")
                        return
                    except (ConnectionError, OSError):
                        await asyncio.sleep(0.05)

            asyncio.run(dial())

        thread = threading.Thread(target=worker_thread, daemon=True)
        thread.start()
        try:
            assert executor.map(_square, range(10)) == [
                i * i for i in range(10)
            ]
            assert executor.stats["workers_live"] == 1
        finally:
            executor.close()
        # close() sends bye; the external worker exits cleanly.
        thread.join(timeout=10)
        assert not thread.is_alive()


    @pytest.mark.parametrize(
        "worker_id", [b"", b"w" * 129, b"\xff\xfe"],
        ids=["empty", "oversized", "not-utf8"],
    )
    def test_hostile_worker_id_never_becomes_a_label(self, cluster, worker_id):
        """A worker id turns into a metrics label, a log field and a
        ``bye`` reason: a hello whose id is empty, over 128 bytes or
        not UTF-8 dies in the codec, before anything is registered."""
        (hello_tag,) = (row.tag for row in FRAMES if row.name == "hello")
        hello = (
            bytes((hello_tag,)) + encode_uint(CLUSTER_WIRE_VERSION)
            + encode_bytes(worker_id) + encode_uint(1)
        )
        with pytest.raises(ProtocolError, match="worker_id"):
            decode_frame_payload(hello)

        assert cluster.map(_square, range(2)) == [0, 1]  # pool is up
        registry = cluster._co.registry
        before = registry.snapshot()
        rejected_before = _error_count(before, "cluster.worker_conn")

        async def dial() -> bytes:
            reader, writer = await asyncio.open_connection(*cluster.address)
            try:
                writer.write(frame_buffer(hello))
                await writer.drain()
                return await asyncio.wait_for(reader.read(), 10)
            finally:
                writer.close()

        assert asyncio.run(dial()) == b""  # hung up on, no bye owed
        after = registry.snapshot()
        assert _error_count(after, "cluster.worker_conn") == rejected_before + 1
        assert _worker_labels(after) == _worker_labels(before)
        assert after["repro_cluster_workers_live"] == before[
            "repro_cluster_workers_live"
        ]


def _error_count(snapshot: dict, site: str) -> float:
    return sum(
        entry["value"]
        for entry in snapshot["repro_errors_total"]["values"]
        if entry["labels"] == {"site": site}
    )


def _worker_labels(snapshot: dict) -> set:
    rates = snapshot.get("repro_cluster_worker_rate_jobs_per_s", {"values": []})
    return {entry["labels"]["worker"] for entry in rates["values"]}


# ----------------------------------------------------------------------
# Deterministic scheduler harness (no sockets, no loop, injectable clock)
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Outbox:
    """The scheduler's two outputs, recorded in the order they happen."""

    def __init__(self) -> None:
        self.sent: list[tuple[str, JobFrame]] = []
        self.hung_up: list[str] = []

    def send(self, worker_id: str, frame: JobFrame) -> None:
        self.sent.append((worker_id, frame))

    def hang_up(self, worker_id: str) -> None:
        self.hung_up.append(worker_id)

    def frames(self, worker_id: str) -> list[JobFrame]:
        return [frame for to, frame in self.sent if to == worker_id]


def make_scheduler(clock, **overrides) -> tuple[Scheduler, Outbox]:
    out = Outbox()
    kwargs = dict(
        window_depth=2,
        heartbeat_timeout=10.0,
        job_timeout=0.5,
        max_attempts=3,
        chunk_min=1,
        chunk_max=32,
        chunk_target_s=0.25,
        send=out.send,
        hang_up=out.hang_up,
        clock=clock,
    )
    kwargs.update(overrides)
    return Scheduler(**kwargs), out


def submit_jobs(sched: Scheduler, values) -> list[concurrent.futures.Future]:
    """One ``submit`` event carrying every value, as ``map`` sends it."""
    futures = [concurrent.futures.Future() for _ in values]
    sched.submit(
        [(job_payload(v), f) for v, f in zip(values, futures)]
    )
    return futures


def job_events(sched: Scheduler, event: str) -> float:
    return sched.registry.value("repro_cluster_jobs_total", event=event)


def chunk_events(sched: Scheduler, event: str) -> float:
    return sched.registry.value("repro_cluster_chunks_total", event=event)


def job_payload(value: int) -> bytes:
    return encode_job(_square, (value,), {})


def ok_result(frame: JobFrame, *values) -> ResultFrame:
    """The honest answer to one dispatched chunk."""
    return ResultFrame(
        job_id=frame.job_id,
        ok=True,
        payload=encode_cluster_outcomes(
            [(True, encode_cluster_payload(v)) for v in values]
        ),
    )


class TestLateResultRace:
    """The ISSUE regression: a job_timeout requeue racing the original
    slow worker's result.  Whichever copy arrives first wins the job;
    the loser is dropped exactly once — never a double set_result,
    never a double requeue, never leaked bookkeeping."""

    def test_requeue_then_reassigned_copy_wins_then_late_result_dropped(self):
        clock = FakeClock()
        sched, out = make_scheduler(clock)
        sched.worker_joined("a", 1)
        [future] = submit_jobs(sched, [6])
        [frame_a] = out.frames("a")
        assert decode_cluster_chunk(frame_a.payload) == (job_payload(6),)

        # The chunk stalls past the timeout: its job requeues, the
        # chunk lingers as a zombie on the live worker, and the same
        # tick reassigns the requeued copy under a fresh chunk id.
        clock.advance(1.0)
        sched.tick(clock(), True)
        assert job_events(sched, "requeued") == 1
        assert chunk_events(sched, "requeued") == 1
        assert frame_a.job_id in sched.chunks  # zombie, not retired
        assert sched.chunks[frame_a.job_id].requeued
        frame_b = out.frames("a")[1]
        assert frame_b.job_id != frame_a.job_id

        # The reassigned copy finishes first and wins.
        sched.result("a", ok_result(frame_b, 36))
        assert future.result(timeout=0) == 36
        assert job_events(sched, "completed") == 1

        # The slow original's late result: dropped exactly once,
        # cleanly — the future is untouched (no InvalidStateError
        # from a second set_result), the zombie id is retired,
        # nothing is requeued again.
        sched.result("a", ok_result(frame_a, 36))
        assert future.result(timeout=0) == 36
        assert job_events(sched, "completed") == 1  # not double-counted
        assert job_events(sched, "requeued") == 1  # not re-requeued
        assert sched.jobs == {} and sched.chunks == {}
        assert not sched.pending

        # And a *third* arrival of the same retired id is inert.
        sched.result("a", ok_result(frame_a, 36))
        assert job_events(sched, "completed") == 1

    def test_requeue_then_slow_original_wins_before_reassignment_lands(self):
        clock = FakeClock()
        sched, out = make_scheduler(clock)
        sched.worker_joined("a", 1)
        [future] = submit_jobs(sched, [5])
        [frame_a] = out.frames("a")

        clock.advance(1.0)
        sched.tick(clock(), True)
        frame_b = out.frames("a")[1]  # reassigned copy in flight

        # The slow original answers first: accepted (first result
        # wins — byte-identical by purity), job resolves once.
        sched.result("a", ok_result(frame_a, 25))
        assert future.result(timeout=0) == 25
        assert job_events(sched, "completed") == 1

        # The reassigned copy's result is now the late duplicate.
        sched.result("a", ok_result(frame_b, 25))
        assert job_events(sched, "completed") == 1
        assert sched.jobs == {} and sched.chunks == {} and not sched.pending

    def test_zombie_error_result_cannot_fail_a_requeued_job(self):
        clock = FakeClock()
        sched, out = make_scheduler(clock)
        sched.worker_joined("a", 1)
        [future] = submit_jobs(sched, [3])
        [frame_a] = out.frames("a")
        clock.advance(1.0)
        sched.tick(clock(), True)

        # The timed-out worker eventually answers with an error —
        # that must not fail a job whose requeued copy is live.
        sched.result(
            "a",
            ResultFrame(job_id=frame_a.job_id, ok=False,
                        payload=encode_cluster_payload("boom")),
        )
        assert not future.done()
        assert 0 in sched.jobs  # still tracked, not failed

        # The requeued copy (reassigned by the tick) still completes
        # the job.
        frame_b = out.frames("a")[1]
        sched.result("a", ok_result(frame_b, 9))
        assert future.result(timeout=0) == 9

    def test_worker_death_retires_zombie_chunks(self):
        clock = FakeClock()
        sched, out = make_scheduler(clock)
        sched.worker_joined("a", 1)
        [future] = submit_jobs(sched, [2])
        [frame_a] = out.frames("a")
        clock.advance(1.0)
        sched.tick(clock(), True)
        assert sched.chunks[frame_a.job_id].requeued  # zombie
        assert len(out.frames("a")) == 2  # and its job's live copy

        sched.worker_left("a", "connection_closed")
        assert out.hung_up == ["a"]
        assert sched.chunks == {}  # no result can arrive on a dead link
        # The timeout's requeue and the live copy's — the zombie's
        # retirement adds none.
        assert job_events(sched, "requeued") == 2
        assert list(sched.pending) == [0]
        assert not future.done()


class TestCallerCancels:
    def test_answer_for_a_job_cancelled_in_flight_is_dropped(self):
        """A caller that gave up (a sibling failed mid-map) must not
        meet ``InvalidStateError`` from the loop: the cancelled job is
        forgotten, its chunk-mates resolve."""
        # One window slot, so both jobs are that slot's share: one chunk.
        sched, out = make_scheduler(
            FakeClock(), window_depth=1, chunk_min=2, chunk_max=2
        )
        futures = submit_jobs(sched, range(2))  # no worker yet: queued
        sched.worker_joined("a", 1)
        [frame] = out.frames("a")
        assert futures[0].cancel()
        sched.result("a", ok_result(frame, 0, 1))
        assert futures[1].result(timeout=0) == 1
        assert job_events(sched, "completed") == 1
        assert sched.jobs == {} and sched.chunks == {}


class TestResultOwnership:
    """A chunk is answered by the worker it was sent to, or not at all."""

    def test_result_for_another_workers_chunk_drops_the_sender(self):
        clock = FakeClock()
        sched, out = make_scheduler(clock, window_depth=1)
        futures = submit_jobs(sched, range(2))  # no worker yet: queued
        sched.worker_joined("owner", 1)
        sched.worker_joined("thief", 1)
        owner, thief = sched.workers["owner"], sched.workers["thief"]
        [owned] = out.frames("owner")
        [thiefs_own] = out.frames("thief")

        # The thief answers the owner's chunk id: rejected before
        # anything is accepted, credited or released.
        clock.advance(5.0)
        sched.result("thief", ok_result(owned, 0))
        assert "thief" not in sched.workers  # protocol violation
        assert out.hung_up == ["thief"]
        assert sched.registry.value("repro_cluster_workers_lost_total") == 1
        assert not futures[0].done()
        assert job_events(sched, "completed") == 0
        assert thief.ewma_rate is None  # no EWMA sample taken

        # The stolen chunk stays with its owner, slot still held ...
        assert sched.chunks[owned.job_id].worker_id == "owner"
        assert owner.inflight == {owned.job_id}
        # ... while the thief's own chunk was disbanded and, the
        # owner's one-slot window being full, waits in the queue.
        assert thiefs_own.job_id not in sched.chunks
        assert list(sched.pending) == [1]
        assert job_events(sched, "requeued") == 1

        # The owner's answer is accepted, and frees its slot for
        # the requeued job.
        sched.result("owner", ok_result(owned, 0))
        assert futures[0].result(timeout=0) == 0
        retry = out.frames("owner")[1]
        sched.result("owner", ok_result(retry, 1))
        assert futures[1].result(timeout=0) == 1
        assert sched.jobs == {} and sched.chunks == {} and not sched.pending


class TestWorkersPropertyRace:
    def test_workers_snapshots_the_link_table(self):
        """The loop thread registers and drops workers while callers
        read ``workers``: a worker table that grows mid-read (here, from
        the stand-in's ``capacity``) must not raise."""
        sched, _out = make_scheduler(FakeClock())

        class RegisteringLink:
            @property
            def capacity(self):
                sched.workers[f"late-{len(sched.workers)}"] = self
                return 2

        sched.workers["a"] = RegisteringLink()
        executor = ClusterExecutor(workers=1)
        executor._co = types.SimpleNamespace(scheduler=sched)
        assert executor.workers == 2
        assert len(sched.workers) == 2  # the registration did happen


class TestAdaptiveChunkSizing:
    """EWMA throughput → per-worker chunk size, clamped and fair."""

    @staticmethod
    def jobs_in(sched: Scheduler, frame: JobFrame) -> int:
        return len(sched.chunks[frame.job_id].job_ids)

    def test_unmeasured_worker_probes_at_chunk_min(self):
        sched, out = make_scheduler(FakeClock(), chunk_min=2, chunk_max=16)
        submit_jobs(sched, range(100))
        sched.worker_joined("a", 1)
        assert [self.jobs_in(sched, f) for f in out.frames("a")] == [2, 2]

    def test_fast_worker_gets_bigger_chunks_than_straggler(self):
        clock = FakeClock()
        sched, out = make_scheduler(
            clock, window_depth=1, chunk_min=1, chunk_max=16,
            chunk_target_s=0.5,
        )
        submit_jobs(sched, range(1000))
        sched.worker_joined("fast", 1)
        sched.worker_joined("slow", 1)
        [fast_probe] = out.frames("fast")
        [slow_probe] = out.frames("slow")
        clock.advance(1 / 32)  # 32 jobs/s
        sched.result("fast", ok_result(fast_probe, 0))
        clock.advance(7 / 32)  # a quarter second in all: 4 jobs/s
        sched.result("slow", ok_result(slow_probe, 1))
        assert sched.workers["fast"].ewma_rate == 32.0
        assert sched.workers["slow"].ewma_rate == 4.0
        assert self.jobs_in(sched, out.frames("fast")[1]) == 16  # 32*0.5
        assert self.jobs_in(sched, out.frames("slow")[1]) == 2  # 4*0.5

    def test_fair_share_clamp_protects_the_tail(self):
        clock = FakeClock()
        sched, out = make_scheduler(
            clock, window_depth=1, chunk_min=1, chunk_max=32
        )
        sched.worker_joined("fast", 1)
        sched.worker_joined("other", 1)
        submit_jobs(sched, range(8))  # one each in flight, 6 queued
        [probe] = out.frames("fast")
        clock.advance(1 / 1024)
        sched.result("fast", ok_result(probe, 0))
        assert sched.workers["fast"].ewma_rate == 1024.0
        # 6 jobs left, 2 workers: not all 6.
        assert self.jobs_in(sched, out.frames("fast")[1]) == 3

    # -- balance across a map (factoring) --------------------------------

    @staticmethod
    def run_map(rates: dict[str, float], n_jobs: int = 16):
        """One ``n_jobs`` map over measured workers, run to the end.

        Each worker (capacity 1, ``window_depth`` 2) runs the chunks it
        was sent one at a time, in order, at ``rates[worker]`` jobs/s;
        the fake clock jumps from one completion to the next, so who
        comes back first is decided by chunk sizes, as on real workers.
        Returns every dispatch of the map as ``(worker, jobs, bound)`` —
        ``bound`` being ``ceil(pending / Σ window)`` just before it —
        and the time each worker finished its last chunk.
        """
        clock = FakeClock()
        queues = {worker: [] for worker in rates}
        dispatches: list[tuple[str, int, int]] = []

        def send(worker_id: str, frame: JobFrame) -> None:
            jobs = len(sched.chunks[frame.job_id].job_ids)
            slots = sum(link.window for link in sched.workers.values())
            pending = len(sched.pending) + jobs
            dispatches.append((worker_id, jobs, -(-pending // slots)))
            queues[worker_id].append((frame, jobs))

        def drain() -> dict[str, float]:
            finished, running = {}, {}
            while any(queues.values()):
                for worker, queue in queues.items():
                    if queue and worker not in running:
                        running[worker] = clock() + queue[0][1] / rates[worker]
                worker = min(running, key=running.get)
                clock.now = finished[worker] = running.pop(worker)
                frame, jobs = queues[worker].pop(0)
                sched.result(worker, ok_result(frame, *[0] * jobs))
            return finished

        sched, _out = make_scheduler(clock, send=send, window_depth=2)
        for worker in rates:
            sched.worker_joined(worker, 1)
        submit_jobs(sched, range(len(rates)))  # one probe job each
        drain()
        for worker, rate in rates.items():
            assert sched.workers[worker].ewma_rate == pytest.approx(rate)
        dispatches.clear()
        futures = submit_jobs(sched, range(n_jobs))
        finished = drain()
        assert all(future.done() for future in futures)
        assert sched.jobs == {} and sched.chunks == {}
        return dispatches, finished

    @staticmethod
    def totals(dispatches) -> dict[str, int]:
        out: dict[str, int] = {}
        for worker, jobs, _bound in dispatches:
            out[worker] = out.get(worker, 0) + jobs
        return out

    def test_equal_workers_finish_a_map_together(self):
        dispatches, finished = self.run_map({"a": 1000.0, "b": 1000.0})
        for _worker, jobs, bound in dispatches:
            assert jobs <= bound
        totals = self.totals(dispatches)
        assert sum(totals.values()) == 16
        assert abs(totals["a"] - totals["b"]) <= dispatches[-1][1]
        # Both done within one job of each other, on no more chunks
        # than the live-worker clamp cut (8 on this shape).
        assert abs(finished["a"] - finished["b"]) <= 1 / 1000.0 + 1e-12
        assert len(dispatches) <= 8
        assert [jobs for _w, jobs, _b in dispatches] == [4, 3, 3, 2, 1, 1, 1, 1]

    def test_faster_worker_takes_the_larger_share(self):
        dispatches, _finished = self.run_map({"fast": 2000.0, "slow": 1000.0})
        for _worker, jobs, bound in dispatches:
            assert jobs <= bound
        totals = self.totals(dispatches)
        assert totals["fast"] > totals["slow"]
        slow_chunks = [jobs for worker, jobs, _b in dispatches if worker == "slow"]
        assert slow_chunks[-1] == 1

    def test_one_worker_pays_extra_chunks_for_a_geometric_tail(self):
        # The live-worker clamp sent this map as one 16-job chunk; the
        # per-slot share halves it instead.  A stated cost: 5 chunks.
        dispatches, _finished = self.run_map({"only": 1000.0})
        assert [jobs for _w, jobs, _b in dispatches] == [8, 4, 2, 1, 1]

    def test_ewma_update_blends_samples(self):
        clock = FakeClock()
        sched, out = make_scheduler(clock, window_depth=1)
        sched.worker_joined("a", 1)
        submit_jobs(sched, range(2))
        clock.advance(1 / 8)
        sched.result("a", ok_result(out.frames("a")[0], 0))
        assert sched.workers["a"].ewma_rate == 8.0
        clock.advance(1 / 16)
        sched.result("a", ok_result(out.frames("a")[1], 1))
        assert 8.0 < sched.workers["a"].ewma_rate < 16.0

    def test_completion_timing_feeds_the_ewma(self):
        clock = FakeClock()
        sched, out = make_scheduler(
            clock, window_depth=1, chunk_min=4, chunk_max=4
        )
        submit_jobs(sched, range(4))  # no worker yet: queued
        sched.worker_joined("a", 1)
        [frame] = out.frames("a")
        clock.advance(2.0)  # 4 jobs in 2s -> 2 jobs/s
        sched.result("a", ok_result(frame, 0, 1, 4, 9))
        assert sched.workers["a"].ewma_rate == pytest.approx(2.0)


class TestWorkerChunkExecution:
    def test_execute_chunk_runs_jobs_in_order(self):
        raw = encode_cluster_chunk([job_payload(i) for i in range(5)])
        entries, _report = execute_chunk_report(raw)
        assert [ok for ok, _ in entries] == [True] * 5
        from repro.service.codec import decode_cluster_payload

        assert [decode_cluster_payload(p) for _, p in entries] == [
            0, 1, 4, 9, 16
        ]

    def test_execute_chunk_isolates_a_failing_job(self):
        raw = encode_cluster_chunk(
            [
                job_payload(1),
                encode_job(_boom, (3,), {}),
                job_payload(2),
            ]
        )
        entries, _report = execute_chunk_report(raw)
        assert [ok for ok, _ in entries] == [True, False, True]
        from repro.service.codec import decode_cluster_payload

        assert "boom 3" in decode_cluster_payload(entries[1][1])

    def test_execute_chunk_rejects_corrupt_envelope(self):
        with pytest.raises(CodecError):
            execute_chunk_report(b"\x00 garbage")
        with pytest.raises(CodecError):
            execute_chunk_report(encode_cluster_payload("not a chunk"))


class TestTuningValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_min": 0},
            {"chunk_min": 8, "chunk_max": 4},
            {"chunk_target_s": 0.0},
            {"job_timeout": 0.0},
            {"heartbeat_interval": 0.0},
            {"heartbeat_timeout": -1.0},
            {"startup_timeout": 0.0},
            {"min_workers": 0},
        ],
    )
    def test_bad_tuning_rejected(self, kwargs):
        with pytest.raises(EngineError):
            ClusterExecutor(workers=1, **kwargs)

    def test_get_executor_forwards_cluster_options(self):
        executor = get_executor(
            "cluster", 1, chunk_min=2, chunk_max=4, chunk_target_s=0.5
        )
        try:
            assert isinstance(executor, ClusterExecutor)
            assert executor._chunk_min == 2
            assert executor._chunk_max == 4
            assert executor._chunk_target_s == 0.5
        finally:
            executor.close()

    def test_get_executor_rejects_unknown_cluster_option(self):
        with pytest.raises(EngineError):
            get_executor("cluster", 1, warp_factor=9)

    def test_get_executor_rejects_options_for_inprocess_engines(self):
        with pytest.raises(EngineError):
            get_executor("serial", chunk_min=2)
        with pytest.raises(EngineError):
            get_executor("threads", 2, chunk_max=4)

    def test_get_executor_rejects_options_on_instances(self):
        executor = get_executor("serial")
        with pytest.raises(EngineError):
            get_executor(executor, chunk_min=2)


from cluster_helpers import _megabyte  # noqa: E402


class TestAnswerPathSurvival:
    """Review fix: a result that cannot encode or frame must come back
    as a chunk-level error — never an unanswered chunk that hangs the
    caller on a worker that still heartbeats."""

    def test_unframeable_result_fails_fast_instead_of_hanging(self):
        """Worker max_frame too small for a two-job chunk of 1 MiB
        results: the one ``result`` frame cannot be sent, the fallback
        error frame (which fits) arrives, and both jobs raise promptly
        instead of blocking.  The same path answers a chunk whose
        outcomes exceed the 32 MiB payload cap."""
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        executor = ClusterExecutor(
            workers=1, port=port, spawn_local=False, startup_timeout=30.0,
            window_depth=1, chunk_min=2, chunk_max=2,
        )

        def worker_thread() -> None:
            async def dial() -> None:
                await run_worker(
                    "127.0.0.1",
                    port,
                    engine="serial",
                    connect_retry_s=30.0,
                    max_frame=64 * 1024,  # cannot frame 1 MiB results
                )

            asyncio.run(dial())

        thread = threading.Thread(target=worker_thread, daemon=True)
        thread.start()
        try:
            # One slow job holds the worker's only window slot while
            # two 1 MiB jobs queue behind it: they leave as one chunk.
            blocker = executor.submit(_sleepy_square, (0.5, 3))
            big = [executor.submit(_megabyte, x) for x in (1, 2)]
            assert blocker.result(timeout=30) == 9
            for future in big:
                with pytest.raises(EngineError) as caught:
                    future.result(timeout=30)
                # Both outcomes were in the frame that would not send.
                size = re.search(
                    r"of (\d+) bytes exceeds limit", str(caught.value)
                )
                assert size and int(size.group(1)) > 2 << 20
            # The worker survived its own answer failure.
            assert executor.map(_square, [5]) == [25]
            assert executor.stats["workers_lost"] == 0
        finally:
            executor.close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_zombie_count_mismatch_cannot_fail_requeued_jobs(self):
        clock = FakeClock()
        sched, out = make_scheduler(
            clock, window_depth=1, chunk_min=2, chunk_max=2
        )
        futures = submit_jobs(sched, range(2))  # no worker yet: queued
        sched.worker_joined("a", 1)
        [frame] = out.frames("a")

        clock.advance(2.5)  # past the size-scaled budget (0.5 * 2)
        sched.tick(clock(), True)  # zombie; jobs requeued and reassigned
        assert sched.chunks[frame.job_id].requeued

        # The slow worker answers with the wrong outcome count —
        # the requeued copies own these jobs now; nothing fails.
        sched.result("a", ok_result(frame, 0))  # 1 of 2
        assert not futures[0].done() and not futures[1].done()
        assert 0 in sched.jobs and 1 in sched.jobs

        # The reassigned copy delivers.
        retry = out.frames("a")[1]
        sched.result("a", ok_result(retry, 0, 1))
        assert [f.result(timeout=0) for f in futures] == [0, 1]

    def test_min_workers_cannot_exceed_spawn_local_count(self):
        with pytest.raises(EngineError, match="min_workers"):
            ClusterExecutor(workers=2, min_workers=4)
        # External mode has no spawn target; any floor is legal.
        ClusterExecutor(workers=2, min_workers=4, spawn_local=False).close()
