"""Property test for the cluster scheduler: exactly once, under any
interleaving.

A hypothesis ``RuleBasedStateMachine`` drives a real
:class:`~repro.engine.cluster.coordinator._Coordinator` through the
socket-free harness of ``test_engine_cluster`` (fake clock, fake
writers, links attached by hand) with arbitrary interleavings of the
events the class exists to survive: submissions, workers joining and
dying, results for *any* chunk id ever issued — live, timed-out
(zombie) or retired; honest, failed, short, undecodable; once or twice;
from the worker the chunk was sent to or from another — callers
cancelling, and time passing.

Checked after every step:

* no future is resolved twice (a second ``set_result`` would raise
  ``InvalidStateError`` out of the rule; the counting future checks it
  independently);
* a job whose future is done is never in ``co.jobs`` — so it can be
  neither dispatched nor resolved again — unless the *caller* cancelled
  it and the scheduler has not yet met it in its queue.  (A stale id may
  sit in ``pending``/``parked`` until the next pump or scan drops it;
  those are covered at quiescence.);
* a resolved job holds the serial value, and a job fails only if a
  worker answered for it with an error or a malformed result, or every
  one of its ``max_attempts`` assignments was spent;
* the queues only name jobs the model submitted, and every in-flight
  chunk id is one a worker was really sent.

At quiescence (teardown attaches one honest worker and answers
everything): every job resolved exactly once, and ``jobs``, ``chunks``,
``pending`` and ``parked`` are empty.

The default hypothesis profile keeps this small for tier-1; CI's
cluster job runs it under ``HYPOTHESIS_PROFILE=ci`` (see conftest).
"""

import asyncio
import concurrent.futures

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.exceptions import EngineError
from repro.service.codec import (
    JobFrame,
    ResultFrame,
    decode_cluster_chunk,
    decode_frame,
    encode_cluster_outcomes,
    encode_cluster_payload,
)

from test_engine_cluster import (
    FakeClock,
    attach_worker,
    job_payload,
    make_coordinator,
    settle,
)

MAX_ATTEMPTS = 3
JOB_TIMEOUT = 0.5
MAX_LIVE_WORKERS = 3


class CountingFuture(concurrent.futures.Future):
    """A caller future that counts how often the scheduler resolved it."""

    def __init__(self) -> None:
        super().__init__()
        self.resolutions = 0

    def set_result(self, result) -> None:
        self.resolutions += 1
        super().set_result(result)

    def set_exception(self, exception) -> None:
        self.resolutions += 1
        super().set_exception(exception)


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.clock = FakeClock()
        self.co = make_coordinator(
            self.clock, job_timeout=JOB_TIMEOUT, max_attempts=MAX_ATTEMPTS
        )
        # The model.  Job i computes i*i; its payload names it.
        self.futures: list[CountingFuture] = []
        self.job_of_payload: dict[bytes, int] = {}
        self.links: dict[str, tuple] = {}  # worker id -> (link, writer)
        self.frames_seen: dict[str, int] = {}  # worker id -> frames read
        self.issued: dict[int, tuple[str, tuple[int, ...]]] = {}
        self.assignments: dict[int, int] = {}  # job -> times dispatched
        self.excused: set[int] = set()  # jobs a worker answered badly

    def teardown(self) -> None:
        try:
            self.quiesce()
        finally:
            self.loop.close()

    # -- plumbing --------------------------------------------------------

    def run(self, step, *args):
        """One scheduler event on a live loop, then let its sends land
        and note which chunks went out to whom."""

        async def scenario():
            step(*args)
            await settle()

        self.loop.run_until_complete(scenario())
        for worker_id, (_link, writer) in self.links.items():
            for raw in writer.raw[self.frames_seen[worker_id]:]:
                self.note_frame(worker_id, raw)
            self.frames_seen[worker_id] = len(writer.raw)

    def note_frame(self, worker_id: str, raw: bytes) -> None:
        frame = decode_frame(raw)
        assert isinstance(frame, JobFrame)
        jobs = tuple(
            self.job_of_payload[payload]
            for payload in decode_cluster_chunk(frame.payload)
        )
        assert frame.job_id not in self.issued, "chunk id reused"
        self.issued[frame.job_id] = (worker_id, jobs)
        for job in jobs:
            self.assignments[job] = self.assignments.get(job, 0) + 1

    def outcomes(self, jobs, failing: int | None = None):
        return [
            (False, encode_cluster_payload(f"job {job} blew up"))
            if job == failing
            else (True, encode_cluster_payload(job * job))
            for job in jobs
        ]

    def chunk(self, data) -> tuple[int, object, tuple[int, ...]]:
        """Any chunk id ever issued, with the link it went out on."""
        chunk_id = data.draw(
            st.sampled_from(sorted(self.issued)), label="chunk"
        )
        worker_id, jobs = self.issued[chunk_id]
        return chunk_id, self.links[worker_id][0], jobs

    def state(self, chunk_id: int) -> str:
        """``live`` (its answer is authoritative), ``zombie`` (timed
        out, jobs requeued, but a late answer can still win a job) or
        ``retired`` (answers are dropped)."""
        chunk = self.co.chunks.get(chunk_id)
        if chunk is None or chunk.worker_id not in self.co.workers:
            return "retired"
        return "zombie" if chunk.requeued else "live"

    # -- rules -----------------------------------------------------------

    @rule()
    def submit(self) -> None:
        job = len(self.futures)
        future = CountingFuture()
        self.futures.append(future)
        payload = job_payload(job)
        self.job_of_payload[payload] = job
        self.run(self.co.submit, payload, future)

    @precondition(lambda self: len(self.co.workers) < MAX_LIVE_WORKERS)
    @rule(capacity=st.integers(1, 2))
    def worker_joins(self, capacity: int) -> None:
        worker_id = f"w{len(self.links)}"
        self.links[worker_id] = attach_worker(self.co, worker_id, capacity)
        self.frames_seen[worker_id] = 0
        self.run(self.co._pump)  # what _serve_worker does after hello

    @precondition(lambda self: self.co.workers)
    @rule(data=st.data())
    def worker_dropped(self, data) -> None:
        worker_id = data.draw(
            st.sampled_from(sorted(self.co.workers)), label="worker"
        )
        self.run(self.co._drop_worker, self.links[worker_id][0])

    @precondition(lambda self: self.issued)
    @rule(data=st.data(), twice=st.booleans())
    def honest_result(self, data, twice: bool) -> None:
        chunk_id, link, jobs = self.chunk(data)
        frame = ResultFrame(
            job_id=chunk_id,
            ok=True,
            payload=encode_cluster_outcomes(self.outcomes(jobs)),
        )
        self.run(self.co._on_result, link, frame)
        if twice:
            self.run(self.co._on_result, link, frame)

    @precondition(lambda self: self.issued)
    @rule(
        data=st.data(),
        kind=st.sampled_from(
            ["chunk_error", "job_error", "short", "long", "garbage"]
        ),
    )
    def bad_result(self, data, kind: str) -> None:
        chunk_id, link, jobs = self.chunk(data)
        # Only an answer the scheduler accepts may fail a job: a live
        # chunk's, or — for one job's own error inside a well-formed
        # answer — a zombie's too (first result wins).
        state = self.state(chunk_id)
        if kind == "job_error" and state != "retired":
            self.excused.add(jobs[0])
        elif state == "live":
            self.excused.update(jobs)
        if kind == "chunk_error":
            frame = ResultFrame(
                chunk_id, False, encode_cluster_payload("worker exploded")
            )
        elif kind == "garbage":
            frame = ResultFrame(chunk_id, True, b"\xff\xff\xff")
        else:
            entries = self.outcomes(
                jobs, failing=jobs[0] if kind == "job_error" else None
            )
            if kind == "short":
                entries = entries[:-1]
            elif kind == "long":
                entries = entries + entries[-1:]
            frame = ResultFrame(
                chunk_id, True, encode_cluster_outcomes(entries)
            )
        self.run(self.co._on_result, link, frame)

    def thefts(self) -> list[tuple[int, str]]:
        """Every (issued chunk id, live worker it was *not* sent to)."""
        return [
            (chunk_id, worker_id)
            for chunk_id, (owner, _jobs) in sorted(self.issued.items())
            for worker_id in sorted(self.co.workers)
            if worker_id != owner
        ]

    @precondition(lambda self: self.thefts())
    @rule(data=st.data(), ok=st.booleans())
    def stolen_result(self, data, ok: bool) -> None:
        chunk_id, thief = data.draw(
            st.sampled_from(self.thefts()), label="theft"
        )
        held = chunk_id in self.co.chunks
        # Nothing is excused here: an answer from a link that was never
        # sent the chunk may neither resolve nor fail any of its jobs.
        if ok:
            jobs = self.issued[chunk_id][1]
            frame = ResultFrame(
                chunk_id, True, encode_cluster_outcomes(self.outcomes(jobs))
            )
        else:
            frame = ResultFrame(
                chunk_id, False, encode_cluster_payload("not my chunk")
            )
        self.run(self.co._on_result, self.links[thief][0], frame)
        if held:  # a protocol violation: the chunk stays, the thief goes
            assert chunk_id in self.co.chunks
            assert thief not in self.co.workers

    @precondition(lambda self: self.futures)
    @rule(data=st.data())
    def caller_cancels(self, data) -> None:
        job = data.draw(st.integers(0, len(self.futures) - 1), label="job")
        self.futures[job].cancel()

    @rule(seconds=st.sampled_from([0.1, JOB_TIMEOUT + 0.1, 40 * JOB_TIMEOUT]))
    def time_passes(self, seconds: float) -> None:
        self.clock.advance(seconds)
        self.run(self.co._scan_timeouts, self.clock())
        self.run(self.co._pump)  # the monitor tick's last act

    # -- invariants ------------------------------------------------------

    @invariant()
    def resolved_at_most_once(self) -> None:
        for job, future in enumerate(self.futures):
            assert future.resolutions <= 1, f"job {job} resolved twice"
            assert not (future.cancelled() and future.resolutions), job

    @invariant()
    def a_resolved_job_is_forgotten(self) -> None:
        for job, future in enumerate(self.futures):
            if future.resolutions:
                assert job not in self.co.jobs, f"job {job} still tracked"

    @invariant()
    def results_are_serial_and_failures_are_earned(self) -> None:
        for job, future in enumerate(self.futures):
            if not future.resolutions:
                continue
            error = future.exception(timeout=0)
            if error is None:
                assert future.result(timeout=0) == job * job
                continue
            assert isinstance(error, EngineError)
            assert (
                job in self.excused
                or self.assignments.get(job, 0) >= MAX_ATTEMPTS
            ), f"job {job} failed with attempts left: {error}"

    @invariant()
    def bookkeeping_names_only_real_things(self) -> None:
        known = range(len(self.futures))
        assert all(job in known for job in self.co.jobs)
        assert all(job in known for job in self.co.pending)
        assert all(job in known for job in self.co.parked)
        assert all(chunk in self.issued for chunk in self.co.chunks)
        for link in self.co.workers.values():
            assert all(chunk in self.issued for chunk in link.inflight)
            assert len(link.inflight) <= link.window

    # -- quiescence ------------------------------------------------------

    def quiesce(self) -> None:
        """One honest worker joins and everything outstanding is
        answered honestly: the scheduler must drain completely."""
        worker_id = "honest"
        self.links[worker_id] = attach_worker(self.co, worker_id, 2)
        self.frames_seen[worker_id] = 0
        for _ in range(10 * (len(self.futures) + 1)):
            self.run(self.co._pump)
            answerable = [
                c for c in self.co.chunks if self.state(c) != "retired"
            ]
            if not answerable and not self.co.pending:
                break
            for chunk_id in answerable:
                holder, jobs = self.issued[chunk_id]
                frame = ResultFrame(
                    job_id=chunk_id,
                    ok=True,
                    payload=encode_cluster_outcomes(self.outcomes(jobs)),
                )
                self.run(self.co._on_result, self.links[holder][0], frame)
        else:
            raise AssertionError("the scheduler did not drain")
        # Zombies whose jobs are all resolved, and parked ids a zombie's
        # answer already settled, go at the next scan.
        self.run(self.co._scan_timeouts, self.clock())
        for check in (
            self.resolved_at_most_once,
            self.a_resolved_job_is_forgotten,
            self.results_are_serial_and_failures_are_earned,
        ):
            check()
        for job, future in enumerate(self.futures):
            assert future.done(), f"job {job} never resolved"
            assert future.cancelled() or future.resolutions == 1
        assert self.co.jobs == {}
        assert self.co.chunks == {}
        assert not self.co.pending
        assert self.co.parked == {}


TestScheduler = SchedulerMachine.TestCase
TestScheduler.settings = settings(
    settings(), stateful_step_count=40, deadline=None
)
