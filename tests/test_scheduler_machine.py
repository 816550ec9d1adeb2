"""Property test for the cluster scheduler: exactly once, under any
interleaving.

A hypothesis ``RuleBasedStateMachine`` drives a bare
:class:`~repro.engine.cluster.scheduler.Scheduler` — fake clock, its two
outputs recorded, no loop, no socket, no bytes — through its public
events only (``submit``, ``worker_joined``, ``worker_seen``, ``result``,
``worker_left``, ``tick``, ``close``), in arbitrary interleavings of
what the class exists to survive: submissions (batches of one to
``MAX_BATCH`` jobs, as ``map`` and ``submit`` send them), workers joining, dying
and falling silent, results for *any* chunk id ever issued — live,
timed-out (zombie) or retired; honest, failed, short, undecodable; once
or twice; from the worker the chunk was sent to or from another —
callers cancelling, time passing, the last worker gone for good, and
shutdown mid-flight.

Checked after every step:

* no future is resolved twice (a second ``set_result`` would raise
  ``InvalidStateError`` out of the rule; the counting future checks it
  independently);
* a job whose future is done is never in ``jobs`` — so it can be
  neither dispatched nor resolved again — unless the *caller* cancelled
  it and the scheduler has not yet met it in its queue.  (A stale id may
  sit in ``pending``/``parked`` until the next pump or scan drops it;
  those are covered at quiescence.);
* a resolved job holds the serial value, and a job fails only if a
  worker answered for it with an error or a malformed result, every
  one of its ``max_attempts`` assignments was spent, or the scheduler
  was closed (or left with no worker and none expected) while it was
  unresolved;
* the queues only name jobs the model submitted, every in-flight
  chunk id is one a worker was really sent, no job is sent out more than
  ``max_attempts`` times, and a worker the scheduler dropped on its own
  was hung up on.

At quiescence (teardown joins one honest worker and answers
everything): every job resolved exactly once, and ``jobs``, ``chunks``,
``pending`` and ``parked`` are empty.

The default hypothesis profile keeps this small for tier-1; CI's
cluster job runs it under ``HYPOTHESIS_PROFILE=ci`` (see conftest).
"""

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
    ResultFrame,
    encode_cluster_outcomes,
    encode_cluster_payload,
)

from test_engine_cluster import FakeClock, job_payload, make_scheduler

MAX_ATTEMPTS = 2
JOB_TIMEOUT = 0.5
HEARTBEAT_TIMEOUT = 100.0
MAX_LIVE_WORKERS = 3
MAX_BATCH = 6


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
        self.clock = FakeClock()
        self.sched, self.out = make_scheduler(
            self.clock,
            send=self.on_send,
            heartbeat_timeout=HEARTBEAT_TIMEOUT,
            job_timeout=JOB_TIMEOUT,
            max_attempts=MAX_ATTEMPTS,
        )
        # The model.  Job i computes i*i; its payload names it.
        self.futures: list[CountingFuture] = []
        self.n_workers = 0
        self.issued: dict[int, tuple[str, tuple[int, ...]]] = {}
        self.assignments: dict[int, int] = {}  # job -> times dispatched
        self.excused: set[int] = set()  # jobs that may fail before spent
        self.dropped: list[str] = []  # workers the model expects hung up on

    def teardown(self) -> None:
        self.quiesce()

    # -- plumbing --------------------------------------------------------

    def on_send(self, worker_id: str, frame) -> None:
        """The scheduler's ``send`` output: a chunk it holds in flight
        goes to a worker it holds registered, under a fresh id."""
        assert worker_id in self.sched.workers, "sent to a dropped worker"
        assert frame.job_id not in self.issued, "chunk id reused"
        jobs = self.sched.chunks[frame.job_id].job_ids
        self.issued[frame.job_id] = (worker_id, jobs)
        for job in jobs:
            self.assignments[job] = self.assignments.get(job, 0) + 1
            assert self.assignments[job] <= MAX_ATTEMPTS, f"job {job} respent"

    def unresolved(self) -> list[int]:
        return [j for j, f in enumerate(self.futures) if not f.done()]

    def outcomes(self, jobs, failing: int | None = None):
        return [
            (False, encode_cluster_payload(f"job {job} blew up"))
            if job == failing
            else (True, encode_cluster_payload(job * job))
            for job in jobs
        ]

    def honest(self, chunk_id: int) -> ResultFrame:
        jobs = self.issued[chunk_id][1]
        return ResultFrame(
            job_id=chunk_id,
            ok=True,
            payload=encode_cluster_outcomes(self.outcomes(jobs)),
        )

    def chunk(self, data) -> tuple[int, str, tuple[int, ...]]:
        """Any chunk id ever issued, with the worker it went out to;
        half the draws are among the chunks still held, while there are
        any (in a long run most ids ever issued are retired)."""
        pool = sorted(self.issued)
        held = [chunk_id for chunk_id in pool if chunk_id in self.sched.chunks]
        if data.draw(st.booleans(), label="held") and held:
            pool = held
        chunk_id = data.draw(st.sampled_from(pool), label="chunk")
        return (chunk_id, *self.issued[chunk_id])

    def state(self, chunk_id: int) -> str:
        """``live`` (its answer is authoritative), ``zombie`` (timed
        out, jobs requeued, but a late answer can still win a job) or
        ``retired`` (answers are dropped)."""
        chunk = self.sched.chunks.get(chunk_id)
        if chunk is None or chunk.worker_id not in self.sched.workers:
            return "retired"
        return "zombie" if chunk.requeued else "live"

    # -- rules -----------------------------------------------------------

    @rule(n=st.integers(1, MAX_BATCH))
    def submit(self, n: int) -> None:
        """One ``submit`` event: a map of ``n`` jobs, or a single call."""
        first = len(self.futures)
        self.futures.extend(CountingFuture() for _ in range(n))
        self.sched.submit(
            [
                (job_payload(job), self.futures[job])
                for job in range(first, first + n)
            ]
        )

    @precondition(lambda self: len(self.sched.workers) < MAX_LIVE_WORKERS)
    @rule(capacity=st.integers(1, 2))
    def worker_joins(self, capacity: int) -> None:
        self.n_workers += 1
        self.sched.worker_joined(f"w{self.n_workers}", capacity)

    @precondition(lambda self: self.sched.workers)
    @rule(data=st.data())
    def worker_leaves(self, data) -> None:
        worker_id = data.draw(
            st.sampled_from(sorted(self.sched.workers)), label="worker"
        )
        self.dropped.append(worker_id)
        self.sched.worker_left(worker_id, "connection_closed")
        assert worker_id not in self.sched.workers

    @precondition(lambda self: self.sched.workers)
    @rule(data=st.data())
    def heartbeat(self, data) -> None:
        worker_id = data.draw(
            st.sampled_from(sorted(self.sched.workers)), label="worker"
        )
        self.sched.worker_seen(worker_id)
        assert self.sched.workers[worker_id].last_seen == self.clock()

    @precondition(lambda self: self.issued)
    @rule(data=st.data(), twice=st.booleans())
    def honest_result(self, data, twice: bool) -> None:
        chunk_id, worker_id, _jobs = self.chunk(data)
        for _ in range(1 + twice):
            self.sched.result(worker_id, self.honest(chunk_id))

    @precondition(lambda self: self.issued)
    @rule(
        data=st.data(),
        kind=st.sampled_from(
            ["chunk_error", "job_error", "short", "long", "garbage"]
        ),
    )
    def bad_result(self, data, kind: str) -> None:
        chunk_id, worker_id, jobs = self.chunk(data)
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
        self.sched.result(worker_id, frame)

    def thefts(self) -> list[tuple[int, str]]:
        """Every (issued chunk id, live worker it was *not* sent to) —
        of chunks still held when there are any (the violation), else
        of retired ones (a stray duplicate)."""
        every = [
            (chunk_id, worker_id)
            for chunk_id, (owner, _jobs) in sorted(self.issued.items())
            for worker_id in sorted(self.sched.workers)
            if worker_id != owner
        ]
        held = [theft for theft in every if theft[0] in self.sched.chunks]
        return held or every

    @precondition(lambda self: self.thefts())
    @rule(data=st.data(), ok=st.booleans())
    def stolen_result(self, data, ok: bool) -> None:
        chunk_id, thief = data.draw(
            st.sampled_from(self.thefts()), label="theft"
        )
        held = chunk_id in self.sched.chunks
        # Nothing is excused here: an answer from a worker that was never
        # sent the chunk may neither resolve nor fail any of its jobs.
        if ok:
            frame = self.honest(chunk_id)
        else:
            frame = ResultFrame(
                chunk_id, False, encode_cluster_payload("not my chunk")
            )
        self.sched.result(thief, frame)
        if held:  # a protocol violation: the chunk stays, the thief goes
            assert chunk_id in self.sched.chunks
            assert thief not in self.sched.workers
            self.dropped.append(thief)

    @precondition(lambda self: self.futures)
    @rule(data=st.data())
    def caller_cancels(self, data) -> None:
        """Any job; half the draws among those out on a worker right
        now, while there are any (cancelling a resolved future does
        nothing, and an answer is on its way for these)."""
        pool = range(len(self.futures))
        in_flight = sorted(
            {
                job
                for chunk in self.sched.chunks.values()
                for job in chunk.job_ids
                if not self.futures[job].done()
            }
        )
        if data.draw(st.booleans(), label="in flight") and in_flight:
            pool = in_flight
        self.futures[data.draw(st.sampled_from(pool), label="job")].cancel()

    @rule(
        seconds=st.sampled_from(
            [0.1, JOB_TIMEOUT + 0.1, 40 * JOB_TIMEOUT, HEARTBEAT_TIMEOUT + 1]
        )
    )
    def time_passes(self, seconds: float) -> None:
        """The clock moves and the monitor ticks; a worker that was not
        heard from for ``heartbeat_timeout`` is dropped, and its chunks
        are requeued, by the tick."""
        self.clock.advance(seconds)
        now = self.clock()
        silent = [
            worker_id
            for worker_id, link in self.sched.workers.items()
            if now - link.last_seen > HEARTBEAT_TIMEOUT
        ]
        held = {
            chunk_id
            for worker_id in silent
            for chunk_id in self.sched.workers[worker_id].inflight
        }
        self.sched.tick(now, True)
        for worker_id in silent:
            assert worker_id not in self.sched.workers, "silent, not dropped"
        assert not held & set(self.sched.chunks), "a dead worker's chunk kept"
        self.dropped.extend(silent)

    @precondition(lambda self: self.n_workers and not self.sched.workers)
    @rule()
    def none_can_rejoin(self) -> None:
        """A tick with no worker left and none expected fails every
        tracked job, once, rather than letting it wait forever."""
        self.excused.update(self.unresolved())
        self.sched.tick(self.clock(), False)
        assert self.sched.jobs == {}
        assert all(future.done() for future in self.futures)

    @precondition(lambda self: self.sched.chunks)
    @rule()
    def close_mid_flight(self) -> None:
        """Shutdown with chunks out: everything unresolved fails with
        the given error, nothing is requeued, nobody is hung up on —
        and the scheduler is empty, so late frames find nothing."""
        doomed = self.unresolved()
        requeued = self.sched.registry.value(
            "repro_cluster_jobs_total", event="requeued"
        )
        self.excused.update(doomed)
        error = EngineError("cluster executor closed")
        self.sched.close(error)
        for job in doomed:
            assert self.futures[job].exception(timeout=0) is error
        assert self.sched.workers == {} and self.sched.chunks == {}
        assert requeued == self.sched.registry.value(
            "repro_cluster_jobs_total", event="requeued"
        )

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
                assert job not in self.sched.jobs, f"job {job} still tracked"

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
        assert all(job in known for job in self.sched.jobs)
        assert all(job in known for job in self.sched.pending)
        assert all(job in known for job in self.sched.parked)
        assert all(chunk in self.issued for chunk in self.sched.chunks)
        for link in self.sched.workers.values():
            assert all(chunk in self.issued for chunk in link.inflight)
            assert len(link.inflight) <= link.window

    @invariant()
    def every_dropped_worker_was_hung_up_on(self) -> None:
        assert self.out.hung_up == self.dropped

    # -- quiescence ------------------------------------------------------

    def quiesce(self) -> None:
        """One honest worker joins and everything outstanding is
        answered honestly: the scheduler must drain completely."""
        self.sched.worker_joined("honest", 2)
        for _ in range(10 * (len(self.futures) + 1)):
            answerable = [
                c for c in self.sched.chunks if self.state(c) != "retired"
            ]
            if not answerable and not self.sched.pending:
                break
            for chunk_id in answerable:
                self.sched.result(
                    self.issued[chunk_id][0], self.honest(chunk_id)
                )
        else:
            raise AssertionError("the scheduler did not drain")
        # Zombies whose jobs are all resolved, and parked ids a zombie's
        # answer already settled, go at the next tick.
        self.sched.tick(self.clock(), True)
        for check in (
            self.resolved_at_most_once,
            self.a_resolved_job_is_forgotten,
            self.results_are_serial_and_failures_are_earned,
        ):
            check()
        for job, future in enumerate(self.futures):
            assert future.done(), f"job {job} never resolved"
            assert future.cancelled() or future.resolutions == 1
        assert self.sched.jobs == {}
        assert self.sched.chunks == {}
        assert not self.sched.pending
        assert self.sched.parked == {}


TestScheduler = SchedulerMachine.TestCase
TestScheduler.settings = settings(
    settings(), stateful_step_count=40, deadline=None
)
