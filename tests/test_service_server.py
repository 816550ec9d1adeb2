"""Tests for the asyncio supervisor server (repro.service.server).

The headline property is end-to-end parity: the service at a fixed
seed must produce the exact per-task ``VerificationOutcome``s of the
synchronous scheme layer (``GridSimulation`` job semantics), with
sessions interleaved in any order across concurrent connections.  The
one-connection drivers here (a participant holding several CBS tasks,
the §4 broker relaying NI-CBS for many participants) are exercised by
``test_grid_multitask.py`` and ``test_grid_nodes.py``.
"""

import asyncio
import concurrent.futures
import dataclasses
import sys
import threading

import pytest

from repro.cheating import (
    ColludingCheater,
    HonestBehavior,
    MaliciousBehavior,
    SemiHonestCheater,
)
from repro.core import CBSScheme, NICBSScheme
from repro.core.cbs import CBSParticipant
from repro.core.ni_cbs import NICBSParticipant
from repro.core.protocol import AssignMsg, CommitmentMsg, NICBSSubmissionMsg
from repro.core.scheme import RejectReason
from repro.engine import SerialExecutor, get_executor, run_scheme_jobs
from repro.exceptions import ProtocolError
from repro.grid import GridSimulation, SimulationConfig
from repro.merkle import AuthenticationPath
from repro.service import (
    ChallengeFrame,
    CommitmentFrame,
    ErrorFrame,
    ProofsFrame,
    ServiceClient,
    ServiceConfig,
    SubmissionFrame,
    SupervisorServer,
    TaskRequest,
    VerdictFrame,
    read_frame,
    write_frame,
)
from repro.merkle.multiproof import Multiproof
from repro.merkle.tree import LeafEncoding
from repro.obs.metrics import default_registry
from repro.obs.trace import bind_trace, new_trace_id
from repro.service import server as server_module
from repro.service import sessions as sessions_module
from repro.service import verification_jobs
from repro.service.codec import (
    SERVICE_HASH,
    ByeFrame,
    HeartbeatFrame,
    StatsRequest,
    TaskAssign,
    TraceGetRequest,
    resolve_scheme,
)
from repro.service.server import INLINE_BUDGET_S, inline_budget, memory_duplex
from repro.service.sessions import SessionState, SupervisorCore
from repro.tasks import PasswordSearch, RangeDomain

D = RangeDomain(0, 1 << 9)
BEHAVIORS = [HonestBehavior(), SemiHonestCheater(0.5)]
#: One of each repro.cheating strategy.
STRATEGIES = [
    HonestBehavior(),
    SemiHonestCheater(0.5),
    ColludingCheater(0.5, b"cartel"),
    MaliciousBehavior(),
]


def config(protocol: str, n_participants: int = 6, m: int = 12) -> ServiceConfig:
    return ServiceConfig(
        domain=RangeDomain(D.start, D.stop),
        protocol=protocol,
        n_samples=m,
        n_participants=n_participants,
        seed=21,
    )


def sync_outcomes(cfg: ServiceConfig, behaviors=BEHAVIORS):
    """Reference outcomes from the synchronous scheme layer, slot *i*
    running ``behaviors[i % len(behaviors)]``."""
    scheme = (
        CBSScheme(cfg.n_samples)
        if cfg.protocol == "cbs"
        else NICBSScheme(cfg.n_samples)
    )
    sim = GridSimulation(
        SimulationConfig(
            domain=cfg.domain,
            function=PasswordSearch(),
            scheme=scheme,
            n_participants=cfg.n_participants,
            behaviors=behaviors,
            seed=cfg.seed,
        )
    )
    jobs = sim.jobs()
    results = run_scheme_jobs(scheme, jobs)
    return {job.assignment.task_id: r.outcome for job, r in zip(jobs, results)}


async def drive_all(server: SupervisorServer, cfg: ServiceConfig):
    """One client per participant, all rounds concurrent."""

    async def one(i: int):
        reader, writer = server.connect_memory()
        client = ServiceClient(reader, writer)
        try:
            return await client.run_participant(
                BEHAVIORS[i % len(BEHAVIORS)], participant=i
            )
        finally:
            await client.close()

    return await asyncio.gather(*(one(i) for i in range(cfg.n_participants)))


def frame_participant(protocol: str, assign: TaskAssign, behavior):
    """The participant side of one ``protocol`` round on ``assign``'s
    slot and parameters, built as the client does."""
    scheme = resolve_scheme(
        protocol, assign.n_samples, assign.hash_name,
        assign.sample_hash_name, assign.leaf_encoding,
    )
    return scheme.participant(
        ServiceClient.build_assignment(assign), behavior, assign.seed
    )


def cbs_participant(assign: TaskAssign, behavior) -> CBSParticipant:
    """The participant side of one CBS round, built as the client does."""
    return frame_participant("cbs", assign, behavior)


def nicbs_participant(assign: TaskAssign, behavior) -> NICBSParticipant:
    """The participant side of one NI-CBS round, built as the client does."""
    return frame_participant("ni-cbs", assign, behavior)


def drive_core(cfg: ServiceConfig, behaviors):
    """Every slot's round against a bare :class:`SupervisorCore`: no
    loop, no bytes, each ``Verify`` run inline.  Slot *i* runs
    ``behaviors[i % len(behaviors)]``; returns the recorded outcomes."""
    core = SupervisorCore(cfg)
    for i in range(cfg.n_participants):
        behavior = behaviors[i % len(behaviors)]
        assign = core.receive(TaskRequest(participant=i))
        if cfg.protocol == "cbs":
            participant = cbs_participant(assign, behavior)
            commitment = CommitmentFrame(msg=participant.compute_and_commit())
            challenge = core.receive(commitment).msg
            claim = core.receive(ProofsFrame(msg=participant.prove(challenge)))
        else:
            participant = nicbs_participant(assign, behavior)
            claim = core.receive(
                SubmissionFrame(msg=participant.compute_and_submit())
            )
        verdict = core.verdict(claim, claim.job(*claim.args)).msg
        outcome = core.sessions.outcomes[verdict.task_id]
        assert verdict.accepted == outcome.accepted
    assert core.sessions.active == 0
    return core.sessions.outcomes


def cbs_rounds_on_one_connection(cfg: ServiceConfig, behaviors):
    """One connection against a fresh server takes a slot per behaviour
    (slot *i* runs ``behaviors[i]``), commits every task, then proves in
    reverse order.  Returns the commitments and challenges in slot
    order, the verdicts by task id in arrival order, and the stopped
    server."""

    async def scenario():
        server = SupervisorServer(cfg, engine="serial")
        try:
            client = ServiceClient(*server.connect_memory())
            sessions = []
            for _ in behaviors:
                assign = await client.request_task()
                sessions.append(
                    cbs_participant(assign, behaviors[assign.participant])
                )
            commitments, challenges = [], []
            for session in sessions:
                commitments.append(session.compute_and_commit())
                await client._send(CommitmentFrame(msg=commitments[-1]))
                challenges.append((await client._recv(ChallengeFrame)).msg)
            verdicts = {}
            for session, challenge in reversed(list(zip(sessions, challenges))):
                await client._send(ProofsFrame(msg=session.prove(challenge)))
                verdict = (await client._recv(VerdictFrame)).msg
                verdicts[verdict.task_id] = verdict.accepted
            await client.close()
            return commitments, challenges, verdicts, server
        finally:
            await server.stop()

    return asyncio.run(scenario())


def relay_through_broker(
    cfg: ServiceConfig, behaviors
) -> tuple[dict[str, bool], SupervisorServer]:
    """The §4 GRACE broker against a fresh server: one connection takes
    every slot, hands each assignment to its own NI-CBS participant
    (slot *i* runs ``behaviors[i]``), then relays each submission frame
    verbatim.  Returns the verdicts by task id, and the stopped server."""

    async def scenario():
        server = SupervisorServer(cfg, engine="serial")
        try:
            reader, writer = server.connect_memory()
            submissions = []
            for _ in behaviors:
                await write_frame(writer, TaskRequest(participant=None))
                assign = await read_frame(reader)
                participant = nicbs_participant(
                    assign, behaviors[assign.participant]
                )
                submissions.append(
                    SubmissionFrame(msg=participant.compute_and_submit())
                )
            verdicts = {}
            for submission in submissions:
                await write_frame(writer, submission)
                verdict = (await read_frame(reader)).msg
                verdicts[verdict.task_id] = verdict.accepted
            writer.close()
            return verdicts, server
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestEndToEnd:
    @pytest.mark.parametrize("protocol", ["cbs", "ni-cbs"])
    def test_parity_with_scheme_layer(self, protocol):
        cfg = config(protocol)

        async def scenario():
            server = SupervisorServer(cfg, engine="threads", workers=2)
            try:
                runs = await drive_all(server, cfg)
            finally:
                await server.stop()
            return server, runs

        server, runs = asyncio.run(scenario())
        assert server.outcomes == sync_outcomes(cfg)
        # Client-side verdicts agree with server-side outcomes.
        for run in runs:
            assert run.accepted == server.outcomes[run.task_id].accepted
        # Theorem 1 at the service layer: no honest participant rejected.
        assert all(r.accepted for r in runs if r.honesty_ratio == 1.0)
        assert all(not r.accepted for r in runs if r.honesty_ratio < 1.0)

    @pytest.mark.parametrize("protocol", ["cbs", "ni-cbs"])
    def test_bare_core_parity_with_scheme_layer(self, protocol):
        """The same parity with no server around the core: every
        strategy's messages fed straight in, verdicts equal
        ``scheme.run``'s."""
        cfg = config(protocol, n_participants=8)
        assert drive_core(cfg, STRATEGIES) == sync_outcomes(cfg, STRATEGIES)

    def test_serial_engine_runs_inline(self):
        cfg = config("ni-cbs", n_participants=3)

        async def scenario():
            with SerialExecutor() as executor:
                server = SupervisorServer(cfg, engine=executor)
                try:
                    await drive_all(server, cfg)
                finally:
                    await server.stop()
            return server

        server = asyncio.run(scenario())
        assert server.outcomes == sync_outcomes(cfg)
        assert server.registry.value("repro_verifications_total") == 3


class TestClientHonoursTheAssignFrame:
    """The client plays the round the assign frame names, with every
    parameter it carries, including ones ``serve`` never sends."""

    @pytest.mark.parametrize("leaf_encoding", ["hashed", "raw"])
    @pytest.mark.parametrize("protocol", ["cbs", "ni-cbs"])
    def test_first_message_is_the_named_schemes(self, protocol, leaf_encoding):
        sample_hash = "md5^3" if protocol == "ni-cbs" else "sha256"
        assign = TaskAssign(
            assign=AssignMsg(task_id="task-3", n_inputs=40,
                             workload="PasswordSearch"),
            participant=3, domain_start=120, domain_stop=160,
            # md5: a raw leaf is the 16-byte result itself.
            protocol=protocol, n_samples=5, hash_name="md5",
            sample_hash_name=sample_hash, leaf_encoding=leaf_encoding,
            seed=2**40 + 7,
        )
        behavior = SemiHonestCheater(0.5)

        async def scripted_peer():
            (client_r, client_w), (peer_r, peer_w) = memory_duplex()
            client = ServiceClient(client_r, client_w)
            run = asyncio.create_task(
                client.run_participant(behavior, participant=3)
            )
            assert await read_frame(peer_r) == TaskRequest(participant=3)
            await write_frame(peer_w, assign)
            first = await asyncio.wait_for(read_frame(peer_r), timeout=30)
            await write_frame(peer_w, ErrorFrame("scripted peer hangs up"))
            with pytest.raises(ProtocolError, match="scripted peer"):
                await run
            return first

        sent = asyncio.run(scripted_peer())

        def first_message(*params):
            participant = resolve_scheme(protocol, 5, *params).participant(
                ServiceClient.build_assignment(assign), behavior, assign.seed
            )
            if protocol == "cbs":
                return CommitmentFrame(msg=participant.compute_and_commit())
            return SubmissionFrame(msg=participant.compute_and_submit())

        expected = first_message("md5", sample_hash, leaf_encoding)
        assert sent.msg.encode() == expected.msg.encode()
        # What the service's own parameters would have produced differs:
        # the client read the frame, not the service's defaults.
        default = first_message(SERVICE_HASH, SERVICE_HASH, "hashed")
        assert sent.msg.encode() != default.msg.encode()

    @pytest.mark.parametrize("protocol", ["cbs", "ni-cbs"])
    def test_raw_leaves_wider_than_the_result_are_refused(self, protocol):
        # sha1 digests are 20 bytes, PasswordSearch results 16: no raw
        # leaf can be both.  The client refuses the frame before any
        # compute, naming both sizes, and sends nothing after it.
        assign = TaskAssign(
            assign=AssignMsg(task_id="task-4", n_inputs=8,
                             workload="PasswordSearch"),
            participant=4, domain_start=0, domain_stop=8,
            protocol=protocol, n_samples=2, hash_name="sha1",
            sample_hash_name="sha256", leaf_encoding="raw", seed=9,
        )

        async def scripted_peer():
            (client_r, client_w), (peer_r, peer_w) = memory_duplex()
            client = ServiceClient(client_r, client_w)
            run = asyncio.create_task(client.run_participant(HonestBehavior()))
            await read_frame(peer_r)
            await write_frame(peer_w, assign)
            with pytest.raises(ProtocolError, match="16-byte.*20-byte"):
                await asyncio.wait_for(run, timeout=30)
            client_w.close()
            # End of stream: no commitment or submission ever left.
            assert await asyncio.wait_for(read_frame(peer_r), timeout=5) is None

        asyncio.run(scripted_peer())


class TestProofHeavySession:
    def test_no_authentication_path_is_built(self, monkeypatch):
        """The ``svc_nicbs_proofheavy`` shape (512 leaves, m = 256)
        through ``serve``: the client proves and encodes, ``serve``
        decodes and verifies, and neither end expands the multiproof
        into per-sample paths."""
        built = []
        init = AuthenticationPath.__init__
        from_uniform = AuthenticationPath.from_uniform.__func__

        def counted_init(self, *args, **kwargs):
            built.append("__init__")
            init(self, *args, **kwargs)

        def counted_from_uniform(cls, *args):
            built.append("from_uniform")
            return from_uniform(cls, *args)

        monkeypatch.setattr(AuthenticationPath, "__init__", counted_init)
        monkeypatch.setattr(
            AuthenticationPath, "from_uniform", classmethod(counted_from_uniform)
        )
        cfg = ServiceConfig(
            domain=RangeDomain(0, 1024),
            protocol="ni-cbs",
            n_samples=256,
            n_participants=2,
            seed=21,
        )

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            try:
                return await drive_all(server, cfg)
            finally:
                await server.stop()

        runs = asyncio.run(scenario())
        assert [run.accepted for run in runs] == [True, False]
        assert built == []
        # ... and the patch is live: a direct call is counted.
        AuthenticationPath.from_uniform(0, [], 1, LeafEncoding.HASHED)
        assert built == ["from_uniform"]


async def drive_in_turn(
    server: SupervisorServer, cfg: ServiceConfig, trace_ids=None
):
    """One participant after another, so verifications never overlap;
    session *i* runs under ``trace_ids[i]`` when given."""
    runs = []
    for i in range(cfg.n_participants):
        client = ServiceClient(*server.connect_memory())
        try:
            with bind_trace(trace_ids[i] if trace_ids else None):
                runs.append(
                    await client.run_participant(
                        BEHAVIORS[i % len(BEHAVIORS)], participant=i
                    )
                )
        finally:
            await client.close()
    return runs


class FakeCpuClock:
    """Stands in for ``time.thread_time`` under ``timed``: job *k* reads
    ``costs[k]`` thread-CPU seconds, and the thread it ran on is kept."""

    def __init__(self, costs) -> None:
        self.costs = iter(costs)
        self.now = 0.0
        self.threads: list[int] = []
        self.in_job = False

    def __call__(self) -> float:
        if self.in_job:
            self.now += next(self.costs)
        else:
            self.threads.append(threading.get_ident())
        self.in_job = not self.in_job
        return self.now


#: The inline budget on ``threads``: a job that ends within the switch
#: interval holds the GIL no shorter on the pool than on the loop.
SWITCH = sys.getswitchinterval()
CHEAP, DEAR = INLINE_BUDGET_S / 4, SWITCH * 4
#: Over the out-of-process budget, inside the thread pool's.
BETWEEN = (INLINE_BUDGET_S + SWITCH) / 2


class OutOfProcessPool(concurrent.futures.Executor):
    """A pool outside the interpreter, as ``processes`` and ``cluster``
    have, for placement: each job runs on a fresh thread, so the fake
    clock still reads it, but it is no ``ThreadPoolExecutor``."""

    def submit(self, fn, /, *args):
        future = concurrent.futures.Future()
        threading.Thread(target=lambda: future.set_result(fn(*args))).start()
        return future


class OutOfProcessEngine(SerialExecutor):
    name = "processes"

    @property
    def futures_pool(self):
        return OutOfProcessPool()


class TestPlacement:
    """Where a verification runs follows the cost the server measured,
    against the budget of the pool it would go to."""

    def test_the_budget_is_the_switch_interval_only_on_a_thread_pool(
        self, monkeypatch
    ):
        assert SWITCH > INLINE_BUDGET_S  # CPython's 5 ms against 1 ms
        threads = get_executor("threads", 1)
        processes = get_executor("processes", 1)
        try:
            assert inline_budget(threads.futures_pool) == SWITCH
            # Creating the pool starts no process; only a job would.
            assert inline_budget(processes.futures_pool) == INLINE_BUDGET_S
            assert inline_budget(OutOfProcessPool()) == INLINE_BUDGET_S
            # Read at placement time, and never under the 1 ms budget.
            monkeypatch.setattr(sys, "getswitchinterval", lambda: 0.002)
            assert inline_budget(threads.futures_pool) == 0.002
            monkeypatch.setattr(sys, "getswitchinterval", lambda: 1e-4)
            assert inline_budget(threads.futures_pool) == INLINE_BUDGET_S
        finally:
            threads.close()
            processes.close()

    def place(
        self, monkeypatch, costs, engine="threads", protocol="ni-cbs",
        trace_ids=None,
    ):
        """Run ``len(costs)`` sessions in turn; returns the server and
        ``"loop"``/``"pool"`` per verification."""
        clock = FakeCpuClock(costs)
        monkeypatch.setattr(verification_jobs.time, "thread_time", clock)
        cfg = config(protocol, n_participants=len(costs))

        async def scenario():
            server = SupervisorServer(cfg, engine=engine, workers=2)
            try:
                runs = await drive_in_turn(server, cfg, trace_ids)
            finally:
                await server.stop()
            return server, runs, threading.get_ident()

        server, runs, loop_thread = asyncio.run(scenario())
        placed = ["loop" if t == loop_thread else "pool" for t in clock.threads]
        return server, runs, placed

    def test_first_job_pooled_then_small_jobs_run_on_the_loop(self, monkeypatch):
        _server, _runs, placed = self.place(monkeypatch, [CHEAP] * 4)
        assert placed == ["pool", "loop", "loop", "loop"]

    def test_jobs_over_the_budget_stay_on_the_pool(self, monkeypatch):
        _server, _runs, placed = self.place(monkeypatch, [DEAR] * 4)
        assert placed == ["pool"] * 4

    def test_a_reading_at_the_budget_is_inline_and_just_over_is_not(
        self, monkeypatch
    ):
        # On threads the budget is the switch interval.
        over = SWITCH * 1.0001
        _server, _runs, placed = self.place(monkeypatch, [SWITCH, over, over])
        assert placed == ["pool", "loop", "pool"]

    def test_an_out_of_process_pool_keeps_the_one_millisecond_budget(
        self, monkeypatch
    ):
        over = INLINE_BUDGET_S * 1.0001
        engine = OutOfProcessEngine()
        _server, _runs, placed = self.place(
            monkeypatch, [INLINE_BUDGET_S, over, over], engine=engine
        )
        assert placed == ["pool", "loop", "pool"]
        # A reading inline on threads stays on an out-of-process pool.
        _server, _runs, placed = self.place(
            monkeypatch, [CHEAP, BETWEEN, CHEAP], engine=engine
        )
        assert placed == ["pool", "loop", "pool"]
        _server, _runs, placed = self.place(monkeypatch, [CHEAP, BETWEEN, CHEAP])
        assert placed == ["pool", "loop", "loop"]

    def test_one_slow_reading_moves_the_next_job_back_at_once(self, monkeypatch):
        # 1.05x the budget, then one free job: the estimate decays a
        # tenth of the way (0.945x) and the loop is allowed again.
        slow = 1.05 * SWITCH
        _server, _runs, placed = self.place(
            monkeypatch, [0.0, 0.0, slow, 0.0, 0.0]
        )
        assert placed == ["pool", "loop", "loop", "pool", "loop"]
        # A dear one takes many cheap readings to forget.
        _server, _runs, placed = self.place(
            monkeypatch, [CHEAP, DEAR] + [CHEAP] * 4
        )
        assert placed == ["pool", "loop"] + ["pool"] * 4

    def test_serial_never_touches_a_pool(self, monkeypatch):
        _server, _runs, placed = self.place(
            monkeypatch, [DEAR] * 3, engine="serial"
        )
        assert placed == ["loop"] * 3

    @pytest.mark.parametrize("protocol", ["cbs", "ni-cbs"])
    @pytest.mark.parametrize("cost", [CHEAP, DEAR])
    def test_verdicts_equal_the_scheme_layer_under_both_placements(
        self, monkeypatch, protocol, cost
    ):
        server, runs, placed = self.place(
            monkeypatch, [cost] * 6, protocol=protocol
        )
        assert placed[1:] == ["loop" if cost == CHEAP else "pool"] * 5
        expected = sync_outcomes(server.config)
        assert server.outcomes == expected
        assert {r.task_id: r.accepted for r in runs} == {
            task_id: o.accepted for task_id, o in expected.items()
        }
        assert [r.accepted for r in runs] == [True, False] * 3

    def test_a_job_is_metered_under_the_engine_that_ran_it(self, monkeypatch):
        def completed(engine):
            return default_registry().value(
                "repro_engine_tasks_total", engine=engine, event="completed"
            )

        before = completed("threads"), completed("serial")
        trace_ids = [new_trace_id() for _ in range(3)]
        server, _runs, _placed = self.place(
            monkeypatch, [CHEAP] * 3, trace_ids=trace_ids
        )
        assert completed("threads") - before[0] == 1
        assert completed("serial") - before[1] == 2
        engines = [
            span.attributes["engine"]
            for trace_id in trace_ids
            for span in server.span_buffer.trace(trace_id)
            if span.name == "engine.map"
        ]
        assert engines == ["threads", "serial", "serial"]


class TestConnectionLoop:
    """One coroutine per connection: read -> dispatch -> write."""

    def test_pipelined_frames_are_answered_in_order(self):
        cfg = config("ni-cbs")

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            try:
                reader, writer = server.connect_memory()
                for i in (3, 1):
                    await write_frame(writer, TaskRequest(participant=i))
                replies = [await read_frame(reader) for _ in range(2)]
                writer.close()
                return replies
            finally:
                await server.stop()

        replies = asyncio.run(scenario())
        assert all(isinstance(r, TaskAssign) for r in replies)
        assert [r.participant for r in replies] == [3, 1]

    def test_malformed_second_frame_first_reply_then_one_counted_error(self):
        cfg = config("ni-cbs")

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            try:
                reader, writer = server.connect_memory()
                await write_frame(writer, TaskRequest(participant=0))
                writer.write(b"\x00\x00\x00\x05notjs")
                replies = []
                while (reply := await read_frame(reader)) is not None:
                    replies.append(reply)
                return replies, server
            finally:
                await server.stop()

        replies, server = asyncio.run(scenario())
        assert [type(r) for r in replies] == [TaskAssign, ErrorFrame]
        # The terminal error frame goes out through the same counted
        # write as every other reply.
        frames = server.registry.value
        assert frames("repro_frames_total", direction="in") == 1
        assert frames("repro_frames_total", direction="out") == 2

    def test_eof_mid_verification_closes_cleanly(self, monkeypatch):
        cfg = config("ni-cbs")
        entered, release = threading.Event(), threading.Event()

        def held(*args):
            entered.set()
            assert release.wait(timeout=10.0)
            return verification_jobs.verify_round(*args)

        monkeypatch.setattr(sessions_module, "verify_round", held)

        async def scenario():
            server = SupervisorServer(cfg, engine="threads", workers=2)
            try:
                reader, writer = server.connect_memory()
                await write_frame(writer, TaskRequest(participant=0))
                assign = await read_frame(reader)
                submission = NICBSParticipant(
                    server.sessions.peek(assign.assign.task_id).assignment,
                    HonestBehavior(),
                    n_samples=cfg.n_samples,
                ).compute_and_submit()
                await write_frame(writer, SubmissionFrame(msg=submission))
                while not entered.is_set():
                    await asyncio.sleep(0.001)
                writer.close()  # the peer is gone before the verdict
                (task,) = server._listener.tasks
                release.set()
                await asyncio.wait_for(task, timeout=10.0)
                return task, server
            finally:
                release.set()
                await server.stop()

        task, server = asyncio.run(scenario())
        assert task.exception() is None
        assert server.outcomes["task-0"].accepted
        assert server.registry.sum_values("repro_errors_total") == 0

    def test_flooding_peer_is_never_more_than_one_frame_ahead(self, monkeypatch):
        cfg = config("ni-cbs")
        decoded = processed = 0
        lead: list[int] = []
        real_read = server_module.read_frame

        async def counting_read(reader, max_frame):
            nonlocal decoded
            frame = await real_read(reader, max_frame=max_frame)
            decoded += frame is not None
            return frame

        monkeypatch.setattr(server_module, "read_frame", counting_read)

        async def scenario():
            nonlocal processed
            server = SupervisorServer(cfg, engine="serial")
            real_dispatch = server._dispatch

            async def counting_dispatch(frame):
                nonlocal processed
                lead.append(decoded - processed)
                processed += 1
                return await real_dispatch(frame)

            server._dispatch = counting_dispatch
            try:
                _reader, writer = server.connect_memory()
                for _ in range(1000):  # written, never read back
                    await write_frame(writer, TraceGetRequest(trace_id="0" * 32))
                writer.close()
                (task,) = server._listener.tasks
                await asyncio.wait_for(task, timeout=30.0)
            finally:
                await server.stop()

        asyncio.run(scenario())
        assert processed == 1000
        assert set(lead) == {1}


class TestInterleavedCBS:
    def test_interleaved_rounds_match_scheme_layer(self):
        """Two clients interleave commit/prove arbitrarily; outcomes
        equal the scheme layer's."""
        cfg = config("cbs", n_participants=2)

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            try:
                clients = [
                    ServiceClient(*server.connect_memory()) for _ in range(2)
                ]
                sessions = [
                    cbs_participant(
                        await clients[i].request_task(participant=i),
                        BEHAVIORS[i % len(BEHAVIORS)],
                    )
                    for i in range(2)
                ]

                # Interleave: both commitments first, then proofs in
                # *reverse* client order.
                challenges = []
                for i in (0, 1):
                    await clients[i]._send(
                        CommitmentFrame(msg=sessions[i].compute_and_commit())
                    )
                    challenges.append(await clients[i]._recv(ChallengeFrame))
                verdicts = {}
                for i in (1, 0):
                    await clients[i]._send(
                        ProofsFrame(msg=sessions[i].prove(challenges[i].msg))
                    )
                    verdict = await clients[i]._recv(VerdictFrame)
                    verdicts[verdict.msg.task_id] = verdict.msg.accepted
                for client in clients:
                    await client.close()
                return verdicts, server
            finally:
                await server.stop()

        verdicts, server = asyncio.run(scenario())
        expected = sync_outcomes(cfg)
        assert server.outcomes == expected
        assert verdicts == {
            task_id: outcome.accepted for task_id, outcome in expected.items()
        }


class TestProtocolPolicing:
    def run_with_frames(self, cfg: ServiceConfig, frames):
        """Send raw frames on one connection; collect replies."""

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            try:
                reader, writer = server.connect_memory()
                replies = []
                for frame in frames:
                    await write_frame(writer, frame)
                    reply = await read_frame(reader)
                    replies.append(reply)
                    if isinstance(reply, ErrorFrame) or reply is None:
                        break
                writer.close()
                return replies, server
            finally:
                await server.stop()

        return asyncio.run(scenario())

    @pytest.mark.parametrize(
        "frame",
        [
            ErrorFrame("from a participant"),
            StatsRequest(),
            TraceGetRequest(trace_id="0" * 32),
            ByeFrame(reason="hello?"),
            HeartbeatFrame(worker_id="w"),
        ],
        ids=lambda frame: type(frame).__name__,
    )
    def test_core_refuses_a_frame_outside_the_protocol(self, frame):
        """The shell answers stats and trace frames itself; handed one,
        or any frame no participant sends, the core refuses it."""
        core = SupervisorCore(config("cbs"))
        with pytest.raises(
            ProtocolError, match=f"unexpected frame {type(frame).__name__}"
        ):
            core.receive(frame)

    def test_unknown_task_submission_gets_error_frame(self):
        cfg = config("ni-cbs")
        replies, server = self.run_with_frames(
            cfg,
            [
                SubmissionFrame(
                    msg=NICBSSubmissionMsg(
                        task_id="task-999", root=b"\x00" * 32, n_leaves=1,
                        bundle=Multiproof((), ()),
                    )
                )
            ],
        )
        assert isinstance(replies[-1], ErrorFrame)
        assert "unknown task" in replies[-1].message
        assert server.registry.sum_values("repro_errors_total") == 1

    def test_commitment_in_nicbs_mode_rejected(self):
        cfg = config("ni-cbs")
        replies, _server = self.run_with_frames(
            cfg,
            [
                TaskRequest(participant=0),
                CommitmentFrame(
                    msg=CommitmentMsg(
                        task_id="task-0", root=b"\x00" * 32, n_leaves=1
                    )
                ),
            ],
        )
        assert isinstance(replies[-1], ErrorFrame)

    def test_duplicate_slot_request_rejected(self):
        cfg = config("ni-cbs")
        replies, _server = self.run_with_frames(
            cfg, [TaskRequest(participant=0), TaskRequest(participant=0)]
        )
        assert isinstance(replies[-1], ErrorFrame)
        assert "already assigned" in replies[-1].message

    def test_out_of_range_slot_rejected(self):
        cfg = config("ni-cbs", n_participants=2)
        replies, _server = self.run_with_frames(
            cfg, [TaskRequest(participant=99)]
        )
        assert isinstance(replies[-1], ErrorFrame)

    def test_auto_assignment_reuses_evicted_slots(self):
        cfg = config("ni-cbs", n_participants=2)

        async def scenario():
            server = SupervisorServer(
                cfg, engine="serial", session_ttl=0.05
            )
            try:
                # Exhaust both slots via auto-assignment, then abandon.
                for _ in range(2):
                    client = ServiceClient(*server.connect_memory())
                    await client.request_task()
                    await client.close()
                await asyncio.sleep(0.2)  # sweeper evicts both
                # The cursor is exhausted, but freed slots are found.
                client = ServiceClient(*server.connect_memory())
                run = await client.run_participant(HonestBehavior())
                await client.close()
                return run
            finally:
                await server.stop()

        run = asyncio.run(scenario())
        assert run.accepted

    def test_submission_of_another_shape_gets_a_verdict(self):
        # A bundle whose results are wider than the workload's (one
        # byte each), or whose digests are one short of what Eq. 4's
        # samples need.  Both get a malformed_proof verdict frame, as
        # under CBS — never an error from the offloaded job, a session
        # parked in VERIFYING until the TTL swept it, or a dropped
        # connection.
        cfg = config("ni-cbs")

        def widened(bundle):
            return Multiproof(tuple(r + b"\x00" for r in bundle.results), bundle.digests)

        def shortened(bundle):
            return Multiproof(bundle.results, bundle.digests[:-1])

        async def scenario(forge):
            server = SupervisorServer(cfg, engine="threads", workers=2)
            try:
                reader, writer = server.connect_memory()
                await write_frame(writer, TaskRequest(participant=0))
                assign = await read_frame(reader)
                task_id = assign.assign.task_id
                honest = NICBSParticipant(
                    server.sessions.peek(task_id).assignment,
                    HonestBehavior(),
                    n_samples=cfg.n_samples,
                ).compute_and_submit()
                hostile = dataclasses.replace(honest, bundle=forge(honest.bundle))
                await write_frame(writer, SubmissionFrame(msg=hostile))
                reply = await read_frame(reader)
                writer.close()
                return reply, task_id, server
            finally:
                await server.stop()

        for forge, reason in (
            (widened, RejectReason.MALFORMED_PROOF),
            (shortened, RejectReason.MALFORMED_PROOF),
        ):
            reply, task_id, server = asyncio.run(scenario(forge))
            assert isinstance(reply, VerdictFrame)
            assert not reply.msg.accepted
            assert reply.msg.reason == reason.value
            # Not parked in VERIFYING: the session is gone, its verdict
            # recorded.
            assert server.sessions.active == 0
            outcome = server.outcomes[task_id]
            assert outcome.reason == reason
            assert server.registry.sum_values("repro_errors_total") == 0

    @pytest.mark.parametrize("protocol", ["cbs", "ni-cbs"])
    @pytest.mark.parametrize(
        "envelope",
        [
            {"n_leaves": +1},
            {"n_leaves": -1},
            {"root": b"\x00" * 8},
        ],
        ids=["n_leaves+1", "n_leaves-1", "8-byte-root"],
    )
    def test_an_envelope_of_another_shape_is_refused_before_the_claim(
        self, protocol, envelope
    ):
        """A CBS commitment or an NI-CBS submission whose leaf count or
        root width is not the slot's is refused where it arrives: an
        error frame, its session still ASSIGNED and no verification
        counted.  Refused from inside the verify job, the session would
        read VERIFYING until the TTL swept it."""
        cfg = config(protocol)

        async def scenario():
            server = SupervisorServer(cfg, engine="threads", workers=2)
            try:
                # One honest round first, so the counter has moved once.
                client = ServiceClient(*server.connect_memory())
                assert (await client.run_participant(
                    HonestBehavior(), participant=1
                )).accepted
                await client.close()
                counted = server.registry.value("repro_verifications_total")
                reader, writer = server.connect_memory()
                await write_frame(writer, TaskRequest(participant=0))
                assign = await read_frame(reader)
                participant = frame_participant(
                    protocol, assign, HonestBehavior()
                )
                if protocol == "cbs":
                    msg, wrap = participant.compute_and_commit(), CommitmentFrame
                else:
                    msg, wrap = participant.compute_and_submit(), SubmissionFrame
                n_leaves = msg.n_leaves + envelope.get("n_leaves", 0)
                root = envelope.get("root", msg.root)
                hostile = dataclasses.replace(msg, n_leaves=n_leaves, root=root)
                await write_frame(writer, wrap(msg=hostile))
                reply = await read_frame(reader)
                writer.close()
                session = server.sessions.peek(assign.assign.task_id)
                return reply, session.state, counted, server
            finally:
                await server.stop()

        reply, state, counted, server = asyncio.run(scenario())
        assert isinstance(reply, ErrorFrame)
        assert "covers" in reply.message or "root digest" in reply.message
        assert state is SessionState.ASSIGNED
        assert counted == 1
        assert server.registry.value("repro_verifications_total") == counted

    def test_hostile_bytes_close_the_connection_not_the_server(self):
        cfg = config("ni-cbs")

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            try:
                reader, writer = server.connect_memory()
                writer.write(b"\x00\x00\x00\x05notjs")
                reply = await read_frame(reader)
                assert isinstance(reply, ErrorFrame)
                assert await read_frame(reader) is None  # connection closed

                # The server is still alive for well-behaved clients.
                client = ServiceClient(*server.connect_memory())
                run = await client.run_participant(
                    HonestBehavior(), participant=0
                )
                await client.close()
                return run
            finally:
                await server.stop()

        run = asyncio.run(scenario())
        assert run.accepted


class TestEvictionIntegration:
    def test_evict_racing_inflight_commitment_yields_error_frame(self):
        """TTL eviction between challenge and proofs: the straggler's
        proofs get a clean ``error`` frame (unknown task), never a
        KeyError, and the server keeps serving."""
        cfg = config("cbs", n_participants=1)
        now = [0.0]

        async def scenario():
            server = SupervisorServer(
                cfg, engine="serial", session_ttl=10.0, clock=lambda: now[0]
            )
            try:
                reader, writer = server.connect_memory()
                await write_frame(writer, TaskRequest(participant=0))
                session = cbs_participant(
                    await read_frame(reader), HonestBehavior()
                )
                await write_frame(
                    writer, CommitmentFrame(msg=session.compute_and_commit())
                )
                challenge = await read_frame(reader)

                # The participant stalls past the TTL; the sweeper (here
                # driven by hand through the injected clock) reclaims
                # the committed session while its proofs are in flight.
                now[0] += 11.0
                assert server.sessions.evict_stale() == ["task-0"]

                await write_frame(
                    writer, ProofsFrame(msg=session.prove(challenge.msg))
                )
                reply = await read_frame(reader)
                writer.close()

                # The server survived: the slot is reassignable and a
                # fresh round completes.
                client = ServiceClient(*server.connect_memory())
                rerun = await client.run_participant(
                    HonestBehavior(), participant=0
                )
                await client.close()
                return reply, rerun, server
            finally:
                await server.stop()

        reply, rerun, server = asyncio.run(scenario())
        assert isinstance(reply, ErrorFrame)
        assert "unknown task" in reply.message
        assert server.registry.sum_values("repro_errors_total") == 1
        assert rerun.accepted

    def test_verdict_for_an_evicted_session_never_lands_on_the_next(
        self, monkeypatch
    ):
        """A's cheating submission is held mid-verification while its
        session is evicted and B takes the slot.  When A's job finishes,
        A gets an error frame; B's session is untouched and B's honest
        submission is verified."""
        cfg = config("ni-cbs", n_participants=1)
        now = [0.0]
        entered, release = threading.Event(), threading.Event()

        def held(*args):
            entered.set()
            assert release.wait(timeout=10.0)
            return verification_jobs.verify_round(*args)

        monkeypatch.setattr(sessions_module, "verify_round", held)

        async def submit(reader, writer, behavior):
            await write_frame(writer, TaskRequest(participant=0))
            submission = nicbs_participant(
                await read_frame(reader), behavior
            ).compute_and_submit()
            await write_frame(writer, SubmissionFrame(msg=submission))

        async def scenario():
            server = SupervisorServer(
                cfg, engine="threads", workers=2, session_ttl=10.0,
                clock=lambda: now[0],
            )
            try:
                a_reader, a_writer = server.connect_memory()
                await submit(a_reader, a_writer, SemiHonestCheater(0.5))
                while not entered.is_set():
                    await asyncio.sleep(0.001)
                now[0] += 11.0
                assert server.sessions.evict_stale() == ["task-0"]
                b_reader, b_writer = server.connect_memory()
                await write_frame(b_writer, TaskRequest(participant=0))
                b_assign = await read_frame(b_reader)
                release.set()
                a_reply = await read_frame(a_reader)
                b_submission = nicbs_participant(
                    b_assign, HonestBehavior()
                ).compute_and_submit()
                await write_frame(b_writer, SubmissionFrame(msg=b_submission))
                b_reply = await read_frame(b_reader)
                a_writer.close()
                b_writer.close()
                return a_reply, b_reply, server
            finally:
                release.set()
                await server.stop()

        a_reply, b_reply, server = asyncio.run(scenario())
        assert isinstance(a_reply, ErrorFrame)
        assert "evicted during verification" in a_reply.message
        assert isinstance(b_reply, VerdictFrame) and b_reply.msg.accepted
        assert server.outcomes["task-0"].accepted
        assert server.registry.value("repro_verifications_total") == 1

    def test_abandoned_session_evicted_then_slot_reusable(self):
        cfg = config("cbs", n_participants=1)

        async def scenario():
            server = SupervisorServer(
                cfg, engine="serial", session_ttl=0.05
            )
            try:
                # Claim the slot, then abandon the connection mid-round.
                client = ServiceClient(*server.connect_memory())
                await client.request_task(participant=0)
                await client.close()

                await asyncio.sleep(0.2)  # > ttl: the sweeper fires
                assert server.registry.value(
                    "repro_sessions_total", event="evicted"
                ) == 1

                # The slot is assignable again; the rerun completes.
                client = ServiceClient(*server.connect_memory())
                run = await client.run_participant(
                    HonestBehavior(), participant=0
                )
                await client.close()
                return run
            finally:
                await server.stop()

        run = asyncio.run(scenario())
        assert run.accepted


class TestConfigValidation:
    def test_bad_protocol_rejected(self):
        with pytest.raises(ProtocolError):
            ServiceConfig(domain=RangeDomain(0, 8), protocol="carrier-pigeon")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError):
            ServiceConfig(domain=RangeDomain(0, 8), workload="MiningRig")

    def test_non_range_domain_rejected(self):
        from repro.tasks import ExplicitDomain

        with pytest.raises(ProtocolError):
            ServiceConfig(domain=ExplicitDomain([1, 2, 3]))

    def test_seed_whose_children_overflow_the_assign_frame_rejected(self):
        """Participant i gets ``derive_seed(seed, i)``; the assign frame
        carries it as a uint below 2**63.  A master seed whose last
        child does not fit used to start cleanly and then have every
        client refuse its assignment."""
        from repro.engine import derive_seed
        from repro.service.codec import ASSIGN_SEED

        domain = RangeDomain(0, 64)
        edge = ASSIGN_SEED.hi // derive_seed(1, 0)  # largest seed with room
        fits = ServiceConfig(domain=domain, n_participants=4, seed=edge)
        assert derive_seed(fits.seed, 3) <= ASSIGN_SEED.hi
        for seed, n in ((edge + 1, 1), (10**13, 4), (-1, 1)):
            with pytest.raises(ProtocolError, match="assign frame"):
                ServiceConfig(domain=domain, n_participants=n, seed=seed)
        # The last child, not the first, decides.
        tight = ASSIGN_SEED.hi - derive_seed(edge, 0)
        ServiceConfig(domain=domain, n_participants=tight + 1, seed=edge)
        with pytest.raises(ProtocolError, match="assign frame"):
            ServiceConfig(domain=domain, n_participants=tight + 2, seed=edge)
