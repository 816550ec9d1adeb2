"""Tests for the asyncio supervisor server (repro.service.server).

The headline property is end-to-end parity: the service at a fixed
seed must produce the exact per-task ``VerificationOutcome``s of the
synchronous scheme layer (``GridSimulation`` job semantics) and of the
actor-based ``SupervisorNode`` topology (given the same per-task seed
rule), with sessions interleaved across concurrent connections in any
order.
"""

import asyncio
import dataclasses
import threading

import pytest

from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme, NICBSScheme
from repro.core.ni_cbs import NICBSParticipant
from repro.core.protocol import CommitmentMsg, NICBSSubmissionMsg
from repro.core.scheme import RejectReason
from repro.engine import SerialExecutor, derive_seed, run_scheme_jobs
from repro.exceptions import CodecError, ProtocolError
from repro.grid import GridSimulation, Network, ParticipantNode, SimulationConfig, SupervisorNode
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
from repro.merkle.tree import LeafEncoding
from repro.obs.metrics import default_registry
from repro.obs.trace import bind_trace, new_trace_id
from repro.service import server as server_module
from repro.service import verification_jobs
from repro.service.codec import TaskAssign, TraceGetRequest
from repro.service.server import INLINE_BUDGET_S
from repro.tasks import PasswordSearch, RangeDomain

D = RangeDomain(0, 1 << 9)
BEHAVIORS = [HonestBehavior(), SemiHonestCheater(0.5)]


def config(protocol: str, n_participants: int = 6, m: int = 12) -> ServiceConfig:
    return ServiceConfig(
        domain=RangeDomain(D.start, D.stop),
        protocol=protocol,
        n_samples=m,
        n_participants=n_participants,
        seed=21,
    )


def sync_outcomes(cfg: ServiceConfig):
    """Reference outcomes from the synchronous scheme layer."""
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
            behaviors=BEHAVIORS,
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


CHEAP, DEAR = INLINE_BUDGET_S / 4, INLINE_BUDGET_S * 4


class TestPlacement:
    """Where a verification runs follows the cost the server measured."""

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
        over = INLINE_BUDGET_S * 1.0001
        _server, _runs, placed = self.place(
            monkeypatch, [INLINE_BUDGET_S, over, over]
        )
        assert placed == ["pool", "loop", "pool"]

    def test_one_slow_reading_moves_the_next_job_back_at_once(self, monkeypatch):
        # 1.05x the budget, then one free job: the estimate decays a
        # tenth of the way (0.945x) and the loop is allowed again.
        slow = 1.05 * INLINE_BUDGET_S
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
            return verification_jobs.verify_nicbs_job(*args)

        monkeypatch.setattr(server_module, "verify_nicbs_job", held)

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
                (task,) = server._conn_tasks
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
                (task,) = server._conn_tasks
                await asyncio.wait_for(task, timeout=30.0)
            finally:
                await server.stop()

        asyncio.run(scenario())
        assert processed == 1000
        assert set(lead) == {1}


class TestInterleavedCBS:
    def test_interleaved_rounds_match_supervisor_node(self):
        """Two clients interleave commit/prove arbitrarily; outcomes
        equal both the scheme layer and a synchronous SupervisorNode
        driven with the same per-task seed rule."""
        cfg = config("cbs", n_participants=2)

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            try:
                clients = [
                    ServiceClient(*server.connect_memory()) for _ in range(2)
                ]
                assigns = [
                    await clients[i].request_task(participant=i)
                    for i in range(2)
                ]
                from repro.core.cbs import CBSParticipant
                from repro.merkle import get_hash

                sessions = []
                for i, assign in enumerate(assigns):
                    session = CBSParticipant(
                        ServiceClient.build_assignment(assign),
                        BEHAVIORS[i % len(BEHAVIORS)],
                        hash_fn=get_hash(assign.hash_name),
                        salt=assign.seed.to_bytes(8, "big"),
                    )
                    sessions.append(session)

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

        # The actor topology agrees too, given the same seed rule.
        network = Network()
        supervisor = SupervisorNode(
            "supervisor",
            network,
            protocol="cbs",
            n_samples=cfg.n_samples,
            seed_fn=lambda task_id: derive_seed(
                cfg.seed, int(task_id.split("-")[1])
            ),
        )
        subdomains = cfg.domain.partition(cfg.n_participants)
        catalogue = {}
        for i, subdomain in enumerate(subdomains):
            from repro.tasks import TaskAssignment

            catalogue[f"task-{i}"] = TaskAssignment(
                f"task-{i}", subdomain, PasswordSearch()
            )
            ParticipantNode(
                f"p{i}",
                network,
                BEHAVIORS[i % len(BEHAVIORS)],
                catalogue.__getitem__,
                protocol="cbs",
                salt=derive_seed(cfg.seed, i).to_bytes(8, "big"),
            )
        for i in range(cfg.n_participants):
            supervisor.assign(catalogue[f"task-{i}"], f"p{i}")
        network.deliver_all()
        assert supervisor.outcomes == expected


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

    def test_unknown_task_submission_gets_error_frame(self):
        cfg = config("ni-cbs")
        replies, server = self.run_with_frames(
            cfg,
            [
                SubmissionFrame(
                    msg=NICBSSubmissionMsg(
                        task_id="task-999", root=b"\x00" * 32,
                        n_leaves=1, proofs=(),
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

    def test_submission_naming_another_leaf_encoding_gets_a_verdict(self):
        # The leaf-encoding code and the height ride once per bundle.
        # A bundle labelled RAW over 16-byte results used to make the
        # verifier raise out of the offloaded job (an error frame, and a
        # session parked in VERIFYING until the TTL swept it); a bundle
        # one level short of the commitment's height is the same kind
        # of lie.  Both get a verdict frame, never a dropped connection.
        cfg = config("ni-cbs")

        def relabelled(proof):
            return dataclasses.replace(
                proof,
                path=dataclasses.replace(
                    proof.path, leaf_encoding=LeafEncoding.RAW
                ),
            )

        def shortened(proof):
            return dataclasses.replace(
                proof,
                path=dataclasses.replace(
                    proof.path, siblings=proof.path.siblings[:-1]
                ),
            )

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
                # One header cannot say two things: a bundle that
                # mixes geometries has no encoding at all.
                mixed = dataclasses.replace(
                    honest, proofs=(forge(honest.proofs[0]),) + honest.proofs[1:]
                )
                with pytest.raises(CodecError):
                    mixed.encode()
                hostile = dataclasses.replace(
                    honest, proofs=tuple(map(forge, honest.proofs))
                )
                await write_frame(writer, SubmissionFrame(msg=hostile))
                reply = await read_frame(reader)
                writer.close()
                return reply, task_id, server
            finally:
                await server.stop()

        for forge in (relabelled, shortened):
            reply, task_id, server = asyncio.run(scenario(forge))
            assert isinstance(reply, VerdictFrame)
            assert not reply.msg.accepted
            assert reply.msg.reason == RejectReason.MALFORMED_PROOF.value
            # Not parked in VERIFYING: the session is gone, its verdict
            # recorded.
            assert server.sessions.active == 0
            outcome = server.outcomes[task_id]
            assert outcome.reason == RejectReason.MALFORMED_PROOF
            assert server.registry.sum_values("repro_errors_total") == 0

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
                assign = await read_frame(reader)

                from repro.core.cbs import CBSParticipant
                from repro.merkle import get_hash

                session = CBSParticipant(
                    ServiceClient.build_assignment(assign),
                    HonestBehavior(),
                    hash_fn=get_hash(assign.hash_name),
                    salt=assign.seed.to_bytes(8, "big"),
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
