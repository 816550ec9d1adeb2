"""``serve`` holds what is in flight, not what it has ever served.

Three properties of :class:`~repro.service.server.SupervisorServer` and
its :class:`~repro.service.sessions.SessionStore`:

* memory is flat in sessions served (live dict empty after the last
  verdict, a fixed ring of outcomes, no traced growth);
* construction is O(1) in slots (no per-slot table);
* the one byte kept per slot still enforces exactly-once assignment,
  under any interleaving of requests, protocol frames, replays, time
  and sweeps — a hypothesis state machine against a dict model, driven
  through the wire and the store's public surface only.
"""

import asyncio
import gc
import time
import tracemalloc

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cheating import HonestBehavior
from repro.core.ni_cbs import NICBSParticipant
from repro.core.protocol import CommitmentMsg, ProofBundleMsg
from repro.service import (
    ChallengeFrame,
    CommitmentFrame,
    ErrorFrame,
    ProofsFrame,
    ServiceConfig,
    SubmissionFrame,
    SupervisorServer,
    TaskRequest,
    VerdictFrame,
    read_frame,
    write_frame,
)
from repro.service.codec import TaskAssign
from repro.service.sessions import RECENT_OUTCOMES, task_name
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment


class TestFlatMemory:
    def test_three_thousand_sessions_leave_nothing_behind(self):
        sessions, inputs = 3_000, 16
        cfg = ServiceConfig(
            domain=RangeDomain(0, sessions * inputs),
            protocol="ni-cbs",
            n_samples=16,
            n_participants=sessions,
        )

        # The participants' side, computed before tracing starts: what
        # is measured below is the supervisor and the wire.
        submissions = [
            NICBSParticipant(
                TaskAssignment(
                    task_name(i),
                    cfg.domain.part(i, sessions),
                    PasswordSearch(),
                ),
                HonestBehavior(),
                n_samples=cfg.n_samples,
            ).compute_and_submit()
            for i in range(sessions)
        ]

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            # Traced from the first session: the ring is full (and its
            # contents counted) well before the first reading.
            tracemalloc.start()
            try:
                for i, submission in enumerate(submissions):
                    if i == 500:
                        gc.collect()
                        before = tracemalloc.get_traced_memory()[0]
                    reader, writer = server.connect_memory()
                    await write_frame(writer, TaskRequest(participant=i))
                    assert isinstance(await read_frame(reader), TaskAssign)
                    await write_frame(writer, SubmissionFrame(msg=submission))
                    verdict = await read_frame(reader)
                    assert verdict.msg.accepted
                    writer.close()
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
                return server, grown
            finally:
                tracemalloc.stop()
                await server.stop()

        server, grown = asyncio.run(scenario())
        assert server.sessions.active == 0
        assert server.sessions.peek(task_name(sessions - 1)) is None
        assert len(server.outcomes) == RECENT_OUTCOMES == 256
        assert set(server.outcomes) == {
            task_name(i) for i in range(sessions - 256, sessions)
        }
        completed = server.registry.value(
            "repro_sessions_total", event="completed"
        )
        assert completed == sessions
        assert grown < 64 * 1024, f"{grown} bytes over 2 500 sessions"

    def test_a_million_slots_cost_nothing_to_construct(self):
        cfg = ServiceConfig(
            domain=RangeDomain(0, 64_000_000), n_participants=1_000_000
        )
        tracemalloc.start()
        try:
            started = time.perf_counter()
            server = SupervisorServer(cfg, engine="serial")
            elapsed = time.perf_counter() - started
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.050
        assert traced < 2 * 1024 * 1024
        # The last slot is as assignable as the first, and is the last
        # part of the partition: 64 inputs ending at the domain's end.
        assert server.sessions.first_free(0, cfg.n_participants) == 0
        assert cfg.domain.part(999_999, 1_000_000) == RangeDomain(
            63_999_936, 64_000_000
        )


SLOTS = 5
TTL = 10.0
FREE, ASSIGNED, COMMITTED, DONE = "free", "assigned", "committed", "done"


class SlotMachine(RuleBasedStateMachine):
    """Interactive CBS over the memory transport against a dict model.

    Nothing here proves anything: a well-formed commitment earns a
    challenge and an empty proof bundle earns a (rejecting) verdict,
    which is all a slot's lifecycle needs.
    """

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.loop = asyncio.new_event_loop()
        self.server = SupervisorServer(
            ServiceConfig(
                domain=RangeDomain(0, SLOTS * 8),
                protocol="cbs",
                n_samples=2,
                n_participants=SLOTS,
            ),
            engine="serial",
            session_ttl=TTL,
            clock=lambda: self.now,
        )
        self.state = {slot: FREE for slot in range(SLOTS)}
        self.touched: dict[int, float] = {}
        self.refused = 0

    def teardown(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()

    def ask(self, frame):
        """One frame on a fresh connection; the reply."""

        async def exchange():
            reader, writer = self.server.connect_memory()
            await write_frame(writer, frame)
            reply = await read_frame(reader)
            writer.close()
            return reply

        return self.loop.run_until_complete(exchange())

    def expect_error(self, reply, text: str) -> None:
        assert isinstance(reply, ErrorFrame), reply
        assert text in reply.message, reply.message

    def refusal(self, slot: int) -> str:
        """What a protocol frame for a slot with no live session hears."""
        return "already verified" if self.state[slot] == DONE else "unknown task"

    # -- rules ---------------------------------------------------------

    @rule(slot=st.integers(0, SLOTS - 1))
    def request_slot(self, slot):
        reply = self.ask(TaskRequest(participant=slot))
        if self.state[slot] == FREE:
            assert isinstance(reply, TaskAssign) and reply.participant == slot
            assert reply.assign.task_id == task_name(slot)
            self.state[slot], self.touched[slot] = ASSIGNED, self.now
        else:
            # Live or finished: refused, and counted.
            self.expect_error(reply, "already assigned")
            self.refused += 1

    @rule()
    def request_any(self):
        reply = self.ask(TaskRequest())
        if FREE in self.state.values():
            assert isinstance(reply, TaskAssign)
            slot = reply.participant
            assert self.state[slot] == FREE, (slot, self.state)
            self.state[slot], self.touched[slot] = ASSIGNED, self.now
        else:
            self.expect_error(reply, "no unassigned participant slots")

    @rule(slot=st.integers(0, SLOTS - 1))
    def commit(self, slot):
        reply = self.ask(
            CommitmentFrame(
                msg=CommitmentMsg(
                    task_id=task_name(slot), root=b"\x01" * 32, n_leaves=8
                )
            )
        )
        if self.state[slot] == ASSIGNED:
            assert isinstance(reply, ChallengeFrame)
            self.state[slot] = COMMITTED
            self.touched[slot] = self.now
        elif self.state[slot] == COMMITTED:
            self.expect_error(reply, "already has a commitment")
            self.touched[slot] = self.now
        else:
            self.expect_error(reply, self.refusal(slot))

    @rule(slot=st.integers(0, SLOTS - 1))
    def prove(self, slot):
        reply = self.ask(
            ProofsFrame(msg=ProofBundleMsg(task_id=task_name(slot), proofs=()))
        )
        if self.state[slot] == COMMITTED:
            assert isinstance(reply, VerdictFrame) and not reply.msg.accepted
            self.state[slot] = DONE
            del self.touched[slot]
        elif self.state[slot] == ASSIGNED:
            self.expect_error(reply, "not ready for verification")
            self.touched[slot] = self.now
        else:
            # After the verdict this is the replay: refused from the
            # slot's byte, no session left to consult.
            self.expect_error(reply, self.refusal(slot))

    @rule(seconds=st.sampled_from([1.0, 4.0, TTL + 1.0]))
    def time_passes(self, seconds):
        self.now += seconds

    @rule()
    def sweep(self):
        stale = sorted(
            slot
            for slot, touched in self.touched.items()
            if self.now - touched > TTL
        )
        evicted = self.server.sessions.evict_stale()
        assert sorted(evicted) == [task_name(slot) for slot in stale]
        for slot in stale:
            self.state[slot] = FREE
            del self.touched[slot]

    # -- invariants ----------------------------------------------------

    @invariant()
    def store_matches_model(self):
        store = self.server.sessions
        live = [s for s, state in self.state.items() if state in (ASSIGNED, COMMITTED)]
        assert store.active == len(live)
        registry = self.server.registry
        assert registry.value("repro_sessions_active") == len(live)
        for slot, state in self.state.items():
            name = task_name(slot)
            assert (name in store) == (state != FREE), (slot, state)
            assert (store.peek(name) is not None) == (slot in live), (slot, state)
        free = [s for s, state in self.state.items() if state == FREE]
        assert store.first_free(0, SLOTS) == (min(free) if free else None)
        assert set(self.server.outcomes) == {
            task_name(s) for s, state in self.state.items() if state == DONE
        }

    @invariant()
    def refusals_are_counted_exactly(self):
        counted = self.server.registry.value(
            "repro_sessions_total", event="rejected_duplicate"
        )
        assert counted == self.refused


TestSlotMachine = SlotMachine.TestCase
