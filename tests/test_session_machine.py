"""Property test for the supervisor's session core: every frame, in any
order, against a model.

A hypothesis ``RuleBasedStateMachine`` drives a bare
:class:`~repro.service.sessions.SupervisorCore` — fake clock, two
slots, no loop, no socket, no bytes — through what a hostile population
can do to it: task requests (next free slot, a named slot, a slot out of
range), each slot's commitment, proofs and submission in either
protocol mode, for live, replayed, never-assigned and evicted task ids
(and ids naming no slot at all), held verifications run in any order,
the clock moving and the sweeper's ``evict_stale``.  Slot *i* sends the
frames its participant under ``STRATEGIES[i]`` really produced.

The model predicts, for every call, whether the core answers or
refuses.  Checked after every step:

* :class:`~repro.exceptions.ProtocolError` is the only refusal, and the
  core refuses exactly when the model does;
* each slot records at most one verdict, and it equals the scheme
  layer's for that slot's behaviour and seed — a verification that
  outlived its session (evicted mid-verify, the slot taken again) is
  refused, never recorded against the slot's next session;
* a slot's state byte is live iff its session is in the store, and
  ``repro_sessions_active`` equals ``active``;
* no session idle past the TTL survives an eviction, and none younger
  is evicted.

The default hypothesis profile keeps this small for tier-1; CI's
service job runs it under ``HYPOTHESIS_PROFILE=ci`` (see conftest).

:class:`TestCoresPlayEachOther` plays the same core against each slot's
:class:`~repro.service.client.ParticipantCore`, again with no loop and
no socket: every slot ends as ``scheme.run`` does at its seed.
"""

import dataclasses
import functools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine.seeding import slot_behavior, slot_task
from repro.exceptions import ProtocolError
from repro.service.client import ParticipantCore
from repro.service.codec import (
    ChallengeFrame,
    TaskAssign,
    TaskRequest,
    VerdictFrame,
    resolve_workload,
)
from repro.service.sessions import (
    _DONE,
    _FREE,
    _LIVE,
    SessionStore,
    SupervisorCore,
    Verify,
    task_name,
)

from test_service_server import STRATEGIES, config, play_cores, sync_outcomes
from test_service_sessions import FakeClock

N_SLOTS = 2
TTL = 10.0
#: Task ids no slot owns: past the last slot, and not task_name's form.
BOGUS_IDS = (task_name(N_SLOTS), "task-01", "nobody")


@functools.cache
def slot_frames() -> list[dict[str, object]]:
    """Slot *i*'s commitment, proofs and submission under
    ``STRATEGIES[i]``, as its participant core produces them."""
    core = SupervisorCore(config("cbs", n_participants=N_SLOTS))
    frames = []
    for slot in range(N_SLOTS):
        assign = core.receive(TaskRequest(participant=slot))
        cbs = ParticipantCore(assign, STRATEGIES[slot])
        commitment = cbs.open()
        ni_cbs = ParticipantCore(
            dataclasses.replace(assign, protocol="ni-cbs"), STRATEGIES[slot]
        )
        frames.append({
            "commit": commitment,
            "prove": cbs.receive(core.receive(commitment)),
            "submit": ni_cbs.open(),
        })
    return frames


@functools.cache
def scheme_outcomes(protocol: str):
    """The scheme layer's outcome for each slot, by task id."""
    return sync_outcomes(config(protocol, n_participants=N_SLOTS), STRATEGIES)


class SessionMachine(RuleBasedStateMachine):
    """Interactive CBS; :class:`NICBSSessionMachine` runs NI-CBS.  One
    machine per mode, so each gets the whole example budget."""

    protocol = "cbs"

    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        self.core = SupervisorCore(
            config(self.protocol, n_participants=N_SLOTS),
            SessionStore(ttl=TTL, clock=self.clock),
        )
        # The model: each slot's state, how often it was assigned (a
        # held Verify belongs to one assignment), the auto-assign
        # cursor, the verifications claimed and not yet run, and the
        # verdicts recorded.
        self.state = ["free"] * N_SLOTS
        self.generation = [0] * N_SLOTS
        self.cursor = 0
        self.held: list[tuple[int, int, Verify]] = []
        self.verdicts: dict[int, object] = {}

    # -- plumbing --------------------------------------------------------

    def call(self, refused: bool, method, *args):
        """``method(*args)``; ``None`` if it refused, and the model must
        have said so.  Anything but a ProtocolError fails the test."""
        try:
            result = method(*args)
        except ProtocolError:
            assert refused, f"refused against the model: {args}"
            return None
        assert not refused, f"accepted against the model: {args}"
        return result

    def frame(self, kind: str, data) -> tuple[int | None, object]:
        """Slot *i*'s ``kind`` frame for any slot, or one whose task id
        names no slot (``None``)."""
        slot = data.draw(st.integers(0, N_SLOTS), label="slot")
        frame = slot_frames()[slot % N_SLOTS][kind]
        if slot < N_SLOTS:
            return slot, frame
        task_id = data.draw(st.sampled_from(BOGUS_IDS), label="task id")
        return None, type(frame)(dataclasses.replace(frame.msg, task_id=task_id))

    def assigned(self, slot: int, reply) -> None:
        assert isinstance(reply, TaskAssign) and reply.participant == slot
        assert reply.assign.task_id == task_name(slot)
        self.state[slot] = "assigned"
        self.generation[slot] += 1

    # -- rules -----------------------------------------------------------

    @rule(slot=st.none() | st.integers(0, N_SLOTS))
    def request(self, slot: int | None) -> None:
        """The next free slot (``None``), a named one, or the one past
        the last."""
        if slot is None:
            free = [s for s in range(N_SLOTS) if self.state[s] == "free"]
            ahead = [s for s in free if s >= self.cursor]
            reply = self.call(not free, self.core.receive, TaskRequest())
            if free:
                slot = (ahead or free)[0]
                self.cursor = slot + 1
                self.assigned(slot, reply)
            return
        refused = slot >= N_SLOTS or self.state[slot] != "free"
        reply = self.call(
            refused, self.core.receive, TaskRequest(participant=slot)
        )
        if not refused:
            self.assigned(slot, reply)

    @rule(kind=st.sampled_from(["commit", "prove", "submit"]), data=st.data())
    def send(self, kind: str, data) -> None:
        """A slot's commitment, proofs or submission, whatever its state
        and the protocol mode."""
        slot, frame = self.frame(kind, data)
        state = None if slot is None else self.state[slot]
        if kind == "commit":
            refused = state != "assigned" or self.protocol != "cbs"
            reply = self.call(refused, self.core.receive, frame)
            if not refused:
                assert isinstance(reply, ChallengeFrame)
                assert reply.msg.task_id == task_name(slot)
                self.state[slot] = "committed"
        elif kind == "prove":
            self.claim(slot, frame, state != "committed")
        else:
            self.claim(
                slot, frame, state != "assigned" or self.protocol != "ni-cbs"
            )

    def claim(self, slot: int | None, frame, refused: bool) -> None:
        verify = self.call(refused, self.core.receive, frame)
        if not refused:
            assert isinstance(verify, Verify)
            assert verify.session.task_id == task_name(slot)
            self.state[slot] = "verifying"
            self.held.append((slot, self.generation[slot], verify))

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def run_held(self, data) -> None:
        """Any claimed verification finishes; it counts only if its
        session is still the slot's."""
        index = data.draw(st.integers(0, len(self.held) - 1), label="held")
        slot, generation, verify = self.held.pop(index)
        current = (
            self.generation[slot] == generation
            and self.state[slot] == "verifying"
        )
        outcome = verify.job(*verify.args)
        reply = self.call(not current, self.core.verdict, verify, outcome)
        if current:
            assert slot not in self.verdicts, f"slot {slot} verified twice"
            assert outcome == scheme_outcomes(self.protocol)[task_name(slot)]
            assert isinstance(reply, VerdictFrame)
            assert reply.msg.task_id == task_name(slot)
            assert reply.msg.accepted == outcome.accepted
            self.verdicts[slot] = outcome
            self.state[slot] = "done"

    @rule(seconds=st.sampled_from([1.0, TTL + 1]), sweep=st.booleans())
    def time_passes(self, seconds: float, sweep: bool) -> None:
        """The clock moves; then, maybe, the sweeper runs: every session
        idle past the TTL goes, and no other."""
        self.clock.advance(seconds)
        if not sweep:
            return
        store = self.core.sessions
        now = self.clock()
        idle = {
            task_name(slot): now - store.peek(task_name(slot)).touched_at
            for slot in range(N_SLOTS)
            if store.peek(task_name(slot)) is not None
        }
        evicted = store.evict_stale()
        assert sorted(evicted) == sorted(
            task_id for task_id, age in idle.items() if age > TTL
        )
        for task_id in evicted:
            slot = int(task_id.removeprefix("task-"))
            assert self.state[slot] in ("assigned", "committed", "verifying")
            self.state[slot] = "free"

    # -- invariants ------------------------------------------------------

    @invariant()
    def slot_bytes_match_the_store_and_the_model(self) -> None:
        store = self.core.sessions
        for slot in range(N_SLOTS):
            live = store.peek(task_name(slot)) is not None
            byte = store._state(slot)
            assert (byte == _LIVE) == live
            expected = {"free": _FREE, "done": _DONE}.get(
                self.state[slot], _LIVE
            )
            assert byte == expected, (slot, self.state[slot], byte)
        registry = store.registry
        assert registry.value("repro_sessions_active") == store.active
        assert store.active == sum(
            state in ("assigned", "committed", "verifying")
            for state in self.state
        )

    @invariant()
    def verdicts_are_the_scheme_layers(self) -> None:
        expected = scheme_outcomes(self.protocol)
        assert self.core.sessions.outcomes == {
            task_name(slot): expected[task_name(slot)] for slot in self.verdicts
        }
        assert self.core.sessions.registry.value(
            "repro_verifications_total"
        ) == len(self.verdicts)


class NICBSSessionMachine(SessionMachine):
    protocol = "ni-cbs"


TestCBSSessions = SessionMachine.TestCase
TestCBSSessions.settings = settings(
    settings(), stateful_step_count=40, deadline=None
)
TestNICBSSessions = NICBSSessionMachine.TestCase
TestNICBSSessions.settings = TestCBSSessions.settings


class TestCoresPlayEachOther:
    @pytest.mark.parametrize("protocol", ["cbs", "ni-cbs"])
    def test_every_slot_ends_as_scheme_run_does(self, protocol):
        """A bare :class:`SupervisorCore` against each slot's
        :class:`ParticipantCore`, no loop and no socket, under every
        strategy: each slot's verdict, ground truth and participant
        ledger are ``scheme.run``'s at the slot's seed."""
        cfg = config(protocol, n_participants=2 * len(STRATEGIES))
        runs, _outcomes = play_cores(cfg, STRATEGIES)
        function = resolve_workload(cfg.workload)
        for slot, run in enumerate(runs):
            assignment, seed = slot_task(
                slot, cfg.n_participants, cfg.domain, function, cfg.seed
            )
            expected = cfg.scheme.run(
                assignment, slot_behavior(STRATEGIES, slot), seed=seed
            )
            assert run.task_id == task_name(slot)
            assert (run.accepted, run.reason) == (
                expected.outcome.accepted, expected.outcome.reason
            )
            assert run.honesty_ratio == expected.work.honesty_ratio
            assert run.ledger == expected.participant_ledger
