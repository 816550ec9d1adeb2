"""Session and commitment store for the supervisor service.

The GRACE supervisor (§4) is long-lived: millions of participants it
never meets take assignments, and some of them vanish mid-protocol —
after the commitment, before the proofs.  The store tracks every
task's assignment → commitment → outcome lifecycle, rejects protocol
replays (duplicate ``task_id``s, second commitments, anything after
the verdict), and evicts abandoned sessions after a TTL so a slow-loris
population cannot pin supervisor memory forever.

It holds what is in flight, not what it has ever served: a
:class:`Session` lives in the store from its assignment to its verdict
and no longer.  What outlasts the verdict is one state byte per slot
(free / live / done — exactly-once assignment and the "already
verified" answer to a replay), the lifecycle counters, and a ring of
the last :data:`RECENT_OUTCOMES` outcomes for inspection.

The store is event-loop-local state: the asyncio server mutates it
only from the loop thread, so no locking is needed.  Time is an
injectable monotonic clock, which is what makes eviction testable
without real sleeps.
"""

from __future__ import annotations

import enum
import re
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.core.protocol import CommitmentMsg, SampleChallengeMsg
from repro.core.scheme import VerificationOutcome
from repro.exceptions import ProtocolError
from repro.obs.metrics import MetricsRegistry
from repro.tasks.result import TaskAssignment


#: Outcomes :attr:`SessionStore.outcomes` can still show.  The durable
#: record of a verdict is its log line and its counters, not this ring.
RECENT_OUTCOMES = 256

# One byte per slot.  Slots past the end of the array were never
# touched and read as free, so a store costs nothing per unused slot.
_FREE, _LIVE, _DONE = 0, 1, 2

# What task_name produces, and nothing else: ASCII digits, no leading
# zeros, short enough for int() whatever an untrusted peer sends.
_TASK_ID = re.compile(r"task-(0|[1-9][0-9]{0,17})")


def task_name(slot: int) -> str:
    """The task id of participant slot ``slot``."""
    return f"task-{slot}"


def _slot_of(task_id: str) -> int | None:
    """Inverse of :func:`task_name`; ``None`` for any other string."""
    match = _TASK_ID.fullmatch(task_id)
    return int(match[1]) if match else None


class SessionState(enum.Enum):
    """Where one task sits in its verification lifecycle."""

    ASSIGNED = "assigned"    # assignment sent, nothing received yet
    COMMITTED = "committed"  # CBS commitment in, challenge issued
    VERIFYING = "verifying"  # proofs/submission in, worker verifying
    DONE = "done"            # verdict recorded, session released


@dataclass(slots=True)
class Session:
    """One task's lifecycle record, held from assignment to verdict.

    The store drops its reference when the verdict is recorded (or the
    TTL expires); only the slot's state byte remains.
    """

    task_id: str
    participant: int
    assignment: TaskAssignment
    seed: int
    protocol: str
    created_at: float
    touched_at: float
    state: SessionState = SessionState.ASSIGNED
    commitment: CommitmentMsg | None = None
    challenge: SampleChallengeMsg | None = None
    # Optional trace context the client sent with its task request;
    # every log record and verdict for this task carries these ids.
    trace_id: str | None = None
    span_id: str | None = None


class SessionStore:
    """Live sessions, one state byte per slot, and the recent outcomes."""

    def __init__(
        self,
        ttl: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if ttl <= 0:
            raise ProtocolError(f"session ttl must be positive, got {ttl}")
        self.ttl = ttl
        self.clock = clock
        # A store owned by a server shares the server's registry; a
        # standalone store gets a private one so embedded/test uses
        # stay exactly-counted and isolated.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._events = self.registry.counter(
            "repro_sessions_total",
            "Session lifecycle events, by event kind",
            ("event",),
        )
        # Moved where the live dict changes, so a scrape reads it true
        # without anyone having asked for a snapshot first.
        self._active = self.registry.gauge(
            "repro_sessions_active", "Sessions currently mid-protocol"
        )
        self._sessions: dict[str, Session] = {}
        self._slots = bytearray()
        self._recent: deque[VerificationOutcome] = deque(
            maxlen=RECENT_OUTCOMES
        )

    def _state(self, slot: int) -> int:
        return self._slots[slot] if 0 <= slot < len(self._slots) else _FREE

    def _finished(self, task_id: str) -> bool:
        slot = _slot_of(task_id)
        return slot is not None and self._state(slot) == _DONE

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def first_free(self, start: int, stop: int) -> int | None:
        """The lowest free slot in ``[start, stop)``, or ``None``."""
        found = self._slots.find(_FREE, start, stop)
        if found < 0:
            found = max(start, len(self._slots))
        return found if found < stop else None

    def create(
        self,
        task_id: str,
        participant: int,
        assignment: TaskAssignment,
        seed: int,
        protocol: str,
        trace_id: str | None = None,
        span_id: str | None = None,
    ) -> Session:
        """Open slot ``participant``'s session; a slot is assigned once.

        A live or finished slot is refused (and counted); an evicted,
        unfinished one is free again.
        """
        if task_id in self._sessions or self._state(participant) != _FREE:
            self._events.labels(event="rejected_duplicate").inc()
            raise ProtocolError(f"task {task_id!r} already assigned")
        if participant < 0 or task_id != task_name(participant):
            raise ProtocolError(
                f"task {task_id!r} does not name slot {participant}"
            )
        now = self.clock()
        session = Session(
            task_id=task_id,
            participant=participant,
            assignment=assignment,
            seed=seed,
            protocol=protocol,
            created_at=now,
            touched_at=now,
            trace_id=trace_id,
            span_id=span_id,
        )
        if participant >= len(self._slots):
            self._slots.extend(bytes(participant + 1 - len(self._slots)))
        self._slots[participant] = _LIVE
        self._sessions[task_id] = session
        self._events.labels(event="created").inc()
        self._active.inc()
        return session

    def peek(self, task_id: str) -> Session | None:
        """Look up a live session without touching its TTL clock."""
        return self._sessions.get(task_id)

    def get(self, task_id: str) -> Session:
        """Look up a live session (evicted/unknown ids are equivalent)."""
        session = self._sessions.get(task_id)
        if session is None:
            if self._finished(task_id):
                raise ProtocolError(f"task {task_id!r} already verified")
            raise ProtocolError(f"unknown task {task_id!r}")
        # Monotone clamp: the clock is supposed to be monotonic, but an
        # injectable (or broken) one may jump backwards.  Letting
        # ``touched_at`` move back in time would make the session look
        # ancient the moment the clock recovers — and evict a live
        # participant mid-protocol.  Idle age may only shrink on touch.
        session.touched_at = max(session.touched_at, self.clock())
        return session

    def record_commitment(
        self,
        task_id: str,
        commitment: CommitmentMsg,
        challenge: SampleChallengeMsg,
    ) -> Session:
        """CBS step 1→2 transition; duplicate commitments are replays."""
        session = self.get(task_id)
        if session.state is not SessionState.ASSIGNED:
            raise ProtocolError(
                f"task {task_id!r} already has a commitment "
                f"(state {session.state.value})"
            )
        session.commitment = commitment
        session.challenge = challenge
        session.state = SessionState.COMMITTED
        return session

    def begin_verification(
        self, task_id: str, from_state: SessionState
    ) -> Session:
        """Claim a session for (possibly off-loop) verification.

        The transition happens *before* the expensive work is
        dispatched, so concurrent replays of the same proofs or
        submission fail fast here instead of each burning a worker
        slot on a full verification.
        """
        session = self.get(task_id)
        if session.state is not from_state:
            raise ProtocolError(
                f"task {task_id!r} not ready for verification "
                f"(state {session.state.value}, expected {from_state.value})"
            )
        session.state = SessionState.VERIFYING
        return session

    def record_outcome(
        self, task_id: str, outcome: VerificationOutcome
    ) -> Session:
        """Terminal transition: the verdict is in, the session goes.

        The slot's byte turns done — it is never assigned again and a
        replay is told so — and the outcome joins the recent ring.
        """
        session = self.get(task_id)
        del self._sessions[task_id]
        self._slots[session.participant] = _DONE
        session.state = SessionState.DONE
        self._recent.append(outcome)
        self._events.labels(event="completed").inc()
        self._active.dec()
        return session

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def evict_stale(self) -> list[str]:
        """Drop sessions idle past the TTL; return their ids.

        Every session in the store is unfinished, so this walks the
        work in flight and nothing else.  An evicted slot is free
        again: a participant returning after eviction sees ``unknown
        task``, exactly as if it had never been assigned.

        Ages are clamped at zero: a clock that jumped backwards makes
        sessions look *newer*, never older, so a live session can
        never be evicted by a negative age — it just gets a little
        extra grace until real time catches up.
        """
        now = self.clock()
        stale = [
            task_id
            for task_id, session in self._sessions.items()
            if max(0.0, now - session.touched_at) > self.ttl
        ]
        for task_id in stale:
            self._slots[self._sessions.pop(task_id).participant] = _FREE
        if stale:
            self._events.labels(event="evicted").inc(len(stale))
            self._active.dec(len(stale))
        return stale

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def outcomes(self) -> dict[str, VerificationOutcome]:
        """The last :data:`RECENT_OUTCOMES` verdicts, by task id."""
        return {outcome.task_id: outcome for outcome in self._recent}

    @property
    def active(self) -> int:
        """Sessions still mid-protocol — all the store holds."""
        return len(self._sessions)

    def __contains__(self, task_id: str) -> bool:
        """Whether ``task_id`` is assigned: live or finished."""
        return task_id in self._sessions or self._finished(task_id)
