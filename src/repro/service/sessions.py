"""Session and commitment store for the supervisor service.

The GRACE supervisor (§4) is long-lived: thousands of participants it
never meets take assignments, and some of them vanish mid-protocol —
after the commitment, before the proofs.  The store tracks every
task's assignment → commitment → outcome lifecycle, rejects protocol
replays (duplicate ``task_id``s, second commitments), and evicts
abandoned interactive sessions after a TTL so a slow-loris population
cannot pin supervisor memory forever.

The store is event-loop-local state: the asyncio server mutates it
only from the loop thread, so no locking is needed.  Time is an
injectable monotonic clock, which is what makes eviction testable
without real sleeps.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.protocol import CommitmentMsg, SampleChallengeMsg
from repro.core.scheme import VerificationOutcome
from repro.exceptions import ProtocolError
from repro.obs.metrics import MetricsRegistry
from repro.tasks.result import TaskAssignment


class SessionState(enum.Enum):
    """Where one task sits in its verification lifecycle."""

    ASSIGNED = "assigned"    # assignment sent, nothing received yet
    COMMITTED = "committed"  # CBS commitment in, challenge issued
    VERIFYING = "verifying"  # proofs/submission in, worker verifying
    DONE = "done"            # verdict recorded


@dataclass(slots=True)
class Session:
    """One task's lifecycle record.

    Completed sessions are retained for the life of the server (their
    outcomes are its product), so the record is slotted and drops its
    protocol state at ``DONE``.
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
    outcome: VerificationOutcome | None = None
    # Optional trace context the client sent with its task request;
    # every log record and verdict for this task carries these ids.
    trace_id: str | None = None
    span_id: str | None = None


class SessionStore:
    """Lifecycle store with TTL eviction for abandoned sessions."""

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
        self._sessions: dict[str, Session] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

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
        """Open a session; duplicate ``task_id``s are rejected."""
        if task_id in self._sessions:
            self._events.labels(event="rejected_duplicate").inc()
            raise ProtocolError(f"task {task_id!r} already assigned")
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
        self._sessions[task_id] = session
        self._events.labels(event="created").inc()
        return session

    def peek(self, task_id: str) -> Session | None:
        """Look up a session without touching its TTL clock."""
        return self._sessions.get(task_id)

    def get(self, task_id: str) -> Session:
        """Look up a live session (evicted/unknown ids are equivalent)."""
        session = self._sessions.get(task_id)
        if session is None:
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
        """Terminal transition: the verdict is in."""
        session = self.get(task_id)
        if session.state is SessionState.DONE:
            raise ProtocolError(f"task {task_id!r} already verified")
        session.outcome = outcome
        session.state = SessionState.DONE
        # Nothing reads the interactive state after the verdict.
        session.commitment = session.challenge = None
        self._events.labels(event="completed").inc()
        return session

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def evict_stale(self) -> list[str]:
        """Drop unfinished sessions idle past the TTL; return their ids.

        Completed sessions are kept — their outcomes are the service's
        product (the detection report) — only abandoned interactive
        state is reclaimed.  A participant returning after eviction
        sees ``unknown task``, exactly as if it had never been
        assigned.

        Ages are clamped at zero: a clock that jumped backwards makes
        sessions look *newer*, never older, so a live session can
        never be evicted by a negative age — it just gets a little
        extra grace until real time catches up.
        """
        now = self.clock()
        stale = [
            task_id
            for task_id, session in self._sessions.items()
            if session.state is not SessionState.DONE
            and max(0.0, now - session.touched_at) > self.ttl
        ]
        for task_id in stale:
            del self._sessions[task_id]
        if stale:
            self._events.labels(event="evicted").inc(len(stale))
        return stale

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def outcomes(self) -> dict[str, VerificationOutcome]:
        """Verdicts for every completed task."""
        return {
            task_id: session.outcome
            for task_id, session in self._sessions.items()
            if session.state is SessionState.DONE
            and session.outcome is not None
        }

    @property
    def active(self) -> int:
        """Sessions still mid-protocol."""
        return sum(
            1
            for session in self._sessions.values()
            if session.state is not SessionState.DONE
        )

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._sessions
