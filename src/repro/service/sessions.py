"""The supervisor's session protocol: one synchronous core, no I/O.

The GRACE supervisor (§4) is long-lived: millions of participants it
never meets take assignments, and some of them vanish mid-protocol —
after the commitment, before the proofs.  :class:`SupervisorCore` holds
every rule of a round: slot choice, the state each frame requires, the
envelope check, the CBS challenge draw and verdict recording.  A frame
goes in; a reply frame, or a :class:`Verify` (one shape for CBS proofs
and NI-CBS submissions) for the caller to run and hand back to
:meth:`SupervisorCore.verdict`, comes out; every refusal is a
:class:`~repro.exceptions.ProtocolError`, raised before the session
moves.  It reads no socket, awaits nothing and runs no verification,
so tests drive it without an event loop;
:class:`~repro.service.server.SupervisorServer` is its asyncio shell.

Determinism is preserved end to end: slot ``i``'s task and seed come
from :func:`~repro.engine.seeding.slot_task`, the rule
:class:`~repro.grid.simulation.GridSimulation`'s job list is built
from, so a service run at a fixed seed produces byte-identical
:class:`~repro.core.scheme.VerificationOutcome`s to the synchronous
scheme layer (the parity tests pin this).  The rule is arithmetic on
``i``, done when slot ``i`` is requested: there is no per-slot table.

:class:`SessionStore` holds what is in flight, not what it has ever
served: a :class:`Session` lives from its assignment to its verdict
and no longer.  What outlasts the verdict is one state byte per slot
(free / live / done — exactly-once assignment and the "already
verified" answer to a replay), the lifecycle counters, and a ring of
the last :data:`RECENT_OUTCOMES` outcomes.  Sessions idle past a TTL
are evicted, so a slow-loris population cannot pin supervisor memory;
the slot is free again, and a verdict whose session was evicted while
it verified is refused, never recorded against the slot's next
session.

The core is event-loop-local state: the shell calls it only from the
loop thread, so no locking is needed.  Time is the store's injectable
monotonic clock, which makes eviction testable without real sleeps.
"""

from __future__ import annotations

import enum
import functools
import logging
import re
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.core.cbs import CBSScheme, CBSSupervisor
from repro.core.protocol import AssignMsg, CommitmentMsg, VerdictMsg
from repro.core.scheme import VerificationOutcome
from repro.engine.seeding import check_derived_seeds, slot_task, task_name
from repro.exceptions import ProtocolError
from repro.merkle.tree import LeafEncoding
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry
from repro.service.codec import (
    ASSIGN_SEED,
    SERVICE_HASH,
    ChallengeFrame,
    CommitmentFrame,
    Frame,
    ProofsFrame,
    SubmissionFrame,
    TaskAssign,
    TaskRequest,
    VerdictFrame,
    resolve_scheme,
    resolve_workload,
)
from repro.service.verification_jobs import verify_round
from repro.tasks.domain import RangeDomain
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

_log = get_logger("service")


def _slot_of(task_id: str) -> int | None:
    """Inverse of :func:`task_name`; ``None`` for any other string."""
    match = _TASK_ID.fullmatch(task_id)
    return int(match[1]) if match else None


@dataclass
class ServiceConfig:
    """Everything one service deployment needs.

    Mirrors :class:`~repro.grid.simulation.SimulationConfig` minus the
    behaviours (those live client-side, where cheating happens): the
    global domain is partitioned across ``n_participants`` slots as
    :func:`~repro.engine.seeding.slot_task` cuts them, and every slot plays
    :attr:`scheme`'s round, whose parameters the assign frame ships to
    clients.  Only a :class:`~repro.tasks.domain.RangeDomain` travels
    over the wire: clients rebuild their subdomain from two integers,
    which is also how real grids describe work units (key ranges,
    chunk ids).
    """

    domain: RangeDomain
    workload: str = "PasswordSearch"
    protocol: str = "ni-cbs"
    n_samples: int = 16
    n_participants: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        self.scheme  # fail fast on an unknown protocol
        if not isinstance(self.domain, RangeDomain):
            raise ProtocolError(
                "the service ships domain bounds on the wire; only "
                f"RangeDomain is supported, got {type(self.domain).__name__}"
            )
        if self.n_participants < 1:
            raise ProtocolError(
                f"n_participants must be >= 1, got {self.n_participants}"
            )
        resolve_workload(self.workload)  # fail fast on unknown kernels
        # Participant i is assigned derive_seed(seed, i): the encoder
        # trusts its caller, so a child outside the assign frame's seed
        # field would be refused by every client, one session at a time.
        check_derived_seeds(
            self.seed, self.n_participants, ASSIGN_SEED.lo, ASSIGN_SEED.hi,
            f"the assign frame's {ASSIGN_SEED.lo}..{ASSIGN_SEED.hi}", ProtocolError,
        )

    @functools.cached_property
    def scheme(self) -> CBSScheme:
        """The scheme whose round every slot plays."""
        return resolve_scheme(
            self.protocol, self.n_samples, SERVICE_HASH, SERVICE_HASH,
            LeafEncoding.HASHED.value,
        )


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
    touched_at: float
    state: SessionState = SessionState.ASSIGNED
    commitment: CommitmentMsg | None = None
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
        protocol: str | None = None,  # unread; benchmarks/ledger passes it
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
        session = Session(
            task_id=task_id,
            participant=participant,
            assignment=assignment,
            seed=seed,
            touched_at=self.clock(),
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
        challenge=None,  # unread; benchmarks/ledger passes it
    ) -> Session:
        """CBS step 1→2 transition; duplicate commitments are replays."""
        session = self.get(task_id)
        if session.state is not SessionState.ASSIGNED:
            raise ProtocolError(
                f"task {task_id!r} already has a commitment "
                f"(state {session.state.value})"
            )
        session.commitment = commitment
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


class Verify(NamedTuple):
    """A claimed session's verification: run ``job(*args)``, then hand
    the outcome to :meth:`SupervisorCore.verdict` with this value."""

    session: Session
    job: Callable[..., VerificationOutcome]
    args: tuple


class SupervisorCore:
    """The supervisor's side of every session, as synchronous calls."""

    def __init__(
        self, config: ServiceConfig, sessions: SessionStore | None = None
    ) -> None:
        self.config = config
        self.sessions = sessions if sessions is not None else SessionStore()
        self._verifications = self.sessions.registry.counter(
            "repro_verifications_total", "Verifications completed"
        )
        self._function = resolve_workload(config.workload)
        # Slot subdomains are cut when requested; a domain with fewer
        # inputs than slots still fails here, not at the first request.
        config.domain.part(0, config.n_participants)
        # Where auto-assignment looks next; slots behind it are taken
        # unless eviction freed them.
        self._cursor = 0

    def trace_for(self, frame: Frame) -> tuple[str | None, str | None]:
        """The trace context a frame belongs to.

        A task request carries its own ids; protocol frames inherit
        the ids their session was opened with (looked up without
        touching the TTL clock — unknown tasks fail in :meth:`receive`).
        """
        if isinstance(frame, TaskRequest):
            return frame.trace_id, frame.span_id
        task_id = getattr(getattr(frame, "msg", None), "task_id", None)
        session = self.sessions.peek(task_id)
        return (session.trace_id, session.span_id) if session else (None, None)

    def receive(self, frame: Frame) -> Frame | Verify:
        """A task request or commitment's reply frame, or the
        :class:`Verify` that proofs or a submission claim.  An envelope
        is checked before its session moves: a refused one stays put."""
        if isinstance(frame, TaskRequest):
            return self._assign(frame)
        if isinstance(frame, CommitmentFrame):
            return self._challenge(frame.msg)
        if isinstance(frame, ProofsFrame):
            session = self.sessions.begin_verification(
                frame.msg.task_id, SessionState.COMMITTED
            )
            messages = (session.commitment, frame.msg)
        elif isinstance(frame, SubmissionFrame):
            if self.config.protocol != "ni-cbs":
                raise ProtocolError("one-shot submissions only arrive in NI-CBS")
            messages = (frame.msg,)
            task_id = frame.msg.task_id
            self._supervisor(self.sessions.get(task_id)).check(frame.msg)
            session = self.sessions.begin_verification(
                task_id, SessionState.ASSIGNED
            )
        else:
            raise ProtocolError(
                f"unexpected frame {type(frame).__name__} at the supervisor"
            )
        return Verify(session, verify_round, (
            self.config.scheme, session.assignment, session.seed, *messages,
        ))

    def verdict(
        self, verify: Verify, outcome: VerificationOutcome
    ) -> VerdictFrame:
        """Record ``verify``'s outcome; its verdict frame goes back.

        Only while the claimed session is still the slot's: one evicted
        mid-verification may have been reassigned, and its outcome must
        not land on the newcomer.
        """
        session = verify.session
        task_id = session.task_id
        if self.sessions.peek(task_id) is not session:
            raise ProtocolError(f"task {task_id!r} evicted during verification")
        self.sessions.record_outcome(task_id, outcome)
        self._verifications.inc()
        msg = VerdictMsg.of(outcome)
        log_event(_log, "verdict", task_id=task_id,
                  participant=session.participant,
                  outcome=msg.reason or "accepted")
        return VerdictFrame(msg=msg)

    def _assign(self, request: TaskRequest) -> TaskAssign:
        config, scheme = self.config, self.config.scheme
        n_slots = config.n_participants
        if request.participant is not None:
            index = request.participant
            if not 0 <= index < n_slots:
                raise ProtocolError(
                    f"participant {index} outside [0, {n_slots})"
                )
        else:
            index = self.sessions.first_free(self._cursor, n_slots)
            if index is None:
                # Nothing ahead of the cursor, but eviction may have
                # freed slots behind it.
                index = self.sessions.first_free(0, self._cursor)
            if index is None:
                raise ProtocolError("no unassigned participant slots left")
            self._cursor = index + 1
        assignment, seed = slot_task(
            index, n_slots, config.domain, self._function, config.seed
        )
        self.sessions.create(
            assignment.task_id, index, assignment, seed,
            trace_id=request.trace_id, span_id=request.span_id,
        )
        log_event(_log, "task_assigned", level=logging.DEBUG,
                  task_id=assignment.task_id, participant=index)
        return TaskAssign(
            assign=AssignMsg(task_id=assignment.task_id,
                             n_inputs=assignment.n_inputs,
                             workload=config.workload),
            participant=index,
            domain_start=assignment.domain.start,
            domain_stop=assignment.domain.stop,
            protocol=config.protocol,
            n_samples=config.n_samples,
            hash_name=scheme.hash_name,
            sample_hash_name=SERVICE_HASH,  # g, as ServiceConfig resolves it
            leaf_encoding=scheme.leaf_encoding.value,
            seed=seed,
        )

    def _supervisor(self, session: Session) -> CBSSupervisor:
        return self.config.scheme.supervisor(session.assignment, session.seed)

    def _challenge(self, msg: CommitmentMsg) -> ChallengeFrame:
        if self.config.protocol != "cbs":
            raise ProtocolError("commitments only arrive in interactive CBS")
        # Check the envelope and draw the challenge with the round's
        # supervisor (cheap: three comparisons plus m RNG draws); the
        # heavyweight verify runs where the shell places the proofs'
        # Verify.
        supervisor = self._supervisor(self.sessions.get(msg.task_id))
        supervisor.receive_commitment(msg)
        challenge = supervisor.make_challenge()
        self.sessions.record_commitment(msg.task_id, msg)
        return ChallengeFrame(msg=challenge)
