"""Tests for the supervisor service's session store."""

import pytest

from repro.core.protocol import CommitmentMsg, SampleChallengeMsg
from repro.core.scheme import VerificationOutcome
from repro.exceptions import ProtocolError
from repro.service import SessionState, SessionStore
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def jump_to(self, seconds: float) -> None:
        """Set absolute time — backwards jumps included (clock skew)."""
        self.now = seconds


def events(store: SessionStore, event: str) -> float:
    return store.registry.value("repro_sessions_total", event=event)


def assignment(task_id: str = "task-0") -> TaskAssignment:
    return TaskAssignment(task_id, RangeDomain(0, 32), PasswordSearch())


def commitment(task_id: str = "task-0") -> CommitmentMsg:
    return CommitmentMsg(task_id=task_id, root=b"\x01" * 32, n_leaves=32)


def challenge(task_id: str = "task-0") -> SampleChallengeMsg:
    return SampleChallengeMsg(task_id=task_id, indices=(1, 2))


def outcome(task_id: str = "task-0", accepted: bool = True) -> VerificationOutcome:
    return VerificationOutcome(task_id=task_id, accepted=accepted)


class TestLifecycle:
    def test_create_get_and_states(self):
        store = SessionStore()
        session = store.create("task-0", 0, assignment(), seed=7, protocol="cbs")
        assert session.state is SessionState.ASSIGNED
        assert store.get("task-0") is session
        assert "task-0" in store and store.active == 1

        store.record_commitment("task-0", commitment(), challenge())
        assert session.state is SessionState.COMMITTED
        assert session.commitment == commitment()
        store.record_outcome("task-0", outcome())
        assert session.state is SessionState.DONE
        assert store.active == 0
        assert store.outcomes == {"task-0": outcome()}
        # The verdict releases the record: what stays is the slot's
        # byte (still assigned, never live again) and the outcome.
        assert store.peek("task-0") is None
        assert "task-0" in store
        assert not hasattr(session, "__dict__")

    def test_duplicate_task_id_rejected(self):
        store = SessionStore()
        store.create("task-0", 0, assignment(), seed=7, protocol="cbs")
        with pytest.raises(ProtocolError):
            store.create("task-0", 1, assignment(), seed=8, protocol="cbs")
        assert events(store, "rejected_duplicate") == 1
        assert store.active == 1  # the original survives

    def test_unknown_task_rejected(self):
        with pytest.raises(ProtocolError):
            SessionStore().get("task-404")

    def test_duplicate_commitment_rejected(self):
        store = SessionStore()
        store.create("task-0", 0, assignment(), seed=7, protocol="cbs")
        store.record_commitment("task-0", commitment(), challenge())
        with pytest.raises(ProtocolError):
            store.record_commitment("task-0", commitment(), challenge())

    def test_outcome_twice_rejected(self):
        store = SessionStore()
        store.create("task-0", 0, assignment(), seed=7, protocol="ni-cbs")
        store.record_outcome("task-0", outcome())
        with pytest.raises(ProtocolError, match="already verified"):
            store.record_outcome("task-0", outcome(accepted=False))
        assert store.outcomes == {"task-0": outcome()}

    def test_begin_verification_claims_the_session_once(self):
        # The anti-replay guard: the VERIFYING transition happens
        # before the expensive work, so a concurrent duplicate fails
        # fast instead of burning a second worker slot.
        store = SessionStore()
        store.create("task-0", 0, assignment(), seed=7, protocol="ni-cbs")
        session = store.begin_verification("task-0", SessionState.ASSIGNED)
        assert session.state is SessionState.VERIFYING
        with pytest.raises(ProtocolError):
            store.begin_verification("task-0", SessionState.ASSIGNED)
        store.record_outcome("task-0", outcome())
        assert store.outcomes == {"task-0": outcome()}

    def test_begin_verification_enforces_expected_state(self):
        store = SessionStore()
        store.create("task-0", 0, assignment(), seed=7, protocol="cbs")
        # CBS proofs require a prior commitment.
        with pytest.raises(ProtocolError):
            store.begin_verification("task-0", SessionState.COMMITTED)

    def test_bad_ttl_rejected(self):
        with pytest.raises(ProtocolError):
            SessionStore(ttl=0)


class TestEviction:
    def test_abandoned_sessions_evicted_after_ttl(self):
        clock = FakeClock()
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment("task-0"), seed=1, protocol="cbs")
        clock.advance(5)
        store.create("task-1", 1, assignment("task-1"), seed=2, protocol="cbs")

        clock.advance(6)  # task-0 idle 11s, task-1 idle 6s
        assert store.evict_stale() == ["task-0"]
        assert "task-0" not in store and "task-1" in store
        assert events(store, "evicted") == 1
        # A participant returning after eviction looks brand new.
        with pytest.raises(ProtocolError):
            store.get("task-0")

    def test_touch_refreshes_the_ttl(self):
        clock = FakeClock()
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment(), seed=1, protocol="cbs")
        clock.advance(8)
        store.get("task-0")  # activity resets the idle timer
        clock.advance(8)
        assert store.evict_stale() == []

    def test_completed_sessions_never_evicted(self):
        clock = FakeClock()
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment(), seed=1, protocol="ni-cbs")
        store.record_outcome("task-0", outcome())
        clock.advance(1000)
        assert store.evict_stale() == []
        assert store.outcomes == {"task-0": outcome()}

    def test_mid_protocol_sessions_evicted_too(self):
        clock = FakeClock()
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment(), seed=1, protocol="cbs")
        store.record_commitment("task-0", commitment(), challenge())
        clock.advance(11)
        assert store.evict_stale() == ["task-0"]
        # The slot can be re-assigned afterwards (fresh session).
        store.create("task-0", 0, assignment(), seed=1, protocol="cbs")


class TestEvictionRacingVerification:
    """TTL eviction racing in-flight work: every post-eviction touch
    must be a clean ProtocolError, never a KeyError."""

    def test_evict_then_proofs_is_clean_protocol_error(self):
        # A committed session idles past the TTL; when the proofs
        # finally arrive, begin_verification must reject them exactly
        # like an unknown task.
        clock = FakeClock()
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment(), seed=1, protocol="cbs")
        store.record_commitment("task-0", commitment(), challenge())
        clock.advance(11)
        assert store.evict_stale() == ["task-0"]
        with pytest.raises(ProtocolError, match="unknown task"):
            store.begin_verification("task-0", SessionState.COMMITTED)

    def test_evict_while_verifying_then_outcome_is_clean(self):
        # Slow off-loop verification: the session is claimed, the
        # sweeper evicts it mid-verify, and the worker's verdict lands
        # on a session that no longer exists.
        clock = FakeClock()
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment(), seed=1, protocol="ni-cbs")
        store.begin_verification("task-0", SessionState.ASSIGNED)
        clock.advance(11)
        assert store.evict_stale() == ["task-0"]
        with pytest.raises(ProtocolError, match="unknown task"):
            store.record_outcome("task-0", outcome())
        assert events(store, "completed") == 0
        assert store.outcomes == {}


class TestBackwardJumpingClock:
    """Clock skew hardening: a clock that jumps backwards must never
    evict a live session — negative ages clamp, and a touch at an
    earlier timestamp never rewinds ``touched_at``."""

    def test_negative_age_never_evicts(self):
        clock = FakeClock()
        clock.jump_to(100.0)
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment(), seed=1, protocol="cbs")
        clock.jump_to(0.0)  # the clock falls over
        assert store.evict_stale() == []
        assert "task-0" in store
        assert events(store, "evicted") == 0

    def test_touch_during_backward_jump_does_not_rewind(self):
        # The dangerous interleaving: create at t=100, clock jumps to
        # t=0, the participant touches the session (which must NOT
        # rewind touched_at to 0), clock recovers to t=105.  The
        # session was touched 5 "real" seconds ago — evicting it would
        # kick a live participant mid-protocol.
        clock = FakeClock()
        clock.jump_to(100.0)
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment(), seed=1, protocol="cbs")
        clock.jump_to(0.0)
        store.get("task-0")  # touch at the skewed time
        clock.jump_to(105.0)
        assert store.evict_stale() == []
        assert "task-0" in store

    def test_eviction_resumes_once_clock_recovers(self):
        # The clamp grants grace, not immortality: once real time
        # advances past the TTL from the last forward-time touch, an
        # abandoned session still goes.
        clock = FakeClock()
        clock.jump_to(100.0)
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment(), seed=1, protocol="cbs")
        clock.jump_to(0.0)
        store.get("task-0")
        clock.jump_to(111.0)  # 11s after the surviving touched_at=100
        assert store.evict_stale() == ["task-0"]

    def test_forward_touch_still_refreshes(self):
        clock = FakeClock()
        store = SessionStore(ttl=10.0, clock=clock)
        store.create("task-0", 0, assignment(), seed=1, protocol="cbs")
        clock.advance(8.0)
        store.get("task-0")  # normal monotone touch
        clock.advance(8.0)
        assert store.evict_stale() == []  # only 8s idle, not 16
