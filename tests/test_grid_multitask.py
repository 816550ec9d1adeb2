"""One worker serving several concurrent CBS tasks: a single connection
to ``serve`` holds four sessions, commits them all, then proves them in
reverse order."""

import pytest

from test_service_server import (
    BEHAVIORS,
    cbs_rounds_on_one_connection,
    config,
    sync_outcomes,
)

N_TASKS = 4


@pytest.fixture(scope="module")
def four_tasks():
    cfg = config("cbs", n_participants=N_TASKS)
    behaviors = [BEHAVIORS[i % len(BEHAVIORS)] for i in range(N_TASKS)]
    commitments, challenges, verdicts, server = cbs_rounds_on_one_connection(
        cfg, behaviors
    )
    return cfg, commitments, challenges, verdicts, server


class TestOneWorkerManyTasks:
    def test_sessions_are_isolated(self, four_tasks):
        cfg, commitments, _challenges, verdicts, server = four_tasks
        assert server.outcomes == sync_outcomes(cfg)
        # Verified out of order, each against its own session.
        assert list(verdicts) == [f"task-{i}" for i in reversed(range(N_TASKS))]
        # Distinct sessions, distinct commitments.
        assert len({c.task_id for c in commitments}) == N_TASKS
        assert len({c.root for c in commitments}) == N_TASKS
        # Request, commitment, proofs in; assign, challenge, verdict out.
        frames = server.registry.value
        assert frames("repro_frames_total", direction="in") == 3 * N_TASKS
        assert frames("repro_frames_total", direction="out") == 3 * N_TASKS
        assert server.registry.value("repro_connections_total") == 1

    def test_cheating_on_one_task_only_rejects_that_task(self, four_tasks):
        cfg, _commitments, _challenges, verdicts, _server = four_tasks
        expected = sync_outcomes(cfg)
        assert verdicts == {
            task_id: outcome.accepted for task_id, outcome in expected.items()
        }
        # Slots alternate honest and cheating on the same connection;
        # verdict bookkeeping stays per task.
        assert [verdicts[f"task-{i}"] for i in range(N_TASKS)] == [
            True, False, True, False
        ]

    def test_per_task_challenge_seeds_differ(self, four_tasks):
        _cfg, commitments, challenges, _verdicts, _server = four_tasks
        assert [c.task_id for c in challenges] == [
            c.task_id for c in commitments
        ]
        # Each task draws its own challenge.
        assert len({c.indices for c in challenges}) == N_TASKS
