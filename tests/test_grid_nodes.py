"""Supervisor and participants over the wire: interactive CBS rounds
against ``serve``, and NI-CBS through a GRACE broker (paper §4) that
holds the supervisor's only connection."""

import asyncio

import pytest

from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.exceptions import ProtocolError
from repro.service import ServiceClient, SupervisorServer
from test_service_server import (
    BEHAVIORS,
    cbs_rounds_on_one_connection,
    config,
    drive_all,
    relay_through_broker,
    sync_outcomes,
)


class TestInteractiveCBSOverNetwork:
    def test_honest_flow(self):
        cfg = config("cbs", n_participants=1, m=8)
        _, _, verdicts, server = cbs_rounds_on_one_connection(
            cfg, [HonestBehavior()]
        )
        assert server.outcomes["task-0"].accepted
        assert verdicts == {"task-0": True}

    def test_cheater_flow(self):
        cfg = config("cbs", n_participants=1, m=20)
        _, _, verdicts, server = cbs_rounds_on_one_connection(
            cfg, [SemiHonestCheater(0.5)]
        )
        assert not server.outcomes["task-0"].accepted
        assert verdicts == {"task-0": False}

    def test_four_message_exchange(self):
        cfg = config("cbs", n_participants=1, m=4)
        _, _, _, server = cbs_rounds_on_one_connection(cfg, [HonestBehavior()])
        # The assignment, then commitment, challenge, proofs, verdict:
        # request, commitment, proofs in; assign, challenge, verdict out.
        frames = server.registry.value
        assert frames("repro_frames_total", direction="in") == 3
        assert frames("repro_frames_total", direction="out") == 3

    def test_multiple_workers(self):
        cfg = config("cbs", n_participants=3)

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            try:
                runs = await drive_all(server, cfg)
            finally:
                await server.stop()
            return runs, server

        runs, server = asyncio.run(scenario())
        assert server.outcomes == sync_outcomes(cfg)
        assert [run.accepted for run in runs] == [True, False, True]
        assert server.registry.value("repro_connections_total") == 3

    def test_duplicate_assignment_rejected(self):
        cfg = config("cbs", n_participants=2)

        async def scenario():
            server = SupervisorServer(cfg, engine="serial")
            try:
                first = ServiceClient(*server.connect_memory())
                second = ServiceClient(*server.connect_memory())
                await first.request_task(participant=0)
                # A second worker cannot take a slot the first holds.
                with pytest.raises(ProtocolError, match="already assigned"):
                    await second.request_task(participant=0)
                await first.close()
                await second.close()
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestBrokeredNICBS:
    """The GRACE topology: supervisor → GRB → participants (§4)."""

    def test_bulk_assignment_through_broker(self):
        cfg = config("ni-cbs", n_participants=2, m=16)
        verdicts, server = relay_through_broker(
            cfg, [HonestBehavior(), HonestBehavior()]
        )
        # The broker took every slot and each came back accepted.
        assert verdicts == {"task-0": True, "task-1": True}
        assert all(o.accepted for o in server.outcomes.values())

    def test_supervisor_never_talks_to_workers_directly(self):
        cfg = config("ni-cbs", n_participants=1, m=16)
        _, server = relay_through_broker(cfg, [HonestBehavior()])
        # All traffic rode the broker's one connection.
        assert server.registry.value("repro_connections_total") == 1

    def test_cheater_caught_through_broker(self):
        cfg = config("ni-cbs", n_participants=1, m=16)
        verdicts, server = relay_through_broker(cfg, [SemiHonestCheater(0.4)])
        assert verdicts == {"task-0": False}
        assert not server.outcomes["task-0"].accepted

    def test_broker_is_pure_relay(self):
        cfg = config("ni-cbs", n_participants=4)
        verdicts, server = relay_through_broker(
            cfg, [BEHAVIORS[i % len(BEHAVIORS)] for i in range(4)]
        )
        expected = sync_outcomes(cfg)
        assert server.outcomes == expected
        assert verdicts == {
            task_id: outcome.accepted for task_id, outcome in expected.items()
        }
        # Request and submission in; assign and verdict out: the broker
        # adds no frame of its own.
        frames = server.registry.value
        assert frames("repro_frames_total", direction="in") == 2 * 4
        assert frames("repro_frames_total", direction="out") == 2 * 4
