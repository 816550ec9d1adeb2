"""Integration tests: the whole system composed, plus a scheme contract
suite every verification scheme must satisfy."""

import pytest

from repro.baselines import (
    DoubleCheckScheme,
    HardenedProbeScheme,
    NaiveSamplingScheme,
    RingerScheme,
)
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme, NICBSScheme
from repro.grid import FlakyParticipant, RetryingScheme
from repro.grid.simulation import run_population
from repro.service import ServiceConfig
from repro.tasks import (
    FactoringTask,
    MatchScreener,
    PasswordSearch,
    RangeDomain,
    TaskAssignment,
)
from test_service_server import relay_through_broker

ALL_SCHEMES = [
    CBSScheme(20),
    CBSScheme(20, subtree_height=3),
    NICBSScheme(20),
    NaiveSamplingScheme(20),
    DoubleCheckScheme(2),
    RingerScheme(20),
    HardenedProbeScheme(20),
]


@pytest.fixture
def task():
    return TaskAssignment("contract", RangeDomain(0, 400), PasswordSearch())


class TestSchemeContract:
    """Invariants every scheme in the library must satisfy."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_honest_accepted(self, scheme, task):
        result = scheme.run(task, HonestBehavior(), seed=3)
        assert result.outcome.accepted
        assert not result.cheated

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_blatant_cheater_caught(self, scheme, task):
        result = scheme.run(task, SemiHonestCheater(0.3), seed=3)
        assert result.true_detection

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_participant_work_metered(self, scheme, task):
        result = scheme.run(task, HonestBehavior(), seed=3)
        # At least the full sweep; the §3.3 partial-tree variant also
        # recomputes leaves when rebuilding subtrees for proofs.
        assert result.participant_ledger.evaluations >= 400

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_some_bytes_flow(self, scheme, task):
        result = scheme.run(task, HonestBehavior(), seed=3)
        assert result.total_bytes_on_wire > 0
        assert result.participant_ledger.messages_sent >= 1

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_deterministic_outcomes(self, scheme, task):
        a = scheme.run(task, SemiHonestCheater(0.8), seed=11)
        b = scheme.run(task, SemiHonestCheater(0.8), seed=11)
        assert a.outcome.accepted == b.outcome.accepted
        assert (
            a.participant_ledger.bytes_sent == b.participant_ledger.bytes_sent
        )

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_ground_truth_attached(self, scheme, task):
        result = scheme.run(task, SemiHonestCheater(0.5), seed=1)
        assert result.work is not None
        assert result.work.honesty_ratio == pytest.approx(0.5)


class TestFullPipelineScenario:
    """The whole stack at once: broker topology, churny mixed
    population, screener reporting and storage-optimized cheap-verify
    workload."""

    def test_brokered_grid_with_mixed_population(self):
        cfg = ServiceConfig(
            domain=RangeDomain(0, 2048),
            protocol="ni-cbs",
            n_samples=24,
            n_participants=4,
        )
        behaviors = [
            HonestBehavior(),
            SemiHonestCheater(0.6),
            HonestBehavior(),
            SemiHonestCheater(0.2),
        ]
        verdicts, server = relay_through_broker(cfg, behaviors)
        assert [verdicts[f"task-{i}"] for i in range(4)] == [
            True, False, True, False
        ]
        # The broker's one connection carried every session.
        assert server.registry.value("repro_connections_total") == 1

    def test_storage_optimized_factoring_with_retries(self):
        # Cheap-verify workload + §3.3 partial trees + churn + retry.
        fn = FactoringTask(bits=12, cost=500.0, verify_cost=1.0)
        task = TaskAssignment("deep", RangeDomain(0, 128), fn)
        scheme = RetryingScheme(
            CBSScheme(n_samples=8, subtree_height=3, with_replacement=False),
            max_retries=20,
        )
        flaky_honest = FlakyParticipant(HonestBehavior(), dropout_rate=0.3)
        result = scheme.run(task, flaky_honest, seed=5)
        assert result.outcome.accepted
        # Supervisor verified cheaply (8 × 1.0), never re-factored.
        assert result.supervisor_ledger.verification_cost == 8.0
        # Participant paid the full sweep plus subtree rebuilds.
        assert result.participant_ledger.evaluations >= 128

        flaky_cheater = FlakyParticipant(
            SemiHonestCheater(0.5), dropout_rate=0.3
        )
        result = scheme.run(task, flaky_cheater, seed=6)
        assert not result.outcome.accepted

    def test_population_simulation_with_batched_cbs(self):
        # Every CBS bundle is one multiproof now; 1200 leaves is a
        # padded tree, where samples and padding share ancestors.
        report = run_population(
            RangeDomain(0, 1200),
            PasswordSearch(),
            CBSScheme(15),
            behaviors=[HonestBehavior(), SemiHonestCheater(0.5)],
            n_participants=6,
            seed=3,
        )
        assert report.n_cheaters == 3
        assert report.cheaters_caught == 3
        assert report.honest_rejected == 0

    def test_end_to_end_report_of_interest_survives(self):
        # The actual point of the grid: the honest hit is reported and
        # the verification machinery never eats it.
        fn = PasswordSearch()
        domain = RangeDomain(0, 256)
        target = fn.target_for(97)
        task = TaskAssignment("hit", domain, fn, screener=MatchScreener(target))
        from repro.core import CBSParticipant, CBSSupervisor

        participant = CBSParticipant(task, HonestBehavior())
        supervisor = CBSSupervisor(task, n_samples=12, seed=0)
        supervisor.receive_commitment(participant.compute_and_commit())
        bundle = participant.prove(supervisor.make_challenge())
        assert supervisor.verify(bundle).accepted
        assert participant.reports().reports == ("match:97",)
