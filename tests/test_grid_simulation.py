"""Tests for population-level simulations and detection reports."""

import pytest

from repro.baselines import NaiveSamplingScheme
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme
from repro.exceptions import TaskError
from repro.grid import SimulationConfig
from repro.grid.simulation import run_population
from repro.tasks import MatchScreener, PasswordSearch, RangeDomain


@pytest.fixture
def fn():
    return PasswordSearch()


@pytest.fixture
def domain():
    return RangeDomain(0, 800)


class TestGridSimulation:
    def test_all_honest_population(self, fn, domain):
        report = run_population(
            domain,
            fn,
            CBSScheme(n_samples=10),
            behaviors=[HonestBehavior()],
            n_participants=8,
        )
        assert len(report.participants) == 8
        assert report.n_cheaters == 0
        assert report.detection_rate == 1.0  # vacuous
        assert report.false_alarm_rate == 0.0

    def test_mixed_population(self, fn, domain):
        report = run_population(
            domain,
            fn,
            CBSScheme(n_samples=25),
            behaviors=[HonestBehavior(), SemiHonestCheater(0.5)],
            n_participants=8,
        )
        assert report.n_cheaters == 4
        assert report.n_honest == 4
        assert report.cheaters_caught == 4
        assert report.honest_rejected == 0
        assert report.detection_rate == 1.0

    def test_partition_covers_domain(self, fn, domain):
        report = run_population(
            domain,
            fn,
            CBSScheme(n_samples=5),
            behaviors=[HonestBehavior()],
            n_participants=7,
        )
        total_evals = sum(
            p.participant_ledger.evaluations for p in report.participants
        )
        assert total_evals == 800

    def test_supervisor_ledger_aggregated(self, fn, domain):
        report = run_population(
            domain,
            fn,
            CBSScheme(n_samples=10),
            behaviors=[HonestBehavior()],
            n_participants=4,
        )
        assert report.supervisor_ledger.verifications == 4 * 10
        assert report.supervisor_bytes_received > 0

    def test_works_with_baselines(self, fn, domain):
        report = run_population(
            domain,
            fn,
            NaiveSamplingScheme(20),
            behaviors=[SemiHonestCheater(0.3)],
            n_participants=4,
        )
        assert report.detection_rate == 1.0

    def test_screener_passed_through(self, fn, domain):
        target = fn.target_for(123)
        report = run_population(
            domain,
            fn,
            CBSScheme(n_samples=5),
            behaviors=[HonestBehavior()],
            n_participants=4,
            screener=MatchScreener(target),
        )
        assert len(report.participants) == 4

    def test_deterministic(self, fn, domain):
        def run(seed):
            return run_population(
                domain,
                fn,
                CBSScheme(n_samples=10),
                behaviors=[SemiHonestCheater(0.6)],
                n_participants=4,
                seed=seed,
            )

        a, b = run(5), run(5)
        assert [p.accepted for p in a.participants] == [
            p.accepted for p in b.participants
        ]
        assert a.supervisor_ledger.as_dict() == b.supervisor_ledger.as_dict()

    def test_summary_row(self, fn, domain):
        report = run_population(
            domain,
            fn,
            CBSScheme(n_samples=10),
            behaviors=[HonestBehavior()],
            n_participants=2,
        )
        row = report.summary()
        assert row["scheme"] == "cbs(m=10)"
        assert row["participants"] == 2
        assert row["cheaters"] == 0

    def test_config_validation(self, fn, domain):
        with pytest.raises(TaskError):
            SimulationConfig(
                domain=domain,
                function=fn,
                scheme=CBSScheme(4),
                n_participants=0,
            )
        with pytest.raises(TaskError):
            SimulationConfig(
                domain=domain,
                function=fn,
                scheme=CBSScheme(4),
                behaviors=[],
            )

    def test_behavior_cycling(self, fn, domain):
        report = run_population(
            domain,
            fn,
            CBSScheme(n_samples=8),
            behaviors=[HonestBehavior(), SemiHonestCheater(0.5), HonestBehavior()],
            n_participants=6,
        )
        kinds = [p.behavior for p in report.participants]
        assert kinds[0] == kinds[3] == "honest"
        assert "semi-honest" in kinds[1] and "semi-honest" in kinds[4]
