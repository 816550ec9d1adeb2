"""Tests for the NI-CBS regrinding attack (paper §4.2)."""

import pytest

from repro.cheating.regrind import (
    expected_regrind_attempts,
    run_regrind_attack,
)
from repro.core import NICBSSupervisor
from repro.exceptions import SchemeConfigurationError
from repro.merkle import get_hash
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment


@pytest.fixture
def task():
    # C_f = 100 ≫ hash cost, matching the paper's regime where the
    # task function dominates (hashing is "ignored" in §3.3/§4.2).
    return TaskAssignment(
        "grind", RangeDomain(0, 128), PasswordSearch(cost=100.0)
    )


class TestExpectedAttempts:
    def test_formula(self):
        # 1/r^m (§4.2).
        assert expected_regrind_attempts(0.5, 10) == pytest.approx(1024.0)
        assert expected_regrind_attempts(0.9, 2) == pytest.approx(1 / 0.81)

    def test_honest_needs_one(self):
        assert expected_regrind_attempts(1.0, 100) == 1.0

    def test_validation(self):
        with pytest.raises(SchemeConfigurationError):
            expected_regrind_attempts(0.0, 5)


class TestAttackExecution:
    def test_succeeds_and_fools_the_verifier(self, task):
        # The attack's whole point: the winning submission verifies.
        result = run_regrind_attack(
            task, honesty_ratio=0.75, n_samples=4, seed=1, max_attempts=5000
        )
        assert result.succeeded
        supervisor = NICBSSupervisor(task, n_samples=4)
        outcome = supervisor.verify(result.submission)
        assert outcome.accepted  # undetected cheating!

    def test_honest_ratio_one_succeeds_first_try(self, task):
        result = run_regrind_attack(
            task, honesty_ratio=1.0, n_samples=8, seed=0
        )
        assert result.succeeded
        assert result.attempts == 1

    def test_attempts_counted_in_ledger(self, task):
        result = run_regrind_attack(
            task, honesty_ratio=0.6, n_samples=3, seed=2, max_attempts=2000
        )
        assert result.ledger.counters["regrind_attempts"] == result.attempts

    def test_gives_up_at_max_attempts(self, task):
        result = run_regrind_attack(
            task, honesty_ratio=0.25, n_samples=12, seed=3, max_attempts=5
        )
        assert not result.succeeded
        assert result.attempts == 5
        assert result.submission is None

    def test_mean_attempts_near_expected(self, task):
        # Average over seeds ≈ 1/r^m (geometric distribution).
        r, m = 0.6, 3
        expected = expected_regrind_attempts(r, m)  # ≈ 4.6
        totals = []
        for seed in range(40):
            result = run_regrind_attack(
                task, honesty_ratio=r, n_samples=m, seed=seed,
                max_attempts=1000,
            )
            assert result.succeeded
            totals.append(result.attempts)
        mean = sum(totals) / len(totals)
        assert expected / 2 < mean < expected * 2


class TestBooks:
    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("n, tree_hashes", [(128, 128 + 127), (100, 100 + 1 + 127)])
    def test_one_attempt_books_the_tree_and_m_samples(self, n, tree_hashes, incremental):
        # One attempt builds the tree as MerkleTree books it (real
        # leaves, the empty leaf only when the domain is padded, every
        # interior node) and derives m samples through g.
        m = 5
        task = TaskAssignment("grind", RangeDomain(0, n), PasswordSearch(cost=100.0))
        result = run_regrind_attack(
            task, honesty_ratio=0.5, n_samples=m, seed=3, max_attempts=1,
            incremental=incremental,
        )
        assert result.attempts == 1
        assert result.ledger.hashes == tree_hashes + m


class TestEconomics:
    def test_cheap_g_makes_cheating_profitable(self, task):
        # Unit-cost g: grinding costs ≪ n·C_f ⇒ Eq. 5 violated.
        result = run_regrind_attack(
            task,
            honesty_ratio=0.75,
            n_samples=4,
            sample_hash=get_hash("sha256"),
            seed=5,
            max_attempts=10_000,
        )
        assert result.succeeded
        assert result.profitable

    def test_expensive_g_destroys_profit(self, task):
        # Iterated g per Eq. 5: attack cost exceeds honest cost.
        from repro.analysis.costs import uncheatable_g_rounds

        rounds = uncheatable_g_rounds(
            n=128, f_cost=100.0, r=0.75, m=4, base_hash_cost=1.0
        )
        result = run_regrind_attack(
            task,
            honesty_ratio=0.75,
            n_samples=4,
            sample_hash=get_hash(f"sha256^{rounds}"),
            seed=5,
            max_attempts=10_000,
        )
        # Whether or not the grind succeeds, it must not be profitable
        # once hashing costs are priced per Eq. 5 (plus the tree
        # rebuild hashing the paper ignores, which only helps).
        assert not result.profitable

    def test_honest_task_cost_recorded(self, task):
        result = run_regrind_attack(
            task, honesty_ratio=0.9, n_samples=2, seed=0
        )
        assert result.honest_task_cost == 128 * task.function.cost

    def test_validation(self, task):
        with pytest.raises(SchemeConfigurationError):
            run_regrind_attack(task, honesty_ratio=0.0, n_samples=2)
        with pytest.raises(SchemeConfigurationError):
            run_regrind_attack(task, honesty_ratio=0.5, n_samples=2,
                               max_attempts=0)


class TestIncrementalVsFullRebuild:
    """E5 ablation: the rational attacker regrinds in O(log n) hashes."""

    def test_both_variants_succeed_and_verify(self, task):
        for incremental in (True, False):
            result = run_regrind_attack(
                task,
                honesty_ratio=0.75,
                n_samples=4,
                seed=11,
                max_attempts=5000,
                incremental=incremental,
            )
            assert result.succeeded, incremental
            outcome = NICBSSupervisor(task, n_samples=4).verify(
                result.submission
            )
            assert outcome.accepted, incremental

    def test_incremental_hashes_logarithmic_per_attempt(self, task):
        # r=0.5, m=8 ⇒ expected 256 attempts: enough to see the
        # marginal (per-retry) hash cost, net of the initial build.
        inc = run_regrind_attack(
            task, honesty_ratio=0.5, n_samples=8, seed=7,
            max_attempts=50_000, incremental=True,
        )
        full = run_regrind_attack(
            task, honesty_ratio=0.5, n_samples=8, seed=7,
            max_attempts=50_000, incremental=False,
        )
        assert inc.succeeded and full.succeeded
        initial_build = 128 + 127  # leaf encodes + internal combines
        inc_marginal = (inc.ledger.hashes - initial_build) / max(
            inc.attempts - 1, 1
        )
        full_marginal = full.ledger.hashes / full.attempts
        # Incremental: ~8 path hashes + 8 g per retry; full: ~255 + 8.
        assert inc_marginal < 40
        assert full_marginal > 150
