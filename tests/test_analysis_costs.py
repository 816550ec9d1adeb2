"""Tests for cost closed forms vs measured ledgers."""

from itertools import combinations

import pytest

from repro.analysis.costs import (
    cbs_bundle_bytes,
    cbs_participant_bytes,
    cbs_supervisor_bytes_per_task,
    expected_touched_subtrees,
    honest_sample_generation_overhead,
    min_sample_hash_cost,
    naive_bytes_per_task,
    regrind_expected_cost,
    uncheatable_g_rounds,
)
from repro.baselines import NaiveSamplingScheme
from repro.cheating import HonestBehavior
from repro.core import CBSParticipant, CBSScheme
from repro.core.protocol import ProofBundleMsg, SampleChallengeMsg
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment


class TestCommunicationModels:
    def test_naive_model_matches_measured_exactly(self):
        n = 256
        task = TaskAssignment("t" * 8, RangeDomain(0, n), PasswordSearch())
        result = NaiveSamplingScheme(5).run(task, HonestBehavior(), seed=0)
        predicted = naive_bytes_per_task(n, result_size=16, task_id_size=8)
        # Participant also receives the verdict; sent bytes are the
        # FullResultsMsg alone.
        assert result.participant_ledger.bytes_sent == predicted

    def test_cbs_model_matches_measured_for_pow2_n(self):
        # The model is the paper's per-path count: m independent paths
        # of H digests.  What is measured is one multiproof, so the
        # model bounds it from above — by whatever the samples share.
        n, m = 256, 8
        task = TaskAssignment("t" * 8, RangeDomain(0, n), PasswordSearch())
        scheme = CBSScheme(m, include_reports=False)
        result = scheme.run(task, HonestBehavior(), seed=0)
        predicted = cbs_participant_bytes(
            n, m, digest_size=32, result_size=16, task_id_size=8
        )
        measured = result.participant_ledger.bytes_sent
        assert measured <= predicted
        # Eight samples of a 256-leaf tree meet at least in the top
        # three levels: 8·8 digests would need 8 distinct subtrees
        # under every node, and there are 2, 4, 8 nodes to share.
        assert predicted - measured >= (8 - 2 + 8 - 4) * 33

    @pytest.mark.parametrize("indices", [(5,), (77,), (0, 255)])
    def test_cbs_model_digest_count_is_exact_without_shared_ancestors(
        self, indices
    ):
        # m = 1 — or two samples in opposite halves, whose paths share
        # only the root — supplies every sibling of every path above
        # the leaves except the two top-level ones that cover each
        # other; the leaf-level siblings travel as results.  The shared
        # fold's closed form counts the bytes exactly, and the per-path
        # form's m·H digests bound them.
        n, height = 256, 8
        task = TaskAssignment("t" * 8, RangeDomain(0, n), PasswordSearch())
        participant = CBSParticipant(task, HonestBehavior())
        commitment = participant.compute_and_commit()
        bundle = participant.prove(SampleChallengeMsg(task.task_id, indices))
        received = ProofBundleMsg.decode(bundle.encode())
        m = len(indices)
        assert len(received.bundle.digests) == m * (height - 1) - (2 if m == 2 else 0)
        assert len(received.bundle.results) == 2 * m
        assert bundle.wire_size() == cbs_bundle_bytes(
            indices, n, digest_size=32, result_size=16, task_id_size=8
        )
        predicted = cbs_participant_bytes(
            n, m, digest_size=32, result_size=16, task_id_size=8
        )
        assert commitment.wire_size() + bundle.wire_size() < predicted

    def test_supervisor_side_model(self):
        n, m = 256, 8
        task = TaskAssignment("t" * 8, RangeDomain(0, n), PasswordSearch())
        result = CBSScheme(m, include_reports=False).run(
            task, HonestBehavior(), seed=0
        )
        predicted = cbs_supervisor_bytes_per_task(n, m, task_id_size=8)
        measured = result.supervisor_ledger.bytes_sent
        assert measured <= predicted
        assert predicted - measured <= 2 * m

    def test_asymptotic_shapes(self):
        # Naive grows ~linearly; CBS grows ~logarithmically.
        naive_small = naive_bytes_per_task(1 << 10, 16)
        naive_large = naive_bytes_per_task(1 << 20, 16)
        assert naive_large / naive_small > 900

        cbs_small = cbs_participant_bytes(1 << 10, 32)
        cbs_large = cbs_participant_bytes(1 << 20, 32)
        assert cbs_large / cbs_small < 2.1

    def test_paper_headline_password_example(self):
        # §3: a 2^64 task would need ~16 million terabytes with O(n)
        # return traffic.  Our byte model reproduces the magnitude
        # (the paper counts 16-byte MD5 results: 2^64 × 16 B = 256 EB
        # ≈ 2.6 × 10^5 PB ≈ "16 million terabytes" within framing).
        total = naive_bytes_per_task(1 << 34, 16) * (1 << 30)  # scaled
        assert total > 1e18  # exabytes territory — infeasible
        cbs = cbs_participant_bytes(1 << 40, m=50, result_size=16) * 1
        assert cbs < 200_000  # vs kilobytes for CBS

    def test_validation(self):
        with pytest.raises(ValueError):
            naive_bytes_per_task(0, 16)
        with pytest.raises(ValueError):
            cbs_participant_bytes(0, 1)


class TestExpectedTouchedSubtrees:
    @pytest.mark.parametrize("n, m, ell", [(8, 3, 1), (10, 3, 2), (13, 4, 3), (6, 6, 1), (5, 2, 3)])
    def test_equals_the_mean_over_every_challenge(self, n, m, ell):
        # Every m-subset is equally likely without replacement.
        counts = [len({i >> ell for i in c}) for c in combinations(range(n), m)]
        assert expected_touched_subtrees(n, m, ell) == pytest.approx(
            sum(counts) / len(counts)
        )

    def test_e4_shapes(self):
        # n = 4096, m = 16: K = 256, 64 and 16 subtrees.
        got = [expected_touched_subtrees(4096, 16, ell) for ell in (4, 6, 8)]
        assert got == pytest.approx([15.567, 14.278, 10.314], abs=1e-3)
        assert expected_touched_subtrees(4096, 16, 0) == 16

    def test_validation(self):
        for args in ((0, 1, 0), (4, 5, 0), (4, -1, 0), (4, 2, -1)):
            with pytest.raises(ValueError):
                expected_touched_subtrees(*args)


class TestEquationFive:
    def test_threshold_formula(self):
        # C_g >= n · C_f · r^m / m.
        assert min_sample_hash_cost(1000, 2.0, 0.5, 10) == pytest.approx(
            1000 * 2.0 * 0.5**10 / 10
        )

    def test_expected_cost_formula(self):
        assert regrind_expected_cost(0.5, 10, 3.0) == pytest.approx(
            (2.0**10) * 10 * 3.0
        )

    def test_inequality_holds_at_threshold(self):
        # At the minimum C_g, expected attack cost >= honest cost.
        n, cf, r, m = 4096, 5.0, 0.8, 16
        cg = min_sample_hash_cost(n, cf, r, m)
        assert regrind_expected_cost(r, m, cg) >= n * cf - 1e-6

    def test_rounds_realize_threshold(self):
        n, cf, r, m = 1 << 20, 10.0, 0.9, 32
        k = uncheatable_g_rounds(n, cf, r, m, base_hash_cost=1.0)
        assert k * 1.0 >= min_sample_hash_cost(n, cf, r, m)
        assert (k - 1) * 1.0 < min_sample_hash_cost(n, cf, r, m) or k == 1

    def test_honest_overhead_is_r_to_m(self):
        # The paper's closing §4.2 remark: the honest participant's
        # sample-generation overhead ratio is about r^m.
        assert honest_sample_generation_overhead(0.5, 10) == pytest.approx(
            0.5**10
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            min_sample_hash_cost(0, 1.0, 0.5, 1)
        with pytest.raises(ValueError):
            regrind_expected_cost(0.0, 1, 1.0)
        with pytest.raises(ValueError):
            uncheatable_g_rounds(10, 1.0, 0.5, 1, base_hash_cost=0.0)
