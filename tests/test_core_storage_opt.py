"""Tests for the §3.3 storage optimization and its closed forms."""

import pytest

from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme, predicted_rco, storage_for_rco
from repro.core.storage_opt import rco_from_storage, subtree_height_for_storage
from repro.merkle import MerkleTree, PartialMerkleTree, get_hash
from repro.merkle.tree import LeafEncoding
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment


class TestClosedForms:
    def test_rco_formula(self):
        # rco = m · 2^ℓ / |D|.
        assert predicted_rco(m=64, n=1 << 20, subtree_height=10) == pytest.approx(
            64 * 1024 / (1 << 20)
        )

    def test_paper_example(self):
        # §3.3: m = 64, S = 2^32 (4G) ⇒ rco = 2^-25.
        assert rco_from_storage(m=64, storage_digests=1 << 32) == pytest.approx(
            2.0 ** -25
        )

    def test_storage_for_rco_inverts_paper_example(self):
        assert storage_for_rco(m=64, target_rco=2.0 ** -25) == 1 << 32

    def test_rco_independent_of_task_size(self):
        # The paper's key point: rco depends only on m and S.
        for height, ell in ((20, 10), (30, 20), (40, 30)):
            storage = 1 << (height - ell + 1)
            assert rco_from_storage(64, storage) == pytest.approx(
                predicted_rco(64, 1 << height, ell)
            )

    def test_subtree_height_for_storage(self):
        # n = 1024 (H = 10); budget 2^8 digests ⇒ need ℓ with
        # 2^(10-ℓ+1) - 1 <= 256 ⇒ ℓ = 3.
        assert subtree_height_for_storage(1024, 256) == 3
        # Unlimited budget ⇒ store everything (ℓ = 0).
        assert subtree_height_for_storage(1024, 1 << 30) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_rco(-1, 10, 0)
        with pytest.raises(ValueError):
            rco_from_storage(4, 0)
        with pytest.raises(ValueError):
            storage_for_rco(4, 0.0)


class TestTheParticipantsTree:
    """The participant keeps a full :class:`MerkleTree` at ℓ = 0 or
    ``None`` and a :class:`PartialMerkleTree` at ℓ > 0."""

    def payloads(self, n=32):
        fn = PasswordSearch()
        return [fn.evaluate(i) for i in range(n)], fn

    def partial(self, payloads, ell):
        return PartialMerkleTree(
            payloads, lambda i: payloads[i], ell, get_hash(), LeafEncoding.HASHED
        )

    def test_full_and_partial_roots_agree(self):
        payloads, _ = self.payloads()
        full = MerkleTree(payloads, get_hash(), LeafEncoding.HASHED)
        assert full.root == self.partial(payloads, 3).root

    @pytest.mark.parametrize(
        "ell, kind",
        [(None, MerkleTree), (0, MerkleTree), (1, PartialMerkleTree)],
    )
    def test_the_participant_keeps_the_tree_its_ell_names(self, ell, kind):
        task = TaskAssignment("t", RangeDomain(0, 16), PasswordSearch())
        participant = CBSScheme(n_samples=2, subtree_height=ell).participant(
            task, HonestBehavior(), seed=0
        )
        commitment = participant.compute_and_commit()
        assert type(participant.tree) is kind
        assert commitment.root == participant.tree.root

    def test_storage_footprints(self):
        payloads, _ = self.payloads(64)  # H = 6
        full = MerkleTree(payloads, get_hash(), LeafEncoding.HASHED)
        assert full.n_nodes == 127  # 2^7 - 1
        assert self.partial(payloads, 4).n_nodes == 7  # 2^(6-4+1) - 1

    def test_recompute_metering(self):
        payloads, _ = self.payloads(64)
        partial = self.partial(payloads, 3)
        partial.multiproof([10, 50], payloads)
        assert partial.leaves_recomputed == 2 * 8


class TestEndToEndWithPartialTrees:
    def test_honest_accepted_every_ell(self, password_fn):
        task = TaskAssignment("t", RangeDomain(0, 128), password_fn)
        for ell in (1, 3, 5, 7):
            scheme = CBSScheme(n_samples=6, subtree_height=ell)
            result = scheme.run(task, HonestBehavior(), seed=ell)
            assert result.outcome.accepted, ell

    def test_cheater_caught_with_partial_tree(self, password_fn):
        task = TaskAssignment("t", RangeDomain(0, 128), password_fn)
        scheme = CBSScheme(n_samples=20, subtree_height=4)
        result = scheme.run(task, SemiHonestCheater(0.5), seed=1)
        assert not result.outcome.accepted

    def test_measured_rco_matches_closed_form(self, password_fn):
        # Measured recompute cost / task cost <= m·2^ℓ / |D| (honest
        # participant; each touched subtree is rebuilt once).
        n, m, ell = 256, 8, 4
        task = TaskAssignment("t", RangeDomain(0, n), password_fn)
        scheme = CBSScheme(
            n_samples=m,
            subtree_height=ell,
            with_replacement=False,  # distinct samples → exact count
            include_reports=False,
        )
        result = scheme.run(task, HonestBehavior(), seed=9)
        assert result.outcome.accepted
        total_evals = result.participant_ledger.evaluations
        rebuild_evals = total_evals - n
        measured_rco = rebuild_evals / n
        # Distinct samples may share a subtree; measured <= predicted,
        # equality when all m samples hit distinct subtrees.
        assert measured_rco <= predicted_rco(m, n, ell) + 1e-9
        touched = {v.index >> ell for v in result.outcome.verdicts}
        assert rebuild_evals == len(touched) << ell

    def test_storage_budget_drops_with_ell(self, password_fn):
        task = TaskAssignment("t", RangeDomain(0, 256), password_fn)
        storages = {}
        for ell in (0, 2, 4, 6):
            scheme = CBSScheme(n_samples=2, subtree_height=ell or None)
            result = scheme.run(task, HonestBehavior(), seed=0)
            storages[ell] = result.participant_ledger.storage_digests
        assert storages[2] < storages[0]
        assert storages[4] < storages[2]
        assert storages[6] < storages[4]
