"""Tests for the §3.3 storage-optimized partial Merkle tree.

The full :class:`MerkleTree` is the oracle: a partial tree's bundle is
the full tree's bundle, field for field, whatever ``ℓ`` it stores from.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import CostLedger
from repro.exceptions import LeafIndexError, MerkleError
from repro.merkle import CountingHash, MerkleTree, PartialMerkleTree, get_hash
from repro.utils.bitmath import next_power_of_two


def make(n: int, ell: int):
    leaves = [f"leaf-{i}".encode() for i in range(n)]
    calls: list[int] = []

    def provider(index: int) -> bytes:
        calls.append(index)
        return leaves[index]

    partial = PartialMerkleTree(leaves, provider, subtree_height=ell)
    return partial, leaves, calls


def touched_leaves(indices, n: int, ell: int) -> list[int]:
    """The real leaves of every height-ℓ subtree ``indices`` touch,
    each subtree once, ascending."""
    width = 1 << ell
    return [
        leaf
        for subtree in sorted({i >> ell for i in indices})
        for leaf in range(subtree * width, min((subtree + 1) * width, n))
    ]


class TestRootAgreement:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 16, 33, 64])
    def test_root_matches_full_tree_all_ells(self, n):
        full = MerkleTree([f"leaf-{i}".encode() for i in range(n)])
        for ell in range(full.height + 1):
            partial, _, _ = make(n, ell)
            assert partial.root == full.root, (n, ell)


class TestProofs:
    def test_proofs_verify_against_full_root(self):
        n = 32
        full = MerkleTree([f"leaf-{i}".encode() for i in range(n)])
        partial, leaves, _ = make(n, 3)
        for proof in partial.multiproof(range(n), leaves).proofs:
            assert proof.path.verify(proof.claimed_result, full.root, full.hash_fn)

    def test_proofs_identical_to_full_tree(self):
        n = 16
        partial, leaves, _ = make(n, 2)
        full = MerkleTree(leaves)
        for i in range(n):
            assert partial.multiproof([i], leaves) == full.multiproof([i], leaves)
        everything = list(range(n))
        assert partial.multiproof(everything, leaves) == full.multiproof(
            everything, leaves
        )

    def test_bounds_checked(self):
        # Checked before any subtree is rebuilt: no f call is wasted.
        partial, leaves, calls = make(8, 2)
        for indices in ([8], [0, 8], [-1, 3]):
            with pytest.raises(LeafIndexError):
                partial.multiproof(indices, leaves)
        assert calls == []
        assert partial.subtree_rebuilds == 0

    def test_ell_zero_needs_no_recompute(self):
        partial, leaves, calls = make(16, 0)
        partial.multiproof([7], leaves)
        assert calls == []
        assert partial.leaves_recomputed == 0


class TestStorageComputeTradeoff:
    def test_storage_shrinks_by_2_ell(self):
        # §3.3: storing up to level H−ℓ costs O(|D| / 2^ℓ).
        n = 64
        stored = {}
        for ell in range(0, 7):
            partial, _, _ = make(n, ell)
            stored[ell] = partial.n_nodes
        # Stored count is 2^(H−ℓ+1) − 1.
        for ell in range(0, 7):
            assert stored[ell] == (1 << (6 - ell + 1)) - 1

    def test_rebuild_recomputes_2_ell_leaves(self):
        # §3.3: one proof triggers a height-ℓ subtree rebuild costing
        # 2^ℓ evaluations of f.
        for ell in (1, 2, 3):
            partial, leaves, calls = make(64, ell)
            partial.multiproof([17], leaves)
            assert len(calls) == 1 << ell
            assert partial.leaves_recomputed == 1 << ell
            assert partial.subtree_rebuilds == 1

    def test_rebuild_targets_correct_subtree(self):
        partial, leaves, calls = make(64, 3)
        partial.multiproof([29], leaves)  # subtree index 3 covers leaves 24..31
        assert calls == list(range(24, 32))

    def test_padding_subtree_partially_recomputed(self):
        # Leaves beyond the real domain are padding: no f calls there.
        partial, leaves, calls = make(13, 2)  # padded to 16, subtrees of 4
        partial.multiproof([12], leaves)  # subtree covers 12..15; only 12 real
        assert calls == [12]

    def test_m_proofs_cost_m_rebuilds(self):
        # Samples in distinct subtrees: one rebuild each.
        partial, leaves, _ = make(64, 2)
        partial.multiproof([0, 20, 40, 63], leaves)
        assert partial.subtree_rebuilds == 4
        assert partial.leaves_recomputed == 4 * 4

    def test_samples_sharing_a_subtree_rebuild_it_once(self):
        partial, leaves, calls = make(128, 3)
        partial.multiproof([5, 6, 5, 100], leaves)
        assert calls == [*range(0, 8), *range(96, 104)]
        assert partial.subtree_rebuilds == 2
        assert partial.leaves_recomputed == 16


class TestBooks:
    """Exact hash charges: the commit books what the full tree books,
    and a proof books each touched subtree's rebuild once."""

    @pytest.mark.parametrize("n, ell", [(45, 3), (100, 2), (128, 3), (24, 3), (5, 0)])
    def test_commit_books_equal_the_full_tree(self, n, ell):
        leaves = [f"leaf-{i}".encode() for i in range(n)]
        partial_books, full_books = CostLedger(), CostLedger()
        PartialMerkleTree(
            leaves, leaves.__getitem__, ell, CountingHash(get_hash(), partial_books)
        )
        MerkleTree(leaves, CountingHash(get_hash(), full_books))
        padded = next_power_of_two(n)
        # Real leaves, the empty leaf once if the domain is padded, and
        # every interior node.
        assert partial_books.hashes == n + (padded > n) + padded - 1
        assert partial_books.hashes == full_books.hashes

    @pytest.mark.parametrize("n, ell", [(128, 3), (45, 3), (13, 2)])
    def test_prove_books_one_rebuild_per_touched_subtree(self, n, ell):
        leaves = [f"leaf-{i}".encode() for i in range(n)]
        books = CostLedger()
        partial = PartialMerkleTree(
            leaves, leaves.__getitem__, ell, CountingHash(get_hash(), books)
        )
        indices = [5, 6, 5, n - 1]
        committed = books.hashes
        partial.multiproof(indices, leaves)
        width = 1 << ell
        want = 0
        for subtree in {i >> ell for i in indices}:
            real = min(width, n - subtree * width)
            want += real + (real < width) + width - 1
        assert books.hashes - committed == want


class TestValidation:
    def test_negative_ell_rejected(self):
        leaves = [b"a", b"b"]
        with pytest.raises(MerkleError):
            PartialMerkleTree(leaves, lambda i: leaves[i], subtree_height=-1)

    def test_ell_above_height_rejected(self):
        leaves = [b"a", b"b", b"c", b"d"]
        with pytest.raises(MerkleError):
            PartialMerkleTree(leaves, lambda i: leaves[i], subtree_height=3)

    def test_provider_must_return_committed_payloads(self):
        # A provider returning different data produces invalid proofs —
        # exactly how a cheater who "recomputes" differently gets caught.
        n = 16
        leaves = [f"leaf-{i}".encode() for i in range(n)]
        full = MerkleTree(leaves)
        partial = PartialMerkleTree(
            leaves, lambda i: b"different", subtree_height=2
        )
        (proof,) = partial.multiproof([5], leaves).proofs
        assert not proof.path.verify(leaves[5], full.root, full.hash_fn)


@st.composite
def _partial_cases(draw):
    n = draw(st.integers(min_value=1, max_value=70))
    ell = draw(st.integers(min_value=0, max_value=(n - 1).bit_length()))
    indices = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=12)
    )
    # Duplicates on purpose: a with-replacement challenge repeats leaves.
    indices += draw(st.lists(st.sampled_from(indices), max_size=4))
    return n, ell, draw(st.permutations(indices))


class TestPropertyBased:
    @given(_partial_cases())
    @settings(deadline=None)
    def test_partial_equals_full_everywhere(self, case):
        n, ell, indices = case
        leaves = [bytes([i, (i * 7) % 256]) for i in range(n)]
        calls: list[int] = []

        def provider(index: int) -> bytes:
            calls.append(index)
            return leaves[index]

        partial = PartialMerkleTree(leaves, provider, subtree_height=ell)
        full = MerkleTree(leaves)
        assert partial.root == full.root
        bundle = partial.multiproof(indices, leaves)
        assert bundle == full.multiproof(indices, leaves)
        assert bundle.proofs == full.multiproof(indices, leaves).proofs
        assert calls == (touched_leaves(indices, n, ell) if ell else [])
