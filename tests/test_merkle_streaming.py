"""Tests for the §3.3 tree's streaming commit.

:class:`PartialMerkleTree` consumes its payloads one ``2^ℓ``-wide run at
a time: each run's subtree is built, its root kept and the run dropped,
so a commitment never holds the bottom of the tree.  The in-memory
:class:`MerkleTree` is the oracle for the root and the stored rows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import CostLedger
from repro.exceptions import EmptyTreeError
from repro.merkle import CountingHash, MerkleTree, PartialMerkleTree, get_hash
from repro.merkle.tree import LeafEncoding


def leaves(n: int) -> list[bytes]:
    return [f"payload-{i}".encode() for i in range(n)]


def commit(data, ell: int, **kwargs) -> PartialMerkleTree:
    """Stream ``data`` (a generator, so nothing can be re-read) into a
    partial tree storing heights ``>= ell``."""
    return PartialMerkleTree(iter(data), lambda i: b"", ell, **kwargs)


class TestRootEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 31, 32, 100])
    def test_matches_in_memory_tree(self, n):
        data = leaves(n)
        tree = MerkleTree(data)
        for ell in range(tree.height + 1):
            assert commit(data, ell).root == tree.root, ell

    def test_matches_with_md5(self):
        data = leaves(10)
        md5 = get_hash("md5")
        assert commit(data, 2, hash_fn=md5).root == MerkleTree(data, md5).root

    def test_raw_encoding(self):
        h = get_hash("sha256")
        data = [h.digest(bytes([i])) for i in range(6)]
        expected = MerkleTree(data, leaf_encoding=LeafEncoding.RAW).root
        assert commit(data, 1, leaf_encoding=LeafEncoding.RAW).root == expected

    @given(
        st.lists(st.binary(max_size=24), min_size=1, max_size=80), st.data()
    )
    @settings(max_examples=40, deadline=None)
    def test_property_equivalence(self, data, draw):
        tree = MerkleTree(data)
        ell = draw.draw(st.integers(min_value=0, max_value=tree.height))
        assert commit(data, ell).root == tree.root


class TestLifecycle:
    def test_empty_finalize_rejected(self):
        with pytest.raises(EmptyTreeError):
            commit([], 0)

    def test_height(self):
        assert commit(leaves(9), 2).height == 4


class TestMemoryBound:
    def test_commit_consumes_one_run_at_a_time(self):
        # When payload k is pulled, every run before k's is already
        # built: 2^ℓ leaf hashes and 2^ℓ − 1 interior ones each.
        n, ell = 64, 3
        width, books = 1 << ell, CostLedger()
        built_before: list[int] = []

        def stream():
            for k, payload in enumerate(leaves(n)):
                built_before.append(books.hashes)
                yield payload

        commit(stream(), ell, hash_fn=CountingHash(get_hash(), books))
        for k, hashes in enumerate(built_before):
            assert hashes == (k // width) * (2 * width - 1), k


class TestCapture:
    def test_captured_top_levels_match_tree(self):
        n, ell = 32, 2
        data = leaves(n)
        stored = commit(data, ell)._stored
        tree = MerkleTree(data)
        # Height h from leaves = tree level (tree.height - h) from root.
        for h, row in enumerate(stored, start=ell):
            assert row == tree._levels[tree.height - h], h
        assert len(stored) == tree.height - ell + 1

    def test_capture_zero_includes_leaf_digests(self):
        data = leaves(4)
        tree = MerkleTree(data)
        assert commit(data, 0)._stored[0] == tree._levels[tree.height]
