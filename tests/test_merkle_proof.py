"""Tests for authentication paths and root reconstruction Λ."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProofBundleMsg, SampleProof
from repro.exceptions import ProofShapeError
from repro.merkle import MerkleTree, get_hash
from repro.merkle.proof import AuthenticationPath, compute_root_from_path
from repro.merkle.tree import LeafEncoding, encode_leaf


def build(n: int) -> tuple[MerkleTree, list[bytes]]:
    leaves = [f"f(x{i})".encode() for i in range(n)]
    return MerkleTree(leaves), leaves


class TestAuthPath:
    def test_height_matches_tree(self):
        tree, _ = build(16)
        assert tree.auth_path(3).height == 4

    def test_padding_region_provable(self):
        # Last real leaf of a padded tree still proves correctly.
        tree, leaves = build(9)
        path = tree.auth_path(8)
        assert path.verify(leaves[8], tree.root, tree.hash_fn)

    def test_all_indices_all_sizes(self):
        for n in (1, 2, 3, 4, 5, 7, 8, 13):
            tree, leaves = build(n)
            for i in range(n):
                assert tree.auth_path(i).verify(leaves[i], tree.root, tree.hash_fn)

    def test_wrong_payload_fails(self):
        tree, leaves = build(8)
        path = tree.auth_path(2)
        assert not path.verify(b"forged", tree.root, tree.hash_fn)

    def test_wrong_root_fails(self):
        tree, leaves = build(8)
        other, _ = build(9)
        path = tree.auth_path(2)
        assert not path.verify(leaves[2], other.root, tree.hash_fn)

    def test_wrong_position_fails(self):
        # The same payload proven at a different index must fail: the
        # index bits steer left/right combination (footnote 1's
        # procedure).
        tree, leaves = build(8)
        path = tree.auth_path(2)
        moved = AuthenticationPath(
            leaf_index=3,
            siblings=list(path.siblings),
            n_leaves=path.n_leaves,
            leaf_encoding=path.leaf_encoding,
        )
        assert not moved.verify(leaves[2], tree.root, tree.hash_fn)

    def test_tampered_sibling_fails(self):
        tree, leaves = build(8)
        path = tree.auth_path(5)
        tampered_siblings = list(path.siblings)
        tampered_siblings[1] = bytes(32)
        tampered = AuthenticationPath(
            leaf_index=5,
            siblings=tampered_siblings,
            n_leaves=path.n_leaves,
            leaf_encoding=path.leaf_encoding,
        )
        assert not tampered.verify(leaves[5], tree.root, tree.hash_fn)


class TestValidation:
    def test_negative_index_rejected(self):
        with pytest.raises(ProofShapeError):
            AuthenticationPath(leaf_index=-1, siblings=[])

    def test_index_beyond_n_leaves_rejected(self):
        with pytest.raises(ProofShapeError):
            AuthenticationPath(leaf_index=9, siblings=[], n_leaves=8)

    def test_inconsistent_sibling_sizes_rejected(self):
        with pytest.raises(ProofShapeError):
            AuthenticationPath(leaf_index=0, siblings=[b"ab", b"abcd"])


class TestReconstruction:
    def test_footnote1_procedure(self):
        # The paper's footnote 1 walks x3 (leaf L3, 1-based; index 2
        # here) upward: combine with L4's Φ, then A, then D, then F.
        tree, leaves = build(16)
        h = tree.hash_fn
        path = tree.auth_path(2)
        leaf_phi = encode_leaf(leaves[2], h, LeafEncoding.HASHED)
        assert (
            compute_root_from_path(leaf_phi, 2, list(path.siblings), h)
            == tree.root
        )

    def test_root_from_phi_equals_root_from_payload(self):
        tree, leaves = build(8)
        h = tree.hash_fn
        path = tree.auth_path(4)
        via_payload = path.root_from_payload(leaves[4], h)
        via_phi = path.root_from_phi(
            encode_leaf(leaves[4], h, LeafEncoding.HASHED), h
        )
        assert via_payload == via_phi == tree.root

    def test_single_leaf_tree_empty_path(self):
        tree, leaves = build(1)
        path = tree.auth_path(0)
        assert path.height == 0
        assert path.verify(leaves[0], tree.root, tree.hash_fn)


class TestWireSize:
    def test_grows_logarithmically(self):
        sizes = {}
        for n in (4, 16, 64, 256):
            tree, _ = build(n)
            # One path on the wire is a bundle of one: every sibling
            # is supplied, each a length byte and a 32-byte digest.
            path = tree.auth_path(0)
            sizes[n] = len(ProofBundleMsg("", (SampleProof(0, b"", path),)).encode())
        # Each 4x in n adds exactly 2 sibling digests (2 * 33 bytes).
        assert sizes[16] - sizes[4] == 2 * 33
        assert sizes[256] - sizes[64] == pytest.approx(2 * 33, abs=1)

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_path_length_is_ceil_log2(self, n):
        import math

        tree = MerkleTree([bytes([i % 256]) for i in range(n)])
        expected = math.ceil(math.log2(n)) if n > 1 else 0
        assert tree.auth_path(0).height == expected
