"""Tests for Merkle wire serialization.

An authentication path crosses a wire only inside a proof bundle.  A
bundle of one carries its leaf pair's results and every sibling above
them; the verifier, which knows the sample, the tree and the leaf
encoding, reads the path back — its leaf-level sibling is the pair
partner's leaf digest — so these round trips are the per-path codec's,
through the one form there is."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProofBundleMsg
from repro.merkle import AuthenticationPath, MerkleTree
from repro.merkle.tree import LeafEncoding, empty_leaf_digest, encode_leaf


def encode_auth_path(tree, payloads, index) -> bytes:
    # One sample: its pair's results, its path above the leaves.
    return ProofBundleMsg("", tree.multiproof([index], payloads)).encode()


def decode_auth_path(data, tree, index):
    """The path a verifier reads out of a bundle of one, knowing the
    sample, the tree's size and its leaf encoding."""
    bundle = ProofBundleMsg.decode(data).bundle
    siblings = list(bundle.digests)
    if tree.height:
        partner = index ^ 1
        if partner < tree.n_leaves:
            results = dict(zip(sorted({index, partner}), bundle.results))
            leaf = encode_leaf(results[partner], tree.hash_fn, tree.leaf_encoding)
        else:
            leaf = empty_leaf_digest(tree.hash_fn)
        siblings.insert(0, leaf)
    return AuthenticationPath(index, siblings, tree.n_leaves, tree.leaf_encoding)


class TestAuthPathRoundtrip:
    def test_roundtrip_preserves_fields(self):
        payloads = [bytes([i]) for i in range(20)]
        tree = MerkleTree(payloads)
        path = tree.auth_path(13)
        decoded = decode_auth_path(encode_auth_path(tree, payloads, 13), tree, 13)
        assert decoded == path

    def test_decoded_path_still_verifies(self):
        leaves = [f"v{i}".encode() for i in range(10)]
        tree = MerkleTree(leaves)
        decoded = decode_auth_path(encode_auth_path(tree, leaves, 7), tree, 7)
        assert decoded.verify(leaves[7], tree.root, tree.hash_fn)

    def test_raw_encoding_survives(self):
        h_leaves = [
            MerkleTree([b"x"]).hash_fn.digest(bytes([i])) for i in range(4)
        ]
        tree = MerkleTree(h_leaves, leaf_encoding=LeafEncoding.RAW)
        decoded = decode_auth_path(encode_auth_path(tree, h_leaves, 1), tree, 1)
        assert decoded == tree.auth_path(1)
        assert decoded.leaf_encoding == LeafEncoding.RAW

    @given(st.integers(min_value=1, max_value=64), st.data())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, n, data):
        payloads = [bytes([i % 256, 1]) for i in range(n)]
        tree = MerkleTree(payloads)
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        path = tree.auth_path(index)
        decoded = decode_auth_path(encode_auth_path(tree, payloads, index), tree, index)
        assert decoded.siblings == path.siblings
        assert decoded.leaf_index == index
