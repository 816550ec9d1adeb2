"""Tests for Merkle wire serialization.

An authentication path crosses a wire only inside a proof bundle; a
bundle of one supplies every sibling of its path, so these round trips
are the per-path codec's, through the one form there is."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProofBundleMsg
from repro.exceptions import CodecError
from repro.merkle import MerkleTree
from repro.merkle.multiproof import Multiproof
from repro.merkle.tree import LeafEncoding


def encode_auth_path(path, payload=b"") -> bytes:
    # One sample supplies its whole path, leaf level first.
    return ProofBundleMsg("", Multiproof(
        (path.leaf_index,), path.n_leaves, path.leaf_encoding, path.height,
        (payload,), tuple(path.siblings),
    )).encode()


def decode_auth_path(data):
    (proof,) = ProofBundleMsg.decode(data).proofs
    return proof.path


class TestAuthPathRoundtrip:
    def test_roundtrip_preserves_fields(self):
        tree = MerkleTree([bytes([i]) for i in range(20)])
        path = tree.auth_path(13)
        decoded = decode_auth_path(encode_auth_path(path))
        assert decoded.leaf_index == path.leaf_index
        assert decoded.siblings == path.siblings
        assert decoded.n_leaves == path.n_leaves
        assert decoded.leaf_encoding == path.leaf_encoding

    def test_decoded_path_still_verifies(self):
        leaves = [f"v{i}".encode() for i in range(10)]
        tree = MerkleTree(leaves)
        decoded = decode_auth_path(encode_auth_path(tree.auth_path(7)))
        assert decoded.verify(leaves[7], tree.root, tree.hash_fn)

    def test_raw_encoding_survives(self):
        h_leaves = [
            MerkleTree([b"x"]).hash_fn.digest(bytes([i])) for i in range(4)
        ]
        tree = MerkleTree(h_leaves, leaf_encoding=LeafEncoding.RAW)
        decoded = decode_auth_path(encode_auth_path(tree.auth_path(1)))
        assert decoded.leaf_encoding == LeafEncoding.RAW

    def test_unknown_encoding_code_rejected(self):
        tree = MerkleTree([b"a", b"b"])
        data = bytearray(encode_auth_path(tree.auth_path(0)))
        # Byte layout: empty task id, m = 1, n_leaves, then the
        # encoding code.
        assert data[:4] == bytes([0, 1, 2, 0])
        data[3] = 9
        with pytest.raises(CodecError):
            decode_auth_path(bytes(data))

    @given(st.integers(min_value=1, max_value=64), st.data())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, n, data):
        tree = MerkleTree([bytes([i % 256, 1]) for i in range(n)])
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        path = tree.auth_path(index)
        decoded = decode_auth_path(encode_auth_path(path))
        assert decoded.siblings == path.siblings
        assert decoded.leaf_index == index

