"""Tests for compressed Merkle multiproofs (the E11 batching ablation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MerkleError, ProofShapeError
from repro.merkle import MerkleTree, build_multiproof, get_hash
from repro.merkle.multiproof import MerkleMultiProof
from repro.merkle.serialize import encode_auth_path
from repro.merkle.tree import LeafEncoding


def make(n: int):
    leaves = [f"result-{i}".encode() for i in range(n)]
    return MerkleTree(leaves), leaves


class TestCorrectness:
    def test_single_leaf_equals_auth_path(self):
        tree, leaves = make(16)
        proof = build_multiproof(tree, [5])
        assert proof.verify({5: leaves[5]}, tree.root, tree.hash_fn)
        # Same digests as the classic path.
        assert list(proof.siblings) == list(tree.auth_path(5).siblings)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 32, 100])
    def test_all_leaves_at_once(self, n):
        tree, leaves = make(n)
        proof = build_multiproof(tree, list(range(n)))
        payloads = {i: leaves[i] for i in range(n)}
        assert proof.verify(payloads, tree.root, tree.hash_fn)

    def test_proving_everything_needs_no_siblings_pow2(self):
        tree, leaves = make(16)
        proof = build_multiproof(tree, list(range(16)))
        assert proof.siblings == ()

    def test_adjacent_pair_shares_everything_above(self):
        tree, leaves = make(16)  # height 4
        proof = build_multiproof(tree, [6, 7])
        # Siblings of the pair cancel; need one digest per level above.
        assert len(proof.siblings) == 3

    def test_spread_pair_needs_two_paths_minus_root_share(self):
        tree, leaves = make(16)
        proof = build_multiproof(tree, [0, 15])
        # Paths share only the root: 4 + 4 − 2 (top-level siblings are
        # each other's covered ancestors) = 6.
        assert len(proof.siblings) == 6
        assert proof.verify(
            {0: leaves[0], 15: leaves[15]}, tree.root, tree.hash_fn
        )

    def test_duplicates_deduplicated(self):
        tree, leaves = make(8)
        proof = build_multiproof(tree, [3, 3, 1, 1])
        assert proof.leaf_indices == (1, 3)


class TestRejection:
    def test_wrong_payload_rejected(self):
        tree, leaves = make(16)
        proof = build_multiproof(tree, [2, 9])
        assert not proof.verify(
            {2: b"forged", 9: leaves[9]}, tree.root, tree.hash_fn
        )

    def test_wrong_root_rejected(self):
        tree, leaves = make(16)
        other, _ = make(17)
        proof = build_multiproof(tree, [2, 9])
        assert not proof.verify(
            {2: leaves[2], 9: leaves[9]}, other.root, tree.hash_fn
        )

    def test_missing_payload_rejected(self):
        tree, leaves = make(16)
        proof = build_multiproof(tree, [2, 9])
        assert not proof.verify({2: leaves[2]}, tree.root, tree.hash_fn)

    def test_too_few_siblings_rejected(self):
        tree, leaves = make(16)
        proof = build_multiproof(tree, [2, 9])
        truncated = MerkleMultiProof(
            leaf_indices=proof.leaf_indices,
            siblings=proof.siblings[:-1],
            n_leaves=proof.n_leaves,
            leaf_encoding=proof.leaf_encoding,
        )
        assert not truncated.verify(
            {2: leaves[2], 9: leaves[9]}, tree.root, tree.hash_fn
        )

    def test_extra_siblings_rejected(self):
        tree, leaves = make(16)
        proof = build_multiproof(tree, [2, 9])
        padded = MerkleMultiProof(
            leaf_indices=proof.leaf_indices,
            siblings=proof.siblings + (bytes(32),),
            n_leaves=proof.n_leaves,
            leaf_encoding=proof.leaf_encoding,
        )
        assert not padded.verify(
            {2: leaves[2], 9: leaves[9]}, tree.root, tree.hash_fn
        )

    def test_validation(self):
        tree, _ = make(8)
        with pytest.raises(MerkleError):
            build_multiproof(tree, [])
        with pytest.raises(MerkleError):
            build_multiproof(tree, [8])
        with pytest.raises(ProofShapeError):
            MerkleMultiProof(leaf_indices=(), siblings=(), n_leaves=8)
        with pytest.raises(ProofShapeError):
            MerkleMultiProof(leaf_indices=(3, 1), siblings=(), n_leaves=8)


class TestCompression:
    def test_never_larger_than_individual_paths(self):
        tree, leaves = make(256)
        indices = [0, 1, 2, 3, 100, 101, 200, 255]
        multi = build_multiproof(tree, indices).wire_size()
        individual = sum(
            len(encode_auth_path(tree.auth_path(i))) for i in indices
        )
        assert multi < individual

    def test_clustered_indices_compress_better(self):
        tree, leaves = make(256)
        clustered = build_multiproof(tree, list(range(8))).wire_size()
        spread = build_multiproof(
            tree, [0, 32, 64, 96, 128, 160, 192, 224]
        ).wire_size()
        assert clustered < spread


class TestCodec:
    def test_roundtrip(self):
        tree, leaves = make(20)
        proof = build_multiproof(tree, [1, 7, 19])
        decoded = MerkleMultiProof.decode(proof.encode())
        assert decoded == proof
        assert decoded.verify(
            {1: leaves[1], 7: leaves[7], 19: leaves[19]},
            tree.root,
            tree.hash_fn,
        )

    def test_raw_encoding_survives(self):
        digests = [get_hash("sha256").digest(bytes([i])) for i in range(8)]
        tree = MerkleTree(digests, leaf_encoding=LeafEncoding.RAW)
        proof = build_multiproof(tree, [2, 5])
        assert MerkleMultiProof.decode(proof.encode()) == proof

    @pytest.mark.parametrize("code", [2, 9, 127])
    def test_unknown_encoding_code_rejected(self, code):
        # Byte layout: n_leaves varint (1B for 20), then the encoding
        # code.  Every non-zero code used to decode as RAW.
        tree, _leaves = make(20)
        data = bytearray(build_multiproof(tree, [1, 7]).encode())
        assert data[1] == 0
        data[1] = code
        with pytest.raises(MerkleError, match="leaf-encoding code"):
            MerkleMultiProof.decode(bytes(data))


class TestPropertyBased:
    @given(
        n=st.integers(min_value=1, max_value=120),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_multiproof_equivalent_to_paths(self, n, data):
        leaves = [bytes([i % 256, (i * 3) % 256]) for i in range(n)]
        tree = MerkleTree(leaves)
        k = data.draw(st.integers(min_value=1, max_value=min(n, 10)))
        indices = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=k,
                )
            )
        )
        proof = build_multiproof(tree, indices)
        payloads = {i: leaves[i] for i in indices}
        assert proof.verify(payloads, tree.root, tree.hash_fn)
        # And never beats the root with a corrupted payload.
        corrupt = dict(payloads)
        corrupt[indices[0]] = payloads[indices[0]] + b"!"
        assert not proof.verify(corrupt, tree.root, tree.hash_fn)

    @given(n=st.integers(min_value=2, max_value=120), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_compression_never_worse(self, n, data):
        leaves = [bytes([i % 256]) for i in range(n)]
        tree = MerkleTree(leaves)
        indices = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=min(n, 8),
                )
            )
        )
        multi = len(build_multiproof(tree, indices).siblings)
        individual = sum(tree.auth_path(i).height for i in indices)
        assert multi <= individual
