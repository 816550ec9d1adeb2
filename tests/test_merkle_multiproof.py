"""Tests for the multiproof a proof bundle is built, travels and is
verified as: which siblings are supplied (``supplied_nodes``), the one
fold of the tree the samples span, the producers that read it off level
rows, the value's immutability, and the bundle codec on top."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proof_reference import plain_proofs, ref_bundle, ref_per_path_proofs
from repro.cheating.regrind import _MutableMerkleTree
from repro.core.protocol import ProofBundleMsg
from repro.exceptions import CodecError, LeafIndexError, ProofShapeError
from repro.merkle import MerkleTree, get_hash
from repro.merkle.multiproof import Multiproof, supplied_nodes
from repro.merkle.proof import NODE_TAG, SampleProof
from repro.merkle.tree import LeafEncoding, encode_leaves
from repro.utils.encoding import encode_bytes_list


def make(n: int):
    leaves = [f"result-{i}".encode() for i in range(n)]
    return MerkleTree(leaves), leaves


def fold(tree, payloads, supplied=None):
    """Root of the shared tree over ``payloads`` (index -> claimed), the
    supplied digests ``supplied``'s (by default the tree's multiproof of
    those leaves)."""
    indices = sorted(payloads)
    supplied = supplied or tree.multiproof(indices, payloads)
    digests = encode_leaves(
        [payloads[i] for i in indices], tree.hash_fn, tree.leaf_encoding
    )
    return tree.hash_fn.tagged_fold(
        NODE_TAG, list(zip(indices, digests)), supplied.nodes, supplied.digests
    )


def bundle(tree, leaves, indices) -> ProofBundleMsg:
    return ProofBundleMsg("t", tree.multiproof(indices, leaves))


def n_supplied(indices, height) -> int:
    return sum(map(len, supplied_nodes(sorted(set(indices)), height)))


class TestCorrectness:
    def test_single_leaf_equals_auth_path(self):
        tree, leaves = make(16)
        assert fold(tree, {5: leaves[5]}) == tree.root
        # Same digests as the classic path, in the path's order.
        single = tree.multiproof([5], leaves)
        assert list(single.digests) == tree.auth_path(5).siblings
        assert single.nodes == [[4], [3], [0], [1]]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 32, 100])
    def test_all_leaves_at_once(self, n):
        tree, leaves = make(n)
        assert fold(tree, dict(enumerate(leaves))) == tree.root

    def test_proving_everything_needs_no_siblings_pow2(self):
        assert supplied_nodes(list(range(16)), 4) == [[], [], [], []]

    def test_adjacent_pair_shares_everything_above(self):
        # Siblings of the pair cancel; need one digest per level above.
        rows = supplied_nodes([6, 7], 4)
        assert [len(row) for row in rows] == [0, 1, 1, 1]

    def test_spread_pair_needs_two_paths_minus_root_share(self):
        tree, leaves = make(16)
        # Paths share only the root: 4 + 4 − 2 (top-level siblings are
        # each other's covered ancestors) = 6.
        assert n_supplied([0, 15], 4) == 6
        assert fold(tree, {0: leaves[0], 15: leaves[15]}) == tree.root

    def test_duplicates_deduplicated(self):
        # Samples may repeat (with-replacement draws); the bundle ships
        # one result per distinct leaf and hands every sample of a leaf
        # the same proof.
        tree, leaves = make(8)
        msg = bundle(tree, leaves, [3, 3, 1, 1])
        decoded = ProofBundleMsg.decode(msg.encode())
        assert [p.index for p in decoded.proofs] == [3, 3, 1, 1]
        assert decoded.proofs[0] is decoded.proofs[1]
        assert decoded.proofs[2].path is decoded.proofs[3].path
        assert msg.encode() == b"\x01t" + bytes([4, 8, 0, 3, 3, 3, 1, 1]) + (
            encode_bytes_list([leaves[1], leaves[3]])
            + encode_bytes_list(tree.multiproof([1, 3], leaves).digests)
        )


class TestRejection:
    def test_wrong_payload_rejected(self):
        tree, leaves = make(16)
        assert fold(tree, {2: b"forged", 9: leaves[9]}) != tree.root

    def test_wrong_root_rejected(self):
        tree, leaves = make(16)
        other, _ = make(17)
        assert fold(tree, {2: leaves[2], 9: leaves[9]}) != other.root

    def test_missing_payload_rejected(self):
        # One claimed result per distinct leaf, or the bytes are not a
        # bundle.
        tree, leaves = make(16)
        raw = bundle(tree, leaves, [2, 9]).encode()
        both = encode_bytes_list([leaves[2], leaves[9]])
        assert both in raw
        with pytest.raises(CodecError, match="1 claimed results for 2"):
            ProofBundleMsg.decode(raw.replace(both, encode_bytes_list([leaves[2]])))

    def test_too_few_siblings_rejected(self):
        tree, leaves = make(16)
        raw = bundle(tree, leaves, [2, 9]).encode()
        digests = list(tree.multiproof([2, 9], leaves).digests)
        assert raw.endswith(encode_bytes_list(digests))
        head = raw[: -len(encode_bytes_list(digests))]
        with pytest.raises(CodecError, match="5 supplied digests, the samples need 6"):
            ProofBundleMsg.decode(head + encode_bytes_list(digests[:-1]))

    def test_extra_siblings_rejected(self):
        tree, leaves = make(16)
        raw = bundle(tree, leaves, [2, 9]).encode()
        digests = list(tree.multiproof([2, 9], leaves).digests)
        head = raw[: -len(encode_bytes_list(digests))]
        with pytest.raises(CodecError, match="7 supplied digests, the samples need 6"):
            ProofBundleMsg.decode(head + encode_bytes_list(digests + [bytes(32)]))

    def test_validation(self):
        # No samples, no siblings; a sample outside the bundle's own
        # tree is an impossible path.
        assert supplied_nodes([], 3) == [[], [], []]
        tree, leaves = make(8)
        raw = bytearray(bundle(tree, leaves, [7]).encode())
        assert raw[3] == 8  # task ‖ m ‖ n_leaves
        raw[3] = 7
        with pytest.raises(ProofShapeError):
            ProofBundleMsg.decode(bytes(raw))


class TestCompression:
    def test_never_larger_than_individual_paths(self):
        tree, leaves = make(256)
        indices = [0, 1, 2, 3, 100, 101, 200, 255]
        msg = bundle(tree, leaves, indices)
        multi = len(msg.encode()) - len(b"\x01t")
        individual = len(ref_per_path_proofs(plain_proofs(msg.proofs)))
        assert multi < individual

    def test_clustered_indices_compress_better(self):
        tree, leaves = make(256)
        clustered = len(bundle(tree, leaves, list(range(8))).encode())
        spread = len(
            bundle(tree, leaves, [0, 32, 64, 96, 128, 160, 192, 224]).encode()
        )
        assert clustered < spread


class TestCodec:
    def test_roundtrip(self):
        tree, leaves = make(20)
        msg = bundle(tree, leaves, [1, 7, 19])
        decoded = ProofBundleMsg.decode(msg.encode())
        assert decoded.encode() == msg.encode()
        # The received bundle folds through its supplied digests alone.
        claimed = {p.index: p.claimed_result for p in decoded.proofs}
        assert fold(tree, claimed, decoded.bundle) == tree.root
        # ... and hold nothing where another sample determines the digest.
        assert decoded.proofs[0].path.siblings[4] is None
        with pytest.raises(ProofShapeError, match="no sibling at level 2"):
            decoded.proofs[0].path.root_from_payload(leaves[1], tree.hash_fn)

    def test_raw_encoding_survives(self):
        digests = [get_hash("sha256").digest(bytes([i])) for i in range(8)]
        tree = MerkleTree(digests, leaf_encoding=LeafEncoding.RAW)
        msg = bundle(tree, digests, [2, 5])
        decoded = ProofBundleMsg.decode(msg.encode())
        assert {p.path.leaf_encoding for p in decoded.proofs} == {LeafEncoding.RAW}
        assert fold(tree, {2: digests[2], 5: digests[5]}) == tree.root

    @pytest.mark.parametrize("code", [2, 9, 127])
    def test_unknown_encoding_code_rejected(self, code):
        # Byte layout: task id, m, n_leaves (1 B for 20), then the
        # encoding code.  Only 0 and 1 name a leaf encoding.
        tree, leaves = make(20)
        data = bytearray(bundle(tree, leaves, [1, 7]).encode())
        assert data[2:5] == bytes([2, 20, 0])
        data[4] = code
        with pytest.raises(CodecError, match="leaf-encoding code"):
            ProofBundleMsg.decode(bytes(data))


@st.composite
def _samples(draw):
    """A tree size, its 32-byte payloads (valid under either encoding)
    and a list of sample indices: duplicates allowed, any order."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 513]))
    payloads = [hashlib.sha256(b"leaf %d" % i).digest() for i in range(n)]
    indices = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=24))
    return payloads, indices, draw(st.sampled_from(list(LeafEncoding)))


def assert_same_bundle(bundle, reference):
    """``bundle`` (a ``Multiproof``) is the reference ``SampleProof``s:
    the reference encoder's bytes for them on the wire, and the same
    proofs when read back."""
    assert ProofBundleMsg("t", bundle).encode() == ref_bundle(
        "t", plain_proofs(reference)
    )
    assert ProofBundleMsg("t", bundle).proofs == reference
    assert [p.path for p in bundle.proofs] == [p.path for p in reference]


class TestProducers:
    """Every producer fills the multiproof from level rows; the
    reference is the per-sample ``auth_path`` form it replaced."""

    @given(_samples())
    @settings(max_examples=80, deadline=None)
    def test_tree_rows(self, sample):
        payloads, indices, encoding = sample
        tree = MerkleTree(payloads, leaf_encoding=encoding)
        reference = tuple(
            SampleProof(i, payloads[i], tree.auth_path(i)) for i in indices
        )
        assert_same_bundle(tree.multiproof(indices, payloads), reference)

    @given(_samples(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_regrinder_rows_after_updates(self, sample, data):
        payloads, indices, encoding = sample
        tree = _MutableMerkleTree(list(payloads), get_hash(), encoding)
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            leaf = data.draw(st.integers(min_value=0, max_value=len(payloads) - 1))
            payloads[leaf] = data.draw(st.binary(min_size=32, max_size=32))
            tree.update_leaf(leaf, payloads[leaf])
        rebuilt = MerkleTree(payloads, leaf_encoding=encoding)
        assert tree.root == rebuilt.root
        reference = tuple(
            SampleProof(i, payloads[i], rebuilt.auth_path(i)) for i in indices
        )
        assert_same_bundle(tree.multiproof(indices, payloads), reference)

    def test_sample_outside_the_tree(self):
        tree, leaves = make(8)
        with pytest.raises(LeafIndexError):
            tree.multiproof([3, 8], leaves)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Multiproof)])
def test_a_multiproof_is_immutable(name):
    # Built off rows, a bundle caches its leaves, supplied nodes and
    # rows: a field reassigned afterwards would verify against stale
    # geometry.
    tree, leaves = make(8)
    built = tree.multiproof([1, 6], leaves)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, getattr(built, name))


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
        payloads = {i: leaves[i] for i in indices}
        assert fold(tree, payloads) == tree.root
        for i in indices:
            assert tree.auth_path(i).verify(leaves[i], tree.root, tree.hash_fn)
        # And never reaches the root with a corrupted payload.
        corrupt = dict(payloads)
        corrupt[indices[0]] = payloads[indices[0]] + b"!"
        assert fold(tree, corrupt) != tree.root

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
        individual = sum(tree.auth_path(i).height for i in indices)
        assert n_supplied(indices, tree.height) <= individual
        # Equal exactly when no two samples meet below the root.
        if len(indices) == 1:
            assert n_supplied(indices, tree.height) == individual
