"""Tests for the multiproof a proof bundle is built, travels and is
verified as: its shape (``bundle_shape`` over ``supplied_nodes``), the
one fold of the tree the samples span, the producers that read it off
level rows, the value's immutability, and the bundle codec on top."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proof_reference import plain_proofs, ref_bundle, ref_fixed_list, ref_per_path_proofs
from repro.cheating.regrind import _MutableMerkleTree
from repro.core.protocol import ProofBundleMsg
from repro.core.verification import verify_proof_bundle
from repro.exceptions import LeafIndexError
from repro.merkle import MerkleTree, get_hash
from repro.merkle.multiproof import bundle_shape, supplied_nodes
from repro.merkle.proof import NODE_TAG, SampleProof
from repro.merkle.tree import LeafEncoding, empty_leaf_digest, encode_leaves
from repro.utils.encoding import encode_fixed_list


def make(n: int):
    leaves = [f"result-{i:03d}".encode() for i in range(n)]
    return MerkleTree(leaves), leaves


def fold(tree, payloads, claimed, supplied=None):
    """Root of the shared tree the samples ``claimed`` (index ->
    claimed result) span: their pair partners' results read from
    ``payloads``, the supplied digests ``supplied``'s (by default the
    tree's multiproof of those samples)."""
    indices = sorted(claimed)
    supplied = supplied or tree.multiproof(indices, payloads)
    leaves, nodes = bundle_shape(indices, tree.height)
    results = [claimed.get(leaf, payloads[leaf]) for leaf in leaves if leaf < tree.n_leaves]
    digests = encode_leaves(results, tree.hash_fn, tree.leaf_encoding)
    digests += [empty_leaf_digest(tree.hash_fn)] * (len(leaves) - len(results))
    return tree.hash_fn.tagged_fold(
        NODE_TAG, list(zip(leaves, digests)), nodes, supplied.digests
    )


def refused_on_counts(bundle, indices, tree):
    """Whether a supervisor of ``tree`` refuses ``bundle`` for its
    samples ``indices`` on the counts alone, before any check."""
    return verify_proof_bundle(
        bundle, indices, root=tree.root, n_leaves=tree.n_leaves, domain=None,
        function=None, hash_fn=tree.hash_fn, leaf_encoding=tree.leaf_encoding,
        stop_on_first_failure=True,
    ) is None


def bundle(tree, leaves, indices) -> ProofBundleMsg:
    return ProofBundleMsg("t", tree.multiproof(indices, leaves))


def n_supplied(indices, height) -> int:
    return sum(map(len, bundle_shape(indices, height)[1]))


class TestCorrectness:
    def test_single_leaf_equals_auth_path(self):
        tree, leaves = make(16)
        assert fold(tree, leaves, {5: leaves[5]}) == tree.root
        # The classic path above the leaves, in the path's order; the
        # leaf-level sibling travels as its result.
        single = tree.multiproof([5], leaves)
        assert list(single.digests) == tree.auth_path(5).siblings[1:]
        assert single.results == (leaves[4], leaves[5])
        assert bundle_shape([5], 4) == ([4, 5], [[], [3], [0], [1]])

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 32, 100])
    def test_all_leaves_at_once(self, n):
        tree, leaves = make(n)
        assert fold(tree, leaves, dict(enumerate(leaves))) == tree.root

    def test_proving_everything_needs_no_siblings_pow2(self):
        assert supplied_nodes(list(range(16)), 4) == [[], [], [], []]

    def test_adjacent_pair_shares_everything_above(self):
        # Siblings of the pair cancel; need one digest per level above.
        rows = supplied_nodes([6, 7], 4)
        assert [len(row) for row in rows] == [0, 1, 1, 1]

    def test_spread_pair_needs_two_paths_minus_root_share(self):
        tree, leaves = make(16)
        # Paths share only the root: above the leaves 3 + 3 − 2
        # (top-level siblings are each other's covered ancestors) = 4.
        assert n_supplied([0, 15], 4) == 4
        assert fold(tree, leaves, {0: leaves[0], 15: leaves[15]}) == tree.root

    def test_duplicates_deduplicated(self):
        # Samples may repeat (with-replacement draws); the bundle ships
        # each touched pair's results once, and the participant's view
        # hands every sample of a leaf the same proof.
        tree, leaves = make(8)
        msg = bundle(tree, leaves, [3, 3, 1, 1])
        assert [p.index for p in msg.proofs] == [3, 3, 1, 1]
        assert msg.proofs[0] is msg.proofs[1]
        assert msg.proofs[2].path is msg.proofs[3].path
        assert ProofBundleMsg.decode(msg.encode()) == msg
        assert msg.encode() == b"\x01t" + (
            encode_fixed_list(leaves[:4])
            + encode_fixed_list(tree.multiproof([1, 3], leaves).digests)
        )


class TestRejection:
    def test_wrong_payload_rejected(self):
        tree, leaves = make(16)
        assert fold(tree, leaves, {2: b"forged-000", 9: leaves[9]}) != tree.root

    def test_wrong_root_rejected(self):
        tree, leaves = make(16)
        other, _ = make(17)
        assert fold(tree, leaves, {2: leaves[2], 9: leaves[9]}) != other.root

    def test_missing_payload_rejected(self):
        # Both results of each touched pair, or the bundle does not fit
        # the samples: it decodes, and is refused unhashed.
        tree, leaves = make(16)
        raw = bundle(tree, leaves, [2, 9]).encode()
        four = ref_fixed_list([leaves[2], leaves[3], leaves[8], leaves[9]])
        assert four in raw
        short = raw.replace(four, ref_fixed_list([leaves[2], leaves[3], leaves[9]]))
        assert refused_on_counts(ProofBundleMsg.decode(short).bundle, [2, 9], tree)

    def test_too_few_siblings_rejected(self):
        tree, leaves = make(16)
        raw = bundle(tree, leaves, [2, 9]).encode()
        digests = list(tree.multiproof([2, 9], leaves).digests)
        assert (len(digests), n_supplied([2, 9], 4)) == (4, 4)
        assert raw.endswith(ref_fixed_list(digests))
        head = raw[: -len(ref_fixed_list(digests))]
        short = ProofBundleMsg.decode(head + ref_fixed_list(digests[:-1]))
        assert refused_on_counts(short.bundle, [2, 9], tree)

    def test_extra_siblings_rejected(self):
        tree, leaves = make(16)
        raw = bundle(tree, leaves, [2, 9]).encode()
        digests = list(tree.multiproof([2, 9], leaves).digests)
        head = raw[: -len(ref_fixed_list(digests))]
        long = ProofBundleMsg.decode(head + ref_fixed_list(digests + [bytes(32)]))
        assert refused_on_counts(long.bundle, [2, 9], tree)

    def test_validation(self):
        # No samples, no siblings, no results; a one-leaf tree's sample
        # is its own root; the last leaf of an odd tree has a padding
        # partner, whose result never travels.
        assert supplied_nodes([], 3) == [[], [], []]
        assert bundle_shape([], 3) == ([], [[], [], []])
        assert bundle_shape([0, 0], 0) == ([0], [])
        tree, leaves = make(7)
        assert bundle_shape([6], 3) == ([6, 7], [[], [2], [0]])
        assert tree.multiproof([6], leaves).results == (leaves[6],)
        assert fold(tree, leaves, {6: leaves[6]}) == tree.root


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
        assert decoded == msg
        # The received bundle folds through its own lists alone.
        claimed = {p.index: p.claimed_result for p in msg.proofs}
        assert fold(tree, leaves, claimed, decoded.bundle) == tree.root

    def test_raw_encoding_survives(self):
        digests = [get_hash("sha256").digest(bytes([i])) for i in range(8)]
        tree = MerkleTree(digests, leaf_encoding=LeafEncoding.RAW)
        msg = bundle(tree, digests, [2, 5])
        decoded = ProofBundleMsg.decode(msg.encode())
        assert decoded == msg
        assert fold(tree, digests, {2: digests[2], 5: digests[5]}, decoded.bundle) == tree.root


@st.composite
def _samples(draw):
    """A tree size, its 32-byte payloads (valid under either encoding)
    and a list of sample indices: duplicates allowed, any order."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 513]))
    payloads = [hashlib.sha256(b"leaf %d" % i).digest() for i in range(n)]
    indices = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=24))
    return payloads, indices, draw(st.sampled_from(list(LeafEncoding)))


def assert_same_bundle(bundle, reference, payloads):
    """``bundle`` (a ``Multiproof``) is the reference ``SampleProof``s:
    the reference encoder's bytes for them (and the committed
    ``payloads``) on the wire, and the same proofs in its own view."""
    assert ProofBundleMsg("t", bundle).encode() == ref_bundle(
        "t", plain_proofs(reference), payloads
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
        assert_same_bundle(tree.multiproof(indices, payloads), reference, payloads)

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
        assert_same_bundle(tree.multiproof(indices, payloads), reference, payloads)

    def test_sample_outside_the_tree(self):
        tree, leaves = make(8)
        with pytest.raises(LeafIndexError):
            tree.multiproof([3, 8], leaves)


@pytest.mark.parametrize(
    "name", ["indices", "n_leaves", "leaf_encoding", "height", "results", "digests"]
)
def test_a_multiproof_is_immutable(name):
    # Built off rows, a bundle holds its wire fields and, for the
    # participant's own view, its samples and its tree's size, leaf
    # encoding and height: one reassigned afterwards would describe
    # other rows.
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
        assert fold(tree, leaves, payloads) == tree.root
        for i in indices:
            assert tree.auth_path(i).verify(leaves[i], tree.root, tree.hash_fn)
        # And never reaches the root with a corrupted payload.
        corrupt = dict(payloads)
        corrupt[indices[0]] = payloads[indices[0]] + b"!"
        assert fold(tree, leaves, corrupt) != tree.root

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
        # The per-sample rule, which supplies leaf-level siblings too:
        # equal to the paths exactly when no two samples meet below the
        # root, and one more per sample than the pair rule then.
        per_sample = sum(map(len, supplied_nodes(indices, tree.height)))
        assert per_sample <= individual
        if len(indices) == 1:
            assert per_sample == individual == n_supplied(indices, tree.height) + 1
