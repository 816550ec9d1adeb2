"""Failure-injection tests for supervisor-side sample verification.

Theorem 2's guarantee is only as good as the verifier's checks; these
tests tamper with every field of a valid proof and assert rejection
with the right reason.
"""

import dataclasses

import pytest

from repro.core.protocol import SampleProof
from repro.core.scheme import RejectReason
from repro.core.verification import verify_sample_proof
from repro.merkle import AuthenticationPath, MerkleTree, get_hash
from repro.merkle.tree import LeafEncoding
from repro.tasks import PasswordSearch, RangeDomain


@pytest.fixture
def setup():
    fn = PasswordSearch()
    domain = RangeDomain(0, 16)
    leaves = [fn.evaluate(x) for x in domain]
    tree = MerkleTree(leaves)
    return fn, domain, leaves, tree


def proof_for(tree, leaves, index) -> SampleProof:
    return SampleProof(
        index=index, claimed_result=leaves[index], path=tree.auth_path(index)
    )


def verify(proof, index, tree, domain, fn):
    return verify_sample_proof(
        proof=proof,
        expected_index=index,
        root=tree.root,
        n_leaves=16,
        domain=domain,
        function=fn,
        hash_fn=get_hash("sha256"),
        leaf_encoding=LeafEncoding.HASHED,
    )


class TestHonestProofAccepted:
    def test_every_index(self, setup):
        fn, domain, leaves, tree = setup
        for i in range(16):
            verdict = verify(proof_for(tree, leaves, i), i, tree, domain, fn)
            assert verdict.accepted
            assert verdict.reason == RejectReason.OK


class TestTamperedProofsRejected:
    def test_wrong_claimed_result(self, setup):
        # Committed a guess: the claimed value fails the f(x) check.
        fn, domain, leaves, tree = setup
        proof = SampleProof(
            index=3, claimed_result=b"\x00" * 16, path=tree.auth_path(3)
        )
        verdict = verify(proof, 3, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.WRONG_RESULT

    def test_correct_result_wrong_commitment(self, setup):
        # The §3 attack CBS exists to stop: compute f(x) only *after*
        # learning the sample.  The value is correct but was never in
        # the tree, so root reconstruction must fail.
        fn, domain, leaves, tree = setup
        forged_leaves = list(leaves)
        forged_leaves[3] = b"\xff" * 16  # tree committed garbage at 3
        forged_tree = MerkleTree(forged_leaves)
        proof = SampleProof(
            index=3,
            claimed_result=leaves[3],  # now-correct f(x)
            path=forged_tree.auth_path(3),
        )
        verdict = verify(proof, 3, forged_tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.ROOT_MISMATCH

    def test_proof_for_different_index(self, setup):
        fn, domain, leaves, tree = setup
        verdict = verify(proof_for(tree, leaves, 5), 7, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.MALFORMED_PROOF

    def test_path_index_mismatch(self, setup):
        fn, domain, leaves, tree = setup
        honest = tree.auth_path(5)
        mismatched = SampleProof(
            index=7,
            claimed_result=leaves[7],
            path=honest,  # path says leaf 5
        )
        verdict = verify(mismatched, 7, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.MALFORMED_PROOF

    def test_truncated_path(self, setup):
        fn, domain, leaves, tree = setup
        full = tree.auth_path(2)
        truncated = AuthenticationPath(
            leaf_index=2,
            siblings=list(full.siblings)[:-1],
            n_leaves=full.n_leaves,
            leaf_encoding=full.leaf_encoding,
        )
        proof = SampleProof(index=2, claimed_result=leaves[2], path=truncated)
        verdict = verify(proof, 2, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.MALFORMED_PROOF

    def test_oversized_sibling_digests(self, setup):
        fn, domain, leaves, tree = setup
        full = tree.auth_path(2)
        wrong_width = AuthenticationPath(
            leaf_index=2,
            siblings=[s + b"\x00" for s in full.siblings],
            n_leaves=full.n_leaves,
            leaf_encoding=full.leaf_encoding,
        )
        proof = SampleProof(index=2, claimed_result=leaves[2], path=wrong_width)
        verdict = verify(proof, 2, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.MALFORMED_PROOF

    def test_swapped_siblings(self, setup):
        fn, domain, leaves, tree = setup
        full = tree.auth_path(2)
        swapped = list(full.siblings)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        proof = SampleProof(
            index=2,
            claimed_result=leaves[2],
            path=AuthenticationPath(
                leaf_index=2,
                siblings=swapped,
                n_leaves=full.n_leaves,
                leaf_encoding=full.leaf_encoding,
            ),
        )
        verdict = verify(proof, 2, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.ROOT_MISMATCH


class TestLeafEncodingIsTheSupervisors:
    """The leaf encoding on a path is the peer's claim, not a setting:
    the supervisor hashes leaves its own way and treats a path that
    names another encoding as malformed."""

    @staticmethod
    def relabelled(path, encoding) -> AuthenticationPath:
        return dataclasses.replace(path, leaf_encoding=encoding)

    def test_raw_label_on_short_result_is_a_verdict_not_an_exception(
        self, setup
    ):
        # 16-byte results under sha256: taking the peer's RAW label at
        # its word used to raise MerkleError out of the verifier.
        fn, domain, leaves, tree = setup
        proof = SampleProof(
            index=4,
            claimed_result=leaves[4],
            path=self.relabelled(tree.auth_path(4), LeafEncoding.RAW),
        )
        verdict = verify(proof, 4, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.MALFORMED_PROOF

    def test_raw_tree_over_digest_sized_results_rejected_when_hashed(self):
        # Results as wide as the digest: the RAW tree is well-formed
        # and every path verifies *as RAW*, which a HASHED supervisor
        # must not do on the participant's say-so.
        fn = PasswordSearch(digest_bytes=32)
        domain = RangeDomain(0, 16)
        leaves = [fn.evaluate(x) for x in domain]
        tree = MerkleTree(leaves, leaf_encoding=LeafEncoding.RAW)
        proof = proof_for(tree, leaves, 9)
        assert proof.path.verify(leaves[9], tree.root, get_hash("sha256"))
        verdict = verify(proof, 9, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.MALFORMED_PROOF

    def test_unlabelled_path_still_means_hashed(self, setup):
        fn, domain, leaves, tree = setup
        proof = SampleProof(
            index=4,
            claimed_result=leaves[4],
            path=self.relabelled(tree.auth_path(4), None),
        )
        assert verify(proof, 4, tree, domain, fn).accepted

    def test_raw_supervisor_rejects_a_leaf_that_is_not_digest_sized(
        self, setup
    ):
        # A RAW leaf *is* its Φ value, so a 16-byte claim under sha256
        # has the wrong shape whatever the function check says.
        fn, domain, leaves, tree = setup
        proof = SampleProof(
            index=4,
            claimed_result=leaves[4],
            path=self.relabelled(tree.auth_path(4), LeafEncoding.RAW),
        )
        verdict = verify_sample_proof(
            proof=proof,
            expected_index=4,
            root=tree.root,
            n_leaves=16,
            domain=domain,
            function=fn,
            hash_fn=get_hash("sha256"),
            leaf_encoding=LeafEncoding.RAW,
        )
        assert not verdict.accepted
        assert verdict.reason == RejectReason.MALFORMED_PROOF
