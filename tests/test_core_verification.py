"""Failure-injection tests for supervisor-side sample verification.

Theorem 2's guarantee is only as good as the verifier's checks; these
tests tamper with every field of a valid proof and assert rejection
with the right reason.
"""

import dataclasses

import pytest

from repro.core.protocol import ProofBundleMsg, SampleProof
from repro.core.scheme import RejectReason
from repro.core.verification import verify_proof_bundle, verify_sample_proof
from repro.exceptions import CodecError
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


class TestOneHeaderPerBundle:
    """The encoding code and the height ride once per bundle, so a lie
    about either — or about which digests the samples need — is a lie
    about every sample: ``malformed_proof`` for all of them, with
    nothing hashed or evaluated, and an encoder asked to put two
    geometries under one header refuses."""

    INDICES = (2, 3, 9, 2)

    @staticmethod
    def verdicts(proofs, indices, tree, domain, fn, stop=False):
        counted = _Counting(fn)
        verdicts = verify_proof_bundle(
            proofs,
            indices,
            root=tree.root,
            n_leaves=16,
            domain=domain,
            function=counted,
            hash_fn=get_hash("sha256"),
            leaf_encoding=LeafEncoding.HASHED,
            stop_on_first_failure=stop,
        )
        return [(v.index, v.reason) for v in verdicts], counted.calls

    def bundle(self, tree, leaves):
        return tuple(proof_for(tree, leaves, i) for i in self.INDICES)

    def test_honest_bundle_in_memory_and_as_received(self, setup):
        fn, domain, leaves, tree = setup
        proofs = self.bundle(tree, leaves)
        want = [(i, RejectReason.OK) for i in self.INDICES]
        assert self.verdicts(proofs, self.INDICES, tree, domain, fn) == (want, 4)
        got = ProofBundleMsg.decode(ProofBundleMsg("t", proofs).encode()).proofs
        assert got[0].path.siblings[0] is None  # leaf 3 determines it
        assert self.verdicts(got, self.INDICES, tree, domain, fn) == (want, 4)

    @pytest.mark.parametrize("stop", [True, False])
    def test_every_path_one_level_short(self, setup, stop):
        fn, domain, leaves, tree = setup
        short = tuple(
            dataclasses.replace(
                p, path=dataclasses.replace(p.path, siblings=p.path.siblings[:-1])
            )
            for p in self.bundle(tree, leaves)
        )
        # One consistent geometry, so it has an encoding and arrives...
        got = ProofBundleMsg.decode(ProofBundleMsg("t", short).encode()).proofs
        # ...and is malformed throughout: the commitment says height 4.
        want = [(i, RejectReason.MALFORMED_PROOF) for i in self.INDICES]
        assert self.verdicts(got, self.INDICES, tree, domain, fn, stop) == (
            want[:1] if stop else want,
            0,
        )

    def test_one_path_short_has_no_encoding_and_spoils_the_bundle(self, setup):
        fn, domain, leaves, tree = setup
        proofs = self.bundle(tree, leaves)
        odd = dataclasses.replace(
            proofs[2],
            path=dataclasses.replace(
                proofs[2].path, siblings=proofs[2].path.siblings[:-1]
            ),
        )
        mixed = proofs[:2] + (odd,) + proofs[3:]
        with pytest.raises(CodecError):
            ProofBundleMsg("t", mixed).encode()
        want = [(i, RejectReason.MALFORMED_PROOF) for i in self.INDICES]
        assert self.verdicts(mixed, self.INDICES, tree, domain, fn) == (want, 0)

    def test_bundle_naming_another_encoding(self, setup):
        fn, domain, leaves, tree = setup
        raw = tuple(
            dataclasses.replace(
                p, path=dataclasses.replace(p.path, leaf_encoding=LeafEncoding.RAW)
            )
            for p in self.bundle(tree, leaves)
        )
        got = ProofBundleMsg.decode(ProofBundleMsg("t", raw).encode()).proofs
        want = [(i, RejectReason.MALFORMED_PROOF) for i in self.INDICES]
        assert self.verdicts(got, self.INDICES, tree, domain, fn) == (want, 0)

    def test_two_results_for_one_leaf(self, setup):
        fn, domain, leaves, tree = setup
        proofs = self.bundle(tree, leaves)
        conflicting = proofs[:3] + (
            dataclasses.replace(proofs[3], claimed_result=leaves[3]),
        )
        with pytest.raises(CodecError):
            ProofBundleMsg("t", conflicting).encode()
        want = [(i, RejectReason.MALFORMED_PROOF) for i in self.INDICES]
        assert self.verdicts(conflicting, self.INDICES, tree, domain, fn) == (
            want,
            0,
        )

    def test_needed_sibling_that_is_not_a_digest(self, setup):
        # Leaf 9 is alone in its half: its whole path is supplied.
        fn, domain, leaves, tree = setup
        proofs = self.bundle(tree, leaves)
        want = [(i, RejectReason.MALFORMED_PROOF) for i in self.INDICES]
        for bad in (None, b"\x00" * 31, b"\x00" * 33, bytearray(32)):
            siblings = list(proofs[2].path.siblings)
            siblings[1] = bad
            forged = dataclasses.replace(
                proofs[2],
                path=AuthenticationPath.from_uniform(
                    9, siblings, 16, LeafEncoding.HASHED
                ),
            )
            spoiled = proofs[:2] + (forged,) + proofs[3:]
            assert self.verdicts(spoiled, self.INDICES, tree, domain, fn) == (
                want,
                0,
            )

    def test_derivable_sibling_is_never_read(self, setup):
        # Leaves 2 and 3 determine each other's leaf-level sibling:
        # whatever sits there in memory is not part of the proof.
        fn, domain, leaves, tree = setup
        proofs = self.bundle(tree, leaves)
        siblings = [b"not even a digest"] + list(proofs[0].path.siblings[1:])
        forged = dataclasses.replace(
            proofs[0],
            path=AuthenticationPath.from_uniform(
                2, siblings, 16, LeafEncoding.HASHED
            ),
        )
        want = [(i, RejectReason.OK) for i in self.INDICES]
        assert self.verdicts(
            (forged,) + proofs[1:], self.INDICES, tree, domain, fn
        ) == (want, 4)

    @pytest.mark.parametrize("stop", [True, False])
    def test_sample_for_another_index_is_malformed_on_its_own(self, setup, stop):
        # The bundle proves leaves 2, 3, 9, 2 — a fold that holds — but
        # the third challenge was for leaf 8.
        fn, domain, leaves, tree = setup
        proofs = self.bundle(tree, leaves)
        challenged = (2, 3, 8, 2)
        want = [
            (2, RejectReason.OK),
            (3, RejectReason.OK),
            (8, RejectReason.MALFORMED_PROOF),
            (2, RejectReason.OK),
        ]
        assert self.verdicts(proofs, challenged, tree, domain, fn, stop) == (
            (want[:3], 2) if stop else (want, 3)
        )

    @pytest.mark.parametrize("stop", [True, False])
    def test_root_miss_is_the_bundles_not_one_samples(self, setup, stop):
        # Leaf 9 was committed as garbage and is claimed correctly now:
        # check 1 passes everywhere, the one fold misses, and every
        # sample awaiting attestation (the first only, under stop)
        # carries the mismatch.
        fn, domain, leaves, tree = setup
        forged_leaves = list(leaves)
        forged_leaves[9] = b"\xff" * 16
        forged_tree = MerkleTree(forged_leaves)
        proofs = tuple(
            SampleProof(i, leaves[i], forged_tree.auth_path(i))
            for i in self.INDICES
        )
        want = [(i, RejectReason.ROOT_MISMATCH) for i in self.INDICES]
        assert self.verdicts(
            proofs, self.INDICES, forged_tree, domain, fn, stop
        ) == (want[:1] if stop else want, 4)


class _Counting:
    """A task function that counts its ``verify`` calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def verify(self, x, claimed):
        self.calls += 1
        return self.fn.verify(x, claimed)


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
