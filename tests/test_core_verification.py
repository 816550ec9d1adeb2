"""Failure-injection tests for supervisor-side sample verification.

Theorem 2's guarantee is only as good as the verifier's checks; these
tests tamper with every field of a valid bundle and assert rejection
with the right reason.  A bundle is a :class:`Multiproof` — the results
of the leaf pairs its samples touch and the digests above them — read
against the verifier's own samples: a lie one sample's path can tell
and no multiproof can is refused by the reference encoder
(``tests/proof_reference.py``) and told of the whole bundle instead.
Counts that do not fit the samples are refused before anything is
evaluated or hashed (``verify_proof_bundle`` returns ``None``; the
supervisors name the reason).
"""

import dataclasses

import pytest

from proof_reference import RefNoMultiproof, plain_proofs, ref_bundle, ref_multiproof
from repro.accounting import CostLedger
from repro.core.protocol import ProofBundleMsg
from repro.core.scheme import RejectReason
from repro.core.verification import verify_proof_bundle
from repro.merkle import AuthenticationPath, CountingHash, MerkleTree, get_hash
from repro.merkle.multiproof import Multiproof, bundle_shape
from repro.merkle.tree import LeafEncoding
from repro.tasks import PasswordSearch, RangeDomain, TaskFunction


@pytest.fixture
def setup():
    fn = PasswordSearch()
    domain = RangeDomain(0, 16)
    leaves = [fn.evaluate(x) for x in domain]
    tree = MerkleTree(leaves)
    return fn, domain, leaves, tree


def bundle_of(tree, leaves, *indices, **fields):
    """The multiproof of ``indices`` off ``tree``, ``fields`` replaced
    (untouched, it keeps its per-sample view)."""
    bundle = tree.multiproof(indices, leaves)
    return dataclasses.replace(bundle, **fields) if fields else bundle


def received(bundle):
    """``bundle`` as a peer decodes it."""
    return ProofBundleMsg.decode(ProofBundleMsg("t", bundle).encode()).bundle


def without_top_digest(bundle):
    """``bundle`` told of a tree one level shorter: its last supplied
    digest gone."""
    return dataclasses.replace(bundle, digests=bundle.digests[:-1])


def verdicts_of(bundle, indices, tree, domain, fn, leaf_encoding=LeafEncoding.HASHED):
    return verify_proof_bundle(
        bundle,
        indices,
        root=tree.root,
        n_leaves=16,
        domain=domain,
        function=fn,
        hash_fn=get_hash("sha256"),
        leaf_encoding=leaf_encoding,
        stop_on_first_failure=True,
    )


def verify(bundle, index, tree, domain, fn, leaf_encoding=LeafEncoding.HASHED):
    (verdict,) = verdicts_of(bundle, (index,), tree, domain, fn, leaf_encoding)
    return verdict


class TestHonestProofAccepted:
    def test_every_index(self, setup):
        fn, domain, leaves, tree = setup
        for i in range(16):
            verdict = verify(bundle_of(tree, leaves, i), i, tree, domain, fn)
            assert verdict.accepted
            assert verdict.reason == RejectReason.OK


class TestTamperedProofsRejected:
    def test_wrong_claimed_result(self, setup):
        # Committed a guess: the claimed value fails the f(x) check.
        fn, domain, leaves, tree = setup
        bundle = bundle_of(tree, leaves, 3, results=(leaves[2], b"\x00" * 16))
        verdict = verify(bundle, 3, tree, domain, fn)
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
        bundle = bundle_of(
            forged_tree, forged_leaves, 3, results=(leaves[2], leaves[3])
        )
        verdict = verify(bundle, 3, forged_tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.ROOT_MISMATCH

    def test_proof_for_different_index(self, setup):
        # Leaf 5's bundle has leaf 7's shape, so it is read as leaf 7's:
        # leaf 5's result sits where leaf 7's claim is read.
        fn, domain, leaves, tree = setup
        verdict = verify(bundle_of(tree, leaves, 5), 7, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.WRONG_RESULT

    def test_path_index_mismatch(self, setup):
        # Sample 7 carrying leaf 5's path has no multiproof: a bundle
        # has no path index apart from its sample's.  Told as the one
        # multiproof it can be — leaf 7's pair over leaf 5's digests —
        # the fold misses.
        fn, domain, leaves, tree = setup
        ((_index, _claimed, path),) = plain_proofs(bundle_of(tree, leaves, 5).proofs)
        with pytest.raises(RefNoMultiproof):
            ref_multiproof([(7, leaves[7], path)], leaves)
        bundle = bundle_of(tree, leaves, 5, results=(leaves[6], leaves[7]))
        verdict = verify(bundle, 7, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.ROOT_MISMATCH

    def test_truncated_path(self, setup):
        # One digest short of what sample 2 needs: refused unhashed.
        fn, domain, leaves, tree = setup
        bundle = without_top_digest(bundle_of(tree, leaves, 2))
        assert verdicts_of(received(bundle), (2,), tree, domain, fn) is None

    def test_oversized_sibling_digests(self, setup):
        fn, domain, leaves, tree = setup
        honest = bundle_of(tree, leaves, 2)
        bundle = dataclasses.replace(
            honest, digests=tuple(d + b"\x00" for d in honest.digests)
        )
        verdict = verify(received(bundle), 2, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.MALFORMED_PROOF

    def test_swapped_siblings(self, setup):
        fn, domain, leaves, tree = setup
        honest = bundle_of(tree, leaves, 2)
        swapped = list(honest.digests)  # one sample: its path, in order
        swapped[0], swapped[1] = swapped[1], swapped[0]
        bundle = dataclasses.replace(honest, digests=tuple(swapped))
        verdict = verify(received(bundle), 2, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.ROOT_MISMATCH


class TestOneHeaderPerBundle:
    """A bundle has no header any more: the supervisor's samples give
    its shape, so a lie about which results or digests the samples
    need is a lie about every sample — refused with nothing hashed or
    evaluated, and a width that is not the supervisor's is
    ``malformed_proof`` for all of them; per-sample paths of two
    geometries have no multiproof at all."""

    INDICES = (2, 3, 9, 2)

    @staticmethod
    def verdicts(bundle, indices, tree, domain, fn, stop=False, n_leaves=16):
        counted = _Counting(fn)
        verdicts = verify_proof_bundle(
            bundle,
            indices,
            root=tree.root,
            n_leaves=n_leaves,
            domain=domain,
            function=counted,
            hash_fn=get_hash("sha256"),
            leaf_encoding=LeafEncoding.HASHED,
            stop_on_first_failure=stop,
        )
        if verdicts is None:
            return None, counted.calls
        return [(v.index, v.reason) for v in verdicts], counted.calls

    def bundle(self, tree, leaves, **fields):
        return bundle_of(tree, leaves, *self.INDICES, **fields)

    def test_honest_bundle_in_memory_and_as_received(self, setup):
        fn, domain, leaves, tree = setup
        bundle = self.bundle(tree, leaves)
        want = [(i, RejectReason.OK) for i in self.INDICES]
        assert self.verdicts(bundle, self.INDICES, tree, domain, fn) == (want, 4)
        got = received(bundle)
        assert got == bundle
        assert self.verdicts(got, self.INDICES, tree, domain, fn) == (want, 4)

    @pytest.mark.parametrize("stop", [True, False])
    def test_every_path_one_level_short(self, setup, stop):
        fn, domain, leaves, tree = setup
        # One consistent geometry, so it has an encoding and arrives...
        got = received(without_top_digest(self.bundle(tree, leaves)))
        # ...and does not fit the samples: the commitment says height 4.
        assert self.verdicts(got, self.INDICES, tree, domain, fn, stop) == (None, 0)

    def test_one_path_short_has_no_encoding_and_spoils_the_bundle(self, setup):
        fn, domain, leaves, tree = setup
        bundle = self.bundle(tree, leaves)
        proofs = plain_proofs(bundle.proofs)
        index, claimed, (leaf, n_leaves, code, siblings) = proofs[2]
        proofs[2] = (index, claimed, (leaf, n_leaves, code, siblings[:-1]))
        with pytest.raises(RefNoMultiproof):
            ref_multiproof(proofs, leaves)
        # Of the whole bundle, the lie is a digest short.
        got = received(without_top_digest(bundle))
        assert self.verdicts(got, self.INDICES, tree, domain, fn) == (None, 0)

    def test_two_results_for_one_leaf(self, setup):
        fn, domain, leaves, tree = setup
        bundle = self.bundle(tree, leaves)
        proofs = plain_proofs(bundle.proofs)
        proofs[3] = (2, leaves[3], proofs[3][2])
        with pytest.raises(RefNoMultiproof):
            ref_multiproof(proofs, leaves)
        # Of the whole bundle, one result more than the touched pairs
        # hold: it decodes, and does not fit the samples.
        conflicting = dataclasses.replace(bundle, results=bundle.results + (leaves[3],))
        got = received(conflicting)
        assert self.verdicts(got, self.INDICES, tree, domain, fn) == (None, 0)

    def test_needed_sibling_that_is_not_a_digest(self, setup):
        # Leaf 9 is alone in its half: its whole path above the leaves
        # is supplied.
        fn, domain, leaves, tree = setup
        bundle = self.bundle(tree, leaves)
        _leaves, nodes = bundle_shape(self.INDICES, 4)
        at = nodes[1].index((9 >> 1) ^ 1)
        want = [(i, RejectReason.MALFORMED_PROOF) for i in self.INDICES]
        for bad in (None, b"\x00" * 31, b"\x00" * 33, bytearray(32)):
            digests = list(bundle.digests)
            digests[at] = bad
            spoiled = dataclasses.replace(bundle, digests=tuple(digests))
            assert self.verdicts(spoiled, self.INDICES, tree, domain, fn) == (
                want,
                0,
            )

    def test_derivable_sibling_is_never_read(self, setup):
        # Leaves 2 and 3 determine each other's leaf-level sibling:
        # whatever a per-sample path holds there is not part of the
        # proof, and no multiproof carries it.
        fn, domain, leaves, tree = setup
        bundle = self.bundle(tree, leaves)
        proofs = plain_proofs(bundle.proofs)
        index, claimed, (leaf, n_leaves, code, siblings) = proofs[0]
        siblings = [b"not even a digest"] + siblings[1:]
        proofs[0] = (index, claimed, (leaf, n_leaves, code, siblings))
        forged = ProofBundleMsg.decode(ref_bundle("t", proofs, leaves))
        assert forged.encode() == ProofBundleMsg("t", bundle).encode()
        want = [(i, RejectReason.OK) for i in self.INDICES]
        assert self.verdicts(
            forged.bundle, self.INDICES, tree, domain, fn
        ) == (want, 4)

    @pytest.mark.parametrize("stop", [True, False])
    def test_a_bundle_answers_every_sample_of_its_pairs(self, setup, stop):
        # The bundle for leaves 2, 3, 9, 2 carries leaf pair 4's two
        # results, so it is the bundle for 2, 3, 8, 2 as well: check 1
        # reads leaf 8's committed result.  Leaf 10 is another pair's:
        # the same bytes give it leaf 8's result, and the digests are
        # not its path's, so the fold misses too.
        fn, domain, leaves, tree = setup
        bundle = self.bundle(tree, leaves)
        want = [(i, RejectReason.OK) for i in (2, 3, 8, 2)]
        assert self.verdicts(bundle, (2, 3, 8, 2), tree, domain, fn, stop) == (want, 4)
        miss, wrong = RejectReason.ROOT_MISMATCH, RejectReason.WRONG_RESULT
        assert self.verdicts(bundle, (2, 3, 10, 2), tree, domain, fn, stop) == (
            ([(2, miss)], 3) if stop
            else ([(2, miss), (3, miss), (10, wrong), (2, miss)], 4)
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
        bundle = self.bundle(
            forged_tree, forged_leaves,
            results=(leaves[2], leaves[3], leaves[8], leaves[9]),
        )
        want = [(i, RejectReason.ROOT_MISMATCH) for i in self.INDICES]
        assert self.verdicts(
            bundle, self.INDICES, forged_tree, domain, fn, stop
        ) == (want[:1] if stop else want, 4)

    def test_sample_past_the_supervisors_leaf_count(self):
        # A supervisor's samples lie in its tree; one past it (leaf
        # 1 000 of 1 000) fits no bundle — not even the one a 1 024-leaf
        # tree builds for it — and nothing is hashed.
        fn, domain = PasswordSearch(), RangeDomain(0, 1000)
        payloads = [fn.evaluate(x) for x in domain] + [b"\x00" * 16] * 24
        tree = MerkleTree(payloads)
        indices = (3, 1000, 7)
        got = received(tree.multiproof(indices, payloads))
        ledger = CostLedger()
        verdicts = verify_proof_bundle(
            got,
            indices,
            root=tree.root,
            n_leaves=1000,
            domain=domain,
            function=fn,
            hash_fn=CountingHash(get_hash("sha256"), ledger),
            leaf_encoding=LeafEncoding.HASHED,
            stop_on_first_failure=False,
        )
        assert verdicts is None
        assert (ledger.hashes, ledger.hash_cost) == (0, 0.0)


    def test_sample_before_the_first_leaf(self):
        # A negative sample is outside the tree too: refused with
        # nothing hashed, never read off the domain from its end.
        fn, domain = PasswordSearch(), RangeDomain(0, 16)
        tree = MerkleTree([fn.evaluate(x) for x in domain])
        indices = (3, -1)
        leaves, nodes = bundle_shape(indices, 4)
        # Counts and widths that fit the samples, so only the range
        # check can refuse them.
        fitting = Multiproof(
            (bytes(16),) * len(leaves), (bytes(32),) * sum(map(len, nodes))
        )
        ledger = CostLedger()
        verdicts = verify_proof_bundle(
            fitting,
            indices,
            root=tree.root,
            n_leaves=16,
            domain=domain,
            function=fn,
            hash_fn=CountingHash(get_hash("sha256"), ledger),
            leaf_encoding=LeafEncoding.HASHED,
            stop_on_first_failure=False,
        )
        assert verdicts is None
        assert (ledger.hashes, ledger.verifications) == (0, 0)


class _Counting(TaskFunction):
    """A task function that counts its ``verify`` calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0
        self._result_size = fn.result_size

    def evaluate(self, x):
        return self.fn.evaluate(x)

    def verify(self, x, claimed):
        self.calls += 1
        return self.fn.verify(x, claimed)


class TestLeafEncodingIsTheSupervisors:
    """The leaf encoding is the supervisor's setting: a bundle names
    none, and the supervisor hashes leaves its own way."""

    def test_raw_tree_over_digest_sized_results_rejected_when_hashed(self):
        # Results as wide as the digest: the RAW tree is well-formed
        # and every path verifies *as RAW*; a HASHED supervisor hashes
        # the leaves, and its fold misses the RAW tree's root.
        fn = PasswordSearch(digest_bytes=32)
        domain = RangeDomain(0, 16)
        leaves = [fn.evaluate(x) for x in domain]
        tree = MerkleTree(leaves, leaf_encoding=LeafEncoding.RAW)
        assert tree.auth_path(9).verify(leaves[9], tree.root, get_hash("sha256"))
        assert verify(bundle_of(tree, leaves, 9), 9, tree, domain, fn,
                      LeafEncoding.RAW).accepted
        verdict = verify(bundle_of(tree, leaves, 9), 9, tree, domain, fn)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.ROOT_MISMATCH

    def test_unlabelled_path_still_means_hashed(self, setup):
        fn, domain, leaves, tree = setup
        path = AuthenticationPath(4, tree.auth_path(4).siblings, 16)
        assert path.leaf_encoding is LeafEncoding.HASHED
        assert path.verify(leaves[4], tree.root, get_hash("sha256"))

    def test_raw_supervisor_rejects_a_leaf_that_is_not_digest_sized(
        self, setup
    ):
        # A RAW leaf *is* its Φ value, so a 16-byte claim under sha256
        # has the wrong shape whatever the function check says.
        fn, domain, leaves, tree = setup
        verdict = verify(bundle_of(tree, leaves, 4), 4, tree, domain, fn, LeafEncoding.RAW)
        assert not verdict.accepted
        assert verdict.reason == RejectReason.MALFORMED_PROOF
