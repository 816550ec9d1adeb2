"""Fold and ledger oracle: verification against a plain-``hashlib`` reference.

The reference verifier below is straight-line in the manner of
SNIPPETS.md snippet 1's ``validate_merkle_proof`` — one ``hashlib``
call per node, sibling on the left or the right by the index's parity —
and it keeps its own books: ``hash_cost += cost`` once per hash, in the
order the hashes happen.  The supervisors must agree with it verdict
for verdict and, on the ledger, *bit for bit*: the batched fold crosses
the hash wrappers once per path, and that must not change a single
charge or the order floating-point costs are summed in.
"""

import hashlib

import pytest

from repro.accounting import CostLedger
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core.cbs import CBSParticipant, CBSSupervisor
from repro.core.ni_cbs import NICBSParticipant, NICBSSupervisor
from repro.core.protocol import NICBSSubmissionMsg, ProofBundleMsg, SampleProof
from repro.merkle import AuthenticationPath, MerkleTree, get_hash
from repro.merkle.hashing import CountingHash, HashFunction
from repro.merkle.proof import compute_root_from_path
from repro.merkle.tree import LeafEncoding
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment


def _sha1(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


#: (library hash, hashlib name, rounds, cost per invocation).  The two
#: 0.1-cost hashes differ in how they reach the fold: one carries a
#: hasher factory (pre-seeded copies), one does not (the generic loop).
HASHES = {
    "sha256": (get_hash("sha256"), "sha256", 1, 1.0),
    "md5^3": (get_hash("md5^3"), "md5", 3, 3.0),
    "dime-plain": (HashFunction("dime-plain", _sha1, 20, cost=0.1), "sha1", 1, 0.1),
    "dime-seeded": (
        HashFunction(
            "dime-seeded", _sha1, 20, cost=0.1, hasher_factory=hashlib.sha1
        ),
        "sha1",
        1,
        0.1,
    ),
}


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------


class RefBooks:
    """What the supervisor's ledger should read afterwards."""

    def __init__(self):
        self.hashes = 0
        self.hash_cost = 0.0
        self.verifications = 0
        self.verification_cost = 0.0
        self.samples_verified = 0


class RefHash:
    def __init__(self, name, rounds, cost, books):
        self.name, self.rounds, self.cost, self.books = name, rounds, cost, books
        self.digest_size = hashlib.new(name).digest_size

    def __call__(self, data):
        for _ in range(self.rounds):
            data = hashlib.new(self.name, data).digest()
        self.books.hashes += 1
        self.books.hash_cost += self.cost
        return data


def ref_root_from_path(h, leaf_phi, index, siblings):
    digest = leaf_phi
    for sibling in siblings:
        if index % 2:  # the sibling is a left node
            digest = h(b"\x01" + sibling + digest)
        else:  # the sibling is a right node
            digest = h(b"\x01" + digest + sibling)
        index //= 2
    return digest


def ref_tree_root(h, payloads, raw=False):
    level = [p if raw else h(b"\x00" + p) for p in payloads]
    width = 1
    while width < len(level):
        width *= 2
    level += [h(b"\x02repro/empty")] * (width - len(level))
    while len(level) > 1:
        level = [
            h(b"\x01" + level[i] + level[i + 1]) for i in range(0, len(level), 2)
        ]
    return level[0]


def ref_verify(h, books, proofs, expected, root, n_leaves, task, stop):
    """Step 4, by the book.  Returns ``[(index, accepted, reason)]``."""
    height = 0
    while (1 << height) < n_leaves:
        height += 1
    fn = task.function
    verdicts = []
    for proof, want in zip(proofs, expected):
        books.samples_verified += 1
        path = proof.path
        if (
            proof.index != want
            or len(path.siblings) != height
            or path.leaf_index != want
            or any(len(s) != h.digest_size for s in path.siblings)
            or path.leaf_encoding is LeafEncoding.RAW
        ):
            verdict = (want, False, "malformed_proof")
        else:
            books.verifications += 1
            books.verification_cost += fn.cost
            if fn.evaluate(task.domain[want]) != proof.claimed_result:
                verdict = (want, False, "wrong_result")
            else:
                leaf = h(b"\x00" + proof.claimed_result)
                rebuilt = ref_root_from_path(h, leaf, want, path.siblings)
                if rebuilt != root:
                    verdict = (want, False, "root_mismatch")
                else:
                    verdict = (want, True, "ok")
        verdicts.append(verdict)
        if stop and not verdict[1]:
            break
    return verdicts


def assert_books_equal(ledger: CostLedger, books: RefBooks):
    # ``==`` on the floats: bit-identical, not approximately equal.
    assert ledger.hashes == books.hashes
    assert ledger.hash_cost == books.hash_cost
    assert ledger.verifications == books.verifications
    assert ledger.verification_cost == books.verification_cost
    assert ledger.counters == {"samples_verified": books.samples_verified}


def plain(outcome):
    return [(v.index, v.accepted, v.reason.value) for v in outcome.verdicts]


# ----------------------------------------------------------------------
# Bundles: honest, semi-honest, one tampered sibling
# ----------------------------------------------------------------------

N, M = 50, 12  # 50 leaves: height 6 with 14 padding leaves
TASK = TaskAssignment("task-oracle", RangeDomain(0, N), PasswordSearch(cost=0.3))


def tampered(proofs, victim):
    """``proofs`` with one byte of one sibling of proof ``victim`` flipped."""
    proof = proofs[victim]
    siblings = list(proof.path.siblings)
    level = len(siblings) // 2
    siblings[level] = bytes([siblings[level][0] ^ 0x01]) + siblings[level][1:]
    forged = SampleProof(
        index=proof.index,
        claimed_result=proof.claimed_result,
        path=AuthenticationPath(
            leaf_index=proof.path.leaf_index,
            siblings=siblings,
            n_leaves=proof.path.n_leaves,
            leaf_encoding=proof.path.leaf_encoding,
        ),
    )
    return proofs[:victim] + (forged,) + proofs[victim + 1 :]


SCENARIOS = {
    "honest": (HonestBehavior(), None, "ok"),
    "semi-honest": (SemiHonestCheater(0.5), None, "wrong_result"),
    "tampered-sibling": (HonestBehavior(), M // 2, "root_mismatch"),
}


@pytest.mark.parametrize("stop", [True, False], ids=["stop-first", "verify-all"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("hash_name", HASHES)
class TestLedgerExactness:
    def test_cbs(self, hash_name, scenario, stop):
        hash_fn, ref_name, rounds, cost = HASHES[hash_name]
        behavior, victim, expected_reason = SCENARIOS[scenario]
        participant = CBSParticipant(TASK, behavior, hash_fn=hash_fn)
        supervisor = CBSSupervisor(
            TASK, n_samples=M, hash_fn=hash_fn, seed=5, stop_on_first_failure=stop
        )
        commitment = participant.compute_and_commit()
        supervisor.receive_commitment(commitment)
        challenge = supervisor.make_challenge()
        bundle = participant.prove(challenge)
        if victim is not None:
            bundle = ProofBundleMsg(
                task_id=bundle.task_id, proofs=tampered(bundle.proofs, victim)
            )
        outcome = supervisor.verify(bundle)

        books = RefBooks()
        h = RefHash(ref_name, rounds, cost, books)
        want = ref_verify(
            h, books, bundle.proofs, challenge.indices, commitment.root, N, TASK, stop
        )
        assert plain(outcome) == want
        assert outcome.accepted == all(v[1] for v in want)
        assert outcome.reason.value == (
            [v[2] for v in want if not v[1]] or ["ok"]
        )[-1]
        assert expected_reason in {v[2] for v in want}
        assert_books_equal(supervisor.ledger, books)

    def test_ni_cbs(self, hash_name, scenario, stop):
        hash_fn, ref_name, rounds, cost = HASHES[hash_name]
        behavior, victim, expected_reason = SCENARIOS[scenario]
        # g = sha256 at cost 1.0 throughout, so with a 0.1-cost tree
        # hash the ledger sums two different float costs in sequence.
        submission = NICBSParticipant(
            TASK, behavior, n_samples=M, hash_fn=hash_fn
        ).compute_and_submit()
        if victim is not None:
            submission = NICBSSubmissionMsg(
                task_id=submission.task_id,
                root=submission.root,
                n_leaves=submission.n_leaves,
                proofs=tampered(submission.proofs, victim),
            )
        supervisor = NICBSSupervisor(
            TASK, n_samples=M, hash_fn=hash_fn, stop_on_first_failure=stop
        )
        outcome = supervisor.verify(submission)

        books = RefBooks()
        g = RefHash("sha256", 1, 1.0, books)
        value, expected = submission.root, []
        for _ in range(M):
            value = g(value)
            expected.append(int.from_bytes(value, "big") % N)
        assert [p.index for p in submission.proofs] == expected
        h = RefHash(ref_name, rounds, cost, books)
        want = ref_verify(
            h, books, submission.proofs, expected, submission.root, N, TASK, stop
        )
        assert plain(outcome) == want
        assert outcome.accepted == all(v[1] for v in want)
        assert expected_reason in {v[2] for v in want}
        assert_books_equal(supervisor.ledger, books)


# ----------------------------------------------------------------------
# Root reconstruction: every leaf, every shape of tree
# ----------------------------------------------------------------------


@pytest.mark.parametrize("hash_name", HASHES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 33])
def test_reconstructed_roots_equal_the_reference(hash_name, n):
    # Every index of every tree: each level sees its sibling on the
    # left and on the right, and the non-powers of two fold through
    # padding leaves.
    hash_fn, ref_name, rounds, cost = HASHES[hash_name]
    payloads = [b"result-%d" % i for i in range(n)]
    h = RefHash(ref_name, rounds, cost, RefBooks())
    root = ref_tree_root(h, payloads)
    tree = MerkleTree(payloads, hash_fn=hash_fn)
    assert tree.root == root
    for index in range(n):
        path = tree.auth_path(index)
        leaf = h(b"\x00" + payloads[index])
        assert ref_root_from_path(h, leaf, index, path.siblings) == root
        assert path.root_from_payload(payloads[index], hash_fn) == root

        # Through the counting wrapper: same root, one charge per level.
        ledger = CostLedger()
        counted = CountingHash(hash_fn, ledger)
        assert compute_root_from_path(leaf, index, path.siblings, counted) == root
        books = RefBooks()
        ref_root_from_path(
            RefHash(ref_name, rounds, cost, books), leaf, index, path.siblings
        )
        assert (ledger.hashes, ledger.hash_cost) == (books.hashes, books.hash_cost)


def test_raw_leaves_fold_from_the_payload_itself():
    # Eq. (1) as the paper writes it: Φ(L) = f(x), no leaf hash.
    hash_fn, ref_name, rounds, cost = HASHES["md5^3"]
    payloads = [hashlib.md5(bytes([i])).digest() for i in range(11)]
    h = RefHash(ref_name, rounds, cost, RefBooks())
    root = ref_tree_root(h, payloads, raw=True)
    tree = MerkleTree(payloads, hash_fn=hash_fn, leaf_encoding=LeafEncoding.RAW)
    assert tree.root == root
    for index, payload in enumerate(payloads):
        path = tree.auth_path(index)
        assert path.root_from_payload(payload, hash_fn) == root
        assert ref_root_from_path(h, payload, index, path.siblings) == root
