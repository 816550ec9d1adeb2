"""Fold and ledger oracle: verification against a plain-``hashlib`` reference.

The reference verifier (``tests/proof_reference.py``) is straight-line
in the manner of SNIPPETS.md snippet 1's ``validate_merkle_proof`` —
one independent path per sample, one ``hashlib`` call per node, sibling
on the left or the right by the index's parity — and it keeps its own
books.  The supervisors verify a bundle as one multiproof instead: the
tree the samples span is folded once.  What must hold between the two:

* ``accepted`` is always what the per-path verifier says;
* whenever the claimed values are the committed ones (honest,
  semi-honest, colluding) the whole verdict list is the per-path one;
* the supervisor's hash ledger reads an *independent count* of the
  shared fold — one hash per distinct claimed leaf and per node of the
  cover above them, none when no sample passed check 1 — bit for bit,
  floats included; evaluation charges are the per-path verifier's;
* nothing a participant is charged moves.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proof_reference import (
    RefBooks,
    RefHash,
    ref_needed,
    ref_root_from_path,
    ref_tree_root,
    ref_verify,
    shared_fold_hashes,
)
from repro.accounting import CostLedger
from repro.cheating import ColludingCheater, HonestBehavior, SemiHonestCheater
from repro.core.cbs import CBSParticipant, CBSSupervisor
from repro.core.ni_cbs import NICBSParticipant, NICBSSupervisor
from repro.core.protocol import NICBSSubmissionMsg, ProofBundleMsg
from repro.core.scheme import RejectReason
from repro.core.verification import verify_proof_bundle
from repro.merkle import MerkleTree, get_hash
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
# Tampering with a bundle held in memory
# ----------------------------------------------------------------------


def with_digest_flipped(proofs, level, node):
    """``proofs`` with one bit of the digest of ``(level, node)`` flipped
    in every path that carries it."""
    forged = []
    for proof in proofs:
        siblings = list(proof.path.siblings)
        if (proof.index >> level) ^ 1 == node:
            siblings[level] = bytes([siblings[level][0] ^ 0x01]) + siblings[level][1:]
        forged.append(
            dataclasses.replace(
                proof, path=dataclasses.replace(proof.path, siblings=siblings)
            )
        )
    return tuple(forged)


def a_supplied_node(proofs):
    """``(level, node)`` of a digest no sample determines, mid-tree."""
    leaves = [proof.index for proof in proofs]
    needed = ref_needed(leaves, len(proofs[0].path.siblings))
    level = max(lv for lv, nodes in enumerate(needed) if nodes and lv <= len(needed) // 2)
    return level, needed[level][0]


def a_derivable_node(proofs):
    """``(level, node)`` of a sibling digest that another sample's own
    ancestor determines, or ``None`` when no two samples meet below the
    root."""
    leaves = {proof.index for proof in proofs}
    for level in range(len(proofs[0].path.siblings)):
        ancestors = {leaf >> level for leaf in leaves}
        for node in sorted(ancestors):
            if node ^ 1 in ancestors:
                return level, node
    return None


# ----------------------------------------------------------------------
# Bundles: honest, semi-honest, nothing computed, one tampered digest
# ----------------------------------------------------------------------

N, M = 50, 12  # 50 leaves: height 6 with 14 padding leaves
HEIGHT = 6
TASK = TaskAssignment("task-oracle", RangeDomain(0, N), PasswordSearch(cost=0.3))

#: behaviour, whether a supplied digest is flipped, a reason that must show
SCENARIOS = {
    "honest": (HonestBehavior(), False, "ok"),
    "semi-honest": (SemiHonestCheater(0.5), False, "wrong_result"),
    "nothing-computed": (SemiHonestCheater(0.0), False, "wrong_result"),
    "tampered-sibling": (HonestBehavior(), True, "root_mismatch"),
}


def expected_run(h, books, proofs, expected, root, stop, tampered):
    """Verdicts and books of the declared bundle semantics, derived from
    the per-path reference's findings and an independent hash count."""
    if not tampered:
        # Claimed values are the committed ones: the per-path verdicts,
        # and the per-path evaluation charges, exactly.
        scratch = RefBooks()
        want = ref_verify(
            RefHash(h.name, h.rounds, h.cost, scratch),
            scratch, proofs, expected, root, N, TASK, stop,
        )
        awaiting = [v for v in want if v[1]]
    else:
        # Every sample's own path, to the end: check 1 passes everywhere
        # and the flipped digest sits on some paths, not all — which the
        # one fold cannot tell apart.  Every sample is evaluated before
        # the fold, so under stop the charge is m, not victim + 1.
        scratch = RefBooks()
        each = ref_verify(
            RefHash(h.name, h.rounds, h.cost, scratch),
            scratch, proofs, expected, root, N, TASK, False,
        )
        assert {v[2] for v in each} == {"ok", "root_mismatch"}
        want = [(index, False, "root_mismatch") for index, _ok, _why in each]
        awaiting = want
        if stop:
            want = want[:1]
    books.verifications += scratch.verifications
    books.verification_cost += scratch.verification_cost
    books.samples_verified += len(want)
    if awaiting:
        leaves = [proof.index for proof in proofs]
        for _ in range(shared_fold_hashes(leaves, HEIGHT)):
            books.hashes += 1
            books.hash_cost += h.cost
    return want


def assert_participant_charges_are_heads(ledger, behavior, cost, g_hashes=0):
    # Producing a bundle costs what it did when every sample shipped its
    # own path: the evaluations the behaviour chose to do, one hash per
    # leaf, one for the padding digest, one per interior node of the
    # 64-wide tree (114), the whole tree stored (127), M proofs built.
    assert ledger.evaluations == round(getattr(behavior, "honesty_ratio", 1.0) * N)
    assert ledger.hashes == N + 1 + 63 + g_hashes
    books = RefBooks()
    for _ in range(N + 1 + 63):
        books.hash_cost += cost
    for _ in range(g_hashes):
        books.hash_cost += 1.0
    assert ledger.hash_cost == books.hash_cost
    assert ledger.storage_digests == 127
    assert ledger.counters == {"commitments": 1, "proofs": M}


@pytest.mark.parametrize("stop", [True, False], ids=["stop-first", "verify-all"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("hash_name", HASHES)
class TestLedgerExactness:
    def test_cbs(self, hash_name, scenario, stop):
        hash_fn, ref_name, rounds, cost = HASHES[hash_name]
        behavior, tamper, expected_reason = SCENARIOS[scenario]
        participant = CBSParticipant(TASK, behavior, hash_fn=hash_fn)
        supervisor = CBSSupervisor(
            TASK, n_samples=M, hash_fn=hash_fn, seed=5, stop_on_first_failure=stop
        )
        commitment = participant.compute_and_commit()
        supervisor.receive_commitment(commitment)
        challenge = supervisor.make_challenge()
        bundle = participant.prove(challenge)
        assert_participant_charges_are_heads(participant.ledger, behavior, cost)
        if tamper:
            bundle = ProofBundleMsg(
                task_id=bundle.task_id,
                proofs=with_digest_flipped(
                    bundle.proofs, *a_supplied_node(bundle.proofs)
                ),
            )
        outcome = supervisor.verify(bundle)

        books = RefBooks()
        h = RefHash(ref_name, rounds, cost, books)
        want = expected_run(
            h, books, bundle.proofs, challenge.indices, commitment.root, stop, tamper
        )
        assert plain(outcome) == want
        assert outcome.accepted == all(v[1] for v in want)
        assert outcome.reason.value == (
            [v[2] for v in want if not v[1]] or ["ok"]
        )[-1]
        assert expected_reason in {v[2] for v in want}
        assert_books_equal(supervisor.ledger, books)
        # The same bundle as a peer receives it: same verdicts.
        received = ProofBundleMsg.decode(bundle.encode())
        again = CBSSupervisor(
            TASK, n_samples=M, hash_fn=hash_fn, seed=5, stop_on_first_failure=stop
        )
        again.receive_commitment(commitment)
        again.make_challenge()
        assert plain(again.verify(received)) == want
        assert_books_equal(again.ledger, books)

    def test_ni_cbs(self, hash_name, scenario, stop):
        hash_fn, ref_name, rounds, cost = HASHES[hash_name]
        behavior, tamper, expected_reason = SCENARIOS[scenario]
        # g = sha256 at cost 1.0 throughout, so with a 0.1-cost tree
        # hash the ledger sums two different float costs in sequence.
        participant = NICBSParticipant(TASK, behavior, n_samples=M, hash_fn=hash_fn)
        submission = participant.compute_and_submit()
        assert_participant_charges_are_heads(
            participant.ledger, behavior, cost, g_hashes=M
        )
        if tamper:
            submission = dataclasses.replace(
                submission,
                proofs=with_digest_flipped(
                    submission.proofs, *a_supplied_node(submission.proofs)
                ),
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
        want = expected_run(
            h, books, submission.proofs, expected, submission.root, stop, tamper
        )
        assert plain(outcome) == want
        assert outcome.accepted == all(v[1] for v in want)
        assert expected_reason in {v[2] for v in want}
        assert_books_equal(supervisor.ledger, books)
        received = NICBSSubmissionMsg.decode(submission.encode())
        again = NICBSSupervisor(
            TASK, n_samples=M, hash_fn=hash_fn, stop_on_first_failure=stop
        )
        assert plain(again.verify(received)) == want
        assert_books_equal(again.ledger, books)


def test_nothing_is_hashed_when_the_first_sample_fails_check_one():
    # Under stop-on-first-failure a guessed first sample ends the run
    # before any fold: zero hashes, one evaluation.
    participant = CBSParticipant(TASK, SemiHonestCheater(0.0))
    supervisor = CBSSupervisor(TASK, n_samples=M, seed=5)
    supervisor.receive_commitment(participant.compute_and_commit())
    outcome = supervisor.verify(participant.prove(supervisor.make_challenge()))
    assert [v.reason for v in outcome.verdicts] == [RejectReason.WRONG_RESULT]
    assert (supervisor.ledger.hashes, supervisor.ledger.verifications) == (0, 1)


# ----------------------------------------------------------------------
# Per-path verifier vs the shared fold, under hypothesis
# ----------------------------------------------------------------------

_BEHAVIORS = st.one_of(
    st.just(HonestBehavior()),
    st.floats(min_value=0.0, max_value=1.0).map(SemiHonestCheater),
    st.floats(min_value=0.0, max_value=1.0).map(
        lambda r: ColludingCheater(r, cartel_key=b"cartel")
    ),
)
_REJECTIONS = {
    RejectReason.MALFORMED_PROOF,
    RejectReason.WRONG_RESULT,
    RejectReason.ROOT_MISMATCH,
}


@st.composite
def _runs(draw):
    """A committed tree, a challenge and its in-memory bundle."""
    n = draw(st.integers(min_value=1, max_value=70))
    m = draw(st.integers(min_value=1, max_value=24))
    task = TaskAssignment("t", RangeDomain(0, n), PasswordSearch())
    participant = CBSParticipant(
        task,
        draw(_BEHAVIORS),
        # §3.3 partial trees (where the tree is tall enough) prove
        # through the same bundle.
        subtree_height=draw(st.sampled_from([None, None, 2])) if n > 4 else None,
        salt=draw(st.binary(max_size=2)),
    )
    commitment = participant.compute_and_commit()
    supervisor = CBSSupervisor(
        task, n_samples=m, seed=draw(st.integers(min_value=0, max_value=10_000))
    )
    supervisor.receive_commitment(commitment)
    challenge = supervisor.make_challenge()
    return task, commitment, challenge.indices, participant.prove(challenge).proofs


def shared_fold(task, root, indices, proofs, stop):
    verdicts = verify_proof_bundle(
        proofs,
        indices,
        root=root,
        n_leaves=task.n_inputs,
        domain=task.domain,
        function=task.function,
        hash_fn=get_hash("sha256"),
        leaf_encoding=LeafEncoding.HASHED,
        stop_on_first_failure=stop,
    )
    return [(v.index, v.accepted, v.reason.value) for v in verdicts]


def both_verifiers(task, root, indices, proofs, stop):
    """``(per-path verdicts, shared-fold verdicts)`` as plain tuples."""
    books = RefBooks()
    per_path = ref_verify(
        RefHash("sha256", 1, 1.0, books),
        books, proofs, indices, root, task.n_inputs, task, stop,
    )
    return per_path, shared_fold(task, root, indices, proofs, stop)


def _tamper(draw, task, proofs):
    """One of the ways to lie inside a bundle that is part of the proof."""
    victim = draw(st.integers(min_value=0, max_value=len(proofs) - 1))
    proof = proofs[victim]
    height = len(proof.path.siblings)
    supplied = [
        (level, node)
        for level, row in enumerate(ref_needed([p.index for p in proofs], height))
        for node in row
    ]
    kinds = ["uncommitted-result", "foreign-encoding", "wrong-index"]
    if height:
        kinds.append("short-path")
    if supplied:
        kinds.append("flipped-supplied-digest")
    truth = task.function.evaluate(task.domain[proof.index])
    if proof.claimed_result != truth:
        # The attack CBS exists to stop (§3): a guess was committed,
        # f(x) computed only once the sample was known.
        kinds.append("correct-result-never-committed")
    if any(p.index == proof.index for p in proofs[:victim] + proofs[victim + 1 :]):
        kinds.append("conflicting-duplicate")
    kind = draw(st.sampled_from(kinds))
    if kind == "flipped-supplied-digest":
        return kind, with_digest_flipped(proofs, *draw(st.sampled_from(supplied)))
    if kind == "correct-result-never-committed":
        return kind, _with_result(proofs, proof.index, truth)
    flipped = proof.claimed_result[:-1] + bytes([proof.claimed_result[-1] ^ 1])
    if kind == "uncommitted-result":
        return kind, _with_result(proofs, proof.index, flipped)
    if kind == "conflicting-duplicate":
        forged = dataclasses.replace(proof, claimed_result=flipped)
        return kind, proofs[:victim] + (forged,) + proofs[victim + 1 :]
    if kind == "foreign-encoding":
        path = dataclasses.replace(proof.path, leaf_encoding=LeafEncoding.RAW)
    elif kind == "short-path":
        path = dataclasses.replace(proof.path, siblings=proof.path.siblings[:-1])
    else:
        other = (proof.index + 1) % task.n_inputs
        if other == proof.index:
            return "uncommitted-result", _with_result(proofs, proof.index, flipped)
        path = dataclasses.replace(proof.path, leaf_index=other)
        proof = dataclasses.replace(proof, index=other)
    forged = dataclasses.replace(proof, path=path)
    return kind, proofs[:victim] + (forged,) + proofs[victim + 1 :]


def _with_result(proofs, leaf, result):
    """Every sample of ``leaf`` claiming ``result``."""
    return tuple(
        dataclasses.replace(p, claimed_result=result) if p.index == leaf else p
        for p in proofs
    )


class TestPerPathVersusSharedFold:
    """The same bundles through snippet 1's per-path verifier and
    through ``verify_proof_bundle``.  Example counts come from the
    hypothesis profile: CI runs this class under ``ci`` (600)."""

    @given(_runs(), st.booleans())
    def test_committed_values_give_the_per_path_verdicts(self, run, stop):
        task, commitment, indices, proofs = run
        per_path, shared = both_verifiers(task, commitment.root, indices, proofs, stop)
        assert shared == per_path
        # ... and the bundle as received, derivable positions gone
        # (which snippet 1, folding each path alone, could not take).
        received = ProofBundleMsg.decode(ProofBundleMsg("t", proofs).encode())
        assert (
            shared_fold(task, commitment.root, indices, received.proofs, stop)
            == per_path
        )

    @given(_runs(), st.booleans(), st.data())
    def test_tampered_bundles_are_rejected_by_both(self, run, stop, data):
        task, commitment, indices, honest = run
        kind, proofs = _tamper(data.draw, task, honest)
        per_path, shared = both_verifiers(task, commitment.root, indices, proofs, stop)
        assert not all(v[1] for v in per_path), kind
        assert not all(v[1] for v in shared), kind
        rejected = [v for v in shared if not v[1]]
        assert {RejectReason(v[2]) for v in rejected} <= _REJECTIONS
        assert len(shared) == (
            1 + [v[1] for v in shared].index(False) if stop else len(proofs)
        )

    @given(_runs(), st.booleans())
    def test_a_derivable_digest_is_not_part_of_the_proof(self, run, stop):
        # Flip a sibling digest that another sample's own ancestor
        # determines, in a bundle that never crossed a wire: the one
        # fold never reads it, so nothing changes — verdicts, bytes.
        # (The per-path verifier, which folds every path alone, would
        # reject; that is the difference between the two forms.)
        task, commitment, indices, proofs = run
        where = a_derivable_node(proofs)
        if where is None:
            return
        forged = with_digest_flipped(proofs, *where)
        assert forged != proofs
        _, before = both_verifiers(task, commitment.root, indices, proofs, stop)
        per_path, after = both_verifiers(task, commitment.root, indices, forged, stop)
        assert after == before
        if all(v[1] for v in before):
            assert not all(v[1] for v in per_path)
        assert ProofBundleMsg("t", forged).encode() == ProofBundleMsg("t", proofs).encode()


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
