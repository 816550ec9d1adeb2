"""Supervisor-side sample verification (paper §3.1 Step 4, Theorems 1–2).

For each challenged sample the supervisor performs the two checks the
paper specifies, in order:

1. **Correctness of f(x)** — via the task function's verifier (which
   may be cheaper than re-computation, §3.1's factoring remark).  An
   incorrect claimed result means the participant is caught.
2. **Commitment consistency** — reconstruct ``Φ(R')`` from the claimed
   result and the sibling digests ``λ_1..λ_H`` (the paper's
   ``Λ(f(x), λ_1..λ_H)``) and compare with the committed ``Φ(R)``.
   A mismatch means the value was not in the tree at commit time
   (Theorem 2), so even a *now-correct* result cannot retroactively
   prove the work was done before commitment.

A bundle is verified as the one multiproof it travels as.  The tree
its samples span is folded once, each node hashed once, so check 2 is
a statement about the whole bundle: a root match attests every
sampled leaf together, and a miss cannot be pinned on one sample.
Sibling positions that another sample determines are not part of the
proof and are never read.

Malformed proofs (wrong index, wrong path length, wrong digest sizes,
a leaf encoding other than the supervisor's, two results claimed for
one leaf) are rejected without hashing — defensive checks a production
verifier needs and tests exercise via failure injection.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.scheme import RejectReason, SampleVerdict
from repro.exceptions import CodecError
from repro.merkle.hashing import HashFunction
from repro.merkle.multiproof import Multiproof, shared_root
from repro.merkle.proof import SampleProof
from repro.merkle.tree import LeafEncoding, encode_leaves
from repro.tasks.function import TaskFunction
from repro.tasks.domain import Domain
from repro.utils.bitmath import next_power_of_two, tree_height


def _fits(
    proof: Multiproof, n_leaves: int, hash_fn: HashFunction, leaf_encoding: LeafEncoding
) -> bool:
    """Whether ``proof`` folds in the supervisor's tree: its height, leaf
    range and leaf encoding (never the peer's say-so) are the tree's, a
    RAW leaf is digest-sized, every supplied sibling is a digest."""
    leaves, digests, digest_size = proof.leaves, proof.digests, hash_fn.digest_size
    return (
        proof.height == tree_height(next_power_of_two(n_leaves))
        and (not leaves or (0 <= leaves[0] and leaves[-1] < n_leaves))
        and proof.leaf_encoding is leaf_encoding
        and (
            leaf_encoding is not LeafEncoding.RAW
            or set(map(len, proof.results)) <= {digest_size}
        )
        and set(map(type, digests)) <= {bytes}
        and set(map(len, digests)) <= {digest_size}
    )


def verify_proof_bundle(
    bundle: Multiproof | Sequence[SampleProof],
    expected_indices: Sequence[int],
    root: bytes,
    n_leaves: int,
    domain: Domain,
    function: TaskFunction,
    hash_fn: HashFunction,
    leaf_encoding: LeafEncoding,
    stop_on_first_failure: bool = True,
) -> list[SampleVerdict]:
    """Run both Step-4 checks over a bundle; one verdict per sample.

    Verdicts come back in bundle order and stop after the first
    rejection when ``stop_on_first_failure`` is set.  Three passes:
    the bundle's shape, with nothing hashed or evaluated (in-memory
    proofs that have no multiproof are malformed throughout); check 1
    per sample, in order; then — iff some sample came through both and
    awaits attestation — one fold of the shared tree against ``root``.  A
    miss is ``ROOT_MISMATCH`` for every awaiting sample (the first
    only, under stop).  The caller charges verification cost to its
    ledger through ``function`` and ``hash_fn`` (this function is pure
    protocol logic): one hash per distinct claimed leaf and per covered
    interior node, none when no sample awaits attestation.
    """
    try:
        proof = Multiproof.from_proofs(bundle)
    except CodecError:
        proof = None
    fits = proof is not None and _fits(proof, n_leaves, hash_fn, leaf_encoding)
    claimed = dict(zip(proof.leaves, proof.results)) if fits else {}
    verify_result = function.verify
    verdicts: list[SampleVerdict] = []
    awaiting: list[int] = []
    # Unpacked, the bundle's own items stand in for indices nobody reads.
    samples = proof.indices if proof is not None else bundle
    for index, expected_index in zip(samples, expected_indices):
        if not fits or index != expected_index:
            reason = RejectReason.MALFORMED_PROOF
        # Check 1: is the claimed f(x) actually correct?
        elif not verify_result(domain[expected_index], claimed[index]):
            reason = RejectReason.WRONG_RESULT
        else:
            reason = RejectReason.OK
            awaiting.append(len(verdicts))
        verdicts.append(
            SampleVerdict(expected_index, reason is RejectReason.OK, reason)
        )
        if stop_on_first_failure and reason is not RejectReason.OK:
            break
    if not awaiting:
        return verdicts
    # Check 2: were these exact values committed?  Λ(f(x)s, λs) == Φ(R)?
    leaf_digests = dict(
        zip(proof.leaves, encode_leaves(proof.results, hash_fn, leaf_encoding))
    )
    if shared_root(leaf_digests, proof.supplied(), hash_fn) != root:
        if stop_on_first_failure:
            del verdicts[awaiting[0] + 1 :]
            awaiting = awaiting[:1]
        for position in awaiting:
            verdicts[position] = SampleVerdict(
                verdicts[position].index, False, RejectReason.ROOT_MISMATCH
            )
    return verdicts


def verify_sample_proof(
    proof: SampleProof,
    expected_index: int,
    root: bytes,
    n_leaves: int,
    domain: Domain,
    function: TaskFunction,
    hash_fn: HashFunction,
    leaf_encoding: LeafEncoding,
) -> SampleVerdict:
    """Verify one sample: a bundle of one (see :func:`verify_proof_bundle`)."""
    (verdict,) = verify_proof_bundle(
        (proof,),
        (expected_index,),
        root,
        n_leaves,
        domain,
        function,
        hash_fn,
        leaf_encoding,
    )
    return verdict
