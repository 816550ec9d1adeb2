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

Malformed proofs (wrong index, wrong path length, wrong digest sizes,
a leaf encoding other than the supervisor's) are rejected without
hashing — defensive checks a production verifier needs and tests
exercise via failure injection.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.protocol import SampleProof
from repro.core.scheme import RejectReason, SampleVerdict
from repro.merkle.hashing import HashFunction
from repro.merkle.proof import compute_root_from_path
from repro.merkle.tree import LeafEncoding, encode_leaf
from repro.tasks.function import TaskFunction
from repro.tasks.domain import Domain
from repro.utils.bitmath import next_power_of_two, tree_height


def verify_proof_bundle(
    proofs: Sequence[SampleProof],
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
    rejection when ``stop_on_first_failure`` is set.  What every sample
    of one bundle shares — the path height the commitment implies, the
    digest size, the supervisor's own leaf encoding — is worked out
    once, not per sample.  The caller charges verification cost to its
    ledger through ``function`` and ``hash_fn`` (this function is pure
    protocol logic).
    """
    expected_height = tree_height(next_power_of_two(n_leaves))
    digest_size = hash_fn.digest_size
    digest_sizes = {digest_size}
    raw_leaves = leaf_encoding is LeafEncoding.RAW
    verify_result = function.verify
    verdicts: list[SampleVerdict] = []
    for proof, expected_index in zip(proofs, expected_indices):
        path = proof.path
        siblings = path.siblings
        claimed = proof.claimed_result
        # Shape checks first: a malformed proof is rejected outright,
        # without hashing.  The leaf encoding is the supervisor's, never
        # the peer's say-so: a path that names another one is malformed,
        # as is a RAW leaf that is not digest-sized.
        if (
            proof.index != expected_index
            or len(siblings) != expected_height
            or path.leaf_index != expected_index
            or not set(map(len, siblings)) <= digest_sizes
            or (path.leaf_encoding or LeafEncoding.HASHED) is not leaf_encoding
            or (raw_leaves and len(claimed) != digest_size)
        ):
            reason = RejectReason.MALFORMED_PROOF
        # Check 1: is the claimed f(x) actually correct?
        elif not verify_result(domain[expected_index], claimed):
            reason = RejectReason.WRONG_RESULT
        # Check 2: was this exact value committed?  Λ(f(x), λ1..λH) == Φ(R)?
        elif (
            compute_root_from_path(
                encode_leaf(claimed, hash_fn, leaf_encoding),
                expected_index,
                siblings,
                hash_fn,
            )
            != root
        ):
            reason = RejectReason.ROOT_MISMATCH
        else:
            reason = RejectReason.OK
        accepted = reason is RejectReason.OK
        verdicts.append(SampleVerdict(expected_index, accepted, reason))
        if stop_on_first_failure and not accepted:
            break
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
