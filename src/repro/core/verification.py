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
proof and are never read (on a received bundle they hold ``None``).

Malformed proofs (wrong index, wrong path length, wrong digest sizes,
a leaf encoding other than the supervisor's, two results claimed for
one leaf) are rejected without hashing — defensive checks a production
verifier needs and tests exercise via failure injection.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.protocol import SampleProof
from repro.core.scheme import RejectReason, SampleVerdict
from repro.merkle.hashing import HashFunction
from repro.merkle.multiproof import shared_root, supplied_siblings
from repro.merkle.tree import LeafEncoding, encode_leaves
from repro.tasks.function import TaskFunction
from repro.tasks.domain import Domain
from repro.utils.bitmath import next_power_of_two, tree_height


def _supplied_digests(
    proofs: Sequence[SampleProof],
    n_leaves: int,
    hash_fn: HashFunction,
    leaf_encoding: LeafEncoding,
) -> tuple[dict[int, bytes], list[list[tuple[int, bytes]]]] | None:
    """The bundle's shape: its claimed leaves and the digests it supplies.

    Returns ``(claimed result by leaf, (node, digest) rows per level)``
    for the leaf set the bundle itself names, or ``None`` when that set
    has no fold: a path of the wrong height or for another leaf than
    its sample's, a leaf outside the tree, a leaf encoding that is not
    the supervisor's (the encoding is never the peer's say-so), a RAW
    leaf that is not digest-sized, two results for one leaf, or a
    needed sibling that is not a digest.  Nothing is hashed or
    evaluated here.
    """
    height = tree_height(next_power_of_two(n_leaves))
    digest_size = hash_fn.digest_size
    raw_leaves = leaf_encoding is LeafEncoding.RAW
    by_leaf: dict[int, SampleProof] = {}
    for proof in proofs:
        path = proof.path
        claimed = proof.claimed_result
        if (
            not 0 <= proof.index < n_leaves
            or path.leaf_index != proof.index
            or len(path.siblings) != height
            or (path.leaf_encoding or LeafEncoding.HASHED) is not leaf_encoding
            or (raw_leaves and len(claimed) != digest_size)
            or by_leaf.setdefault(proof.index, proof).claimed_result != claimed
        ):
            return None
    leaves = sorted(by_leaf)
    supplied = [
        [(node, by_leaf[leaf].path.siblings[level]) for node, leaf in row]
        for level, row in enumerate(supplied_siblings(leaves, height))
    ]
    digests = [digest for row in supplied for _node, digest in row]
    if set(map(type, digests)) - {bytes} or set(map(len, digests)) - {digest_size}:
        return None
    return {leaf: by_leaf[leaf].claimed_result for leaf in leaves}, supplied


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
    rejection when ``stop_on_first_failure`` is set.  Three passes:
    the bundle's shape, with nothing hashed or evaluated; check 1 per
    sample, in order; then — iff some sample came through both and
    awaits attestation — one fold of the shared tree against ``root``.  A
    miss is ``ROOT_MISMATCH`` for every awaiting sample (the first
    only, under stop).  The caller charges verification cost to its
    ledger through ``function`` and ``hash_fn`` (this function is pure
    protocol logic): one hash per distinct claimed leaf and per covered
    interior node, none when no sample awaits attestation.
    """
    shape = _supplied_digests(proofs, n_leaves, hash_fn, leaf_encoding)
    verify_result = function.verify
    verdicts: list[SampleVerdict] = []
    awaiting: list[int] = []
    for proof, expected_index in zip(proofs, expected_indices):
        if shape is None or proof.index != expected_index:
            reason = RejectReason.MALFORMED_PROOF
        # Check 1: is the claimed f(x) actually correct?
        elif not verify_result(domain[expected_index], proof.claimed_result):
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
    claimed, supplied = shape
    leaf_digests = encode_leaves(list(claimed.values()), hash_fn, leaf_encoding)
    if shared_root(dict(zip(claimed, leaf_digests)), supplied, hash_fn) != root:
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
