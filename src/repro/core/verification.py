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
a leaf encoding other than the supervisor's, a sample outside the
tree) are rejected without hashing — defensive checks a production
verifier needs and tests exercise via failure injection.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.core.scheme import RejectReason, SampleVerdict
from repro.merkle.hashing import HashFunction
from repro.merkle.multiproof import Multiproof
from repro.merkle.proof import NODE_TAG
from repro.merkle.tree import LeafEncoding, encode_leaves
from repro.tasks.function import TaskFunction
from repro.tasks.domain import Domain
from repro.utils.bitmath import next_power_of_two, tree_height


_OK, _WRONG, _MALFORMED = (
    RejectReason.OK, RejectReason.WRONG_RESULT, RejectReason.MALFORMED_PROOF
)
#: A verdict is a frozen value: one object per (index, accepted,
#: reason), shared by every sample, and every bundle, that earns it.
_verdict = lru_cache(maxsize=1 << 10)(SampleVerdict)


def _fits(
    bundle: Multiproof, n_leaves: int, hash_fn: HashFunction, leaf_encoding: LeafEncoding
) -> bool:
    """Whether ``bundle`` folds in the supervisor's tree: its height, leaf
    range and leaf encoding (never the peer's say-so) are the tree's, a
    RAW leaf is digest-sized, every supplied sibling is a digest.  No
    leaf is negative: a decoded index is a uvarint and
    :meth:`~repro.merkle.multiproof.Multiproof.from_rows` range-checks
    its own."""
    leaves, digests, digest_size = bundle.leaves, bundle.digests, hash_fn.digest_size
    return (
        bundle.height == tree_height(next_power_of_two(n_leaves))
        and (not leaves or leaves[-1] < n_leaves)
        and bundle.leaf_encoding is leaf_encoding
        and (
            leaf_encoding is not LeafEncoding.RAW
            or set(map(len, bundle.results)) <= {digest_size}
        )
        and set(map(type, digests)) <= {bytes}
        and set(map(len, digests)) <= {digest_size}
    )


def verify_proof_bundle(
    bundle: Multiproof,
    expected_indices: Sequence[int],
    root: bytes,
    n_leaves: int,
    domain: Domain,
    function: TaskFunction,
    hash_fn: HashFunction,
    leaf_encoding: LeafEncoding,
    stop_on_first_failure: bool,
) -> list[SampleVerdict]:
    """Run both Step-4 checks over a bundle; one verdict per sample.

    Verdicts come back in bundle order and stop after the first
    rejection when ``stop_on_first_failure`` is set; samples with one
    index and reason share one verdict.  Three passes: the bundle's
    shape, with nothing hashed or evaluated; check 1 per sample, in
    order, through one ``function.verifier`` (one evaluation per leaf
    when ``verify`` re-computes); then — iff some sample came through
    both and awaits attestation — one fold of the shared tree against
    ``root``.  A miss is ``ROOT_MISMATCH`` for every awaiting sample
    (the first only, under stop).  The caller charges verification cost
    to its ledger through ``function`` (one verification per sample
    checked) and ``hash_fn`` (this function is pure protocol logic):
    one hash per distinct claimed leaf and per covered interior node,
    none when no sample awaits attestation.
    """
    fits = _fits(bundle, n_leaves, hash_fn, leaf_encoding)
    if fits:
        claimed = dict(zip(bundle.leaves, bundle.results))
        check = function.verifier(domain)
    verdicts: list[SampleVerdict] = []
    awaiting: list[int] = []
    for index, expected_index in zip(bundle.indices, expected_indices):
        if not fits or index != expected_index:
            verdict = _verdict(expected_index, False, _MALFORMED)
        # Check 1: is the claimed f(x) actually correct?
        elif check(index, claimed[index]):
            verdict = _verdict(index, True, _OK)
            awaiting.append(len(verdicts))
        else:
            verdict = _verdict(index, False, _WRONG)
        verdicts.append(verdict)
        if stop_on_first_failure and not verdict.accepted:
            break
    if not awaiting:
        return verdicts
    # Check 2: were these exact values committed?  Λ(f(x)s, λs) == Φ(R)?
    known = list(zip(bundle.leaves, encode_leaves(bundle.results, hash_fn, leaf_encoding)))
    if hash_fn.tagged_fold(NODE_TAG, known, bundle.nodes, bundle.digests) != root:
        if stop_on_first_failure:
            del verdicts[awaiting[0] + 1 :]
            awaiting = awaiting[:1]
        for position in awaiting:
            verdicts[position] = _verdict(
                verdicts[position].index, False, RejectReason.ROOT_MISMATCH
            )
    return verdicts
