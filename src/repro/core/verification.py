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

A bundle is verified as the one multiproof it travels as, joined with
the supervisor's own sample set: the samples, ``n``, the height and
the leaf encoding are the supervisor's, and the bundle is only the
results and digests they cannot give.  The tree its samples span is
folded once, each node hashed once, so check 2 is a statement about
the whole bundle: a root match attests every sampled leaf together,
and a miss cannot be pinned on one sample.  A touched pair's other
leaf is only hashed into the fold — check 1 evaluates the sampled
leaves alone.

A bundle whose counts do not fit the sample set is refused before
anything is evaluated or hashed; one whose widths are not the
function's result size and the hash's digest size, or a RAW tree whose
results are not digests, is malformed — defensive checks a production
verifier needs and tests exercise via failure injection.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Sequence

from repro.core.scheme import RejectReason, SampleVerdict
from repro.merkle.hashing import HashFunction
from repro.merkle.multiproof import Multiproof, bundle_shape
from repro.merkle.proof import NODE_TAG
from repro.merkle.tree import LeafEncoding, empty_leaf_digest, encode_leaves
from repro.tasks.function import TaskFunction
from repro.tasks.domain import Domain
from repro.utils.bitmath import ceil_log2


_OK, _WRONG, _MALFORMED = (
    RejectReason.OK, RejectReason.WRONG_RESULT, RejectReason.MALFORMED_PROOF
)
#: A verdict is a frozen value: one object per (index, accepted,
#: reason), shared by every sample, and every bundle, that earns it.
_verdict = lru_cache(maxsize=1 << 10)(SampleVerdict)


def _fits(
    bundle: Multiproof, result_size: int, hash_fn: HashFunction,
    leaf_encoding: LeafEncoding,
) -> bool:
    """Whether ``bundle``'s widths are the supervisor's: every result
    ``result_size`` bytes, which a RAW leaf needs to be a digest, and
    every supplied digest a digest."""
    digest_size = hash_fn.digest_size
    return (
        set(map(len, bundle.results)) <= {result_size}
        and (leaf_encoding is not LeafEncoding.RAW or result_size == digest_size)
        and set(map(type, bundle.digests)) <= {bytes}
        and set(map(len, bundle.digests)) <= {digest_size}
    )


def verify_proof_bundle(
    bundle: Multiproof,
    indices: Sequence[int],
    root: bytes,
    n_leaves: int,
    domain: Domain,
    function: TaskFunction,
    hash_fn: HashFunction,
    leaf_encoding: LeafEncoding,
    stop_on_first_failure: bool,
) -> list[SampleVerdict] | None:
    """Run both Step-4 checks over a bundle of the supervisor's own
    samples ``indices``; one verdict per sample, or ``None`` when the
    bundle's result or digest count does not fit them, or a sample
    lies past the tree (nothing evaluated or hashed; the caller names
    the reason).

    Verdicts come back in sample order and stop after the first
    rejection when ``stop_on_first_failure`` is set; samples with one
    index and reason share one verdict.  Three passes: the bundle's
    shape, with nothing hashed or evaluated; check 1 per sample, in
    order, through one ``function.verifier`` (one evaluation per
    sample when ``verify`` re-computes); then — iff some sample came
    through both and awaits attestation — one fold of the shared tree
    against ``root``.  A miss is ``ROOT_MISMATCH`` for every awaiting
    sample (the first only, under stop).  The caller charges
    verification cost to its ledger through ``function`` (one
    verification per sample checked) and ``hash_fn`` (this function is
    pure protocol logic): one hash per leaf of each touched pair (none
    per RAW leaf but the padding one) and per covered interior node,
    none when no sample awaits attestation.
    """
    leaves, nodes = bundle_shape(indices, ceil_log2(n_leaves))
    real = bisect_left(leaves, n_leaves)
    if (
        len(bundle.results) != real
        or len(bundle.digests) != sum(map(len, nodes))
        or (leaves and max(indices) >= n_leaves)  # a sample past the tree
    ):
        return None
    fits = _fits(bundle, function.result_size, hash_fn, leaf_encoding)
    if fits:
        claimed = dict(zip(leaves, bundle.results))
        check = function.verifier(domain)
    verdicts: list[SampleVerdict] = []
    awaiting: list[int] = []
    for index in indices:
        if not fits:
            verdict = _verdict(index, False, _MALFORMED)
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
    digests = encode_leaves(bundle.results, hash_fn, leaf_encoding)
    if real < len(leaves):
        digests.append(empty_leaf_digest(hash_fn))
    known = list(zip(leaves, digests))
    if hash_fn.tagged_fold(NODE_TAG, known, nodes, bundle.digests) != root:
        if stop_on_first_failure:
            del verdicts[awaiting[0] + 1 :]
            awaiting = awaiting[:1]
        for position in awaiting:
            verdicts[position] = _verdict(
                verdicts[position].index, False, RejectReason.ROOT_MISMATCH
            )
    return verdicts
