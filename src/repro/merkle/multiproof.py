"""The shared tree of a proof bundle: which siblings travel, and its fold.

The paper's Step 3 ships one authentication path per sample — ``m·H``
sibling digests (§3.1's ``O(m log n)``).  When sampled leaves share
ancestors most of those digests can be recomputed from the other
samples, so a bundle travels, and is verified, as one *multiproof*:
every digest the verifier cannot derive, once, and one fold of the
tree the samples span.

Mark the sampled leaves *covered*; a node is covered when either child
is.  A digest must be **supplied** iff it is the sibling of a covered
node and is not itself covered — everything else on the samples' paths
is derivable from the claimed leaves and the supplied digests below it.
:func:`supplied_siblings` is that rule, written once: the wire encoder
and decoder (:mod:`repro.core.protocol`) and the verifier
(:mod:`repro.core.verification`) all walk the geometry through it, and
:func:`shared_root` folds what it describes.  The supplied set is never
larger than the concatenated paths, and equal only when no two samples
share an ancestor below the root.
"""

from __future__ import annotations

from typing import Sequence

from repro.merkle.hashing import HashFunction
from repro.merkle.proof import NODE_TAG


def supplied_siblings(
    leaves: Sequence[int], height: int
) -> list[list[tuple[int, int]]]:
    """The siblings a multiproof of ``leaves`` must supply, per level.

    ``leaves`` are distinct leaf indices in ascending order and
    ``height`` the path length.  Level 0 is the leaf level; each level
    lists ``(node, leaf)`` left to right: ``node`` is the level-local
    index of a supplied sibling and ``leaf`` the highest of ``leaves``
    under the covered node beside it — the sample whose authentication
    path carries that digest, at position ``level``.  Every other
    position of every path is derivable, and no consumer reads it.
    """
    covered = dict(zip(leaves, leaves))
    levels = []
    for _ in range(height):
        levels.append(
            [
                (node ^ 1, leaf)
                for node, leaf in covered.items()
                if node ^ 1 not in covered
            ]
        )
        covered = {node >> 1: leaf for node, leaf in covered.items()}
    return levels


def shared_root(
    leaf_digests: dict[int, bytes],
    supplied: Sequence[Sequence[tuple[int, bytes]]],
    hash_fn: HashFunction,
) -> bytes:
    """Fold the tree a multiproof spans to its root, each node once.

    ``leaf_digests`` maps every proven leaf index to its ``Φ`` value;
    ``supplied[level]`` pairs each node :func:`supplied_siblings` names
    at that level with its digest.  A level's covered and supplied
    nodes together are whole sibling pairs, so each level is one
    :meth:`~repro.merkle.hashing.HashFunction.tagged_digest_pairs`
    call: the hash count is the number of covered interior nodes.
    """
    known = dict(leaf_digests)
    for level in supplied:
        known.update(level)
        order = sorted(known)
        parents = hash_fn.tagged_digest_pairs(
            NODE_TAG, [known[node] for node in order]
        )
        known = dict(zip([node >> 1 for node in order[::2]], parents))
    (root,) = known.values()
    return root
