"""A proof bundle as one multiproof: which siblings travel, and its fold.

The paper's Step 3 ships one authentication path per sample — ``m·H``
sibling digests (§3.1's ``O(m log n)``).  When sampled leaves share
ancestors most of those digests can be recomputed from the other
samples, so a bundle is built, travels and is verified as one
:class:`Multiproof` (Ramabaja & Avdullahu's compact multiproof): every
digest the verifier cannot derive, once, and one fold of the tree the
samples span.

Mark the sampled leaves *covered*; a node is covered when either child
is.  A digest must be **supplied** iff it is the sibling of a covered
node and is not itself covered — everything else on the samples' paths
is derivable from the claimed leaves and the supplied digests below it.
:func:`supplied_nodes` is that rule, written once; the verifier folds
what it describes in one
:meth:`~repro.merkle.hashing.HashFunction.tagged_fold` call.  The
supplied set is never larger than the concatenated paths, and equal
only when no two samples share an ancestor below the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.exceptions import LeafIndexError
from repro.merkle.proof import AuthenticationPath, LeafEncoding, SampleProof


def supplied_nodes(leaves: Sequence[int], height: int) -> list[list[int]]:
    """Per level, the nodes whose digests a multiproof of ``leaves`` must
    supply, left to right.

    ``leaves`` are distinct leaf indices in ascending order and
    ``height`` the path length; level 0 is the leaf level.  A supplied
    node is the sibling of a covered node that is not covered itself.
    Every other position of every path is derivable, and no consumer
    reads it.
    """
    covered, levels = set(leaves), []
    for _ in range(height):
        levels.append(sorted({node ^ 1 for node in covered} - covered))
        covered = {node >> 1 for node in covered}
    return levels


@dataclass(frozen=True)
class Multiproof:
    """A proof bundle in the form it travels (paper §3.1 Step 3, §4):
    the wire's fields, in order — sample indices in sample order, the
    tree's real leaf count, leaf encoding and height, the claimed results
    of the distinct sampled leaves (ascending), and the supplied digests,
    level-major, left to right.  ``len()`` is the sample count ``m``."""

    indices: tuple[int, ...]
    n_leaves: int
    leaf_encoding: LeafEncoding
    height: int
    results: tuple[bytes, ...]
    digests: tuple[bytes, ...]

    @classmethod
    def from_rows(
        cls, rows: Sequence[list[bytes]], indices: Sequence[int],
        payloads: Sequence[bytes], n_leaves: int, leaf_encoding: LeafEncoding,
    ) -> "Multiproof":
        """The multiproof of ``indices`` read off a tree's level rows (leaf
        level first, the root's excluded; SNIPPETS snippet 2); ``payloads[i]``
        is leaf ``i``'s committed result.  Nothing is hashed and no path is
        built; the rows must not change while the bundle is in use."""
        leaves = sorted(set(indices))
        if leaves and not 0 <= leaves[0] <= leaves[-1] < n_leaves:
            raise LeafIndexError(f"a sample lies outside [0, {n_leaves})")
        nodes = supplied_nodes(leaves, len(rows))
        bundle = cls(
            tuple(indices), n_leaves, leaf_encoding, len(rows),
            tuple([payloads[leaf] for leaf in leaves]),
            tuple([row[node] for row, need in zip(rows, nodes) for node in need]),
        )
        # What the cached views would compute again from these fields.
        bundle.__dict__.update(_rows=rows, leaves=leaves, nodes=nodes)
        return bundle

    @cached_property
    def leaves(self) -> list[int]:
        """The distinct sampled leaves, ascending: ``results``' order."""
        return sorted(set(self.indices))

    @cached_property
    def nodes(self) -> list[list[int]]:
        """Per level, the nodes whose digests ``digests`` holds, in order."""
        return supplied_nodes(self.leaves, self.height)

    @cached_property
    def proofs(self) -> tuple[SampleProof, ...]:
        """The bundle as ``m`` :class:`SampleProof` values, derived on
        first read: full paths off a tree's rows or — received — one
        proof per distinct leaf whose path holds ``None`` wherever
        another sample determines the sibling."""
        rows, supply = self.__dict__.get("_rows"), iter(self.digests)
        # Per level, node -> digest: a tree's whole row, or the supplied
        # digests alone (None where another sample determines it).
        at = (
            [row.__getitem__ for row in rows] if rows is not None
            else [dict(zip(row, supply)).get for row in self.nodes]
        )
        by_leaf = {
            leaf: SampleProof(leaf, result, AuthenticationPath.from_uniform(
                leaf, [get((leaf >> level) ^ 1) for level, get in enumerate(at)],
                self.n_leaves, self.leaf_encoding,
            ))
            for leaf, result in zip(self.leaves, self.results)
        }
        return tuple(map(by_leaf.__getitem__, self.indices))

    def __len__(self) -> int:
        return len(self.indices)
