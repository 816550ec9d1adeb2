"""Storage-optimized Merkle tree (paper §3.3, Fig. 3).

Instead of storing the entire tree (``O(|D|)`` nodes), the participant
keeps only the nodes at heights ``>= ℓ`` (the paper stores the tree "up
to level H − ℓ" with the root at level 0 — same set of nodes).  Storage
shrinks to ``S = 2^(H−ℓ+1)`` digests; in exchange, answering a sample
challenge requires rebuilding the height-``ℓ`` subtree that contains the
sampled leaf, which means *re-evaluating f* on the subtree's ``2^ℓ``
inputs.  The paper's relative computation overhead is::

    rco = m · 2^ℓ / |D| = 2m / S        (§3.3)

— a per-sample bound: a bundle rebuilds each subtree its samples touch
once, however many samples land in it.

Both halves run on :class:`~repro.merkle.tree.MerkleTree`'s level code,
:func:`~repro.merkle.tree.hash_leaves` plus one
:meth:`~repro.merkle.hashing.HashFunction.tagged_levels` call per
subtree.  The commit builds the subtrees one ``2^ℓ``-wide run at a time
and the stored rows from their roots; :meth:`PartialMerkleTree.multiproof`
reads the bundle off the rebuilt rows below ``ℓ`` plus the stored rows.
Rebuild events and leaf re-evaluations are metered for experiment E4.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Sequence

from repro.exceptions import EmptyTreeError, LeafIndexError, MerkleError
from repro.merkle.hashing import HashFunction, get_hash
from repro.merkle.multiproof import Multiproof
from repro.merkle.proof import NODE_TAG, LeafEncoding
from repro.merkle.tree import empty_leaf_digest, hash_leaves
from repro.utils.bitmath import next_power_of_two, tree_height


class PartialMerkleTree:
    """Merkle tree storing only heights ``>= subtree_height`` (ℓ).

    Parameters
    ----------
    payloads:
        Leaf payloads in domain order; consumed one ``2^ℓ``-wide run at
        a time (the full bottom of the tree is never held in memory).
    leaf_provider:
        Callback ``index -> payload`` used to *recompute* leaf payloads
        when a subtree must be rebuilt for a proof.  In the paper this
        is literally re-evaluating ``f(x_i)``; the grid layer passes a
        metered evaluation so the recompute cost lands in the ledger.
    subtree_height:
        ``ℓ``: the height of the discarded bottom subtrees.  ``0``
        stores everything below the root too (equivalent to a full
        tree); ``height`` stores only the root.
    hash_fn, leaf_encoding:
        As for :class:`~repro.merkle.tree.MerkleTree`.
    """

    def __init__(
        self,
        payloads: Iterable[bytes],
        leaf_provider: Callable[[int], bytes],
        subtree_height: int,
        hash_fn: HashFunction | None = None,
        leaf_encoding: LeafEncoding = LeafEncoding.HASHED,
    ) -> None:
        if subtree_height < 0:
            raise MerkleError(f"subtree_height must be >= 0, got {subtree_height}")
        self.hash_fn = hash_fn or get_hash("sha256")
        self.leaf_encoding = leaf_encoding
        self.leaf_provider = leaf_provider
        self.subtree_height = subtree_height

        width, source, roots, rows = 1 << subtree_height, iter(payloads), [], []
        self.n_leaves = 0
        while run := list(islice(source, width)):
            self.n_leaves += len(run)
            rows = self._subtree(run)
            roots.append(rows[-1][0])
        if not self.n_leaves:
            raise EmptyTreeError("cannot build a Merkle tree over zero leaves")
        padded = next_power_of_two(self.n_leaves)
        self.height = tree_height(padded)
        if width > padded:
            raise MerkleError(
                f"subtree_height {subtree_height} exceeds tree height {self.height}"
            )
        missing = (padded >> subtree_height) - len(roots)
        if missing:
            # All-padding subtrees.  The empty leaf is hashed once per
            # commit: a ragged last run already holds it.
            if self.n_leaves % width:
                pad = rows[0][-1]
            else:
                pad = empty_leaf_digest(self.hash_fn)
            roots += [self._levels([pad] * width)[-1][0] for _ in range(missing)]
        # Heights ℓ..H, bottom-up; the last row is [Φ(R)].
        self._stored = self._levels(roots)

        # Metering for experiment E4.
        self.subtree_rebuilds = 0
        self.leaves_recomputed = 0

    def _levels(self, row: list[bytes]) -> list[list[bytes]]:
        """``row`` and every level above it, bottom-up, to its root."""
        return [row, *self.hash_fn.tagged_levels(NODE_TAG, row)]

    def _subtree(self, payloads: list[bytes]) -> list[list[bytes]]:
        """Rows of the height-ℓ subtree over ``payloads``, padded to
        ``2^ℓ`` leaves with the structural empty leaf."""
        padding = (1 << self.subtree_height) - len(payloads)
        return self._levels(
            hash_leaves(payloads, self.hash_fn, self.leaf_encoding, n_padding=padding)
        )

    # ------------------------------------------------------------------

    @property
    def root(self) -> bytes:
        """The commitment ``Φ(R)``."""
        return self._stored[-1][0]

    @property
    def n_nodes(self) -> int:
        """Digests held in storage (the paper's ``S``, roughly).

        For ``0 <= ℓ <= H`` this is ``2^(H−ℓ+1) − 1`` — at ``ℓ = 0``
        the full tree's node count; the paper rounds it to
        ``S = 2^(H−ℓ+1)``.
        """
        return sum(len(row) for row in self._stored)

    def multiproof(
        self, indices: Sequence[int], payloads: Sequence[bytes]
    ) -> Multiproof:
        """CBS Step 3 for every sample at once (``payloads[i]`` is the
        result committed at leaf ``i``).

        Each height-ℓ subtree the samples touch is rebuilt once, its
        real leaves re-read from ``leaf_provider`` in ascending order
        (Fig. 3(b): the ``V1..V3`` nodes whose Φ values "need to be
        recomputed"); siblings at heights ``>= ℓ`` come from storage.
        """
        ell, n = self.subtree_height, self.n_leaves
        if indices and not 0 <= min(indices) <= max(indices) < n:
            raise LeafIndexError(f"a sample lies outside [0, {n})")
        # Rows below ℓ, only where a subtree was rebuilt: node -> digest.
        bottom: list[dict[int, bytes]] = [{} for _ in range(ell)]
        for subtree in sorted({index >> ell for index in indices}) if ell else ():
            start = subtree << ell
            real = range(start, min(start + (1 << ell), n))
            rows = self._subtree([self.leaf_provider(i) for i in real])
            self.subtree_rebuilds += 1
            self.leaves_recomputed += len(real)
            for level, (row, known) in enumerate(zip(rows, bottom)):
                first = start >> level
                known.update(zip(range(first, first + len(row)), row))
        rows = [*bottom, *self._stored[:-1]]
        return Multiproof.from_rows(rows, indices, payloads, n, self.leaf_encoding)

    def __repr__(self) -> str:
        return (
            f"PartialMerkleTree(n_leaves={self.n_leaves}, height={self.height},"
            f" subtree_height={self.subtree_height},"
            f" stored_nodes={self.n_nodes})"
        )
