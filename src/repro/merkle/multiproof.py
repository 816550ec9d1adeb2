"""A proof bundle as one multiproof: what travels, and the shape it folds in.

The paper's Step 3 ships one authentication path per sample — ``m·H``
sibling digests (§3.1's ``O(m log n)``).  When sampled leaves share
ancestors most of those digests can be recomputed from the other
samples, so a bundle is built, travels and is verified as one
:class:`Multiproof` (Ramabaja & Avdullahu's compact multiproof): only
what the verifier cannot work out for itself, once, and one fold of
the tree the samples span.

What the verifier works out for itself is the samples (its challenge
under CBS, Eq. 4 over the root under NI-CBS), ``n`` (its assignment)
and so the tree's height and leaf encoding (its scheme).  From the
samples it derives the bundle's shape, :func:`bundle_shape`:

* **Leaf pairs.**  The bundle carries the claimed result of both
  leaves of every leaf pair a sample touches — every registered
  workload's result is 1–16 B, against the 32 B sibling digest it
  replaces, and a RAW leaf's result is its digest — except a padding
  leaf past ``n``, whose digest the verifier knows.
* **Supplied digests.**  Mark those leaves *covered*; a node is
  covered when either child is.  A digest is supplied iff it is the
  sibling of a covered node and is not itself covered
  (:func:`supplied_nodes`); with whole pairs covered, none sits at the
  leaf level.  The verifier folds what the shape describes in one
  :meth:`~repro.merkle.hashing.HashFunction.tagged_fold` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from repro.exceptions import LeafIndexError, ProofShapeError
from repro.merkle.proof import AuthenticationPath, LeafEncoding, SampleProof


def supplied_nodes(leaves: Sequence[int], height: int) -> list[list[int]]:
    """Per level, the nodes whose digests a multiproof of ``leaves`` must
    supply, left to right.

    ``leaves`` are distinct node indices of the walk's bottom level (the
    leaf level, or a bundle's touched pairs one level up), ascending,
    and ``height`` the number of levels walked; row 0 is the bottom
    level.  A supplied node is the sibling of a covered node that is
    not covered itself.
    Every other position of every path is derivable, and no consumer
    reads it.
    """
    covered, levels = set(leaves), []
    for _ in range(height):
        levels.append(sorted({node ^ 1 for node in covered} - covered))
        covered = {node >> 1 for node in covered}
    return levels


def bundle_shape(
    indices: Iterable[int], height: int
) -> tuple[list[int], list[list[int]]]:
    """The leaves a bundle of ``indices`` folds from, ascending, and per
    level the nodes whose digests it supplies.

    The leaves are both leaves of every pair a sample touches (the
    sample alone at height 0, where the one leaf is the root); those at
    or past the tree's real leaf count are padding, the only ones whose
    results do not travel.  Every level-0 sibling is then a covered
    leaf, so level 0 supplies nothing and the walk starts at level 1,
    from the touched pairs.
    """
    leaves = set(indices)
    if not height:
        return sorted(leaves), []
    leaves.update([leaf ^ 1 for leaf in leaves])
    leaves = sorted(leaves)
    pairs = [leaf >> 1 for leaf in leaves[::2]]
    return leaves, [[], *supplied_nodes(pairs, height - 1)]


@dataclass(frozen=True)
class Multiproof:
    """A proof bundle in the form it travels (paper §3.1 Step 3, §4):
    the claimed results of the real leaves of :func:`bundle_shape`,
    ascending, and the supplied digests, level-major, left to right.
    It names no samples, no ``n``, height or leaf encoding: those are
    the verifier's, and the verifier joins these lists with them."""

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
        if indices and not 0 <= min(indices) <= max(indices) < n_leaves:
            raise LeafIndexError(f"a sample lies outside [0, {n_leaves})")
        leaves, nodes = bundle_shape(indices, len(rows))
        bundle = cls(
            tuple([payloads[leaf] for leaf in leaves if leaf < n_leaves]),
            tuple([row[node] for row, need in zip(rows, nodes) for node in need]),
        )
        # What the participant's own view reads: none of it travels.
        bundle.__dict__.update(
            indices=tuple(indices), n_leaves=n_leaves,
            leaf_encoding=leaf_encoding, height=len(rows), _rows=rows,
        )
        return bundle

    @cached_property
    def proofs(self) -> tuple[SampleProof, ...]:
        """The participant's bundle as ``m`` :class:`SampleProof` values,
        full paths off its tree's rows, derived on first read.  A
        received bundle names no samples, so it has no such view."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            raise ProofShapeError(
                "a received bundle names no samples: its verifier joins it "
                "with its own"
            )
        payloads = dict(zip(bundle_shape(self.indices, self.height)[0], self.results))
        by_leaf = {
            leaf: SampleProof(leaf, payloads[leaf], AuthenticationPath.from_uniform(
                leaf, [row[(leaf >> level) ^ 1] for level, row in enumerate(rows)],
                self.n_leaves, self.leaf_encoding,
            ))
            for leaf in set(self.indices)
        }
        return tuple(map(by_leaf.__getitem__, self.indices))
