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
:func:`supplied_siblings` is that rule, written once, and
:func:`shared_root` folds what it describes.  The supplied set is never
larger than the concatenated paths, and equal only when no two samples
share an ancestor below the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.exceptions import CodecError, LeafIndexError
from repro.merkle.hashing import HashFunction
from repro.merkle.proof import NODE_TAG, AuthenticationPath, LeafEncoding, SampleProof


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
        supplied = supplied_siblings(leaves, len(rows))
        bundle = cls(
            tuple(indices), n_leaves, leaf_encoding, len(rows),
            tuple([payloads[leaf] for leaf in leaves]),
            tuple([row[node] for row, need in zip(rows, supplied) for node, _ in need]),
        )
        bundle.__dict__["_rows"] = rows
        return bundle

    @classmethod
    def from_proofs(cls, proofs: Sequence[SampleProof]) -> "Multiproof":
        """Pack in-memory :class:`SampleProof` values (a multiproof is
        returned as it is), reading only the positions
        :func:`supplied_siblings` names.  Proofs that mix tree sizes,
        encodings or heights, whose path is for another leaf, that claim
        two results for one leaf, or that lack a needed digest have no
        multiproof: :class:`CodecError`.  No encoding has always meant HASHED.
        """
        if isinstance(proofs, cls):
            return proofs
        proofs = tuple(proofs)
        first = proofs[0].path if proofs else AuthenticationPath(0)
        n_leaves, height = first.n_leaves, len(first.siblings)
        encoding = first.leaf_encoding or LeafEncoding.HASHED
        by_leaf: dict[int, SampleProof] = {}
        for proof in proofs:
            path = proof.path
            if (
                path.leaf_index != proof.index
                or path.n_leaves != n_leaves
                or len(path.siblings) != height
                or (path.leaf_encoding or LeafEncoding.HASHED) is not encoding
                or by_leaf.setdefault(proof.index, proof).claimed_result
                != proof.claimed_result
            ):
                raise CodecError(
                    f"sample {proof.index} does not share the bundle's tree "
                    "(one index, size, encoding, height and result per leaf)"
                )
        leaves = sorted(by_leaf)
        digests = [
            by_leaf[leaf].path.siblings[level]
            for level, row in enumerate(supplied_siblings(leaves, height))
            for _node, leaf in row
        ]
        if None in digests:
            raise CodecError("a sibling digest the bundle has to supply is missing")
        packed = cls(
            tuple(proof.index for proof in proofs), n_leaves, encoding, height,
            tuple(by_leaf[leaf].claimed_result for leaf in leaves), tuple(digests),
        )
        packed.__dict__["proofs"] = proofs
        return packed

    @cached_property
    def leaves(self) -> list[int]:
        """The distinct sampled leaves, ascending: ``results``' order."""
        return sorted(set(self.indices))

    @cached_property
    def nodes(self) -> list[list[int]]:
        """Per level, the nodes whose digests ``digests`` holds, in order."""
        rows = supplied_siblings(self.leaves, self.height)
        return [[node for node, _ in row] for row in rows]

    def supplied(self) -> list[list[tuple[int, bytes]]]:
        """``nodes`` paired with ``digests``: what :func:`shared_root` folds."""
        supply = iter(self.digests)
        return [list(zip(row, supply)) for row in self.nodes]

    @cached_property
    def proofs(self) -> tuple[SampleProof, ...]:
        """The bundle as ``m`` :class:`SampleProof` values, derived on
        first read: full paths off a tree's rows, the proofs it was packed
        from, or — received — one proof per distinct leaf whose path
        holds ``None`` wherever another sample determines the sibling."""
        rows = self.__dict__.get("_rows")
        # Per level, node -> digest: a tree's whole row, or the supplied
        # digests alone (None where another sample determines it).
        at = (
            [row.__getitem__ for row in rows] if rows is not None
            else [dict(level).get for level in self.supplied()]
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
