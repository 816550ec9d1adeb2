"""Compressed Merkle multiproofs: batch authentication for many leaves.

CBS ships one independent authentication path per sample — ``m·H``
sibling digests.  When several sampled leaves share tree ancestors,
most of those digests are redundant: a *multiproof* sends each needed
digest once and lets the verifier recompute shared interiors.  This is
a standard post-paper optimization (the paper's ``O(m log n)`` bound is
unchanged; the constant drops), implemented here as the E11 ablation.

Construction (standard): mark the target leaves; walk the tree bottom
up; a node's digest must be *supplied* iff it is the sibling of a
covered node and is not itself covered (coverage propagates to parents
when either child is covered).  Verification replays the same walk,
consuming supplied digests in a canonical (level-major, left-to-right)
order, and compares the reconstructed root.

The multiproof is strictly never larger than the concatenation of the
individual paths, and equal only when the targets share no ancestors
below the root.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import MerkleError, ProofShapeError
from repro.merkle.hashing import HashFunction
from repro.merkle.serialize import ENCODING_CODES, ENCODING_FROM_CODE
from repro.merkle.tree import LeafEncoding, MerkleTree, combine, encode_leaf
from repro.utils.encoding import (
    encode_bytes_list,
    encode_uint,
    encode_uint_list,
    read_bytes_list,
    read_uint,
    read_uint_list,
)


@dataclass(frozen=True)
class MerkleMultiProof:
    """A batch proof for a set of leaf indices against one root.

    Attributes
    ----------
    leaf_indices:
        Sorted, distinct 0-based leaf indices being proven.
    siblings:
        The supplied digests, in canonical order: leaf level first,
        each level left-to-right.
    n_leaves:
        Real (unpadded) leaf count, fixing the tree geometry.
    leaf_encoding:
        The tree's leaf payload encoding.
    """

    leaf_indices: tuple[int, ...]
    siblings: tuple[bytes, ...]
    n_leaves: int
    leaf_encoding: LeafEncoding = LeafEncoding.HASHED

    def __post_init__(self) -> None:
        if not self.leaf_indices:
            raise ProofShapeError("multiproof needs at least one leaf index")
        if list(self.leaf_indices) != sorted(set(self.leaf_indices)):
            raise ProofShapeError("leaf indices must be sorted and distinct")
        if self.leaf_indices[0] < 0 or self.leaf_indices[-1] >= self.n_leaves:
            raise ProofShapeError(
                f"leaf indices outside [0, {self.n_leaves})"
            )

    # ------------------------------------------------------------------

    def wire_size(self) -> int:
        return len(self.encode())

    def encode(self) -> bytes:
        out = bytearray()
        out += encode_uint(self.n_leaves)
        out += encode_uint(ENCODING_CODES[self.leaf_encoding])
        out += encode_uint_list(list(self.leaf_indices))
        out += encode_bytes_list(self.siblings)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "MerkleMultiProof":
        n_leaves, pos = read_uint(data, 0)
        code, pos = read_uint(data, pos)
        indices, pos = read_uint_list(data, pos)
        siblings, pos = read_bytes_list(data, pos)
        if pos != len(data):
            raise MerkleError("trailing bytes in MerkleMultiProof")
        if code not in ENCODING_FROM_CODE:
            raise MerkleError(
                f"unknown leaf-encoding code {code} in MerkleMultiProof"
            )
        return cls(
            leaf_indices=tuple(indices),
            siblings=tuple(siblings),
            n_leaves=n_leaves,
            leaf_encoding=ENCODING_FROM_CODE[code],
        )

    # ------------------------------------------------------------------

    def compute_root(
        self, payloads: dict[int, bytes], hash_fn: HashFunction
    ) -> bytes:
        """Reconstruct the root from the claimed leaf payloads.

        ``payloads`` maps each proven leaf index to its claimed result;
        raises :class:`ProofShapeError` on any shape mismatch (missing
        payload, wrong supplied-digest count).
        """
        missing = set(self.leaf_indices) - set(payloads)
        if missing:
            raise ProofShapeError(f"missing payloads for leaves {sorted(missing)}")

        from repro.utils.bitmath import next_power_of_two

        width = next_power_of_two(self.n_leaves)
        # known: index -> digest at the current level.
        known = {
            index: encode_leaf(payloads[index], hash_fn, self.leaf_encoding)
            for index in self.leaf_indices
        }
        supplied = iter(self.siblings)
        consumed = 0
        while width > 1:
            next_known: dict[int, bytes] = {}
            for index in sorted(known):
                parent = index >> 1
                if parent in next_known:
                    continue  # handled with the sibling
                sibling = index ^ 1
                if sibling in known:
                    left, right = (
                        (known[index], known[sibling])
                        if index < sibling
                        else (known[sibling], known[index])
                    )
                else:
                    try:
                        sibling_digest = next(supplied)
                    except StopIteration:
                        raise ProofShapeError(
                            "multiproof ran out of supplied digests"
                        ) from None
                    consumed += 1
                    left, right = (
                        (known[index], sibling_digest)
                        if index % 2 == 0
                        else (sibling_digest, known[index])
                    )
                next_known[parent] = combine(hash_fn, left, right)
            known = next_known
            width >>= 1
        if consumed != len(self.siblings):
            raise ProofShapeError(
                f"{len(self.siblings) - consumed} unused supplied digests"
            )
        return known[0]

    def verify(
        self,
        payloads: dict[int, bytes],
        expected_root: bytes,
        hash_fn: HashFunction,
    ) -> bool:
        """Check the claimed payloads against the committed root."""
        try:
            return self.compute_root(payloads, hash_fn) == expected_root
        except ProofShapeError:
            return False


def build_multiproof(
    tree: MerkleTree, leaf_indices: list[int]
) -> MerkleMultiProof:
    """Build the compressed batch proof for ``leaf_indices`` of ``tree``.

    Indices are deduplicated and sorted (the wire order is canonical);
    padding leaves cannot be proven.
    """
    targets = sorted(set(leaf_indices))
    if not targets:
        raise MerkleError("no leaf indices given")
    for index in targets:
        if not 0 <= index < tree.n_leaves:
            raise MerkleError(
                f"leaf index {index} outside [0, {tree.n_leaves})"
            )

    siblings: list[bytes] = []
    covered = set(targets)
    # Levels are stored root-first in MerkleTree: leaf level is last.
    for level in range(len(tree._levels) - 1, 0, -1):
        next_covered = set()
        for index in sorted(covered):
            parent = index >> 1
            if parent in next_covered:
                continue
            sibling = index ^ 1
            if sibling not in covered:
                siblings.append(tree._levels[level][sibling])
            next_covered.add(parent)
        covered = next_covered
    return MerkleMultiProof(
        leaf_indices=tuple(targets),
        siblings=tuple(siblings),
        n_leaves=tree.n_leaves,
        leaf_encoding=tree.leaf_encoding,
    )
