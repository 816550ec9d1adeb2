"""Merkle-tree substrate for Commitment-Based Sampling (paper §3.1).

The participant commits to all ``n`` results with a single root digest
``Φ(R)``; each sampled result is then proven with an ``O(log n)``
authentication path (the ``Φ`` values of the siblings along the
leaf-to-root path — Fig. 1 of the paper).

Public surface:

* :class:`~repro.merkle.hashing.HashFunction` and
  :func:`~repro.merkle.hashing.get_hash` — pluggable hash registry,
  including :class:`~repro.merkle.hashing.IteratedHash` (``g = h^k``,
  the deliberately slow hash of paper §4.2 / Eq. 5).
* :class:`~repro.merkle.tree.MerkleTree` — full in-memory tree.
* :class:`~repro.merkle.partial.PartialMerkleTree` — the §3.3
  storage-optimized tree (top ``H − ℓ`` levels stored, height-``ℓ``
  subtrees rebuilt on demand, through the full tree's level code).
* :class:`~repro.merkle.proof.AuthenticationPath` — the ``λ1..λH``
  sibling digests plus the root-reconstruction procedure
  ``Λ(f(x), λ1..λH)`` used by the supervisor.
* :class:`~repro.merkle.multiproof.Multiproof` — a proof bundle as it
  is built, travels and is verified — with the rule for which sibling
  digests it ships (``supplied_siblings``) and its one fold of the tree
  the samples span (``shared_root``).
"""

from repro.merkle.hashing import (
    CountingHash,
    HashFunction,
    IteratedHash,
    available_hashes,
    get_hash,
)
from repro.merkle.multiproof import Multiproof, shared_root, supplied_siblings
from repro.merkle.partial import PartialMerkleTree
from repro.merkle.proof import AuthenticationPath, compute_root_from_path
from repro.merkle.tree import (
    LeafEncoding,
    MerkleTree,
    encode_leaf,
    encode_leaves,
    hash_leaves,
)

__all__ = [
    "hash_leaves",
    "encode_leaves",
    "HashFunction",
    "IteratedHash",
    "CountingHash",
    "get_hash",
    "available_hashes",
    "MerkleTree",
    "LeafEncoding",
    "encode_leaf",
    "PartialMerkleTree",
    "AuthenticationPath",
    "compute_root_from_path",
    "Multiproof",
    "supplied_siblings",
    "shared_root",
]
