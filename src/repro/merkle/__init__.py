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
  subtrees rebuilt on demand).
* :class:`~repro.merkle.streaming.StreamingMerkleBuilder` —
  ``O(log n)``-memory root computation.
* :class:`~repro.merkle.proof.AuthenticationPath` — the ``λ1..λH``
  sibling digests plus the root-reconstruction procedure
  ``Λ(f(x), λ1..λH)`` used by the supervisor.
* :func:`~repro.merkle.multiproof.supplied_siblings` and
  :func:`~repro.merkle.multiproof.shared_root` — which sibling digests
  a bundle of paths actually has to ship, and the one fold of the tree
  they span (the wire and verification form of a proof bundle).
"""

from repro.merkle.hashing import (
    CountingHash,
    HashFunction,
    IteratedHash,
    available_hashes,
    get_hash,
)
from repro.merkle.multiproof import shared_root, supplied_siblings
from repro.merkle.partial import PartialMerkleTree
from repro.merkle.proof import AuthenticationPath, compute_root_from_path
from repro.merkle.streaming import StreamingMerkleBuilder
from repro.merkle.tree import (
    LeafEncoding,
    MerkleTree,
    combine_level,
    encode_leaf,
    encode_leaves,
    hash_leaves,
)

__all__ = [
    "hash_leaves",
    "combine_level",
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
    "StreamingMerkleBuilder",
    "AuthenticationPath",
    "compute_root_from_path",
    "supplied_siblings",
    "shared_root",
]
