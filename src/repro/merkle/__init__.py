"""Merkle-tree substrate for Commitment-Based Sampling (paper §3.1).

The participant commits to all ``n`` results with a single root digest
``Φ(R)``; each sampled result is then proven with an ``O(log n)``
authentication path (the ``Φ`` values of the siblings along the
leaf-to-root path — Fig. 1 of the paper).

The pieces, by module:

* :class:`~repro.merkle.hashing.HashFunction` and
  :func:`~repro.merkle.hashing.get_hash` — pluggable hash registry,
  each hash one ``hashlib``-style constructor, including
  :class:`~repro.merkle.hashing.IteratedHash` (``g = h^k``, the
  deliberately slow hash of paper §4.2 / Eq. 5).
* :class:`~repro.merkle.tree.MerkleTree` — full in-memory tree.
* :class:`~repro.merkle.partial.PartialMerkleTree` — the §3.3
  storage-optimized tree (top ``H − ℓ`` levels stored, height-``ℓ``
  subtrees rebuilt on demand, through the full tree's level code).
* :class:`~repro.merkle.proof.AuthenticationPath` — the ``λ1..λH``
  sibling digests plus the root-reconstruction procedure
  ``Λ(f(x), λ1..λH)`` used by the supervisor.
* :class:`~repro.merkle.multiproof.Multiproof` — a proof bundle as it
  is built, travels and is verified — with the rule for which results
  and sibling digests it ships (``bundle_shape``).
"""

from repro import _reexport

_reexport(__name__, {
    "repro.merkle.hashing": "CountingHash get_hash",
    "repro.merkle.tree": "MerkleTree",
    "repro.merkle.partial": "PartialMerkleTree",
    "repro.merkle.proof": "AuthenticationPath",
})
