"""Authentication paths and root reconstruction (paper §3.1–3.2).

The supervisor verifies a sample ``x`` by recomputing the root from the
claimed ``f(x)`` and the sibling digests ``λ1..λH`` supplied by the
participant — the procedure the paper denotes
``Λ(Φ(L), λ1, ..., λH) = Φ(R)`` (Theorem 1/2).  Only if the
reconstructed root equals the committed root does the supervisor accept
that the participant knew ``f(x)`` *before* committing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import ProofShapeError
from repro.merkle import hashing

#: Domain-separation tag of the internal-node rule (Eq. 1).  Defined
#: here, not beside the leaf tags in :mod:`repro.merkle.tree`, because
#: that module imports this one and the path fold needs it.
NODE_TAG = b"\x01"

_new = object.__new__


class LeafEncoding(enum.Enum):
    """How a leaf payload is mapped to its ``Φ`` value (see tree.py)."""

    HASHED = "hashed"
    RAW = "raw"


def compute_root_from_path(
    leaf_phi: bytes,
    leaf_index: int,
    siblings: Sequence[bytes],
    hash_fn: "hashing.HashFunction",
) -> bytes:
    """Reconstruct ``Φ(R')`` from a leaf ``Φ`` value and its siblings.

    This is ``Λ(Φ(L), λ1..λH)``: starting at the leaf, combine with each
    sibling in leaf-to-root order; the bit ``j`` of ``leaf_index``
    determines whether the running digest is the left or right child at
    level ``H − j``.  The whole path crosses the hash wrapper stack
    once, through :meth:`~repro.merkle.hashing.HashFunction.fold_path`.
    """
    return hash_fn.fold_path(NODE_TAG, leaf_phi, leaf_index, siblings)


@dataclass(frozen=True)
class AuthenticationPath:
    """The ``λ1..λH`` sibling digests proving one leaf against a root.

    Attributes
    ----------
    leaf_index:
        0-based index of the proven leaf within the domain.
    siblings:
        Sibling ``Φ`` values in leaf-to-root order (length = tree height).
    n_leaves:
        Number of real (non-padding) leaves, kept for sanity checks.
    leaf_encoding:
        The tree's leaf encoding, needed to recompute ``Φ(L)`` from the
        claimed result payload.
    """

    leaf_index: int
    siblings: list[bytes] = field(default_factory=list)
    n_leaves: int = 0
    leaf_encoding: LeafEncoding = LeafEncoding.HASHED

    def __post_init__(self) -> None:
        if self.leaf_index < 0:
            raise ProofShapeError(f"negative leaf index {self.leaf_index}")
        if self.n_leaves and self.leaf_index >= self.n_leaves:
            raise ProofShapeError(
                f"leaf index {self.leaf_index} outside [0, {self.n_leaves})"
            )
        sizes = {len(s) for s in self.siblings}
        if len(sizes) > 1:
            raise ProofShapeError(f"inconsistent sibling digest sizes: {sizes}")

    @classmethod
    def from_uniform(
        cls,
        leaf_index: int,
        siblings: list[bytes],
        n_leaves: int,
        leaf_encoding: LeafEncoding,
    ) -> "AuthenticationPath":
        """Build a path whose siblings are already known to be equal-length.

        For a tree handing out its own digest rows and for the
        :class:`~repro.merkle.multiproof.Multiproof` view of a bundle,
        so ``m`` paths do not re-scan ``m·H`` digest lengths.  The index
        checks are kept: a bad index takes the validating constructor
        and raises as it always has.
        """
        if leaf_index < 0 or (n_leaves and leaf_index >= n_leaves):
            return cls(leaf_index, siblings, n_leaves, leaf_encoding)
        path = _new(cls)
        # Frozen dataclass: fill the instance dict directly, which is
        # what the generated ``__init__`` does one setattr at a time.
        fields_ = path.__dict__
        fields_["leaf_index"] = leaf_index
        fields_["siblings"] = siblings
        fields_["n_leaves"] = n_leaves
        fields_["leaf_encoding"] = leaf_encoding
        return path

    @property
    def height(self) -> int:
        """Path length ``H`` (number of sibling digests)."""
        return len(self.siblings)

    def root_from_payload(
        self, payload: bytes, hash_fn: "hashing.HashFunction"
    ) -> bytes:
        """Reconstruct the root from a claimed leaf *payload* (``f(x)``)."""
        from repro.merkle.tree import encode_leaf

        leaf_phi = encode_leaf(payload, hash_fn, self.leaf_encoding)
        return self.root_from_phi(leaf_phi, hash_fn)

    def root_from_phi(
        self, leaf_phi: bytes, hash_fn: "hashing.HashFunction"
    ) -> bytes:
        """Reconstruct the root from an already-encoded leaf ``Φ`` value."""
        return compute_root_from_path(
            leaf_phi, self.leaf_index, self.siblings, hash_fn
        )

    def verify(
        self,
        payload: bytes,
        expected_root: bytes,
        hash_fn: "hashing.HashFunction",
    ) -> bool:
        """Check whether ``payload`` at ``leaf_index`` matches ``expected_root``."""
        return self.root_from_payload(payload, hash_fn) == expected_root


@dataclass(frozen=True)
class SampleProof:
    """Step 3 payload for one sample: claimed result + auth path.

    A read-only view only (``Multiproof.proofs``); a bundle is built,
    travels and is verified as one
    :class:`~repro.merkle.multiproof.Multiproof`.
    """

    index: int
    claimed_result: bytes
    path: AuthenticationPath
