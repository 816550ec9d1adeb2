"""Storage/computation trade-off (paper §3.3) and the tree backend.

:class:`TreeBackend` gives the CBS participant a uniform proving
interface over either a full in-memory Merkle tree or the §3.3 partial
tree (top ``H − ℓ`` levels only).  The closed forms of §3.3 are
provided as functions for experiment E4:

* storage ``S = 2^(H − ℓ + 1)`` digests,
* per-sample rebuild cost ``2^ℓ`` evaluations of ``f``,
* relative computation overhead ``rco = m · 2^ℓ / |D| = 2m / S``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.exceptions import MerkleError
from repro.merkle.hashing import HashFunction
from repro.merkle.partial import PartialMerkleTree
from repro.merkle.proof import AuthenticationPath
from repro.merkle.tree import LeafEncoding, MerkleTree
from repro.utils.bitmath import ceil_log2, next_power_of_two


def predicted_rco(m: int, n: int, subtree_height: int) -> float:
    """The paper's ``rco = m · 2^ℓ / |D|`` (§3.3).

    Equals ``2m / S`` with ``S = 2^(H − ℓ + 1)`` when ``|D|`` is a
    power of two (the paper's setting); for padded domains the ratio is
    taken over the *real* ``|D|`` since only real leaves cost an
    ``f``-evaluation to rebuild.
    """
    if m < 0 or n <= 0 or subtree_height < 0:
        raise ValueError("m >= 0, n > 0, subtree_height >= 0 required")
    return m * (1 << subtree_height) / float(n)


def rco_from_storage(m: int, storage_digests: int) -> float:
    """The storage-form identity ``rco = 2m / S``."""
    if storage_digests <= 0:
        raise ValueError(f"storage must be positive, got {storage_digests}")
    return 2.0 * m / storage_digests


def storage_for_rco(m: int, target_rco: float) -> int:
    """Digest budget ``S`` achieving a target ``rco`` (inverse of §3.3).

    E.g. ``m = 64``, ``target_rco = 2^-25`` gives the paper's 4G
    (``2^32``) figure.
    """
    if target_rco <= 0:
        raise ValueError(f"target_rco must be positive, got {target_rco}")
    return max(2, next_power_of_two(int(round(2.0 * m / target_rco))))


def subtree_height_for_storage(n: int, storage_digests: int) -> int:
    """Largest ``ℓ`` keeping stored digests within budget.

    Storage at ``ℓ`` is ``2^(H−ℓ+1) − 1``; solve for the smallest
    stored top that fits, clamped to ``[0, H]``.
    """
    height = ceil_log2(next_power_of_two(n))
    for ell in range(0, height + 1):
        if (1 << (height - ell + 1)) - 1 <= storage_digests:
            return ell
    return height


class TreeBackend:
    """Participant-side commitment tree: full or partial storage.

    Parameters
    ----------
    payloads:
        Leaf payloads in domain order (the behaviour's output).
    hash_fn, leaf_encoding:
        Merkle parameters; must match the supervisor's.
    subtree_height:
        ``None`` or ``0`` for the full tree; ``ℓ > 0`` enables the
        §3.3 partial tree, with per-proof subtree rebuilds whose leaf
        recomputation is charged through ``recompute``.
    recompute:
        Callback ``index -> payload`` used by the partial tree to
        regenerate discarded leaves.  The caller passes a *metered*
        recomputation so rebuild costs land in the ledger (the paper's
        ``2^ℓ`` evaluations of ``f`` per sample).
    """

    def __init__(
        self,
        payloads: Sequence[bytes],
        hash_fn: HashFunction,
        leaf_encoding: LeafEncoding,
        subtree_height: int | None = None,
        recompute: Callable[[int], bytes] | None = None,
    ) -> None:
        self.hash_fn = hash_fn
        self.leaf_encoding = leaf_encoding
        self.subtree_height = int(subtree_height or 0)
        self._payloads = list(payloads)
        if self.subtree_height > 0:
            if recompute is None:
                raise MerkleError(
                    "partial tree backend requires a recompute callback"
                )
            self._partial = PartialMerkleTree(
                self._payloads,
                leaf_provider=recompute,
                subtree_height=self.subtree_height,
                hash_fn=hash_fn,
                leaf_encoding=leaf_encoding,
            )
            self._full: MerkleTree | None = None
        else:
            self._partial = None
            self._full = MerkleTree(
                self._payloads, hash_fn=hash_fn, leaf_encoding=leaf_encoding
            )

    @property
    def root(self) -> bytes:
        """The commitment ``Φ(R)``."""
        return self._full.root if self._full is not None else self._partial.root

    @property
    def n_leaves(self) -> int:
        return len(self._payloads)

    @property
    def stored_digests(self) -> int:
        """Storage footprint in digests (E4's measured ``S``)."""
        if self._full is not None:
            return self._full.n_nodes
        return self._partial.stored_node_count

    @property
    def leaves_recomputed(self) -> int:
        """Leaf re-evaluations triggered by proofs (partial mode only)."""
        return 0 if self._partial is None else self._partial.leaves_recomputed

    def committed_payload(self, index: int) -> bytes:
        """The payload committed at leaf ``index`` (the claimed result)."""
        return self._payloads[index]

    def auth_path(self, index: int) -> AuthenticationPath:
        """Authentication path for leaf ``index``."""
        if self._full is not None:
            return self._full.auth_path(index)
        return self._partial.auth_path(index)
