"""Full in-memory Merkle tree (paper §3.1, Eq. 1 and Fig. 1).

The participant builds a complete binary tree whose leaves carry the
computation results: ``Φ(L_i) = f(x_i)`` and
``Φ(V) = hash(Φ(V_left) || Φ(V_right))`` for internal nodes.  The root
digest ``Φ(R)`` is the commitment sent to the supervisor.

Two leaf encodings are supported (experiment E9 ablates them):

* ``LeafEncoding.HASHED`` (default) — ``Φ(L) = hash(0x00 || payload)``.
  This is the standard domain-separated encoding: it accommodates
  variable-length results and prevents leaf/internal-node confusion
  (second-preimage) attacks.
* ``LeafEncoding.RAW`` — ``Φ(L) = payload`` verbatim, exactly as the
  paper writes Eq. (1).  Requires every payload to already be
  ``digest_size`` bytes.

Domains whose size is not a power of two are padded with a
domain-separated empty-leaf digest (``hash(0x02 || "repro/empty")``);
padding leaves are structural only and are never sampled by any scheme.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from repro.exceptions import EmptyTreeError, LeafIndexError, MerkleError
from repro.merkle.hashing import HashFunction, get_hash
from repro.merkle.proof import NODE_TAG as _NODE_TAG
from repro.merkle.proof import AuthenticationPath
from repro.utils.bitmath import next_power_of_two, tree_height

_LEAF_TAG = b"\x00"
_EMPTY_TAG = b"\x02repro/empty"


class LeafEncoding(enum.Enum):
    """How a leaf payload is mapped to its ``Φ`` value."""

    HASHED = "hashed"
    RAW = "raw"


def encode_leaf(
    payload: bytes, hash_fn: HashFunction, encoding: LeafEncoding
) -> bytes:
    """Compute ``Φ(L)`` for a leaf carrying ``payload``."""
    if encoding is LeafEncoding.RAW:
        if len(payload) != hash_fn.digest_size:
            raise MerkleError(
                "RAW leaf encoding requires payloads of digest size "
                f"{hash_fn.digest_size}, got {len(payload)} bytes"
            )
        return payload
    return hash_fn.digest(_LEAF_TAG + payload)


def empty_leaf_digest(hash_fn: HashFunction) -> bytes:
    """The ``Φ`` value used for structural padding leaves."""
    return hash_fn.digest(_EMPTY_TAG)


def combine(hash_fn: HashFunction, left: bytes, right: bytes) -> bytes:
    """Internal-node rule of Eq. (1): ``Φ(V) = hash(Φ(left) || Φ(right))``.

    A node tag is prepended for domain separation from leaf hashing;
    with ``LeafEncoding.RAW`` the tag is the only separator, exactly as
    strong as the paper's plain concatenation.
    """
    return hash_fn.digest(_NODE_TAG + left + right)


def combine_level(
    hash_fn: HashFunction, level: Sequence[bytes]
) -> list[bytes]:
    """Apply Eq. (1) to a whole even-width level in one batched call.

    Byte-identical to pairwise :func:`combine` over the level; the
    difference is one
    :meth:`~repro.merkle.hashing.HashFunction.tagged_digest_pairs`
    boundary instead of ``len(level) / 2`` per-digest Python call
    chains — the internal-node half of the batched-hashing hot path.
    """
    if len(level) % 2:
        raise MerkleError(
            f"level width must be even to combine, got {len(level)}"
        )
    return hash_fn.tagged_digest_pairs(_NODE_TAG, level)


def encode_leaves(
    payloads: Sequence[bytes],
    hash_fn: HashFunction,
    encoding: LeafEncoding = LeafEncoding.HASHED,
) -> list[bytes]:
    """``Φ`` values for many leaves through one batched hash call.

    Byte-identical to ``[encode_leaf(p, ...) for p in payloads]``; the
    leaf-level half of the batched hot path, shared by
    :func:`hash_leaves` and the streaming builder's ``add_leaves``.
    """
    if encoding is LeafEncoding.RAW:
        return [encode_leaf(payload, hash_fn, encoding) for payload in payloads]
    return hash_fn.tagged_digest_many(_LEAF_TAG, payloads)


def hash_leaves(
    payloads: Sequence[bytes],
    hash_fn: HashFunction,
    encoding: LeafEncoding = LeafEncoding.HASHED,
    n_padding: int = 0,
) -> list[bytes]:
    """``Φ`` values for a contiguous run of leaves, plus padding.

    The leaf-level primitive :class:`MerkleTree` calls once over the
    whole domain, padding out to the next power of two.
    """
    if n_padding < 0:
        raise MerkleError(f"n_padding must be >= 0, got {n_padding}")
    digests = encode_leaves(payloads, hash_fn, encoding)
    if n_padding:
        digests.extend([empty_leaf_digest(hash_fn)] * n_padding)
    return digests


class MerkleTree:
    """A complete binary Merkle tree over a sequence of leaf payloads.

    Levels are stored root-first: ``_levels[0]`` is ``[Φ(R)]`` and
    ``_levels[H]`` is the padded leaf level, matching the paper's
    "root at level 0" convention (§3.3).

    Parameters
    ----------
    leaves:
        The leaf payloads, one per domain input, in domain order
        (payload ``i`` corresponds to ``f(x_i)``).
    hash_fn:
        Hash function (default SHA-256).
    leaf_encoding:
        See :class:`LeafEncoding`.
    """

    def __init__(
        self,
        leaves: Sequence[bytes] | Iterable[bytes],
        hash_fn: HashFunction | None = None,
        leaf_encoding: LeafEncoding = LeafEncoding.HASHED,
    ) -> None:
        payloads = list(leaves)
        if not payloads:
            raise EmptyTreeError("cannot build a Merkle tree over zero leaves")
        self.hash_fn = hash_fn or get_hash("sha256")
        self.leaf_encoding = leaf_encoding
        self.n_leaves = len(payloads)
        self.height = tree_height(next_power_of_two(self.n_leaves))

        padded = next_power_of_two(self.n_leaves)
        leaf_level = hash_leaves(
            payloads,
            self.hash_fn,
            leaf_encoding,
            n_padding=padded - self.n_leaves,
        )

        levels: list[list[bytes]] = [leaf_level]
        current = leaf_level
        while len(current) > 1:
            parent = combine_level(self.hash_fn, current)
            levels.append(parent)
            current = parent
        levels.reverse()  # root first
        self._levels = levels

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def root(self) -> bytes:
        """The commitment ``Φ(R)``."""
        return self._levels[0][0]

    @property
    def n_padded_leaves(self) -> int:
        """Leaf-level width after power-of-two padding."""
        return len(self._levels[-1])

    @property
    def n_nodes(self) -> int:
        """Total number of nodes, including padding leaves."""
        return sum(len(level) for level in self._levels)

    def phi(self, level: int, index: int) -> bytes:
        """``Φ`` value of the node at ``(level, index)``; root is (0, 0)."""
        if not 0 <= level < len(self._levels):
            raise MerkleError(f"level {level} outside [0, {len(self._levels) - 1}]")
        row = self._levels[level]
        if not 0 <= index < len(row):
            raise MerkleError(f"index {index} outside level {level} of width {len(row)}")
        return row[index]

    def leaf_digest(self, index: int) -> bytes:
        """``Φ(L_index)`` for a real (non-padding) leaf."""
        self._check_leaf_index(index)
        return self._levels[-1][index]

    def _check_leaf_index(self, index: int) -> None:
        if not 0 <= index < self.n_leaves:
            raise LeafIndexError(
                f"leaf index {index} outside [0, {self.n_leaves})"
            )

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------

    def auth_path(self, index: int) -> AuthenticationPath:
        """Sibling digests ``λ1..λH`` along the path from leaf ``index``.

        This is the participant side of CBS Step 3: for each node ``v``
        on the leaf-to-root path (root excluded) send ``Φ(v's sibling)``
        (paper §3.1 and footnote 1).  Siblings are ordered leaf-upward.
        """
        self._check_leaf_index(index)
        # Leaf level (last) up to level 1 (children of the root); the
        # rows are this tree's own digests, so equal-length already.
        return AuthenticationPath.from_uniform(
            index,
            [
                level[(index >> depth) ^ 1]
                for depth, level in enumerate(self._levels[:0:-1])
            ],
            self.n_leaves,
            self.leaf_encoding,
        )

    def __len__(self) -> int:
        return self.n_leaves

    def __repr__(self) -> str:
        return (
            f"MerkleTree(n_leaves={self.n_leaves}, height={self.height},"
            f" hash={self.hash_fn.name}, root={self.root.hex()[:16]}...)"
        )
