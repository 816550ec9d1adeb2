"""Hash-function registry for the Merkle substrate.

The paper treats the hash as a pluggable one-way primitive ("such as
MD5 or SHA", §3.1) and §4.2 constructs a *deliberately expensive* hash
``g ≡ (MD5)^k`` to price the NI-CBS regrinding attack out of
profitability (Eq. 5).  Every hash here is one ``hashlib``-style
constructor (PEP 247/452: ``new(data)`` returns a hasher with
``update``/``copy``/``digest``/``digest_size``), and each batched
Merkle method is written once, over that constructor.  This module
provides:

* :class:`HashFunction` — a named constructor with an abstract *cost*
  (in cost units, see :mod:`repro.accounting`) so analyses can reason
  about ``C_g`` without wall-clock noise.
* :class:`IteratedHash` — ``g = h^k``; a constructor whose hashers
  feed their digest back through ``h``; cost scales linearly with ``k``.
* :class:`CountingHash` — a decorator that charges each invocation to a
  :class:`~repro.accounting.CostLedger`.
* :func:`get_hash` — registry lookup (``sha256`` default; ``md5`` and
  ``sha1`` retained for paper fidelity, ``blake2b`` for the ablation
  experiment E9).
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Callable, Sequence

from repro.exceptions import ReproError


class HashFunction:
    """A named one-way hash with a fixed digest size and abstract cost.

    Parameters
    ----------
    name:
        Registry name (e.g. ``"sha256"``).
    new:
        A ``hashlib``-style constructor: ``new(data=b"")`` returns a
        hasher with ``update``/``copy``/``digest``/``digest_size``.
        The digest size is read off ``new(b"")``.
    cost:
        Abstract cost of one invocation, in the same units used for
        ``C_f`` by :class:`repro.tasks.function.TaskFunction`.  Defaults
        to 1.0; the iterated hash multiplies this by its round count.
    """

    def __init__(
        self, name: str, new: Callable[..., "hashlib._Hash"], cost: float = 1.0
    ) -> None:
        if cost < 0:
            raise ReproError(f"cost must be non-negative, got {cost}")
        self.name = name
        self.new = new
        self.digest_size = new(b"").digest_size
        self.cost = cost

    def digest(self, data: bytes) -> bytes:
        """Hash ``data`` and return the digest."""
        return self.new(data).digest()

    # ------------------------------------------------------------------
    # Batched digests — the Merkle call boundary: three level-wide
    # methods for the builders, :meth:`fold_path` for the verifier,
    # :meth:`digest_chain` for Eq. (4)'s sample derivation.
    #
    # Each is byte-identical to its per-digest loop.  The tagged forms
    # absorb the domain-separation tag into one seeded hasher and copy
    # it per item, skipping the ``tag + blob`` concatenation; only the
    # Python-call overhead differs from the loop.
    # ------------------------------------------------------------------

    def tagged_digest_many(
        self, tag: bytes, blobs: Sequence[bytes]
    ) -> list[bytes]:
        """``[digest(tag + b) for b in blobs]`` without per-item concats.

        The leaf-level hot path.
        """
        copy = self.new(tag).copy
        # ``update`` returns None, so ``or`` chains it into the
        # comprehension — measurably faster than an append loop.
        return [
            (hasher := copy()).update(blob) or hasher.digest()
            for blob in blobs
        ]

    def _pairs_of(self, tag: bytes) -> Callable[[Sequence[bytes]], list[bytes]]:
        """``level -> [digest(tag + level[i] + level[i+1]) for even i]``,
        the tag absorbed once for every level it is applied to: the
        internal-node hot path, without the ``tag || left || right``
        concatenations."""
        copy = self.new(tag).copy

        def pairs_of(level: Sequence[bytes]) -> list[bytes]:
            pairs = iter(level)
            return [
                (hasher := copy()).update(left)
                or hasher.update(right)
                or hasher.digest()
                for left, right in zip(pairs, pairs)
            ]

        return pairs_of

    def tagged_levels(self, tag: bytes, level: Sequence[bytes]) -> list[list[bytes]]:
        """Every level above ``level``, bottom-up, to its root: each
        level's consecutive pairs hashed as ``digest(tag + left +
        right)`` until one digest is left (``level``'s width a power of
        two)."""
        pairs_of, levels = self._pairs_of(tag), []
        while len(level) > 1:
            level = pairs_of(level)
            levels.append(level)
        return levels

    def tagged_fold(
        self,
        tag: bytes,
        known: Sequence[tuple[int, bytes]],
        nodes: Sequence[Sequence[int]],
        digests: Sequence[bytes],
    ) -> bytes:
        """A multiproof's root in one call: the tree the samples span
        (:mod:`repro.merkle.multiproof`), each node hashed once.
        ``known`` pairs the proven leaves, ascending, with their digests;
        ``nodes[level]`` names the supplied nodes at each level, none of
        them known, and ``digests`` holds theirs, level-major.  Per level
        the known and supplied nodes are whole sibling pairs in node
        order, each hashed as ``digest(tag + left + right)`` into the
        parent ``node >> 1``."""
        supply, pairs_of = iter(digests), self._pairs_of(tag)
        for row in nodes:
            if row:
                known = sorted([*known, *zip(row, supply)])
            parents = pairs_of([digest for _, digest in known])
            known = list(zip([node >> 1 for node, _ in known[::2]], parents))
        ((_, root),) = known
        return root

    def fold_path(
        self,
        tag: bytes,
        leaf: bytes,
        index: int,
        siblings: Sequence[bytes],
    ) -> bytes:
        """Fold one authentication path to its root in a single call.

        The read-side sibling of :meth:`tagged_levels`: starting from
        ``leaf``, each sibling is combined as ``digest(tag + left +
        right)``, the running digest on the right when the matching bit
        of ``index`` (least significant first) is set.  Equals the
        per-level ``digest`` loop byte for byte, copying one pre-seeded
        hasher per level instead of concatenating.
        """
        digest = leaf
        copy = self.new(tag).copy
        for sibling in siblings:
            hasher = copy()
            if index & 1:
                hasher.update(sibling)
                hasher.update(digest)
            else:
                hasher.update(digest)
                hasher.update(sibling)
            digest = hasher.digest()
            index >>= 1
        return digest

    def digest_chain(self, value: bytes, count: int) -> list[bytes]:
        """The first ``count`` links of ``h(value), h(h(value)), ...``.

        Eq. (4)'s chain, one call for all ``m`` links instead of one
        wrapper crossing per link.
        """
        new = self.new
        return [value := new(value).digest() for _ in range(count)]

    def __repr__(self) -> str:
        return (
            f"HashFunction(name={self.name!r}, digest_size={self.digest_size},"
            f" cost={self.cost})"
        )


class _IteratedHasher:
    """A hasher of ``h^k``: it absorbs like ``h``'s ``hasher``, and its
    digest is fed back through ``h``'s constructor ``new`` ``k - 1``
    more times."""

    __slots__ = ("_new", "_rounds", "_hasher", "digest_size")

    def __init__(self, new: Callable, rounds: int, hasher) -> None:
        self._new, self._rounds, self._hasher = new, rounds, hasher
        self.digest_size = hasher.digest_size

    def update(self, data: bytes) -> None:
        self._hasher.update(data)

    def copy(self) -> "_IteratedHasher":
        return _IteratedHasher(self._new, self._rounds, self._hasher.copy())

    def digest(self) -> bytes:
        digest, new = self._hasher.digest(), self._new
        for _ in range(self._rounds - 1):
            digest = new(digest).digest()
        return digest


class IteratedHash(HashFunction):
    """``g = h^k``: apply a base hash ``k`` times (paper §4.2).

    NI-CBS derives sample indices from ``g^k(Φ(R))``; to defeat the
    regrinding attack the paper makes ``g`` itself expensive by
    iterating a fast hash.  The abstract cost is ``k × base.cost`` so
    Eq. (5) can be evaluated directly from the objects.
    """

    def __init__(self, base: HashFunction, rounds: int) -> None:
        if rounds < 1:
            raise ReproError(f"rounds must be >= 1, got {rounds}")
        self.base = base
        self.rounds = rounds
        new = base.new
        super().__init__(
            f"{base.name}^{rounds}",
            lambda data=b"": _IteratedHasher(new, rounds, new(data)),
            base.cost * rounds,
        )


class CountingHash(HashFunction):
    """Wrap a hash so every invocation is charged to a ledger.

    The ledger interface is duck-typed (``charge_hash(cost)`` for one
    digest, ``charge_hashes(cost, count)`` for a batch) to avoid a
    circular import with :mod:`repro.accounting`.  A batch is one
    charge of its total, the books of one charge per digest; ``new``
    is the inner hash's and charges nothing.
    """

    def __init__(self, inner: HashFunction, ledger) -> None:
        self.inner = inner
        self.ledger = ledger
        super().__init__(inner.name, inner.new, inner.cost)

    def digest(self, data: bytes) -> bytes:
        self.ledger.charge_hash(self.inner.cost)
        return self.inner.digest(data)

    def tagged_digest_many(
        self, tag: bytes, blobs: Sequence[bytes]
    ) -> list[bytes]:
        blobs = blobs if isinstance(blobs, list) else list(blobs)
        self.ledger.charge_hashes(self.inner.cost, len(blobs))
        return self.inner.tagged_digest_many(tag, blobs)

    def tagged_levels(self, tag: bytes, level: Sequence[bytes]) -> list[list[bytes]]:
        # A complete tree over w leaves has w - 1 interior nodes.
        self.ledger.charge_hashes(self.inner.cost, len(level) - 1)
        return self.inner.tagged_levels(tag, level)

    def tagged_fold(
        self,
        tag: bytes,
        known: Sequence[tuple[int, bytes]],
        nodes: Sequence[Sequence[int]],
        digests: Sequence[bytes],
    ) -> bytes:
        count, width = 0, len(known)
        for row in nodes:
            width = (width + len(row)) // 2
            count += width
        self.ledger.charge_hashes(self.inner.cost, count)
        return self.inner.tagged_fold(tag, known, nodes, digests)

    def fold_path(
        self,
        tag: bytes,
        leaf: bytes,
        index: int,
        siblings: Sequence[bytes],
    ) -> bytes:
        self.ledger.charge_hashes(self.inner.cost, len(siblings))
        return self.inner.fold_path(tag, leaf, index, siblings)

    def digest_chain(self, value: bytes, count: int) -> list[bytes]:
        self.ledger.charge_hashes(self.inner.cost, count)
        return self.inner.digest_chain(value, count)


_REGISTRY: dict[str, HashFunction] = {
    name: HashFunction(name, new)
    for name, new in (
        ("sha256", hashlib.sha256),
        ("sha1", hashlib.sha1),
        ("md5", hashlib.md5),
        ("blake2b", partial(hashlib.blake2b, digest_size=32)),
        ("sha512", hashlib.sha512),
    )
}


def available_hashes() -> list[str]:
    """Names of all registered hash functions."""
    return sorted(_REGISTRY)


def get_hash(name: str = "sha256") -> HashFunction:
    """Look up a registered hash function by name.

    ``"<base>^<k>"`` names (e.g. ``"md5^1000"``) build an
    :class:`IteratedHash` on the fly, mirroring the paper's
    ``g ≡ (MD5)^k`` construction.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    if "^" in name:
        base_name, _, rounds_text = name.partition("^")
        if base_name in _REGISTRY and rounds_text.isdigit():
            return IteratedHash(_REGISTRY[base_name], int(rounds_text))
    raise ReproError(
        f"unknown hash {name!r}; available: {', '.join(available_hashes())}"
    )
