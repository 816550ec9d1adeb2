"""Hash-function registry for the Merkle substrate.

The paper treats the hash as a pluggable one-way primitive ("such as
MD5 or SHA", §3.1) and §4.2 constructs a *deliberately expensive* hash
``g ≡ (MD5)^k`` to price the NI-CBS regrinding attack out of
profitability (Eq. 5).  This module provides:

* :class:`HashFunction` — a named wrapper over a ``bytes -> bytes``
  digest with an abstract *cost* (in cost units, see
  :mod:`repro.accounting`) so analyses can reason about ``C_g``
  without wall-clock noise.
* :class:`IteratedHash` — ``g = h^k``; cost scales linearly with ``k``.
* :class:`CountingHash` — a decorator that charges each invocation to a
  :class:`~repro.accounting.CostLedger`.
* :func:`get_hash` — registry lookup (``sha256`` default; ``md5`` and
  ``sha1`` retained for paper fidelity, ``blake2b`` for the ablation
  experiment E9).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

from repro.exceptions import ReproError


class HashFunction:
    """A named one-way hash with a fixed digest size and abstract cost.

    Parameters
    ----------
    name:
        Registry name (e.g. ``"sha256"``).
    fn:
        The raw ``bytes -> bytes`` digest function.
    digest_size:
        Output size in bytes.
    cost:
        Abstract cost of one invocation, in the same units used for
        ``C_f`` by :class:`repro.tasks.function.TaskFunction`.  Defaults
        to 1.0; the iterated hash multiplies this by its round count.
    hasher_factory:
        Optional ``hashlib``-style constructor (``factory(data=b"")``
        returns an object with ``copy``/``update``/``digest``).  When
        present, the batched methods below hash whole levels through
        cached, pre-seeded hasher objects instead of one Python call
        chain per digest — the Merkle hot path.  The registry's stdlib
        entries all carry one; wrapper classes compose without it.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[bytes], bytes],
        digest_size: int,
        cost: float = 1.0,
        hasher_factory: Callable[..., "hashlib._Hash"] | None = None,
    ) -> None:
        if digest_size <= 0:
            raise ReproError(f"digest_size must be positive, got {digest_size}")
        if cost < 0:
            raise ReproError(f"cost must be non-negative, got {cost}")
        self.name = name
        self._fn = fn
        self._factory = hasher_factory
        self.digest_size = digest_size
        self.cost = cost

    def digest(self, data: bytes) -> bytes:
        """Hash ``data`` and return the digest."""
        return self._fn(data)

    # ------------------------------------------------------------------
    # Batched digests — the Merkle call boundary: three level-wide
    # methods for the builders, :meth:`fold_path` for the verifier,
    # :meth:`digest_chain` for Eq. (4)'s sample derivation.
    #
    # All five methods are byte-identical to their per-digest loops;
    # registry entries dispatch through a cached constructor (and, for
    # the tagged forms, a pre-seeded hasher copied per item, skipping
    # the ``tag + blob`` concatenation), while wrappers
    # (:class:`IteratedHash`, :class:`CountingHash`) override them to
    # preserve their semantics — so every composition still works and
    # only the Python-call overhead changes.
    # ------------------------------------------------------------------

    def digest_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        """Hash many blobs in one call; equals ``[digest(b) for b in blobs]``."""
        factory = self._factory
        if factory is not None:
            return [factory(blob).digest() for blob in blobs]
        fn = self._fn
        return [fn(blob) for blob in blobs]

    def tagged_digest_many(
        self, tag: bytes, blobs: Sequence[bytes]
    ) -> list[bytes]:
        """``[digest(tag + b) for b in blobs]`` without per-item concats.

        The leaf-level hot path: the domain-separation tag is absorbed
        into one seeded hasher, copied per blob.
        """
        factory = self._factory
        if factory is None:
            return self.digest_many([tag + blob for blob in blobs])
        copy = factory(tag).copy
        # ``update`` returns None, so ``or`` chains it into the
        # comprehension — measurably faster than an append loop.
        return [
            (hasher := copy()).update(blob) or hasher.digest()
            for blob in blobs
        ]

    def tagged_digest_pairs(
        self, tag: bytes, level: Sequence[bytes]
    ) -> list[bytes]:
        """``[digest(tag + level[i] + level[i+1]) for even i]`` batched.

        The internal-node hot path: consecutive pairs of an even-width
        digest level are combined without materialising the
        ``tag || left || right`` concatenations.
        """
        if self._factory is None:
            pairs = iter(level)
            return self.digest_many(
                [tag + left + right for left, right in zip(pairs, pairs)]
            )
        return self._pairs_of(tag)(level)

    def _pairs_of(self, tag: bytes) -> Callable[[Sequence[bytes]], list[bytes]]:
        """``tagged_digest_pairs(tag, ·)``, the tag absorbed once for
        every level it is applied to."""
        if self._factory is None:
            return lambda level: self.tagged_digest_pairs(tag, level)
        copy = self._factory(tag).copy

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
        """Every level above ``level``, bottom-up, to its root:
        :meth:`tagged_digest_pairs` applied until one digest is left
        (``level``'s width a power of two)."""
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

        The read-side sibling of :meth:`tagged_digest_pairs`: starting
        from ``leaf``, each sibling is combined as
        ``digest(tag + left + right)``, the running digest on the right
        when the matching bit of ``index`` (least significant first) is
        set.  Equals the per-level ``digest`` loop byte for byte; the
        registry entries copy one pre-seeded hasher per level instead
        of concatenating.
        """
        digest = leaf
        factory = self._factory
        if factory is None:
            fn = self.digest
            for sibling in siblings:
                if index & 1:
                    digest = fn(tag + sibling + digest)
                else:
                    digest = fn(tag + digest + sibling)
                index >>= 1
            return digest
        copy = factory(tag).copy
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
        factory = self._factory
        if factory is None:
            digest = self.digest
            return [value := digest(value) for _ in range(count)]
        return [value := factory(value).digest() for _ in range(count)]

    def __call__(self, data: bytes) -> bytes:
        return self.digest(data)

    def __repr__(self) -> str:
        return (
            f"HashFunction(name={self.name!r}, digest_size={self.digest_size},"
            f" cost={self.cost})"
        )


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
        super().__init__(
            name=f"{base.name}^{rounds}",
            fn=self._iterate,
            digest_size=base.digest_size,
            cost=base.cost * rounds,
        )

    def _iterate(self, data: bytes) -> bytes:
        digest = data
        for _ in range(self.rounds):
            digest = self.base.digest(digest)
        return digest

    def digest_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        """Batched iteration: ``k`` level-wide passes over the base hash."""
        digests = blobs if isinstance(blobs, list) else list(blobs)
        for _ in range(self.rounds):
            digests = self.base.digest_many(digests)
        return digests

    def tagged_digest_many(
        self, tag: bytes, blobs: Sequence[bytes]
    ) -> list[bytes]:
        digests = self.base.tagged_digest_many(tag, blobs)
        for _ in range(self.rounds - 1):
            digests = self.base.digest_many(digests)
        return digests

    def tagged_digest_pairs(
        self, tag: bytes, level: Sequence[bytes]
    ) -> list[bytes]:
        digests = self.base.tagged_digest_pairs(tag, level)
        for _ in range(self.rounds - 1):
            digests = self.base.digest_many(digests)
        return digests

    def fold_path(
        self,
        tag: bytes,
        leaf: bytes,
        index: int,
        siblings: Sequence[bytes],
    ) -> bytes:
        # ``h^k`` feeds each level's output back through ``h``, so the
        # levels cannot share one base fold; each is a one-sibling fold
        # plus ``k - 1`` plain rounds.
        base, extra = self.base, self.rounds - 1
        digest = leaf
        for sibling in siblings:
            digest = base.fold_path(tag, digest, index & 1, (sibling,))
            for _ in range(extra):
                digest = base.digest(digest)
            index >>= 1
        return digest


class CountingHash(HashFunction):
    """Wrap a hash so every invocation is charged to a ledger.

    The ledger interface is duck-typed (``charge_hash(cost)`` for one
    digest, ``charge_hashes(cost, count)`` for a batch) to avoid a
    circular import with :mod:`repro.accounting`.
    """

    def __init__(self, inner: HashFunction, ledger) -> None:
        self.inner = inner
        self.ledger = ledger
        super().__init__(
            name=inner.name,
            fn=self._counted,
            digest_size=inner.digest_size,
            cost=inner.cost,
        )

    def _counted(self, data: bytes) -> bytes:
        self.ledger.charge_hash(self.inner.cost)
        return self.inner.digest(data)

    def digest_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        """Batched digests, charged as one invocation per blob."""
        blobs = blobs if isinstance(blobs, list) else list(blobs)
        self.ledger.charge_hashes(self.inner.cost, len(blobs))
        return self.inner.digest_many(blobs)

    def tagged_digest_many(
        self, tag: bytes, blobs: Sequence[bytes]
    ) -> list[bytes]:
        blobs = blobs if isinstance(blobs, list) else list(blobs)
        self.ledger.charge_hashes(self.inner.cost, len(blobs))
        return self.inner.tagged_digest_many(tag, blobs)

    def tagged_digest_pairs(
        self, tag: bytes, level: Sequence[bytes]
    ) -> list[bytes]:
        self.ledger.charge_hashes(self.inner.cost, len(level) // 2)
        return self.inner.tagged_digest_pairs(tag, level)

    # One charge of a batch's total: the books of one charge per level
    # (``charge_hashes`` adds as that many single charges would).

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


def _stdlib(name: str) -> HashFunction:
    """Registry entry over a *bound* ``hashlib`` constructor.

    ``hashlib.new(name, data)`` resolves the algorithm by string on
    every call; caching the constructor once at registry construction
    removes that lookup from every leaf and internal-node digest, and
    exposing the constructor as ``hasher_factory`` unlocks the
    pre-seeded batched paths.
    """
    ctor = getattr(hashlib, name)

    def fn(data: bytes, _ctor=ctor) -> bytes:
        return _ctor(data).digest()

    return HashFunction(
        name, fn, ctor(b"").digest_size, hasher_factory=ctor
    )


def _blake2b_32() -> HashFunction:
    def ctor(data: bytes = b"", _b2=hashlib.blake2b):
        return _b2(data, digest_size=32)

    def fn(data: bytes, _ctor=ctor) -> bytes:
        return _ctor(data).digest()

    return HashFunction("blake2b", fn, 32, hasher_factory=ctor)


_REGISTRY: dict[str, HashFunction] = {
    "sha256": _stdlib("sha256"),
    "sha1": _stdlib("sha1"),
    "md5": _stdlib("md5"),
    "blake2b": _blake2b_32(),
    "sha512": _stdlib("sha512"),
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


def register_hash(fn: HashFunction) -> None:
    """Add a custom hash to the registry (used by tests and ablations)."""
    _REGISTRY[fn.name] = fn
