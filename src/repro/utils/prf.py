"""Deterministic pseudo-random helpers keyed on byte strings.

The synthetic workloads (:mod:`repro.tasks.workloads`) need outputs that
are (a) deterministic given the input, (b) statistically well-spread and
(c) infeasible to predict without evaluating — i.e. a PRF.  We derive
everything from SHA-256, which is more than adequate for a simulation
substrate (the paper itself treats MD5/SHA as ideal one-way functions).

These helpers are *not* part of the verification schemes; the schemes
use the pluggable :mod:`repro.merkle.hashing` registry.  They exist so
that workload outputs and simulation coins are reproducible bit-for-bit
across runs and platforms.
"""

from __future__ import annotations

import hashlib
from typing import Iterable


_sha256 = hashlib.sha256
#: The counter of output block 0.
_BLOCK0 = (0).to_bytes(8, "big")
#: Integers are reduced from uniform draws on ``[0, 2**64)``.
_DRAW_SPACE = 1 << 64


def _frame(part: bytes) -> bytes:
    """``part`` behind its 8-byte length: how every part is absorbed.

    The per-item loops below spell this out inline; at ~1 us an item a
    call is a measurable share.
    """
    return len(part).to_bytes(8, "big") + part


def _expand(seed: bytes, n_bytes: int) -> bytes:
    """``n_bytes`` of counter-mode output under a part-hash ``seed``."""
    if n_bytes <= 32:
        # One block covers it: no accumulator, no counter loop.  (A
        # negative request yields b"", as the counter loop always did.)
        return _sha256(seed + _BLOCK0).digest()[: max(n_bytes, 0)]
    blocks = [
        _sha256(seed + counter.to_bytes(8, "big")).digest()
        for counter in range(-(-n_bytes // 32))
    ]
    return b"".join(blocks)[:n_bytes]


def _rejection_limit(bound: int) -> int:
    """Draws below this reduce ``mod bound`` without bias."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    if bound > _DRAW_SPACE:
        # The limit would compute to 0 and every draw be rejected, forever.
        raise ValueError(f"bound must be at most 2**64, got {bound}")
    return _DRAW_SPACE - _DRAW_SPACE % bound


def prf_bytes(*parts: bytes, n_bytes: int = 32) -> bytes:
    """Return ``n_bytes`` of PRF output keyed on the given parts.

    Parts are length-prefixed before hashing so ``(b"ab", b"c")`` and
    ``(b"a", b"bc")`` produce unrelated streams.  Output longer than one
    digest is produced in counter mode.
    """
    hasher = _sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big") + part)
    return _expand(hasher.digest(), n_bytes)


def prf_int(*parts: bytes, bound: int) -> int:
    """A PRF-derived integer uniform on ``[0, bound)``.

    Uses rejection sampling over 64-bit draws so the distribution is
    exactly uniform for any ``bound`` up to 2**64; a larger bound is a
    ``ValueError`` (no 64-bit draw could cover it).
    """
    limit = _rejection_limit(bound)
    counter = 0
    while True:
        draw = int.from_bytes(
            prf_bytes(*parts, counter.to_bytes(8, "big"), n_bytes=8), "big"
        )
        if draw < limit:
            return draw % bound
        counter += 1


class PrfPrefix:
    """The PRF with its leading parts absorbed once.

    The participant's loops draw thousands of values that share every
    part but the last (``salt`` then the input; ``task_id``, ``salt``
    then the index).  The shared parts go into one ``hashlib`` object
    here and each item costs a ``copy()`` plus its own tail, the shape
    :meth:`repro.merkle.hashing.HashFunction.tagged_digest_many` gives
    leaf hashing.  Every method equals its per-item ``prf_*`` call.
    """

    __slots__ = ("_copy",)

    def __init__(self, *parts: bytes) -> None:
        self._copy = _sha256(b"".join(map(_frame, parts))).copy

    def bytes_many(
        self, tails: Iterable[bytes], n_bytes: int = 32
    ) -> list[bytes]:
        """``[prf_bytes(*parts, tail, n_bytes=n_bytes) for tail in tails]``."""
        copy = self._copy
        if not 0 <= n_bytes <= 32:
            return [
                _expand((h := copy()).update(_frame(tail)) or h.digest(), n_bytes)
                for tail in tails
            ]
        # The single-block body of ``_expand``, inlined.  ``update``
        # returns None, so ``or`` chains it into the comprehension (as
        # in ``HashFunction.tagged_digest_many``).
        return [
            _sha256(
                (
                    (h := copy()).update(len(tail).to_bytes(8, "big") + tail)
                    or h.digest()
                )
                + _BLOCK0
            ).digest()[:n_bytes]
            for tail in tails
        ]

    def int_many(
        self, tails: Iterable[bytes], bounds: Iterable[int]
    ) -> list[int]:
        """``prf_int(*parts, tail, bound=bound)`` for each pair, zipped."""
        copy = self._copy
        # A draw is rejected with probability < bound / 2**64, so all but
        # a vanishing few are decided by counter 0: its frame is hoisted.
        first_try = _frame(_BLOCK0)
        draws: list[int] = []
        for tail, bound in zip(tails, bounds):
            limit = _rejection_limit(bound)
            tail = len(tail).to_bytes(8, "big") + tail
            counter = 0
            while True:
                keyed = copy()
                keyed.update(
                    tail
                    + (_frame(counter.to_bytes(8, "big")) if counter else first_try)
                )
                draw = int.from_bytes(
                    _sha256(keyed.digest() + _BLOCK0).digest()[:8], "big"
                )
                if draw < limit:
                    break
                counter += 1
            draws.append(draw % bound)
        return draws


def prf_float(*parts: bytes) -> float:
    """A PRF-derived float uniform on ``[0, 1)`` with 53-bit precision."""
    draw = int.from_bytes(prf_bytes(*parts, n_bytes=8), "big") >> 11
    return draw / float(1 << 53)


def prf_coin(*parts: bytes, probability: float) -> bool:
    """A PRF-derived Bernoulli coin: ``True`` with given probability."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    return prf_float(*parts) < probability


def prf_gauss(*parts: bytes, mean: float = 0.0, stdev: float = 1.0) -> float:
    """A PRF-derived Gaussian sample (Box–Muller on two PRF uniforms)."""
    import math

    u1 = prf_float(*parts, b"gauss-u1")
    u2 = prf_float(*parts, b"gauss-u2")
    # Guard against log(0); the PRF cannot return exactly 1.0.
    u1 = max(u1, 1e-300)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mean + stdev * z
