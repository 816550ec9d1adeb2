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
import struct
from itertools import repeat
from typing import Iterable, Sequence


_sha256 = hashlib.sha256
#: The counter of output block 0.
_BLOCK0 = (0).to_bytes(8, "big")
#: Integers are reduced from uniform draws on ``[0, 2**64)``.
_DRAW_SPACE = 1 << 64
#: A draw is the first 8 bytes of an output block, big-endian.
_draw = struct.Struct(">Q").unpack_from


def _frame(part: bytes) -> bytes:
    """``part`` behind its 8-byte length: how every part is absorbed.

    The hot per-item loops below spell this out inline or absorb it
    once; at ~1 us an item a call is a measurable share.
    """
    return len(part).to_bytes(8, "big") + part


#: Counter 0's frame: the end of every first-try draw's input.
_FIRST_TRY = _frame(_BLOCK0)


def _fixed(values: Iterable[int], width: int) -> Iterable[bytes]:
    """``v.to_bytes(width, "big")`` for each value, lazily and in C."""
    return map(int.to_bytes, values, repeat(width), repeat("big"))


def _first_draws(copy, tails: Iterable[bytes]) -> list[int]:
    """Counter 0's 64-bit draw per tail; ``copy()`` lacks only the tail.

    A tail here is already framed, or its frame is in ``copy``.
    """
    return [
        _draw(
            _sha256(
                ((h := copy()).update(tail + _FIRST_TRY) or h.digest()) + _BLOCK0
            ).digest()
        )[0]
        for tail in tails
    ]


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
    leaf hashing.

    A tail that is a non-negative integer at a fixed byte width (a leaf
    index at 8 bytes, a run of keys that share a width) has the same
    8-byte length frame on every item, so the ``fixed_*`` methods absorb
    that frame into the seeded hasher too.  An item then pays only
    ``copy()``, ``update(v.to_bytes(width, "big"))``, ``digest()`` and
    the one-block expansion: the two SHA-256 calls every PRF output
    costs, and almost nothing else (``benchmarks/bench_commit_floor.py``
    times each use against a bare-``hashlib`` transcription).  Every
    method equals its per-item ``prf_*`` call.
    """

    __slots__ = ("_hasher",)

    def __init__(self, *parts: bytes) -> None:
        self._hasher = _sha256(b"".join(map(_frame, parts)))

    def _framed(self, width: int):
        """``copy`` of the seeded hasher with a ``width``-byte tail's frame in."""
        hasher = self._hasher.copy()
        hasher.update(width.to_bytes(8, "big"))
        return hasher.copy

    def bytes_many(
        self, tails: Iterable[bytes], n_bytes: int = 32
    ) -> list[bytes]:
        """``[prf_bytes(*parts, tail, n_bytes=n_bytes) for tail in tails]``."""
        copy = self._hasher.copy
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

    def fixed_bytes_many(
        self, values: Iterable[int], width: int, n_bytes: int = 32
    ) -> list[bytes]:
        """:meth:`bytes_many` over the tails ``v.to_bytes(width, "big")``."""
        if not 0 <= n_bytes <= 32:
            return self.bytes_many(_fixed(values, width), n_bytes)
        copy = self._framed(width)
        return [
            _sha256(
                ((h := copy()).update(tail) or h.digest()) + _BLOCK0
            ).digest()[:n_bytes]
            for tail in _fixed(values, width)
        ]

    def int_many(
        self, tails: Iterable[bytes], bounds: Iterable[int]
    ) -> list[int]:
        """``prf_int(*parts, tail, bound=bound)`` for each pair, zipped."""
        tails = list(tails)
        draws = _first_draws(self._hasher.copy, map(_frame, tails))
        return self._reduce(draws, bounds, tails)

    def fixed_int_many(
        self, values: Sequence[int], width: int, bounds: Iterable[int]
    ) -> list[int]:
        """:meth:`int_many` over the tails ``v.to_bytes(width, "big")``.

        ``values`` is a sequence: the rare fallback reads it again.
        """
        draws = _first_draws(self._framed(width), _fixed(values, width))
        return self._reduce(draws, bounds, _fixed(values, width))

    def _reduce(
        self, draws: list[int], bounds: Iterable[int], tails: Iterable[bytes]
    ) -> list[int]:
        """Each counter-0 ``draw`` reduced ``mod`` its bound, zipped.

        A draw is rejected with probability < bound / 2**64, so counter 0
        decides all but a vanishing few: when every bound is positive
        and no draw reaches ``2**64 - max(bounds)`` (below every
        rejection limit), one comprehension decides them all.  Otherwise
        the per-item loop runs, which keeps counter 0's draw, hashes the
        next counter only where a draw is rejected, and raises on a bound
        outside ``[1, 2**64]``.
        """
        bounds = list(bounds)
        if (
            draws
            and bounds
            and min(bounds) > 0
            and max(draws) < _DRAW_SPACE - max(bounds)
        ):
            return [draw % bound for draw, bound in zip(draws, bounds)]
        reduced = []
        for draw, bound, tail in zip(draws, bounds, tails):
            limit = _rejection_limit(bound)
            counter = 0
            while draw >= limit:
                counter += 1
                keyed = self._hasher.copy()
                keyed.update(_frame(tail) + _frame(counter.to_bytes(8, "big")))
                draw = _draw(_sha256(keyed.digest() + _BLOCK0).digest())[0]
            reduced.append(draw % bound)
        return reduced


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
