"""Cost closed forms: communication, storage trade-off, Eq. (5).

These are the analytic models the measured ledgers are compared with:

* **Communication (E3).**  Naive schemes put all ``n`` results on the
  wire; CBS ships one digest plus ``m`` proofs of ``⌈log2 n⌉`` sibling
  digests each.  The byte models below include the codec's framing.
  The naive model is checked against measured ``wire_size()`` exactly;
  the CBS model is the paper's *per-path* count (``m·H`` digests) and
  bounds the measured bytes from above — a bundle travels as one
  multiproof, which ships a digest several samples share, or can
  derive from each other, once or not at all.
* **Storage trade-off (§3.3, E4)** — re-exported from
  :mod:`repro.core.storage_opt`.
* **Regrinding economics (Eq. 5, E5).**  Expected attack cost
  ``(1/r^m)·m·C_g`` vs honest cost ``n·C_f``; and the minimum ``C_g``
  (or iterated-hash round count) that makes cheating unprofitable.
"""

from __future__ import annotations

import math

from repro.core.storage_opt import (  # noqa: F401  (re-exported, E4)
    predicted_rco,
    rco_from_storage,
    storage_for_rco,
    subtree_height_for_storage,
)
from repro.utils.bitmath import ceil_log2, next_power_of_two
from repro.utils.encoding import encode_uint


def _varint_size(value: int) -> int:
    return len(encode_uint(value))


def _framed_bytes(payload_size: int) -> int:
    """Length-prefixed byte string size under the canonical codec."""
    return _varint_size(payload_size) + payload_size


def naive_bytes_per_task(
    n: int, result_size: int, task_id_size: int = 8
) -> int:
    """Wire bytes for a :class:`FullResultsMsg` carrying ``n`` results.

    The ``O(n)`` term the paper's §3 headline example scales to
    ``2^64`` inputs ("about 16 million terabytes").
    """
    if n < 1 or result_size < 0:
        raise ValueError("need n >= 1 and result_size >= 0")
    body = _varint_size(n) + n * _framed_bytes(result_size)
    return _framed_bytes(task_id_size) + body


def cbs_participant_bytes(
    n: int,
    m: int,
    digest_size: int = 32,
    result_size: int = 16,
    task_id_size: int = 8,
) -> int:
    """Wire bytes a CBS participant sends: commitment + ``m`` proofs.

    The ``O(m log n)`` term as the paper counts it: ``m`` independent
    proofs, each carrying the claimed result and ``H = ⌈log2 n⌉``
    sibling digests (plus per-path codec framing).  An upper bound on
    the measured ledger, whose bundle is one multiproof; the digest
    counts agree when no two samples share an ancestor below the root
    (``m = 1``).
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    height = ceil_log2(next_power_of_two(n))
    commitment = (
        _framed_bytes(task_id_size) + _framed_bytes(digest_size) + _varint_size(n)
    )
    # One sample on its own: index varint + framed result + auth path
    #   (leaf_index + n_leaves + encoding code + framed sibling list).
    per_proof_fixed = (
        _framed_bytes(result_size)
        + _varint_size(n)  # path.n_leaves
        + 1  # leaf-encoding code
        + _varint_size(height)  # sibling count prefix
        + height * _framed_bytes(digest_size)
    )
    # Index varints: bounded by the worst case (n - 1), twice (proof
    # index + path leaf index).
    per_proof = per_proof_fixed + 2 * _varint_size(max(n - 1, 0))
    bundle_overhead = _framed_bytes(task_id_size) + _varint_size(m)
    return commitment + bundle_overhead + m * per_proof


def cbs_supervisor_bytes_per_task(
    n: int, m: int, task_id_size: int = 8
) -> int:
    """Supervisor → participant bytes: the challenge plus verdict."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    challenge = (
        _framed_bytes(task_id_size)
        + _varint_size(m)
        + m * _varint_size(max(n - 1, 0))
    )
    verdict = _framed_bytes(task_id_size) + 1 + _framed_bytes(0)
    return challenge + verdict


# ----------------------------------------------------------------------
# Eq. (5): economics of the regrinding attack
# ----------------------------------------------------------------------


def regrind_expected_cost(
    r: float, m: int, g_cost: float, honest_subset_cost: float = 0.0
) -> float:
    """Expected attack cost ``(1/r^m)·m·C_g`` (+ the honest ``r·n·C_f``).

    The paper's left-hand side of Eq. (5) counts only the grinding
    term; pass ``honest_subset_cost`` to include the ``D'`` work the
    attacker must do regardless.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must be in (0, 1], got {r}")
    if m < 1 or g_cost < 0:
        raise ValueError("need m >= 1 and g_cost >= 0")
    return (r ** -m) * m * g_cost + honest_subset_cost


def min_sample_hash_cost(n: int, f_cost: float, r: float, m: int) -> float:
    """Smallest ``C_g`` satisfying Eq. (5): ``C_g >= n·C_f·r^m / m``.

    Evaluated at the *designer's pessimistic* ``r`` (the largest
    honesty ratio worth defending against — cost grows with ``r``).
    """
    if n < 1 or f_cost < 0:
        raise ValueError("need n >= 1 and f_cost >= 0")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must be in (0, 1], got {r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return n * f_cost * (r ** m) / m


def uncheatable_g_rounds(
    n: int, f_cost: float, r: float, m: int, base_hash_cost: float = 1.0
) -> int:
    """Iterated-hash round count ``k`` realizing the Eq. (5) ``C_g``.

    The paper's ``g ≡ (MD5)^k`` construction: rounds of a unit-cost
    hash needed so grinding is unprofitable at honesty ratio ``r``.
    """
    if base_hash_cost <= 0:
        raise ValueError(f"base_hash_cost must be positive, got {base_hash_cost}")
    needed = min_sample_hash_cost(n, f_cost, r, m)
    return max(1, math.ceil(needed / base_hash_cost))


def honest_sample_generation_overhead(r: float, m: int) -> float:
    """Ratio of sample-generation cost to task cost when Eq. (5) is
    tight: ``m·C_g / (n·C_f) = r^m`` — the paper's closing observation
    that the honest participant's extra cost is "about r^m"."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must be in (0, 1], got {r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return r ** m
