"""Cost closed forms: communication, storage trade-off, Eq. (5).

These are the analytic models the measured ledgers are compared with:

* **Communication (E3).**  Naive schemes put all ``n`` results on the
  wire; CBS ships one digest plus ``m`` proofs of ``⌈log2 n⌉`` sibling
  digests each.  The byte models below include the codec's framing.
  The naive model is checked against measured ``wire_size()`` exactly;
  the CBS model is the paper's *per-path* count (``m·H`` digests) and
  bounds the measured bytes from above — a bundle travels as one
  multiproof, which ships a digest several samples share, or can
  derive from each other, once or not at all, and a leaf's pair
  partner as its result.  :func:`cbs_bundle_bytes`, the shared fold's
  closed form, gives those bytes exactly from the sample set.
* **Verifier work (§3.1 Step 4).**  The paper prices the supervisor at
  ``m`` evaluations plus the hashes of ``m`` authentication paths; a
  shared fold hashes each covered node once, so the count depends on
  the sample set: :func:`verifier_hashes` is exact for one set, and
  :func:`expected_verifier_hashes` its mean over uniform draws.
* **Storage trade-off (§3.3, E4)** — the ``rco`` forms live in
  :mod:`repro.core.storage_opt`; here is the expected number of subtrees
  a challenge touches: a bundle rebuilds each once, so the measured
  recompute is that count times ``2^ℓ`` where §3.3 bounds it by ``m·2^ℓ``.
* **Regrinding economics (Eq. 5, E5).**  Expected attack cost
  ``(1/r^m)·m·C_g`` vs honest cost ``n·C_f``; and the minimum ``C_g``
  (or iterated-hash round count) that makes cheating unprofitable.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from repro.merkle.multiproof import bundle_shape
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


def _fixed_list_bytes(count: int, width: int) -> int:
    """``count ‖ width ‖ items`` (the count alone when empty)."""
    return _varint_size(count) + (_varint_size(width) + count * width if count else 0)


def cbs_bundle_bytes(
    indices: Sequence[int],
    n: int,
    digest_size: int = 32,
    result_size: int = 16,
    task_id_size: int = 8,
) -> int:
    """Wire bytes of the proof bundle that answers ``indices`` over ``n``
    leaves: the shared fold's closed form, exact.

    Counted from the sample set alone: one ``result_size`` result per
    real leaf of every leaf pair a sample touches (the sample alone
    when ``n = 1``), and one digest per level-``ℓ`` node (``ℓ >= 1``)
    that is the sibling of an ancestor of a sample and no ancestor
    itself — each list a fixed-width one.  At most ``m·(H − 1)``
    digests where the per-path count has ``m·H``, so never more than
    :func:`cbs_participant_bytes` less the commitment.
    """
    if n < 1 or any(not 0 <= index < n for index in indices):
        raise ValueError("need n >= 1 and every sample in [0, n)")
    height = ceil_log2(n)
    samples = set(indices)
    touched = {leaf ^ side for leaf in samples for side in (0, 1)} if height else samples
    results = len([leaf for leaf in touched if leaf < n])
    digests = 0
    for level in range(1, height):
        ancestors = {leaf >> level for leaf in samples}
        digests += len({node ^ 1 for node in ancestors} - ancestors)
    return (
        _framed_bytes(task_id_size)
        + _fixed_list_bytes(results, result_size)
        + _fixed_list_bytes(digests, digest_size)
    )


def verifier_hashes(
    indices: Sequence[int],
    n: int,
    chain: int = 0,
    raw: bool = False,
    awaiting: bool = True,
) -> int:
    """Hashes the Step-4 verifier charges for the samples ``indices``
    over ``n`` leaves, exact: written from :func:`bundle_shape`, the
    shape the verifier folds.

    ``chain`` hashes first (Eq. 4's ``m`` links under NI-CBS, none under
    CBS); then, only when some sample came through check 1 and
    ``awaiting`` attestation, one hash per leaf of each touched pair
    (under RAW leaves, only the padding leaf's) and one per covered
    interior node, the root included.
    """
    if n < 1 or any(not 0 <= index < n for index in indices):
        raise ValueError("need n >= 1 and every sample in [0, n)")
    if not awaiting:
        return chain
    leaves, nodes = bundle_shape(indices, ceil_log2(n))
    count = len(leaves) - bisect_left(leaves, n) if raw else len(leaves)
    width = len(leaves)
    for supplied in nodes:
        width = (width + len(supplied)) // 2
        count += width
    return chain + count


def expected_verifier_hashes(
    n: int, m: int, chain: int = 0, raw: bool = False
) -> float:
    """:func:`verifier_hashes`' mean over ``m`` uniform draws from
    ``[0, n)`` with replacement, when some sample awaits attestation
    (an honest bundle).

    A level-``ℓ`` node over ``w`` of the ``n`` real leaves is covered
    with probability ``1 − (1 − w/n)^m``; in a tree of ``2^h`` real
    leaves that is ``2^(h−ℓ)·(1 − (1 − 2^(ℓ−h))^m)`` covered nodes per
    level, and a ragged last node adds its own term.  The leaf level
    hashes both leaves of each covered level-1 pair (under RAW only the
    padding partner of the last leaf of an odd ``n``); the root is
    always covered.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    height = ceil_log2(n)

    def covered(level: int) -> float:
        full, ragged = divmod(n, 1 << level)
        return sum(
            count * (1 - (1 - width / n) ** m)
            for width, count in ((1 << level, full), (ragged, ragged > 0))
            if count
        )

    if not height:
        leaf = 0.0 if raw else 1.0
    elif raw:
        leaf = 1 - (1 - 1 / n) ** m if n % 2 else 0.0
    else:
        leaf = 2 * covered(1)
    return chain + leaf + sum(covered(level) for level in range(1, height + 1))


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


def expected_touched_subtrees(n: int, m: int, subtree_height: int) -> float:
    """Expected number of height-ℓ subtrees ``m`` distinct samples touch.

    The samples are drawn without replacement, as E4 and ``repro.cli
    rco`` draw them; a subtree holding ``w`` of the ``n`` real leaves
    escapes them with probability ``C(n − w, m) / C(n, m)``.  For
    ``K = n / 2^ℓ`` full subtrees that is ``K·(1 − C(n − 2^ℓ, m)/C(n, m))``;
    a ragged last subtree adds its own term.  The with-replacement form
    ``K·(1 − (1 − 1/K)^m)`` differs by < 0.3% at E4's shapes (n = 4096,
    m = 16).
    """
    if n < 1 or not 0 <= m <= n or subtree_height < 0:
        raise ValueError("need n >= 1, 0 <= m <= n and subtree_height >= 0")
    full, ragged = divmod(n, 1 << subtree_height)
    return sum(
        count * (1 - math.comb(n - width, m) / math.comb(n, m))
        for width, count in ((1 << subtree_height, full), (ragged, ragged > 0))
        if count
    )


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
