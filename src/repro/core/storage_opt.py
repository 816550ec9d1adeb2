"""Storage/computation trade-off (paper §3.3): its closed forms.

The participant keeps either the full Merkle tree or the §3.3 partial
tree (:class:`~repro.merkle.partial.PartialMerkleTree`, top ``H − ℓ``
levels only).  The closed forms of §3.3 are provided as functions for
experiment E4:

* storage ``S = 2^(H − ℓ + 1)`` digests,
* rebuild cost ``2^ℓ`` evaluations of ``f`` per touched subtree,
* relative computation overhead ``rco = m · 2^ℓ / |D| = 2m / S``, the
  bound reached when no two samples share a subtree
  (:func:`repro.analysis.costs.expected_touched_subtrees` gives the mean).
"""

from __future__ import annotations

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
