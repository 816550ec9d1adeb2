"""Integer/tree geometry helpers used throughout the Merkle substrate.

A CBS Merkle tree (paper §3.1) is a *complete binary tree* over ``n``
leaves.  We pad the leaf level to the next power of two, so the tree
height is ``ceil(log2(n))`` and every internal level ``d`` holds
``2^d`` nodes (root at level 0, matching the paper's §3.3 convention
where "the root is at level 0").
"""

from __future__ import annotations


def next_power_of_two(n: int) -> int:
    """Smallest power of two ``>= n`` (``n`` must be positive)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return 1 << (n - 1).bit_length()


def ceil_log2(n: int) -> int:
    """``ceil(log2(n))`` for positive ``n`` (0 for ``n == 1``)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return (n - 1).bit_length()


def tree_height(n_leaves: int) -> int:
    """Height ``H`` of a complete binary tree over ``n_leaves`` leaves.

    The paper writes ``H = log |D|``; with padding, this is
    ``ceil(log2(n))``.  A single-leaf tree has height 0 (the leaf *is*
    the root).
    """
    return ceil_log2(n_leaves)
