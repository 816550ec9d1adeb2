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


def sibling_index(index: int) -> int:
    """Index of the sibling of node ``index`` within its level."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return index ^ 1


def parent_index(index: int) -> int:
    """Index of the parent (one level up) of node ``index``."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return index >> 1


def level_size(height: int, level: int) -> int:
    """Number of nodes at ``level`` in a padded tree of ``height``.

    Level 0 is the root (1 node); level ``height`` is the (padded) leaf
    level with ``2^height`` nodes.
    """
    if not 0 <= level <= height:
        raise ValueError(f"level {level} outside [0, {height}]")
    return 1 << level
