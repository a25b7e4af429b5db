"""Consistency enforcement between parent and child counts (Algorithm 3).

After noise injection the tree violates two invariants that the sampler
relies on: counts can be negative, and the children of a node no longer sum
to their parent.  Algorithm 3 repairs both by evenly redistributing the
surplus/deficit ``Lambda`` between the two children, with two correction
steps:

* **Type 1** -- clamp negative child counts to zero before redistribution.
* **Type 2** -- if the even redistribution would itself push a child below
  zero, give the smaller child zero and the larger child the full parent
  count.

Both corrections only ever *reduce* the error in the child counts (Lemma 6's
case analysis), which is why the utility bound may assume the plain even
split.

Each sibling pair depends only on its parent's count, so the repair runs one
level at a time over all of the level's pairs, top down: once a level is
fixed, every pair below it sees an already-consistent parent, exactly as in a
depth-first pass.
"""

from __future__ import annotations

import numpy as np

from repro.core.tree import PartitionTree

__all__ = ["enforce_consistency", "enforce_level_consistency", "enforce_tree_consistency"]


def enforce_consistency(
    parent: np.ndarray, left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 3 over sibling pairs: the repaired ``(left, right)`` counts.

    Entry ``i`` of each array is one pair and its parent's count, which is
    treated as authoritative.  The arithmetic per pair is the scalar
    algorithm's, expression for expression.

    Example:
        >>> import numpy as np
        >>> left, right = enforce_consistency(
        ...     np.array([4.0, 10.0]), np.array([3.0, 0.5]), np.array([3.0, 20.0])
        ... )
        >>> left.tolist(), right.tolist()
        ([2.0, 0.0], [2.0, 10.0])
    """
    # Error correction type 1: child counts must be non-negative beforehand.
    left = np.where(left < 0, 0.0, left)
    right = np.where(right < 0, 0.0, right)
    half = (left + right - parent) / 2.0
    even_left = left - half
    even_right = right - half
    # Error correction type 2: when ``min(even_left, even_right) < 0`` the
    # smaller child gets zero and the larger child inherits the parent.
    # ``min`` keeps its first argument unless the second is strictly smaller.
    lowest = np.where(even_right < even_left, even_right, even_left)
    collapse = lowest < 0
    left_smaller = left <= right
    return (
        np.where(collapse, np.where(left_smaller, 0.0, parent), even_left),
        np.where(collapse, np.where(left_smaller, parent, 0.0), even_right),
    )


def enforce_level_consistency(tree: PartitionTree, level: int) -> None:
    """Repair every sibling pair of ``level`` against its parent, in place."""
    _, counts = tree.level(level)
    counts[0::2], counts[1::2] = enforce_consistency(
        tree.parent_counts(level), counts[0::2], counts[1::2]
    )


def enforce_tree_consistency(tree: PartitionTree) -> None:
    """Make the whole tree consistent, from the root down.

    The root has no parent to inherit a correction from, so a negative root
    is clamped to zero first; then every level is repaired against the one
    above it.
    """
    _, root = tree.level(0)
    if root[0] < 0:
        root[0] = 0.0
    for level in range(1, tree.depth() + 1):
        enforce_level_consistency(tree, level)
