"""Growing the pruned partition from the level-wise sketches (Algorithm 2).

After the stream has been processed, the exact-counter tree covers levels
``0 .. L*`` and each deeper level ``l`` is summarised by a private sketch.
GrowPartition extends the tree one level at a time: the current hot nodes are
branched into their two children, the children's counts are read from the
level's sketch in one batch, consistency is enforced on the new sibling
pairs, and the ``k`` largest new counts become the next generation of hot
nodes.

Everything here is deterministic given its (already private) inputs, so the
output partition is private by post-processing (Lemma 2).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import cell_keys
from repro.core.consistency import enforce_level_consistency, enforce_tree_consistency
from repro.core.tree import PartitionTree

__all__ = ["grow_partition", "select_top_k"]


def select_top_k(codes: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """The codes of the ``k`` largest counts, ties broken by the smaller code.

    The selection is returned in ascending code order.  Deterministic
    tie-breaking keeps the whole pipeline reproducible, which matters because
    the grown structure feeds directly into the sampler.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    codes = np.asarray(codes)
    return np.sort(codes[np.lexsort((codes, -np.asarray(counts)))[:k]])


def grow_partition(
    tree: PartitionTree,
    sketches: dict[int, object],
    pruning_k: int,
    level_cutoff: int,
    depth: int,
    apply_consistency: bool = True,
) -> PartitionTree:
    """Grow ``tree`` from level ``level_cutoff`` down to ``depth`` using the sketches.

    Parameters
    ----------
    tree:
        The exact-counter tree produced by the parsing phase, holding levels
        ``0 .. level_cutoff``; modified in place and also returned.
    sketches:
        Mapping ``level -> sketch`` for each level in
        ``level_cutoff+1 .. depth``.  Only ``sketch.query_many(keys)`` is
        used, with the canonical keys of :func:`repro.core.base.cell_keys`.
    pruning_k:
        Number of hot branches retained per level (the paper's ``k``).
    level_cutoff:
        ``L*``, the deepest exact-counter level.
    depth:
        ``L``, the final hierarchy depth.  The paper's pseudocode stops the
        loop at ``L - 1``; we grow through level ``L`` so that every
        initialised sketch informs the partition, which matches the proof
        pipeline (the leaves of ``T_exact`` sit at level ``L``).
    apply_consistency:
        Whether Algorithm 3 runs while growing (disabled only by the
        consistency ablation).
    """
    if pruning_k < 1:
        raise ValueError(f"pruning_k must be at least 1, got {pruning_k}")
    if not 0 <= level_cutoff <= depth:
        raise ValueError(
            f"level_cutoff must lie in [0, depth]; got {level_cutoff} with depth {depth}"
        )
    if tree.depth() != level_cutoff:
        raise ValueError(
            f"the tree to grow must end at level_cutoff {level_cutoff}, not {tree.depth()}"
        )
    for level in range(level_cutoff + 1, depth + 1):
        if level not in sketches:
            raise KeyError(f"no sketch provided for level {level}")

    # Line 2: make the exact-counter portion of the tree internally consistent.
    if apply_consistency:
        enforce_tree_consistency(tree)
    elif tree.root_count < 0:
        # Even without consistency the sampler needs a non-negative total mass.
        tree.level(0)[1][0] = 0.0

    # Line 3: the initial hot set is every node at the cutoff level.
    hot, _ = tree.level(level_cutoff)

    for level in range(level_cutoff + 1, depth + 1):
        children = np.repeat(hot << 1, 2)
        children[1::2] += 1
        tree.append_level(children, sketches[level].query_many(cell_keys(level, children)))
        if apply_consistency:
            enforce_level_consistency(tree, level)
        # Line 10: the next hot set is the top-k of the counts just created.
        hot = select_top_k(*tree.level(level), pruning_k)

    return tree
