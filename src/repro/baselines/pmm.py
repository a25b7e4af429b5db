"""PMM: the Private Measure Mechanism of He, Vershynin & Zhu (COLT 2023).

PMM is the state of the art the paper compares against (Table 1): it builds a
*complete* binary hierarchical decomposition of depth ``L ~ log2(eps * n)``
with exact counts at every node, adds Laplace noise with the Lagrange-optimal
per-level budgets, enforces consistency top-down, and samples from the
resulting measure.  Accuracy is ``O(log^2(eps n)/(eps n))`` for d=1 and
``O((eps n)^{-1/d})`` for d>=2 -- but memory is ``Theta(eps n)`` because the
whole tree is materialised, which is exactly the cost PrivHP avoids.

The implementation reuses the same tree / consistency / sampler machinery as
PrivHP so that the comparison isolates the algorithmic difference (pruning +
sketching) rather than implementation details.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import SyntheticDataMethod
from repro.core.base import level_counts
from repro.core.budget import optimal_budgets, uniform_budgets
from repro.core.consistency import enforce_tree_consistency
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.base import Domain

__all__ = ["PMMMethod", "build_exact_tree"]


def build_exact_tree(data, domain: Domain, depth: int) -> PartitionTree:
    """Complete tree of the given depth holding exact path counts of ``data``.

    Every level is exact, so every level is one of :func:`level_counts`'s
    dense histograms.
    """
    tree = PartitionTree.complete(depth)
    codes = Domain.pack_paths(domain.locate_batch(data, depth))
    exact, _ = level_counts(codes, depth, depth)
    for level, histogram in enumerate(exact):
        _, counts = tree.level(level)
        counts += histogram
    return tree


class PMMMethod(SyntheticDataMethod):
    """The full-tree private measure mechanism (no pruning, no sketches).

    Privacy: epsilon-DP for datasets that differ by one added or removed
    item.  Level ``l`` of the complete tree adds ``Laplace(1/b_l)`` to each
    of its ``2^l`` counts, the level budgets ``b_l`` summing to epsilon,
    because one item moves one count per level by 1.  When one item's value
    changes instead, two counts per level move and the same noise gives
    2 epsilon.
    """

    name = "PMM"

    def __init__(
        self,
        domain: Domain,
        epsilon: float,
        depth: int | None = None,
        max_depth: int = 16,
        budget_allocation: str = "optimal",
        apply_consistency: bool = True,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, got {max_depth}")
        if budget_allocation not in ("optimal", "uniform"):
            raise ValueError(f"unknown budget allocation {budget_allocation!r}")
        self.domain = domain
        self._epsilon = float(epsilon)
        self.depth = depth
        self.max_depth = int(max_depth)
        self.budget_allocation = budget_allocation
        self.apply_consistency = bool(apply_consistency)
        self._tree: PartitionTree | None = None

    def _resolve_depth(self, n: int) -> int:
        """``L = ceil(log2(eps n))`` capped so the tree stays materialisable."""
        if self.depth is not None:
            return min(self.depth, self.max_depth)
        level = math.ceil(math.log2(max(self._epsilon * n, 2.0)))
        return int(min(max(level, 1), self.max_depth))

    def fit(self, data, rng: np.random.Generator | int | None = None) -> SyntheticDataGenerator:
        data = list(data)
        if not data:
            raise ValueError("data must be non-empty")
        generator = np.random.default_rng(rng)
        depth = self._resolve_depth(len(data))

        tree = build_exact_tree(data, self.domain, depth)

        # Per-level Laplace noise: optimal allocation over exact levels only
        # (the sketch terms of Lemma 5 do not appear because L* = L here).
        if self.budget_allocation == "optimal":
            budgets = optimal_budgets(
                domain=self.domain,
                epsilon=self._epsilon,
                depth=depth,
                level_cutoff=depth,
                pruning_k=1,
                sketch_depth=1,
            )
        else:
            budgets = uniform_budgets(self._epsilon, depth)
        for level in range(depth + 1):
            noise = generator.laplace(0.0, 1.0 / budgets[level], size=1 << level)
            tree.increment_many(np.arange(1 << level), noise, level)

        if self.apply_consistency:
            enforce_tree_consistency(tree)
        elif tree.root_count < 0:
            tree.level(0)[1][0] = 0.0

        self._tree = tree
        return SyntheticDataGenerator(tree, self.domain, rng=generator)

    def memory_words(self) -> int:
        if self._tree is None:
            return 0
        return self._tree.memory_words()
