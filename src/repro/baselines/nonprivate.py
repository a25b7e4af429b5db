"""Non-private histogram sampler: the utility ceiling for the benchmarks.

This baseline carries no privacy noise at all; it simply bins the data on the
domain's own binary decomposition at a configurable depth and resamples.  Its
Wasserstein distance to the input reflects only the resolution error
``~gamma_depth`` plus resampling variance, so every private method's measured
error can be read as "noise cost above this floor".
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import SyntheticDataMethod
from repro.baselines.pmm import build_exact_tree
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.base import Domain

__all__ = ["NonPrivateHistogramMethod"]


class NonPrivateHistogramMethod(SyntheticDataMethod):
    """Exact-count histogram over the domain's decomposition (no privacy)."""

    name = "NonPrivate"

    def __init__(self, domain: Domain, depth: int | None = None, max_depth: int = 14) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, got {max_depth}")
        self.domain = domain
        self.depth = depth
        self.max_depth = int(max_depth)
        self._tree: PartitionTree | None = None

    @property
    def epsilon(self) -> float:
        """Non-private: infinite budget."""
        return float("inf")

    def _resolve_depth(self, n: int) -> int:
        if self.depth is not None:
            return min(self.depth, self.max_depth)
        return int(min(max(math.ceil(math.log2(max(n, 2))), 1), self.max_depth))

    def fit(self, data, rng: np.random.Generator | int | None = None) -> SyntheticDataGenerator:
        data = list(data)
        if not data:
            raise ValueError("data must be non-empty")
        generator = np.random.default_rng(rng)
        depth = self._resolve_depth(len(data))
        tree = build_exact_tree(data, self.domain, depth)
        self._tree = tree
        return SyntheticDataGenerator(tree, self.domain, rng=generator)

    def memory_words(self) -> int:
        if self._tree is None:
            return 0
        return self._tree.memory_words()
