"""PrivTree: the static adaptive hierarchical decomposition of Zhang et al.

PrivTree grows a decomposition tree adaptively: a node is split whenever its
*biased* noisy count exceeds a threshold, where the bias decreases with depth
to keep the total privacy loss bounded regardless of how deep the recursion
goes.  The paper cites it as the canonical static (full-data-access) private
decomposition that is unsuitable for streaming -- it needs exact counts of
arbitrary cells on demand -- so it serves here both as a baseline generator
and as a reference point for how adaptive splitting behaves without memory
constraints.

Parameters follow the original paper with fanout ``beta = 2``:
``lambda = (2 beta - 1) / ((beta - 1) * epsilon_structure)`` and decay
``delta = lambda * ln(beta)``.  Half the budget drives the structural
decisions and half perturbs the released leaf counts.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import SyntheticDataMethod
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.base import Cell, Domain

__all__ = ["PrivTreeMethod"]


class PrivTreeMethod(SyntheticDataMethod):
    """Adaptive noisy-threshold decomposition with full data access."""

    name = "PrivTree"

    def __init__(
        self,
        domain: Domain,
        epsilon: float,
        threshold: float = 0.0,
        max_depth: int = 20,
        structure_fraction: float = 0.5,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if not 0 < structure_fraction < 1:
            raise ValueError("structure_fraction must lie strictly between 0 and 1")
        if max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, got {max_depth}")
        self.domain = domain
        self._epsilon = float(epsilon)
        self.threshold = float(threshold)
        self.max_depth = int(max_depth)
        self.structure_fraction = float(structure_fraction)
        self._tree: PartitionTree | None = None

    def fit(self, data, rng: np.random.Generator | int | None = None) -> SyntheticDataGenerator:
        data = list(data)
        if not data:
            raise ValueError("data must be non-empty")
        generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

        structure_epsilon = self._epsilon * self.structure_fraction
        count_epsilon = self._epsilon - structure_epsilon
        beta = 2.0
        lam = (2.0 * beta - 1.0) / ((beta - 1.0) * structure_epsilon)
        delta = lam * math.log(beta)

        # Exact cell counts are computed lazily per node; PrivTree has full
        # data access so this does not violate any streaming constraint.
        def exact_count(theta: Cell) -> int:
            level = len(theta)
            return sum(1 for point in data if self.domain.locate(point, level) == theta)

        internal: list[Cell] = []
        leaves: list[Cell] = []
        frontier: list[Cell] = [()]
        while frontier:
            theta = frontier.pop()
            count = exact_count(theta)
            biased = count - len(theta) * delta
            noisy = biased + generator.laplace(0.0, lam)
            should_split = noisy > self.threshold and len(theta) < self.max_depth
            if should_split:
                internal.append(theta)
                frontier.extend((theta + (0,), theta + (1,)))
            else:
                leaves.append(theta)

        # Release noisy counts for the leaves only, then propagate upwards so
        # the tree carries a consistent measure for the sampler.
        counts: dict[Cell, float] = {}
        for theta in leaves:
            noisy_count = exact_count(theta) + generator.laplace(0.0, 1.0 / count_epsilon)
            counts[theta] = max(noisy_count, 0.0)
        for theta in sorted(internal, key=len, reverse=True):
            counts[theta] = counts[theta + (0,)] + counts[theta + (1,)]

        self._tree = PartitionTree.from_cells(counts)
        return SyntheticDataGenerator(self._tree, self.domain, rng=generator)

    def memory_words(self) -> int:
        if self._tree is None:
            return 0
        return self._tree.memory_words()
