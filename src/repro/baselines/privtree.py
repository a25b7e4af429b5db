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

import itertools
import math
import operator

import numpy as np

from repro.baselines.base import SyntheticDataMethod
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.base import Domain

__all__ = ["PrivTreeMethod"]


class PrivTreeMethod(SyntheticDataMethod):
    """Adaptive noisy-threshold decomposition with full data access.

    Privacy: epsilon-DP for datasets that differ by one added or removed
    item.  ``structure_fraction * epsilon`` pays for the split decisions,
    whose ``Laplace(lambda)`` noise on the biased counts follows PrivTree's
    own proof for that relation; the rest, ``epsilon_count``, pays for the
    released leaf counts at ``Laplace(1/epsilon_count)``, and since the
    leaves partition the domain one item moves one of them by 1.  When one
    item's value changes instead (a removal plus an addition), the same
    noise gives 2 epsilon.
    """

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
        generator = np.random.default_rng(rng)

        structure_epsilon = self._epsilon * self.structure_fraction
        count_epsilon = self._epsilon - structure_epsilon
        beta = 2.0
        lam = (2.0 * beta - 1.0) / ((beta - 1.0) * structure_epsilon)
        delta = lam * math.log(beta)

        # Exact cell counts are computed lazily per node; PrivTree has full
        # data access so this does not violate any streaming constraint.
        # Each point is located once at max_depth: the points of the cell
        # (level, code) are the sorted depth codes in one contiguous run.
        depth_codes = np.sort(Domain.pack_paths(self.domain.locate_batch(data, self.max_depth)))

        def exact_count(level: int, code: int) -> int:
            shift = self.max_depth - level
            low, high = np.searchsorted(depth_codes, (code << shift, (code + 1) << shift))
            return int(high - low)

        internal: list[tuple[int, int]] = []
        leaves: list[tuple[int, int]] = []
        frontier: list[tuple[int, int]] = [(0, 0)]
        while frontier:
            level, code = frontier.pop()
            count = exact_count(level, code)
            biased = count - level * delta
            noisy = biased + generator.laplace(0.0, lam)
            should_split = noisy > self.threshold and level < self.max_depth
            if should_split:
                internal.append((level, code))
                frontier.extend(((level + 1, code << 1), (level + 1, (code << 1) | 1)))
            else:
                leaves.append((level, code))

        # Release noisy counts for the leaves only, then propagate upwards so
        # the tree carries a consistent measure for the sampler.
        counts: dict[tuple[int, int], float] = {}
        for level, code in leaves:
            noisy_count = exact_count(level, code) + generator.laplace(0.0, 1.0 / count_epsilon)
            counts[level, code] = max(noisy_count, 0.0)
        for level, code in sorted(internal, reverse=True):
            counts[level, code] = counts[level + 1, code << 1] + counts[level + 1, (code << 1) | 1]

        cells = sorted(counts)
        self._tree = PartitionTree(counts[cells[0]])
        for level, group in itertools.groupby(cells[1:], key=operator.itemgetter(0)):
            codes = [code for _, code in group]
            self._tree.append_level(codes, [counts[level, code] for code in codes])
        return SyntheticDataGenerator(self._tree, self.domain, rng=generator)

    def memory_words(self) -> int:
        if self._tree is None:
            return 0
        return self._tree.memory_words()
