"""Synthetic data generation from a partition tree (Section 5 of the paper).

Any binary decomposition of the domain, together with non-negative node
counts, encodes a sampling distribution: pick a leaf with probability
proportional to its count, then draw a point uniformly at random inside the
leaf's cell.  The root-to-leaf traversal below implements that selection
with one binary search per level of the tree's level arrays, exactly as
described in the paper: draw ``u ~ Uniform[0, root.count]``, branch left
while the left child's count is at least ``u``, otherwise subtract it and
branch right.

The generator is pure post-processing of the (already private) tree, so the
synthetic data inherits the epsilon-DP guarantee with no extra privacy cost.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.tree import PartitionTree
from repro.domain.base import Cell, Domain

__all__ = ["SyntheticDataGenerator"]


class SyntheticDataGenerator:
    """Samples synthetic points from a partition tree over a domain."""

    def __init__(
        self,
        tree: PartitionTree,
        domain: Domain,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.tree = tree
        self.domain = domain
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    def reseed(self, rng: np.random.Generator | int | None) -> "SyntheticDataGenerator":
        """Replace the sampling generator; the tree counts are never touched."""
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        return self

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample_one(self):
        """Draw a single synthetic point.

        Falls back to a uniform draw over the whole domain when the tree
        carries no probability mass (all counts zero), which can happen for
        tiny streams with large noise; the fallback keeps the generator total
        and well-defined without touching the data again.
        """
        return self._draw(self._levels())

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` synthetic points as a numpy array.

        The output shape follows the domain: scalar domains give a 1-d array
        of length ``size``, vector domains an array of shape
        ``(size, dimension)``.  ``size = 0`` gives that shape and dtype too,
        and draws nothing from the sampling generator.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if size == 0:
            # A point drawn with a throwaway generator carries the shape and
            # dtype of a draw without advancing the sampling stream.
            point = np.asarray(self.domain.sample_cell((), np.random.default_rng(0)))
            return np.empty((0, *point.shape), dtype=point.dtype)
        levels = self._levels()
        return np.asarray([self._draw(levels) for _ in range(size)])

    def _levels(self) -> list[tuple[list[int], list[float]]]:
        """The tree's levels below the root as plain lists, for the walks."""
        return [
            (codes.tolist(), counts.tolist())
            for codes, counts in map(self.tree.level, range(1, self.tree.depth() + 1))
        ]

    def _draw(self, levels):
        """One root-to-leaf walk over ``levels``, then a point of the leaf."""
        total = self.tree.root_count
        if total <= 0:
            return self.domain.sample_cell((), self._rng)

        threshold = self._rng.uniform(0.0, total)
        theta: Cell = ()
        code = 0
        for codes, counts in levels:
            left = bisect_left(codes, code << 1)
            if left == len(codes) or codes[left] != code << 1:
                break
            left_count = max(counts[left], 0.0)
            if left_count >= threshold:
                theta, code = theta + (0,), code << 1
            else:
                threshold -= left_count
                theta, code = theta + (1,), (code << 1) | 1
        return self.domain.sample_cell(theta, self._rng)

    # ------------------------------------------------------------------ #
    # distribution introspection (used by the evaluation harness and tests)
    # ------------------------------------------------------------------ #
    def leaf_probabilities(self) -> dict[Cell, float]:
        """Probability assigned to each leaf cell of the tree.

        When the tree is consistent this equals ``count / root_count``; with
        consistency disabled, negative counts are clamped to zero and the
        distribution re-normalised, matching the sampler's behaviour.
        """
        leaves = self.tree.leaves()
        weights = np.maximum(self.tree.leaf_counts(), 0.0)
        total = float(weights.sum())
        if total <= 0:
            # Degenerate tree: the sampler falls back to the root cell.
            return {(): 1.0}
        return {theta: float(weight / total) for theta, weight in zip(leaves, weights)}

    def leaf_probability_of_point(self, point) -> float:
        """Probability mass of the leaf cell containing ``point``."""
        probabilities = self.leaf_probabilities()
        if probabilities.keys() == {()}:
            return 1.0
        depth = max(len(theta) for theta in probabilities)
        path = self.domain.locate(point, depth)
        for level in range(len(path), -1, -1):
            prefix = path[:level]
            if prefix in probabilities:
                return probabilities[prefix]
        return 0.0

    def expected_value(self, function, num_samples: int = 1000) -> float:
        """Monte-Carlo estimate of ``E_{Y ~ generator}[function(Y)]``."""
        if num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {num_samples}")
        samples = self.sample(num_samples)
        return float(np.mean([function(sample) for sample in samples]))

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def total_mass(self) -> float:
        """Total (possibly noisy) probability mass at the root."""
        return self.tree.root_count

    def memory_words(self) -> int:
        """Words occupied by the underlying tree."""
        return self.tree.memory_words()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"SyntheticDataGenerator(leaves={len(self.tree.leaves())}, "
            f"total_mass={self.total_mass:.2f})"
        )
