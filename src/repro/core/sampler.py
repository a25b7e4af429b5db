"""Synthetic data generation from a partition tree (Section 5 of the paper).

Any binary decomposition of the domain, together with non-negative node
counts, encodes a sampling distribution: pick a leaf with probability
proportional to its count, then draw a point uniformly at random inside the
leaf's cell.  The paper's root-to-leaf walk implements that selection:
draw ``u ~ Uniform[0, root.count]``, branch left while the left child's
count is at least ``u``, otherwise subtract it and branch right.

:meth:`SyntheticDataGenerator.sample` walks a whole batch at once, one level
per numpy pass, with
:meth:`~repro.queries.compiled.CompiledDescentTable.descend_many` over a
descent table compiled once per generator.  It draws one block
``rng.random((n, 1 + d))``: column 0 is each point's threshold, the other
``d`` columns place the point uniformly in its landed cell.  Row by row
these are the doubles a per-point walk draws (threshold, then the point),
so float-domain samples match that walk byte for byte.  IPv4 and discrete
points come from one ``rng.integers(low, high + 1)`` call after the
threshold block instead.

The generator is pure post-processing of the (already private) tree, so the
synthetic data inherits the epsilon-DP guarantee with no extra privacy cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.tree import PartitionTree
from repro.domain.base import Cell, Domain
from repro.domain.geo import GeoDomain
from repro.queries.compiled import CompiledDescentTable

__all__ = ["SyntheticDataGenerator"]


class SyntheticDataGenerator:
    """Samples synthetic points from a partition tree over a domain.

    The first draw compiles the tree into the generator's descent table, so
    the tree's counts must not change after sampling starts.
    """

    def __init__(
        self,
        tree: PartitionTree,
        domain: Domain,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.tree = tree
        self.domain = domain
        self._rng = np.random.default_rng(rng)
        self._descent: CompiledDescentTable | None = None

    def reseed(self, rng: np.random.Generator | int | None) -> "SyntheticDataGenerator":
        """Replace the sampling generator; the tree counts are never touched."""
        self._rng = np.random.default_rng(rng)
        return self

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample_one(self):
        """Draw a single synthetic point: ``sample(1)[0]``, as a Python
        float or int on scalar domains and an array on vector domains."""
        point = self.sample(1)[0]
        return point if point.ndim else point.item()

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` synthetic points as a numpy array.

        The output shape follows the domain: scalar domains give a 1-d array
        of length ``size``, vector domains an array of shape
        ``(size, dimension)``.  ``size = 0`` gives that shape and dtype too,
        and draws nothing from the sampling generator.

        Falls back to a uniform draw over the whole domain when the tree
        carries no probability mass (all counts zero), which can happen for
        tiny streams with large noise; the fallback keeps the generator total
        and well-defined without touching the data again.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if self._descent is None:
            self._descent = CompiledDescentTable(self.tree, self.domain)
        table = self._descent
        # Uniform columns per point: one per axis, none on integer domains.
        axes = 0 if table.integer else table.low[0].size
        if table.root_count <= 0:
            nodes = np.zeros(size, dtype=np.int64)
            draws = self._rng.random((size, axes))
        else:
            draws = self._rng.random((size, 1 + axes))
            nodes, _ = table.descend_many(draws[:, 0])
        low, high = table.low[nodes], table.high[nodes]
        if table.integer:
            return self._rng.integers(low, high + 1)
        points = low + (high - low) * draws[:, -axes:].reshape(low.shape)
        if isinstance(self.domain, GeoDomain):
            points = self.domain._denormalise(points)
        return points

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
            f"SyntheticDataGenerator(leaves={self.tree.num_leaves()}, "
            f"total_mass={self.total_mass:.2f})"
        )
