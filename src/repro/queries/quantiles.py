"""Quantile and inverse-CDF queries on ordered domains.

The private tree encodes a monotone CDF over any one-dimensional ordered
domain ([0,1], IPv4 addresses, finite universes), so quantiles can be read off
directly by a root-to-leaf descent: at each node, branch left when the
requested probability mass fits in the left child, otherwise subtract it and
branch right.  This is the query-side counterpart of the sampling procedure of
Section 5 and is again pure post-processing.

Construction compiles the tree's branching structure into a
:class:`~repro.queries.compiled.CompiledDescentTable` (child indices, left
counts, leaf payloads, plus the prefix-sum/CDF array over the ordered leaf
order), so a single quantile walks flat arrays instead of a dict and a batch
of probabilities descends level-synchronously -- one numpy pass per tree
level for the whole batch.  Each lane runs the same compare/subtract
sequence as the scalar walk, so batch answers are bit-identical per
probability (pinned in ``tests/test_queries_vectorized.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.tree import PartitionTree
from repro.domain.base import Domain
from repro.domain.discrete import DiscreteDomain
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain
from repro.queries.compiled import CompiledDescentTable

__all__ = ["QuantileEngine"]


class QuantileEngine:
    """Quantile function derived from a partition tree on an ordered domain.

    Example:
        >>> from repro.baselines.pmm import build_exact_tree
        >>> from repro.domain.interval import UnitInterval
        >>> tree = build_exact_tree([0.1, 0.3, 0.6, 0.9], UnitInterval(), depth=2)
        >>> engine = QuantileEngine(tree, UnitInterval())
        >>> engine.median()
        0.5
        >>> engine.interquartile_range()
        0.5
        >>> engine.quantiles([0.25, 0.5, 0.75])
        array([0.25, 0.5 , 0.75])
    """

    def __init__(
        self,
        tree: PartitionTree,
        domain: Domain,
        *,
        table: CompiledDescentTable | None = None,
    ) -> None:
        if not isinstance(domain, (UnitInterval, IPv4Domain, DiscreteDomain)):
            raise TypeError("quantile queries require a one-dimensional ordered domain")
        self.tree = tree
        self.domain = domain
        self._table = table if table is not None else CompiledDescentTable(tree, domain)

    def _interpolated_point(self, node: int, fraction: float):
        """A point ``fraction`` of the way through a node's cell (linear interpolation)."""
        fraction = min(max(fraction, 0.0), 1.0)
        lower = self._table._py_low[node]
        upper = self._table._py_high[node]
        if not self._table.integer:
            return float(lower + fraction * (upper - lower))
        if lower > upper:
            return int(lower)
        return int(round(lower + fraction * (upper - lower)))

    def quantile(self, probability: float):
        """The ``probability``-quantile of the released distribution."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {probability}")
        if self._table.root_count <= 0:
            # Degenerate release: fall back to the quantile of the uniform
            # law, read off the root (node 0).
            return self._interpolated_point(0, probability)

        node, remaining = self._table.descend(probability)
        leaf_count = self._table._py_leaf_count[node]
        if leaf_count <= 0:
            # An empty leaf answers its cell's largest point.
            upper = self._table._py_high[node]
            return int(upper) if self._table.integer else float(upper)
        return self._interpolated_point(node, remaining / leaf_count)

    def quantiles(self, probabilities) -> np.ndarray:
        """Vectorised quantile evaluation: one level-synchronous batch descent.

        The whole batch walks the compiled node table together -- one numpy
        pass per tree level -- so cost is O(depth) array operations for any
        batch size.  Entry ``i`` is bit-identical to
        ``quantile(probabilities[i])``, and an empty batch answers an empty
        array of the same dtype.
        """
        values = np.asarray([float(p) for p in probabilities])
        if values.size == 0:
            return np.empty(0, dtype=self._table.high.dtype)
        invalid = ~((values >= 0.0) & (values <= 1.0))
        if invalid.any():
            bad = float(values[int(np.argmax(invalid))])
            raise ValueError(f"probability must lie in [0, 1], got {bad}")
        if self._table.root_count <= 0:
            return np.asarray([self._interpolated_point(0, p) for p in values])
        nodes, remaining = self._table.descend_many(values)
        return self._table.interpolate_many(nodes, remaining)

    def median(self):
        """The released distribution's median."""
        return self.quantile(0.5)

    def interquartile_range(self) -> float:
        """Q3 - Q1 of the released distribution, in the domain's raw units."""
        q1 = self.quantile(0.25)
        q3 = self.quantile(0.75)
        return float(q3 - q1)
