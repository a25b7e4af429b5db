"""Range (box) queries answered from a partition tree.

A range query asks what fraction of the data falls inside an axis-aligned
region.  The engine answers it from the released tree by summing, over the
leaf cells, the leaf's probability multiplied by the fraction of the leaf's
volume that intersects the query region -- which is exactly the probability
the synthetic generator assigns to the region (points are uniform within a
leaf), computed in closed form instead of by Monte-Carlo sampling.

Construction compiles the tree into a :class:`~repro.queries.compiled.CompiledLeafTable`
-- contiguous arrays of leaf probabilities and cell geometry -- so a query
is vectorised overlap arithmetic over all leaves at once, and a *batch* of
queries (:meth:`RangeQueryEngine.mass_many`) is a single numpy pass with no
Python loop over either queries or leaves.  Answers are bit-identical to
the historical per-leaf Python loop (pinned in
``tests/test_queries_vectorized.py``).

Supported domains: :class:`~repro.domain.interval.UnitInterval`,
:class:`~repro.domain.hypercube.Hypercube`, :class:`~repro.domain.geo.GeoDomain`
(axis-aligned boxes in raw coordinates), and
:class:`~repro.domain.ipv4.IPv4Domain` / :class:`~repro.domain.discrete.DiscreteDomain`
(integer ranges).
"""

from __future__ import annotations

import numpy as np

from repro.core.tree import PartitionTree
from repro.domain.base import Domain
from repro.domain.discrete import DiscreteDomain
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain
from repro.queries.compiled import CompiledLeafTable

__all__ = ["RangeQueryEngine"]


class RangeQueryEngine:
    """Answers axis-aligned range queries from a (noisy, consistent) tree.

    Construction compiles the leaf table once; every query after that is
    array arithmetic, and whole workloads go through :meth:`mass_many` /
    :meth:`count_many` / :meth:`cdf_many` in one vectorised pass.
    :meth:`repro.api.release.Release.range_engine` caches one instance per
    release for exactly this reason.

    Example:
        >>> from repro.baselines.pmm import build_exact_tree
        >>> from repro.domain.interval import UnitInterval
        >>> tree = build_exact_tree([0.1, 0.3, 0.6, 0.9], UnitInterval(), depth=2)
        >>> engine = RangeQueryEngine(tree, UnitInterval())
        >>> engine.mass(0.0, 0.5)
        0.5
        >>> engine.count(0.0, 0.5)
        2.0
        >>> engine.cdf(0.25)
        0.25
        >>> engine.mass_many([0.0, 0.5], [0.5, 1.0])
        array([0.5, 0.5])
    """

    def __init__(
        self,
        tree: PartitionTree,
        domain: Domain,
        *,
        table: CompiledLeafTable | None = None,
    ) -> None:
        self.tree = tree
        self.domain = domain
        self._table = table if table is not None else CompiledLeafTable(tree, domain)

    # ------------------------------------------------------------------ #
    # canonicalisation: raw per-query bounds -> kernel-ready arrays
    # ------------------------------------------------------------------ #
    def _canonical_bounds(self, lowers, uppers) -> tuple[np.ndarray, np.ndarray]:
        kind = self._table.kind
        if kind == "interval":
            low = np.array([float(value) for value in lowers])
            high = np.array([float(value) for value in uppers])
            # The negated all() form also rejects NaN bounds, whose
            # comparisons are all False.
            if not np.all(low <= high):
                raise ValueError("lower bound must not exceed upper bound, and neither may be NaN")
            return low, high
        if kind == "intrange":
            low = [self._as_int(value) for value in lowers]
            high = [self._as_int(value) for value in uppers]
            if any(a > b for a, b in zip(low, high)):
                raise ValueError("lower bound must not exceed upper bound")
            # Every cell lies in [0, end), so a bound past either end answers
            # as one just past it does; clipping there keeps the kernel's
            # int64 overlap arithmetic from overflowing.
            end = self.domain.size if isinstance(self.domain, DiscreteDomain) else 2**32
            low = np.array([min(max(value, -1), end) for value in low], dtype=np.int64)
            high = np.array([min(max(value, -1), end) for value in high], dtype=np.int64)
            return low, high
        # box: normalise geographic bounds per query, then shape-check.
        domain = self.domain
        dimension = self._table.dimension
        low_rows = []
        high_rows = []
        for lower, upper in zip(lowers, uppers):
            if isinstance(domain, GeoDomain):
                # Queries arrive in raw (lat, lon) coordinates; convert to
                # the normalised unit square the cells live in.
                lower = domain._normalise(lower)
                upper = domain._normalise(upper)
            lower = np.asarray(lower, dtype=float).ravel()
            upper = np.asarray(upper, dtype=float).ravel()
            if not np.all(lower <= upper):
                raise ValueError(
                    "lower bounds must not exceed upper bounds on any axis, and none may be NaN"
                )
            if lower.shape != (dimension,) or upper.shape != (dimension,):
                raise ValueError("query bounds must match the domain dimension")
            low_rows.append(lower)
            high_rows.append(upper)
        if not low_rows:
            return np.empty((0, dimension)), np.empty((0, dimension))
        return np.array(low_rows), np.array(high_rows)

    @staticmethod
    def _as_int(value) -> int:
        if isinstance(value, str):
            return IPv4Domain.parse(value)
        if isinstance(value, (float, np.floating)) and not np.isfinite(value):
            raise ValueError(f"integer range bounds must be finite, got {value}")
        return int(value)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def mass(self, lower, upper) -> float:
        """Estimated probability mass of the region ``[lower, upper]``.

        For vector domains ``lower``/``upper`` are the per-axis bounds of an
        axis-aligned box; for scalar/ordered domains they are the interval or
        integer-range endpoints (inclusive).
        """
        return float(self.mass_many([lower], [upper])[0])

    def mass_many(self, lowers, uppers) -> np.ndarray:
        """Probability masses of a whole batch of regions in one numpy pass.

        ``lowers``/``uppers`` are parallel sequences of per-query bounds in
        the same per-domain form :meth:`mass` accepts.  Entry ``i`` of the
        result is bit-identical to ``mass(lowers[i], uppers[i])``.
        """
        low, high = self._canonical_bounds(lowers, uppers)
        return self._table.mass_many(low, high)

    def count(self, lower, upper) -> float:
        """Estimated number of stream items in the region (mass x total count).

        The total comes from the compiled table's ``root_count`` (captured at
        compilation, identical to ``tree.root_count``) so counting never has
        to touch the tree -- which the binary path materialises lazily.
        """
        return self.mass(lower, upper) * max(self._table.root_count, 0.0)

    def count_many(self, lowers, uppers) -> np.ndarray:
        """Batch variant of :meth:`count` (one vectorised pass)."""
        return self.mass_many(lowers, uppers) * max(self._table.root_count, 0.0)

    def cdf(self, point) -> float:
        """Estimated CDF at ``point`` for one-dimensional ordered domains."""
        return float(self.cdf_many([point])[0])

    def cdf_many(self, points) -> np.ndarray:
        """Batch variant of :meth:`cdf` (one vectorised pass)."""
        domain = self.domain
        if isinstance(domain, UnitInterval):
            points = [float(point) for point in points]
            return self.mass_many([0.0] * len(points), points)
        if isinstance(domain, (IPv4Domain, DiscreteDomain)):
            points = list(points)
            return self.mass_many([0] * len(points), points)
        raise TypeError("cdf queries require a one-dimensional ordered domain")

    def marginal(self, axis: int, bins: int = 32) -> np.ndarray:
        """One-dimensional marginal histogram for a vector domain.

        Returns the probability mass of ``bins`` equal-width slabs along
        ``axis`` (normalised coordinates for geographic domains).
        """
        if not isinstance(self.domain, (Hypercube, GeoDomain)):
            raise TypeError("marginals require a vector-valued domain")
        dimension = self._table.dimension
        if not 0 <= axis < dimension:
            raise ValueError(f"axis must lie in [0, {dimension}), got {axis}")
        if bins < 1:
            raise ValueError(f"bins must be positive, got {bins}")
        return self._table.marginal(axis, bins)
