"""The unit interval ``[0, 1]`` with dyadic splits (the paper's d=1 case).

Implemented directly (rather than as ``Hypercube(1)``) so points can be plain
floats, which keeps the d=1 experiments and the quantile/SRRW baselines free
of array boilerplate; the decomposition is identical to ``Hypercube(1)`` and a
test asserts that the two agree cell-by-cell.
"""

from __future__ import annotations

import numpy as np

from repro.domain.base import Cell, Domain, dyadic_index, validate_cell

__all__ = ["UnitInterval"]


class UnitInterval(Domain):
    """``[0,1]`` with absolute-difference metric and dyadic binary splits."""

    dimension = 1

    def diameter(self) -> float:
        """Length of the interval."""
        return 1.0

    def distance(self, point_a, point_b) -> float:
        """Absolute difference."""
        return float(abs(float(point_a) - float(point_b)))

    def cell_bounds(self, theta: Cell) -> tuple[float, float]:
        """Endpoints of the dyadic interval indexed by ``theta``."""
        theta = validate_cell(theta)
        lower, upper = 0.0, 1.0
        for bit in theta:
            mid = 0.5 * (lower + upper)
            if bit == 0:
                upper = mid
            else:
                lower = mid
        return lower, upper

    def cell_bounds_batch(self, level, codes) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cell_bounds`: ``(n,)`` lower and upper endpoints."""
        low, high = self._halving_bounds(level, codes, 1)
        return low[:, 0], high[:, 0]

    def cell_diameter(self, theta: Cell) -> float:
        """Length ``2^{-level}`` of the dyadic cell."""
        return 2.0 ** (-len(validate_cell(theta)))

    def level_max_diameter(self, level: int) -> float:
        """``gamma_l = 2^{-l}``."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return 2.0 ** (-level)

    def contains(self, point) -> bool:
        """Whether the scalar lies in ``[0, 1]``."""
        try:
            value = float(point)
        except (TypeError, ValueError):
            return False
        return 0.0 <= value <= 1.0

    def locate(self, point, level: int) -> Cell:
        """Bit index of the level-``level`` dyadic interval containing ``point``."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        value = float(point)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"point {value} lies outside [0, 1]")
        code = dyadic_index(value, level)
        return tuple((code >> shift) & 1 for shift in range(level - 1, -1, -1))

    def locate_batch(self, points, level: int) -> np.ndarray:
        """Vectorised :meth:`locate`: the bits are the binary expansion of the value.

        ``floor(v * 2^level)`` (clamped to the last cell for ``v = 1.0``) is
        exactly the cell index :meth:`locate` computes, because scaling by a
        power of two is exact in floating point.  Levels past 62, whose cell
        codes :meth:`Domain.pack_paths` cannot pack, raise ``ValueError``.
        """
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        if level > 62:
            raise ValueError(f"cannot locate a batch deeper than 62 levels, got {level}")
        values = np.asarray(points, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"expected a 1-d array of scalars, got shape {values.shape}")
        # The negated all() form also rejects NaN (whose comparisons are all
        # False), matching the scalar path's fail-loud range check.
        if values.size and not ((values >= 0.0) & (values <= 1.0)).all():
            raise ValueError("points must lie in [0, 1]")
        codes = np.clip((values * (1 << level)).astype(np.int64), 0, (1 << level) - 1)
        shifts = np.arange(level - 1, -1, -1, dtype=np.int64)
        return ((codes[:, None] >> shifts) & 1).astype(np.uint8)

    def sample_cell(self, theta: Cell, rng: np.random.Generator) -> float:
        """Uniform random point inside the dyadic cell."""
        lower, upper = self.cell_bounds(theta)
        return float(lower + (upper - lower) * rng.random())

    def sample_uniform(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random points over ``[0,1]`` (helper for workloads)."""
        return rng.random(size)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "UnitInterval()"
