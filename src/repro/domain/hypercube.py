"""The hypercube domain ``[0,1]^d`` with the l-infinity metric.

This is the setting of Theorem 1 and Corollary 1.  The natural binary
decomposition cycles through the coordinates: the split at level ``l`` halves
coordinate ``l mod d``, so after ``l`` levels coordinate ``i`` has been halved
``ceil((l - i) / d)`` times and the cell diameter under l-infinity is
``2^{-floor(l/d)}`` (the largest remaining side).
"""

from __future__ import annotations

import numpy as np

from repro.domain.base import Cell, Domain, dyadic_index, validate_cell

__all__ = ["Hypercube"]


class Hypercube(Domain):
    """``[0,1]^d`` with l-infinity distance and coordinate-cycling dyadic splits."""

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        self.dimension = int(dimension)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def diameter(self) -> float:
        """Side length 1 under l-infinity."""
        return 1.0

    def distance(self, point_a, point_b) -> float:
        """l-infinity distance between two points."""
        a = np.asarray(point_a, dtype=float)
        b = np.asarray(point_b, dtype=float)
        return float(np.max(np.abs(a - b)))

    def cell_bounds(self, theta: Cell) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the cell ``Omega_theta``.

        Bit ``p`` of ``theta`` refines coordinate ``p mod d``: 0 keeps the
        lower half of the current interval, 1 the upper half.
        """
        theta = validate_cell(theta)
        lower = np.zeros(self.dimension)
        upper = np.ones(self.dimension)
        for position, bit in enumerate(theta):
            axis = position % self.dimension
            mid = 0.5 * (lower[axis] + upper[axis])
            if bit == 0:
                upper[axis] = mid
            else:
                lower[axis] = mid
        return lower, upper

    def cell_bounds_batch(self, level, codes) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cell_bounds`: ``(n, d)`` lower and upper corners."""
        return self._halving_bounds(level, codes, self.dimension)

    def cell_diameter(self, theta: Cell) -> float:
        """Largest side length of the cell (l-infinity diameter)."""
        lower, upper = self.cell_bounds(theta)
        return float(np.max(upper - lower))

    def level_max_diameter(self, level: int) -> float:
        """``gamma_l = 2^{-floor(l/d)}`` without materialising bounds."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return 2.0 ** (-(level // self.dimension))

    # ------------------------------------------------------------------ #
    # locating points and sampling cells
    # ------------------------------------------------------------------ #
    def contains(self, point) -> bool:
        """Whether the point lies in ``[0,1]^d``."""
        array = np.asarray(point, dtype=float)
        if array.shape != (self.dimension,) and not (
            self.dimension == 1 and array.shape == ()
        ):
            return False
        return bool(np.all(array >= 0.0) and np.all(array <= 1.0))

    def _as_point(self, point) -> np.ndarray:
        array = np.asarray(point, dtype=float)
        if array.shape == () and self.dimension == 1:
            array = array.reshape(1)
        if array.shape != (self.dimension,):
            raise ValueError(
                f"expected a point of dimension {self.dimension}, got shape {array.shape}"
            )
        # The negated all() form also rejects NaN (whose comparisons are all
        # False).
        if not ((array >= 0.0) & (array <= 1.0)).all():
            raise ValueError(f"point {array.tolist()} lies outside [0, 1]^{self.dimension}")
        return array

    def locate(self, point, level: int) -> Cell:
        """Bit index of the level-``level`` cell containing ``point``."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        coords = self._as_point(point)
        bits = [0] * level
        # Position p splits axis p mod d; an axis's positions carry the bits
        # of its exact dyadic index, most significant first.
        for axis in range(self.dimension):
            positions = range(axis, level, self.dimension)
            code = dyadic_index(coords[axis], len(positions))
            for shift, position in enumerate(reversed(positions)):
                bits[position] = (code >> shift) & 1
        return tuple(bits)

    def locate_batch(self, points, level: int) -> np.ndarray:
        """Vectorised :meth:`locate`: per-axis binary expansions, interleaved.

        Coordinate ``i`` is split ``s_i`` times within the first ``level``
        positions; its dyadic index is ``floor(x_i * 2^{s_i})`` (a coordinate
        of exactly 1 goes to the last cell), and bit ``t`` of that index
        lands at position ``i + t*d``.  A coordinate outside ``[0, 1]``
        raises ``ValueError``, as in :meth:`locate`.
        """
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        coords = np.asarray(points, dtype=float)
        if coords.ndim == 1 and self.dimension == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[1] != self.dimension:
            raise ValueError(
                f"expected points of shape (n, {self.dimension}), got {coords.shape}"
            )
        # The negated all() form also rejects NaN.
        if coords.size and not ((coords >= 0.0) & (coords <= 1.0)).all():
            raise ValueError(f"points must lie in [0, 1]^{self.dimension}")
        return self._interleave_unit_bits(coords, level)

    def sample_cell(self, theta: Cell, rng: np.random.Generator) -> np.ndarray:
        """Uniform random point within the cell ``Omega_theta``."""
        lower, upper = self.cell_bounds(theta)
        return lower + (upper - lower) * rng.random(self.dimension)

    def sample_uniform(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random points over the whole cube (helper for workloads)."""
        return rng.random((size, self.dimension))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Hypercube(dimension={self.dimension})"
