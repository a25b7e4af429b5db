"""A geographic (latitude/longitude rectangle) domain.

Points are ``(latitude, longitude)`` pairs inside a configurable bounding box.
The decomposition alternates splits between latitude and longitude, exactly as
the hypercube cycles its coordinates, and the metric is the l-infinity
distance in degrees scaled so the bounding box is comparable across axes.
This is the "geographic coordinates" domain the paper names as a motivating
metric space, and it backs the check-in example and benchmark workloads.
"""

from __future__ import annotations

import numpy as np

from repro.domain.base import Cell, Domain, validate_cell

__all__ = ["GeoDomain"]


class GeoDomain(Domain):
    """A latitude/longitude rectangle with alternating binary splits."""

    def __init__(
        self,
        lat_min: float = -90.0,
        lat_max: float = 90.0,
        lon_min: float = -180.0,
        lon_max: float = 180.0,
    ) -> None:
        if lat_min >= lat_max:
            raise ValueError("lat_min must be strictly below lat_max")
        if lon_min >= lon_max:
            raise ValueError("lon_min must be strictly below lon_max")
        self.lat_min = float(lat_min)
        self.lat_max = float(lat_max)
        self.lon_min = float(lon_min)
        self.lon_max = float(lon_max)

    # ------------------------------------------------------------------ #
    # normalisation helpers
    # ------------------------------------------------------------------ #
    def _normalise(self, point) -> np.ndarray:
        """Map a (lat, lon) pair to the unit square."""
        lat, lon = float(point[0]), float(point[1])
        return np.array(
            [
                (lat - self.lat_min) / (self.lat_max - self.lat_min),
                (lon - self.lon_min) / (self.lon_max - self.lon_min),
            ]
        )

    def _denormalise(self, unit: np.ndarray) -> np.ndarray:
        """Map unit-square points (the last axis) back to (lat, lon)."""
        return np.stack(
            [
                self.lat_min + unit[..., 0] * (self.lat_max - self.lat_min),
                self.lon_min + unit[..., 1] * (self.lon_max - self.lon_min),
            ],
            axis=-1,
        )

    # ------------------------------------------------------------------ #
    # Domain interface
    # ------------------------------------------------------------------ #
    def diameter(self) -> float:
        """l-infinity diameter of the normalised box (always 1)."""
        return 1.0

    def distance(self, point_a, point_b) -> float:
        """l-infinity distance between two points after normalisation."""
        a = self._normalise(point_a)
        b = self._normalise(point_b)
        return float(np.max(np.abs(a - b)))

    def cell_bounds(self, theta: Cell) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper corners (in normalised coordinates) of the cell."""
        theta = validate_cell(theta)
        lower = np.zeros(2)
        upper = np.ones(2)
        for position, bit in enumerate(theta):
            axis = position % 2
            mid = 0.5 * (lower[axis] + upper[axis])
            if bit == 0:
                upper[axis] = mid
            else:
                lower[axis] = mid
        return lower, upper

    def cell_bounds_batch(self, level, codes) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cell_bounds`: ``(n, 2)`` normalised corners."""
        return self._halving_bounds(level, codes, 2)

    def cell_diameter(self, theta: Cell) -> float:
        """Largest normalised side of the cell."""
        lower, upper = self.cell_bounds(theta)
        return float(np.max(upper - lower))

    def level_max_diameter(self, level: int) -> float:
        """``gamma_l = 2^{-floor(l/2)}`` in normalised coordinates."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return 2.0 ** (-(level // 2))

    def contains(self, point) -> bool:
        """Whether the (lat, lon) pair lies in the bounding box."""
        try:
            lat, lon = float(point[0]), float(point[1])
        except (TypeError, ValueError, IndexError):
            return False
        return self.lat_min <= lat <= self.lat_max and self.lon_min <= lon <= self.lon_max

    def locate(self, point, level: int) -> Cell:
        """Bit index of the level-``level`` cell containing the point."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        unit = self._normalise(point)
        if not (0.0 <= unit[0] <= 1.0 and 0.0 <= unit[1] <= 1.0):
            raise ValueError(f"point {point!r} lies outside the bounding box")
        lower = np.zeros(2)
        upper = np.ones(2)
        bits: list[int] = []
        for position in range(level):
            axis = position % 2
            mid = 0.5 * (lower[axis] + upper[axis])
            if unit[axis] >= mid:
                bits.append(1)
                lower[axis] = mid
            else:
                bits.append(0)
                upper[axis] = mid
        return tuple(bits)

    def locate_batch(self, points, level: int) -> np.ndarray:
        """Vectorised :meth:`locate`: normalise, then interleave the two axes.

        Uses the same normalisation arithmetic as :meth:`_normalise` applied
        elementwise, so the bits agree with the scalar path exactly.
        """
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        coords = np.asarray(points, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"expected (lat, lon) pairs of shape (n, 2), got {coords.shape}")
        unit = np.empty_like(coords)
        unit[:, 0] = (coords[:, 0] - self.lat_min) / (self.lat_max - self.lat_min)
        unit[:, 1] = (coords[:, 1] - self.lon_min) / (self.lon_max - self.lon_min)
        # The negated all() form also rejects NaN (whose comparisons are all
        # False), matching the scalar path's fail-loud range check.
        if unit.size and not ((unit >= 0.0) & (unit <= 1.0)).all():
            raise ValueError("some points lie outside the bounding box")
        return self._interleave_unit_bits(unit, level)

    def sample_cell(self, theta: Cell, rng: np.random.Generator) -> np.ndarray:
        """Uniform random (lat, lon) within the cell."""
        lower, upper = self.cell_bounds(theta)
        unit = lower + (upper - lower) * rng.random(2)
        return self._denormalise(unit)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"GeoDomain(lat=[{self.lat_min}, {self.lat_max}], "
            f"lon=[{self.lon_min}, {self.lon_max}])"
        )
