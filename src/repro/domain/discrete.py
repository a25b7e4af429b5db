"""A finite ordered domain ``{0, 1, ..., size-1}``.

This is the setting of the bounded-space DP quantile baseline (Alabi et al.),
which "only works for finite and ordered input domains" (Section 2.2).  The
decomposition splits the index range in half at each level; the metric is the
normalised index difference, giving the whole domain diameter 1 so that
Wasserstein distances are comparable with the continuous domains.
"""

from __future__ import annotations

import numpy as np

from repro.domain.base import Cell, Domain, coerce_integer_stream, validate_cell

__all__ = ["DiscreteDomain"]


class DiscreteDomain(Domain):
    """Finite ordered universe with dyadic range splits."""

    def __init__(self, size: int) -> None:
        if size < 2:
            raise ValueError(f"domain size must be at least 2, got {size}")
        self.size = int(size)
        # Number of binary splits needed until every cell is a single item.
        self.max_depth = int(np.ceil(np.log2(self.size)))

    # ------------------------------------------------------------------ #
    # Domain interface
    # ------------------------------------------------------------------ #
    def diameter(self) -> float:
        """Normalised diameter of the universe."""
        return 1.0

    def distance(self, point_a, point_b) -> float:
        """Normalised absolute index difference."""
        return abs(int(point_a) - int(point_b)) / max(self.size - 1, 1)

    def cell_range(self, theta: Cell) -> tuple[int, int]:
        """Inclusive item range ``[low, high]`` covered by a cell.

        Ranges are split as evenly as possible until a cell holds a single
        item; both children of a single-item cell cover that same item, so
        no cell is ever empty.
        """
        theta = validate_cell(theta)
        low, high = 0, self.size - 1
        for bit in theta:
            if low == high:
                break
            mid = (low + high) // 2
            if bit == 0:
                high = mid
            else:
                low = mid + 1
        return low, high

    def cell_bounds_batch(self, level, codes) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cell_range`: ``(n,)`` int64 inclusive ranges.

        The uneven splits run one bit position at a time on whole arrays;
        a single-item cell keeps its range at every deeper position.
        """
        levels, codes = self._cell_codes(level, codes)
        low = np.zeros(codes.size, dtype=np.int64)
        high = np.full(codes.size, self.size - 1, dtype=np.int64)
        for _, left, right in self._cell_bits(levels, codes):
            live = low < high
            mid = (low + high) // 2
            np.copyto(high, mid, where=left & live)
            np.copyto(low, mid + 1, where=right & live)
        return low, high

    def cell_diameter(self, theta: Cell) -> float:
        """Normalised width of the cell's item range."""
        low, high = self.cell_range(theta)
        return (high - low) / max(self.size - 1, 1)

    def level_max_diameter(self, level: int) -> float:
        """Maximum cell diameter at ``level`` (left-most cells are largest)."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return self.cell_diameter((0,) * min(level, self.max_depth))

    def contains(self, point) -> bool:
        """Whether the point is an index inside the universe."""
        try:
            value = int(point)
        except (TypeError, ValueError):
            return False
        return 0 <= value < self.size

    def locate(self, point, level: int) -> Cell:
        """Bit index of the level-``level`` range containing ``point``."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        value = int(point)
        if not 0 <= value < self.size:
            raise ValueError(f"item {value} outside the universe of size {self.size}")
        low, high = 0, self.size - 1
        bits: list[int] = []
        for _ in range(level):
            if low >= high:
                # The cell is a single item; descend into the left child by
                # convention so the path stays well-defined at any depth.
                bits.append(0)
                continue
            mid = (low + high) // 2
            if value <= mid:
                bits.append(0)
                high = mid
            else:
                bits.append(1)
                low = mid + 1
        return tuple(bits)

    def coerce_stream(self, data):
        """Cast float arrays (e.g. items read from a CSV) back to int64."""
        return coerce_integer_stream(data)

    def locate_batch(self, points, level: int) -> np.ndarray:
        """Vectorised :meth:`locate`: the uneven range splits are simulated
        level by level on whole arrays (one numpy pass per level instead of
        one Python loop per item)."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        values = np.asarray(points).astype(np.int64)
        if values.ndim != 1:
            raise ValueError(f"expected a 1-d array of items, got shape {values.shape}")
        if values.size and (np.min(values) < 0 or np.max(values) >= self.size):
            raise ValueError(f"some items lie outside the universe of size {self.size}")
        low = np.zeros(values.shape[0], dtype=np.int64)
        high = np.full(values.shape[0], self.size - 1, dtype=np.int64)
        bits = np.empty((values.shape[0], level), dtype=np.uint8)
        for step in range(level):
            # Single-item cells descend left by convention, bounds unchanged.
            live = low < high
            mid = (low + high) // 2
            go_right = live & (values > mid)
            bits[:, step] = go_right
            high = np.where(live & ~go_right, mid, high)
            low = np.where(go_right, mid + 1, low)
        return bits

    def sample_cell(self, theta: Cell, rng: np.random.Generator) -> int:
        """Uniform random item within the cell's range."""
        low, high = self.cell_range(theta)
        return int(rng.integers(low, high + 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"DiscreteDomain(size={self.size})"
