"""Abstract metric-space domain with a fixed binary hierarchical decomposition.

Cells are indexed by bit tuples ``theta in {0,1}^l``; the empty tuple is the
whole space.  The decomposition is fixed a priori (Section 4.1 of the paper):
the same split rule is applied regardless of the data, which is what makes the
partition-tree counters well-defined linear statistics of the stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

__all__ = ["Cell", "Domain", "coerce_integer_stream", "dyadic_index"]


def coerce_integer_stream(data):
    """Cast float arrays (e.g. values read from a CSV) back to int64.

    The shared :meth:`Domain.coerce_stream` implementation for
    integer-valued domains.
    """
    data = np.asarray(data)
    if np.issubdtype(data.dtype, np.floating):
        return data.astype(np.int64)
    return data

Cell = tuple[int, ...]


def dyadic_index(value: float, splits: int) -> int:
    """``floor(value * 2^splits)`` clamped to ``[0, 2^splits - 1]``, computed exactly.

    The index of the dyadic sub-interval of ``[0, 1]`` at ``splits`` halvings
    that contains ``value`` -- what :meth:`Domain.locate_batch` computes in
    int64 -- at any depth.  Halving ``[lower, upper]`` in floats instead
    would round its midpoints from the 53rd halving on.
    """
    numerator, denominator = float(value).as_integer_ratio()
    return min(max((numerator << splits) // denominator, 0), (1 << splits) - 1)


def validate_cell(theta: Cell) -> Cell:
    """Check that ``theta`` is a tuple of bits, returning it unchanged."""
    theta = tuple(int(bit) for bit in theta)
    for bit in theta:
        if bit not in (0, 1):
            raise ValueError(f"cell index must consist of bits, got {theta}")
    return theta


class Domain(ABC):
    """A metric space plus an a-priori binary hierarchical decomposition.

    Subclasses define the geometry; all tree-growing and sampling code in
    :mod:`repro.core` is written against this interface only (the sampler
    adds just the geographic domain's map back from its unit square), which
    is what lets PrivHP run unchanged on intervals, hypercubes, IP address
    spaces and geographic rectangles.
    """

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @abstractmethod
    def diameter(self) -> float:
        """Diameter of the whole space under the domain's metric."""

    @abstractmethod
    def cell_diameter(self, theta: Cell) -> float:
        """Diameter of the cell ``Omega_theta``."""

    @abstractmethod
    def distance(self, point_a, point_b) -> float:
        """Metric distance between two points of the domain."""

    @abstractmethod
    def locate(self, point, level: int) -> Cell:
        """The unique ``theta in {0,1}^level`` whose cell contains ``point``."""

    @abstractmethod
    def cell_bounds_batch(self, level, codes) -> tuple[np.ndarray, np.ndarray]:
        """The geometry of many cells at once, as ``(low, high)`` arrays.

        ``codes`` is a 1-d array of cell codes (the :meth:`pack_paths` code
        of each bit tuple) and ``level`` their level, one for all or one per
        code.  Row ``i`` equals the domain's scalar ``cell_bounds`` or
        ``cell_range`` of cell ``i`` bit for bit: float endpoints, per-axis
        float corners or inclusive int64 ranges.
        """

    @abstractmethod
    def sample_cell(self, theta: Cell, rng: np.random.Generator):
        """A uniform random point from the cell ``Omega_theta``."""

    @abstractmethod
    def contains(self, point) -> bool:
        """Whether ``point`` lies in the domain."""

    # ------------------------------------------------------------------ #
    # derived quantities used by the analysis and the budget allocator
    # ------------------------------------------------------------------ #
    def level_max_diameter(self, level: int) -> float:
        """``gamma_l``: the maximum cell diameter at ``level``.

        The default implementation assumes all cells at a level share the same
        diameter (true for every concrete domain here) and inspects the
        all-zeros cell.
        """
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return self.cell_diameter((0,) * level)

    def level_total_diameter(self, level: int) -> float:
        """``Gamma_l``: the sum of cell diameters across level ``level``."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return (2.0**level) * self.level_max_diameter(level)

    # ------------------------------------------------------------------ #
    # bulk helpers shared by the algorithms
    # ------------------------------------------------------------------ #
    def coerce_stream(self, data):
        """Adapt a raw array (e.g. float columns from a CSV) to the domain's
        native item representation.

        The default is the identity; integer-valued domains override it
        (typically with :func:`coerce_integer_stream`), so stream loaders
        (the CLI, harnesses) can stay domain-agnostic.
        """
        return data

    def locate_batch(self, points, level: int) -> np.ndarray:
        """Locate many points at once, returning a ``(n, level)`` bit matrix.

        Row ``i`` holds the bits of ``self.locate(points[i], level)``; taking
        the first ``l`` columns of a row therefore gives the level-``l``
        ancestor cell, which is what lets the batched ingestion path derive
        every prefix from one location pass.  The default implementation
        simply loops over :meth:`locate`; concrete domains override it with a
        fully vectorised computation that produces identical bits.
        """
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        points = points if hasattr(points, "__len__") else list(points)
        bits = np.empty((len(points), level), dtype=np.uint8)
        for index in range(len(points)):
            bits[index, :] = self.locate(points[index], level)
        return bits

    @staticmethod
    def _interleave_unit_bits(unit: np.ndarray, level: int) -> np.ndarray:
        """Bit-interleave per-axis dyadic expansions of unit-cube coordinates.

        Coordinate ``i`` of an ``(n, d)`` array is split ``s_i`` times within
        the first ``level`` positions; its dyadic index is
        ``floor(x_i * 2^{s_i})`` (a coordinate of exactly 1 goes to the last
        cell), and bit ``t`` of that index lands at position ``i + t*d``.
        The caller checks that every coordinate lies in ``[0, 1]``.  Levels
        past 62, whose cell codes :meth:`pack_paths` cannot pack, raise
        ``ValueError``.
        """
        if level > 62:
            raise ValueError(f"cannot locate a batch deeper than 62 levels, got {level}")
        count, dimension = unit.shape
        bits = np.empty((count, level), dtype=np.uint8)
        for axis in range(dimension):
            positions = range(axis, level, dimension)
            splits = len(positions)
            if splits == 0:
                continue
            codes = np.clip(
                (unit[:, axis] * (1 << splits)).astype(np.int64), 0, (1 << splits) - 1
            )
            for order, position in enumerate(positions):
                bits[:, position] = (codes >> (splits - 1 - order)) & 1
        return bits

    @staticmethod
    def _cell_codes(level, codes, max_level: int = 62) -> tuple[np.ndarray, np.ndarray]:
        """Validated int64 ``(levels, codes)`` arrays of equal shape for
        :meth:`cell_bounds_batch`; raises ``ValueError`` on a level outside
        ``[0, max_level]`` or a code outside ``[0, 2^level)``."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError(f"expected a 1-d array of cell codes, got shape {codes.shape}")
        levels = np.broadcast_to(np.asarray(level, dtype=np.int64), codes.shape)
        if levels.size and (levels.min() < 0 or levels.max() > max_level):
            raise ValueError(f"cell levels must lie in [0, {max_level}]")
        if codes.size and (codes.min() < 0 or np.any(codes >> levels)):
            raise ValueError("cell codes must lie in [0, 2^level)")
        return levels, codes

    @staticmethod
    def _cell_bits(
        levels: np.ndarray, codes: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(position, left, right)`` for each bit position of many cells.

        The masks say which cells take the lower (bit 0) or the upper (bit 1)
        half at ``position``; a cell shallower than ``position`` takes
        neither.  This is the scalar ``for bit in theta`` loop, run on whole
        arrays one position at a time.
        """
        aligned = codes << (62 - levels)
        for position in range(int(levels.max(initial=0))):
            active = levels > position
            upper = ((aligned >> (61 - position)) & 1).astype(bool)
            yield position, active & ~upper, active & upper

    def _halving_bounds(self, level, codes, dimension: int) -> tuple[np.ndarray, np.ndarray]:
        """``(n, dimension)`` corners of cells of the unit cube whose bit
        ``p`` halves axis ``p mod dimension``, with the scalar loop's
        ``mid = 0.5 * (lower + upper)`` at every position, so the rounding
        from the 54th halving on is the loop's too."""
        levels, codes = self._cell_codes(level, codes)
        low = np.zeros((codes.size, dimension))
        high = np.ones((codes.size, dimension))
        for position, left, right in self._cell_bits(levels, codes):
            axis = position % dimension
            mid = 0.5 * (low[:, axis] + high[:, axis])
            np.copyto(high[:, axis], mid, where=left)
            np.copyto(low[:, axis], mid, where=right)
        return low, high

    @staticmethod
    def pack_paths(bits: np.ndarray) -> np.ndarray:
        """Pack a ``(n, level)`` bit matrix into integer cell codes.

        The code of row ``b_0 .. b_{l-1}`` is ``sum b_i 2^{l-1-i}``, i.e. the
        index of the cell among the ``2^l`` cells of its level.  Requires
        ``level <= 62`` so codes fit in int64, the depth bound
        :class:`repro.core.config.PrivHPConfig` enforces.
        """
        level = bits.shape[1]
        if level > 62:
            raise ValueError(f"cannot pack paths deeper than 62 levels, got {level}")
        if level == 0:
            return np.zeros(bits.shape[0], dtype=np.int64)
        weights = (np.int64(1) << np.arange(level - 1, -1, -1, dtype=np.int64))
        return bits.astype(np.int64) @ weights

    def level_frequencies(self, data, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact subdomain frequencies ``C_l`` of a dataset at ``level``.

        Returns ``(codes, counts)``: the occupied cells' :meth:`pack_paths`
        codes in ascending order and the number of points in each, both
        int64, from one :meth:`locate_batch` pass.  Used by the evaluation
        metrics and the examples; PrivHP itself never calls this on the
        stream (it would require a second pass).
        """
        codes = self.pack_paths(self.locate_batch(data, level))
        cells, counts = np.unique(codes, return_counts=True)
        return cells, counts.astype(np.int64, copy=False)
