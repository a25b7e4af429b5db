"""The IPv4 address space as a metric domain.

The paper motivates general metric-space support with "geographic coordinates
or the IPv4 address space" (Section 1.2).  Addresses are 32-bit integers; the
natural hierarchical decomposition splits on the address bits from the most
significant downwards, so a level-``l`` cell is exactly a ``/l`` CIDR prefix.
The metric is the absolute difference between addresses normalised by 2^32,
which makes the whole space have diameter 1 and a ``/l`` prefix have diameter
``2^{-l}`` -- the same geometry as the unit interval, so the d=1 theory
applies verbatim.
"""

from __future__ import annotations

import numpy as np

from repro.domain.base import Cell, Domain, coerce_integer_stream, validate_cell

__all__ = ["IPv4Domain"]

ADDRESS_BITS = 32
ADDRESS_SPACE = 1 << ADDRESS_BITS


class IPv4Domain(Domain):
    """The 32-bit IPv4 address space with prefix-based decomposition."""

    max_depth = ADDRESS_BITS

    # ------------------------------------------------------------------ #
    # address helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def parse(address: str) -> int:
        """Convert dotted-quad notation to a 32-bit integer."""
        parts = address.split(".")
        if len(parts) != 4:
            raise ValueError(f"not a dotted-quad IPv4 address: {address!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"octet {octet} out of range in {address!r}")
            value = (value << 8) | octet
        return value

    @staticmethod
    def format(address: int) -> str:
        """Convert a 32-bit integer to dotted-quad notation."""
        if not 0 <= address < ADDRESS_SPACE:
            raise ValueError(f"address {address} outside the IPv4 space")
        return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    @staticmethod
    def _as_int(point) -> int:
        if isinstance(point, str):
            return IPv4Domain.parse(point)
        value = int(point)
        if not 0 <= value < ADDRESS_SPACE:
            raise ValueError(f"address {value} outside the IPv4 space")
        return value

    # ------------------------------------------------------------------ #
    # Domain interface
    # ------------------------------------------------------------------ #
    def diameter(self) -> float:
        """Normalised diameter of the whole address space."""
        return 1.0

    def distance(self, point_a, point_b) -> float:
        """Absolute address difference normalised by 2^32."""
        a = self._as_int(point_a)
        b = self._as_int(point_b)
        return abs(a - b) / ADDRESS_SPACE

    def cell_diameter(self, theta: Cell) -> float:
        """Diameter of a ``/l`` prefix: ``2^{-l}`` of the space."""
        return 2.0 ** (-len(validate_cell(theta)))

    def level_max_diameter(self, level: int) -> float:
        """``gamma_l = 2^{-l}`` for prefixes of length ``l``."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return 2.0 ** (-level)

    def contains(self, point) -> bool:
        """Whether the point is a valid IPv4 address (int or dotted quad)."""
        try:
            self._as_int(point)
        except (TypeError, ValueError):
            return False
        return True

    def locate(self, point, level: int) -> Cell:
        """The ``/level`` prefix bits of the address."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        if level > ADDRESS_BITS:
            raise ValueError(f"level {level} exceeds the {ADDRESS_BITS}-bit address length")
        address = self._as_int(point)
        return tuple((address >> (ADDRESS_BITS - 1 - bit)) & 1 for bit in range(level))

    def coerce_stream(self, data):
        """Cast float arrays (e.g. addresses read from a CSV) back to int64."""
        return coerce_integer_stream(data)

    def locate_batch(self, points, level: int) -> np.ndarray:
        """Vectorised :meth:`locate` for integer address arrays.

        Dotted-quad strings (or mixed object arrays) fall back to the
        per-item path, which parses each address individually.
        """
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        if level > ADDRESS_BITS:
            raise ValueError(f"level {level} exceeds the {ADDRESS_BITS}-bit address length")
        addresses = np.asarray(points)
        if addresses.dtype.kind not in "iu":
            return super().locate_batch(points, level)
        addresses = addresses.astype(np.int64)
        if addresses.size and (np.min(addresses) < 0 or np.max(addresses) >= ADDRESS_SPACE):
            raise ValueError("some addresses lie outside the IPv4 space")
        shifts = (ADDRESS_BITS - 1 - np.arange(level, dtype=np.int64))
        return ((addresses[:, None] >> shifts) & 1).astype(np.uint8)

    def cell_range(self, theta: Cell) -> tuple[int, int]:
        """Inclusive integer range ``[low, high]`` covered by a prefix cell."""
        theta = validate_cell(theta)
        prefix = 0
        for bit in theta:
            prefix = (prefix << 1) | bit
        remaining = ADDRESS_BITS - len(theta)
        low = prefix << remaining
        high = low + (1 << remaining) - 1
        return low, high

    def cell_bounds_batch(self, level, codes) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cell_range`: ``(n,)`` int64 inclusive ranges, by shifts."""
        levels, codes = self._cell_codes(level, codes, ADDRESS_BITS)
        remaining = ADDRESS_BITS - levels
        low = codes << remaining
        return low, low + (np.int64(1) << remaining) - 1

    def sample_cell(self, theta: Cell, rng: np.random.Generator) -> int:
        """Uniform random address within a prefix cell."""
        low, high = self.cell_range(theta)
        return int(rng.integers(low, high + 1))

    def cidr(self, theta: Cell) -> str:
        """Human-readable CIDR string for a prefix cell (e.g. ``10.0.0.0/8``)."""
        low, _ = self.cell_range(theta)
        return f"{self.format(low)}/{len(theta)}"

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "IPv4Domain()"
