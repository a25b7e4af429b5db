"""Smooth: perturbed trigonometric-moment density estimation (Wang et al.).

The smooth-query mechanism of Wang et al. privately releases the low-order
moments of the data and answers any smooth query from them, achieving
``O(eps^{-1} n^{-K/(2d+K)})`` accuracy for queries with bounded order-``K``
partial derivatives while holding ``Theta(d n)`` memory (the raw data during
the single batch pass plus the moment vector).  As a synthetic data generator
we release noisy trigonometric (Fourier) moments up to order ``K`` per axis,
reconstruct a density on a grid, clamp it to be non-negative, renormalise and
sample.  This reproduces the qualitative Table-1 behaviour: accuracy clearly
worse than the hierarchical mechanisms and degrading with dimension.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.baselines.base import SyntheticDataMethod
from repro.domain.base import Domain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval

__all__ = ["SmoothMethod", "GridDensitySampler"]


class GridDensitySampler:
    """Samples from a non-negative density tabulated on a regular grid over [0,1]^d."""

    def __init__(
        self,
        density: np.ndarray,
        rng: np.random.Generator,
        scalar_output: bool,
    ) -> None:
        density = np.asarray(density, dtype=float)
        density = np.clip(density, 0.0, None)
        total = density.sum()
        if total <= 0:
            # Degenerate reconstruction: fall back to the uniform density.
            density = np.ones_like(density)
            total = density.sum()
        self._probabilities = (density / total).ravel()
        self._shape = density.shape
        self._rng = rng
        self._scalar_output = scalar_output

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` points: pick a grid cell, then jitter uniformly inside it."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        flat_indices = self._rng.choice(
            self._probabilities.size, size=size, p=self._probabilities
        )
        cells = np.column_stack(np.unravel_index(flat_indices, self._shape)).astype(float)
        widths = 1.0 / np.array(self._shape, dtype=float)
        points = (cells + self._rng.random(cells.shape)) * widths
        if self._scalar_output:
            return points.ravel()
        return points

    def memory_words(self) -> int:
        """Words used by the tabulated density."""
        return int(self._probabilities.size)


class SmoothMethod(SyntheticDataMethod):
    """Noisy trigonometric-moment density estimator on ``[0,1]^d``.

    Privacy: each of the ``K`` moments releases the means of ``cos`` and
    ``sin`` over the ``n`` items, each at ``Laplace(2 / (n epsilon'))`` with
    ``epsilon' = epsilon / (2K)``, so the ``2K`` released numbers share
    epsilon evenly.  A mean of values in ``[-1, 1]`` moves by at most
    ``2/n`` when one item changes, so the ``2/n`` scale covers one changed
    item as well as one added or removed item: here a changed item costs
    epsilon, not the 2 epsilon of the other baselines.
    """

    name = "Smooth"

    def __init__(
        self,
        domain: Domain,
        epsilon: float,
        order: int = 8,
        grid_size: int = 64,
    ) -> None:
        if not isinstance(domain, (Hypercube, UnitInterval)):
            raise TypeError("SmoothMethod only supports [0,1]^d domains")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if order < 1:
            raise ValueError(f"order must be at least 1, got {order}")
        if grid_size < 2:
            raise ValueError(f"grid_size must be at least 2, got {grid_size}")
        self.domain = domain
        self._epsilon = float(epsilon)
        self.order = int(order)
        self.grid_size = int(grid_size)
        self.dimension = 1 if isinstance(domain, UnitInterval) else domain.dimension
        self._sampler: GridDensitySampler | None = None
        self._num_moments = 0

    def _frequency_vectors(self) -> list[tuple[int, ...]]:
        """All non-zero frequency vectors with per-axis order at most ``order``."""
        axis_range = range(-self.order, self.order + 1)
        vectors = [
            vec
            for vec in itertools.product(axis_range, repeat=self.dimension)
            if any(component != 0 for component in vec)
        ]
        # Keep one representative per conjugate pair (the other is implied).
        kept = []
        seen: set[tuple[int, ...]] = set()
        for vec in vectors:
            negated = tuple(-component for component in vec)
            if negated in seen:
                continue
            seen.add(vec)
            kept.append(vec)
        return kept

    def fit(self, data, rng: np.random.Generator | int | None = None) -> GridDensitySampler:
        points = np.asarray(list(data), dtype=float)
        if points.size == 0:
            raise ValueError("data must be non-empty")
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if points.shape[1] != self.dimension:
            raise ValueError(
                f"expected points of dimension {self.dimension}, got {points.shape[1]}"
            )
        generator = np.random.default_rng(rng)
        n = points.shape[0]

        frequencies = self._frequency_vectors()
        self._num_moments = len(frequencies)
        # Each empirical moment has sensitivity 2/n (real and imaginary parts
        # each bounded by 1/n per sample under add/remove, 2/n under swap);
        # the budget is split evenly over all released real numbers.
        per_value_epsilon = self._epsilon / max(2 * self._num_moments, 1)
        noise_scale = 2.0 / (n * per_value_epsilon)

        moments: dict[tuple[int, ...], complex] = {}
        for vec in frequencies:
            phases = 2.0 * np.pi * points @ np.asarray(vec, dtype=float)
            real = float(np.mean(np.cos(phases))) + generator.laplace(0.0, noise_scale)
            imag = float(np.mean(np.sin(phases))) + generator.laplace(0.0, noise_scale)
            moments[vec] = complex(real, imag)

        # Reconstruct the density on a regular grid from the noisy moments.
        axes = [np.linspace(0.0, 1.0, self.grid_size, endpoint=False) + 0.5 / self.grid_size
                for _ in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        density = np.ones(mesh[0].shape, dtype=float)
        for vec, moment in moments.items():
            phase = np.zeros(mesh[0].shape)
            for axis, component in enumerate(vec):
                phase += component * mesh[axis]
            phase *= 2.0 * np.pi
            density += 2.0 * (moment.real * np.cos(phase) + moment.imag * np.sin(phase))

        sampler = GridDensitySampler(
            density,
            rng=generator,
            scalar_output=isinstance(self.domain, UnitInterval),
        )
        self._sampler = sampler
        return sampler

    def memory_words(self) -> int:
        if self._sampler is None:
            return 0
        # Released state: the moment vector plus the tabulated density.
        return 2 * self._num_moments + self._sampler.memory_words()
