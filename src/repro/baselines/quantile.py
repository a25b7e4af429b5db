"""Bounded-space DP quantile generator (Alabi, Ben-Eliezer & Chaturvedi style).

Section 2.2 of the paper notes that a private quantile estimator over a
*finite, ordered* domain can be turned into a synthetic data generator: draw
``u ~ Uniform[0,1]`` and output the ``u``-quantile.  The bounded-space
construction summarises the stream on a fixed grid of ``bins`` cells, releases
noisy cumulative counts, and inverts the resulting monotone CDF.  Memory is
``O(bins)`` regardless of the stream length, so this is the natural
small-memory competitor on one-dimensional ordered domains -- and its
inability to extend to general metric spaces (it has no notion of cells or
diameters beyond the total order) is precisely the limitation PrivHP lifts.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SyntheticDataMethod
from repro.domain.base import Domain
from repro.domain.discrete import DiscreteDomain
from repro.domain.interval import UnitInterval

__all__ = ["QuantileMethod", "QuantileSampler"]


class QuantileSampler:
    """Inverse-CDF sampler over a fixed grid of bins on an ordered domain."""

    def __init__(
        self,
        bin_edges: np.ndarray,
        cumulative: np.ndarray,
        rng: np.random.Generator,
        discrete_size: int | None = None,
    ) -> None:
        self._edges = np.asarray(bin_edges, dtype=float)
        self._cumulative = np.asarray(cumulative, dtype=float)
        self._rng = rng
        self._discrete_size = discrete_size

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` points via inverse-CDF sampling with in-bin jitter."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        uniforms = self._rng.random(size)
        bin_indices = np.searchsorted(self._cumulative, uniforms, side="left")
        bin_indices = np.clip(bin_indices, 0, len(self._edges) - 2)
        lower = self._edges[bin_indices]
        upper = self._edges[bin_indices + 1]
        points = lower + (upper - lower) * self._rng.random(size)
        if self._discrete_size is not None:
            points = np.clip(np.floor(points), 0, self._discrete_size - 1).astype(int)
        return points

    def quantile(self, probability: float) -> float:
        """The noisy quantile function at ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must lie in [0,1], got {probability}")
        index = int(np.searchsorted(self._cumulative, probability, side="left"))
        index = min(index, len(self._edges) - 2)
        return float(self._edges[index + 1])

    def memory_words(self) -> int:
        """Words used: the edges plus the cumulative counts."""
        return int(self._edges.size + self._cumulative.size)


class QuantileMethod(SyntheticDataMethod):
    """Noisy-CDF inverse sampling on a bounded number of bins (d=1 only).

    Privacy: epsilon-DP for datasets that differ by one added or removed
    item: one item moves one bin count by 1, and every bin gets
    ``Laplace(1/epsilon)``.  When one item's value changes instead, two
    bins move and the same noise gives 2 epsilon.
    """

    name = "DP-Quantile"

    def __init__(self, domain: Domain, epsilon: float, bins: int = 256) -> None:
        if not isinstance(domain, (UnitInterval, DiscreteDomain)):
            raise TypeError("QuantileMethod requires a one-dimensional ordered domain")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if bins < 2:
            raise ValueError(f"bins must be at least 2, got {bins}")
        self.domain = domain
        self._epsilon = float(epsilon)
        self.bins = int(bins)
        self._sampler: QuantileSampler | None = None

    def fit(self, data, rng: np.random.Generator | int | None = None) -> QuantileSampler:
        values = np.asarray(list(data), dtype=float)
        if values.size == 0:
            raise ValueError("data must be non-empty")
        generator = np.random.default_rng(rng)

        if isinstance(self.domain, DiscreteDomain):
            upper = float(self.domain.size)
            discrete_size = self.domain.size
        else:
            upper = 1.0
            discrete_size = None
        edges = np.linspace(0.0, upper, self.bins + 1)

        counts, _ = np.histogram(values, bins=edges)
        # One element changes exactly one bin count, so sensitivity 1 per bin
        # vector and Laplace(1/eps) noise suffices for the whole histogram.
        noisy = counts + generator.laplace(0.0, 1.0 / self._epsilon, size=counts.shape)
        noisy = np.clip(noisy, 0.0, None)
        total = noisy.sum()
        if total <= 0:
            noisy = np.ones_like(noisy)
            total = noisy.sum()
        cumulative = np.cumsum(noisy) / total

        sampler = QuantileSampler(edges, cumulative, generator, discrete_size=discrete_size)
        self._sampler = sampler
        return sampler

    def memory_words(self) -> int:
        if self._sampler is None:
            return 0
        return self._sampler.memory_words()
