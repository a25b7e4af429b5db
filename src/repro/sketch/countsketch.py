"""Count-Sketch: the signed-hash sketch referenced alongside Count-Min.

The paper's related-work comparison relies on hashing-based private sketches
(Pagh & Thorup; Zhao et al.) of which Count-Sketch is the canonical unbiased
member.  PrivHP's concrete results use Count-Min, but Count-Sketch is provided
as a drop-in alternative so the sketch-ablation benchmark can compare the two
in the hierarchy.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import HashFamily

__all__ = ["CountSketch"]


class CountSketch:
    """Count-Sketch with median-of-rows estimation.

    Unlike Count-Min, estimates are unbiased but may be negative; callers that
    need non-negative frequencies (such as the partition grower) clamp at
    query time.
    """

    def __init__(self, width: int, depth: int, seed: int | None = None) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = seed
        self._hashes = HashFamily(depth=self.depth, width=self.width, seed=seed)
        self._table = np.zeros((self.depth, self.width), dtype=float)
        self._total = 0.0
        self._updates = 0

    def update(self, key, count: float = 1.0) -> None:
        """Add ``sign(key) * count`` to one bucket per row."""
        for row in range(self.depth):
            bucket = self._hashes.bucket(row, key)
            sign = self._hashes.sign(row, key)
            self._table[row, bucket] += sign * count
        self._total += count
        self._updates += 1

    def query(self, key) -> float:
        """Median of the signed row estimates."""
        estimates = [
            self._hashes.sign(row, key) * self._table[row, self._hashes.bucket(row, key)]
            for row in range(self.depth)
        ]
        return float(np.median(estimates))

    def update_many(self, keys, counts=None) -> None:
        """Update with an iterable of keys (optionally weighted)."""
        if counts is None:
            for key in keys:
                self.update(key)
        else:
            for key, count in zip(keys, counts):
                self.update(key, count)

    def update_batch(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Aggregated vectorised update: canonical integer keys with weights.

        ``keys`` must be a 1-d integer array of canonical keys (see
        :func:`repro.sketch.hashing.canonical_key`) in ``[0, 2^63)``; each
        row receives ``sign(key) * count``, landing in exactly the same
        buckets with the same signs as per-item updates.  ``counts`` are
        aggregated multiplicities, and the ``updates`` counter advances by
        their sum so batched and per-item ingestion of the same stream leave
        identical sketch state.
        """
        counts = np.asarray(counts, dtype=float)
        if np.shape(keys) != counts.shape or counts.ndim != 1:
            raise ValueError("keys and counts must be 1-d arrays of equal length")
        blocks = zip(self._hashes.cell_blocks(keys), self._hashes.sign_blocks(keys))
        for (rows, cells), (_, signs) in blocks:
            signs *= counts
            np.add.at(self._table[rows].reshape(-1), cells.ravel(), signs.ravel())
        self._total += float(counts.sum())
        self._updates += int(round(float(counts.sum())))

    def query_many(self, keys) -> np.ndarray:
        """Vector of point estimates for an iterable of keys."""
        return np.array([self.query(key) for key in keys], dtype=float)

    @property
    def table(self) -> np.ndarray:
        """A copy of the counter matrix."""
        return self._table.copy()

    @property
    def total(self) -> float:
        """Total (absolute) mass added."""
        return self._total

    @property
    def updates(self) -> int:
        """Number of update operations performed."""
        return self._updates

    def add_noise_matrix(self, noise: np.ndarray) -> None:
        """Add a pre-sampled noise matrix (oblivious private release)."""
        noise = np.asarray(noise, dtype=float)
        if noise.shape != self._table.shape:
            raise ValueError(
                f"noise shape {noise.shape} does not match sketch shape {self._table.shape}"
            )
        self._table += noise

    def memory_words(self) -> int:
        """Number of machine words occupied by the counter table."""
        return int(self._table.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"CountSketch(width={self.width}, depth={self.depth}, "
            f"total={self._total:.1f}, updates={self._updates})"
        )
