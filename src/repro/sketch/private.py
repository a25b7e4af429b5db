"""Private (oblivious-noise) sketch release, Section 3.4 of the paper.

Sketches are linear maps, so on neighbouring inputs a sketch differs by the
sketch of a single unit vector: one bucket per row changes by one, giving L1
sensitivity equal to the number of rows ``j``.  Adding
``Laplace(j / epsilon)`` noise independently to every cell therefore yields an
epsilon-differentially private release of the whole table, and every query
answered from the noisy table is private by post-processing.

PrivHP adds the noise *at initialisation* (Algorithm 1, line 8), which is
equivalent to adding it at release time because addition commutes; doing it up
front keeps GrowPartition purely deterministic post-processing.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.countmin import CountMinSketch

__all__ = ["PrivateCountMinSketch"]


class PrivateCountMinSketch:
    """Count-Min sketch with oblivious Laplace noise (the paper's choice).

    With ``apply_noise=False`` the sketch starts from a *raw* (non-private)
    table -- the shard mode of the batched ingestion API.  Raw shards can be
    :meth:`merge`-d linearly and the single oblivious noise matrix is added
    later via :meth:`apply_noise_now`, which keeps the privacy accounting at
    exactly one noise injection per released table.

    >>> shard = PrivateCountMinSketch(width=64, depth=4, epsilon=1.0, seed=0,
    ...                               apply_noise=False)
    >>> shard.update_batch(np.array([5], dtype=np.uint64), np.array([10.0]))
    >>> shard.query(5)   # a raw shard holds exact sums
    10.0
    >>> shard.apply_noise_now(np.random.default_rng(1))
    >>> shard.noise_applied, shard.noise_scale   # Laplace(depth / epsilon)
    (True, 4.0)
    """

    def __init__(
        self,
        width: int,
        depth: int,
        epsilon: float,
        seed: int | None = None,
        rng: np.random.Generator | int | None = None,
        apply_noise: bool = True,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self._sketch = CountMinSketch(width=width, depth=depth, seed=seed)
        self.epsilon = float(epsilon)
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._noise_applied = False
        if apply_noise:
            self.apply_noise_now()

    def apply_noise_now(self, rng: np.random.Generator | None = None) -> None:
        """Draw and add the ``Laplace(depth/epsilon)`` matrix (exactly once)."""
        if self._noise_applied:
            raise RuntimeError("oblivious noise has already been applied to this sketch")
        generator = rng if rng is not None else self._rng
        scale = self._sketch.depth / self.epsilon
        noise = generator.laplace(0.0, scale, size=(self._sketch.depth, self._sketch.width))
        self._sketch.add_noise_matrix(noise)
        self._noise_applied = True

    # Delegate the sketch interface -------------------------------------------------
    def update(self, key, count: float = 1.0) -> None:
        """Add an item to the underlying sketch (stream-side, pre-release)."""
        self._sketch.update(key, count)

    def update_many(self, keys, counts=None) -> None:
        """Bulk update of the underlying sketch."""
        self._sketch.update_many(keys, counts)

    def update_batch(self, keys, counts) -> None:
        """Aggregated vectorised update (see :meth:`CountMinSketch.update_batch`)."""
        self._sketch.update_batch(keys, counts)

    def query(self, key) -> float:
        """Noisy frequency estimate (private by post-processing)."""
        return self._sketch.query(key)

    def query_many(self, keys) -> np.ndarray:
        """Vector of noisy frequency estimates."""
        return self._sketch.query_many(keys)

    @property
    def width(self) -> int:
        """Buckets per row of the wrapped sketch."""
        return self._sketch.width

    @property
    def depth(self) -> int:
        """Rows of the wrapped sketch (equals the L1 sensitivity)."""
        return self._sketch.depth

    @property
    def noise_applied(self) -> bool:
        """True once the oblivious noise matrix has been added."""
        return self._noise_applied

    @property
    def seed(self):
        """Hash-family seed of the wrapped sketch."""
        return self._sketch.seed

    @property
    def total(self) -> float:
        """Total mass added to the wrapped sketch (noise excluded)."""
        return self._sketch.total

    @property
    def updates(self) -> int:
        """Number of update operations recorded by the wrapped sketch."""
        return self._sketch.updates

    @property
    def sensitivity(self) -> float:
        """L1 sensitivity of the sketch table on neighbouring streams."""
        return float(self._sketch.depth)

    @property
    def noise_scale(self) -> float:
        """Scale of the per-cell Laplace noise, ``depth / epsilon``."""
        return self._sketch.depth / self.epsilon

    def memory_words(self) -> int:
        """Words used by the sketch table."""
        return self._sketch.memory_words()

    @property
    def table(self) -> np.ndarray:
        """Copy of the (noisy) counter matrix."""
        return self._sketch.table

    def error_bound(self, tail_norm: float, total_norm: float) -> float:
        """Lemma 4 error plus the expected noise magnitude at the minimum."""
        sketch_error = self._sketch.error_bound(tail_norm, total_norm)
        noise_error = self.noise_scale
        return sketch_error + noise_error

    def merge(self, other: "PrivateCountMinSketch") -> "PrivateCountMinSketch":
        """Linear merge of two shard sketches built with identical parameters.

        At most one operand may already carry its oblivious noise -- merging
        two noisy tables would double the injected noise while the privacy
        ledger only accounts for one release.
        """
        if not isinstance(other, PrivateCountMinSketch):
            raise TypeError("can only merge with another PrivateCountMinSketch")
        if (self.width, self.depth, self.seed, self.epsilon) != (
            other.width,
            other.depth,
            other.seed,
            other.epsilon,
        ):
            raise ValueError("sketches must share width, depth, seed and epsilon to merge")
        if self._noise_applied and other._noise_applied:
            raise ValueError("cannot merge two sketches that both carry oblivious noise")
        merged = PrivateCountMinSketch(
            width=self.width,
            depth=self.depth,
            epsilon=self.epsilon,
            seed=self.seed,
            rng=self._rng,
            apply_noise=False,
        )
        merged._sketch.load_state(
            self._sketch.table + other._sketch.table,
            total=self.total + other.total,
            updates=self.updates + other.updates,
        )
        merged._noise_applied = self._noise_applied or other._noise_applied
        return merged

    def load_state(self, table: np.ndarray, total: float, updates: int, noise_applied: bool) -> None:
        """Overwrite the table state (checkpoint restore)."""
        self._sketch.load_state(table, total=total, updates=updates)
        self._noise_applied = bool(noise_applied)
