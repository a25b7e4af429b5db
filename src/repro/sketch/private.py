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


class PrivateCountMinSketch(CountMinSketch):
    """Count-Min sketch with oblivious Laplace noise (the paper's choice).

    Writes and reads are the plain sketch's: :meth:`update_batch` and
    :meth:`query_many` over the canonical keys of
    :func:`repro.core.base.cell_keys`.  This class adds the privacy parts:
    ``epsilon``, the single noise draw, its sensitivity and scale, and the
    merge rule for shards.

    With ``apply_noise=False`` the sketch starts from a *raw* (non-private)
    table -- the shard mode of the batched ingestion API.  Raw shards can be
    :meth:`merge`-d linearly and the single oblivious noise matrix is added
    later via :meth:`apply_noise_now`, which keeps the privacy accounting at
    exactly one noise injection per released table.

    >>> from repro.core.base import cell_keys
    >>> shard = PrivateCountMinSketch(width=64, depth=4, epsilon=1.0, seed=0,
    ...                               apply_noise=False)
    >>> keys = cell_keys(2, np.array([1]))
    >>> shard.update_batch(keys, np.array([10.0]))
    >>> shard.query_many(keys).tolist()   # a raw shard holds exact sums
    [10.0]
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
        super().__init__(width=width, depth=depth, seed=seed)
        self.epsilon = float(epsilon)
        self._rng = np.random.default_rng(rng)
        self._noise_applied = False
        if apply_noise:
            self.apply_noise_now()

    def apply_noise_now(self, rng: np.random.Generator | None = None) -> None:
        """Draw and add the ``Laplace(depth/epsilon)`` matrix (exactly once)."""
        if self._noise_applied:
            raise RuntimeError("oblivious noise has already been applied to this sketch")
        generator = rng if rng is not None else self._rng
        self._table += generator.laplace(0.0, self.noise_scale, size=self._table.shape)
        self._noise_applied = True

    @property
    def noise_applied(self) -> bool:
        """True once the oblivious noise matrix has been added."""
        return self._noise_applied

    @property
    def sensitivity(self) -> float:
        """L1 sensitivity of the sketch table on neighbouring streams."""
        return float(self.depth)

    @property
    def noise_scale(self) -> float:
        """Scale of the per-cell Laplace noise, ``depth / epsilon``."""
        return self.depth / self.epsilon

    def error_bound(self, tail_norm: float, total_norm: float) -> float:
        """Lemma 4 error plus the expected noise magnitude at the minimum."""
        return super().error_bound(tail_norm, total_norm) + self.noise_scale

    def merge(self, other: "PrivateCountMinSketch") -> "PrivateCountMinSketch":
        """Linear merge of two shard sketches built with identical parameters.

        At most one operand may already carry its oblivious noise -- merging
        two noisy tables would double the injected noise while the privacy
        ledger only accounts for one release.
        """
        if type(other) is not type(self):
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
        merged.load_state(
            self._table + other._table,
            total=self.total + other.total,
            updates=self.updates + other.updates,
            noise_applied=self._noise_applied or other._noise_applied,
        )
        return merged

    def load_state(self, table: np.ndarray, total: float, updates: int, noise_applied: bool) -> None:
        """Overwrite the table state (checkpoint restore)."""
        super().load_state(table, total=total, updates=updates)
        self._noise_applied = bool(noise_applied)
