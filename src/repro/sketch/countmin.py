"""Count-Min sketch (Cormode & Muthukrishnan) -- the paper's sketching primitive.

The sketch is a ``depth x width`` matrix of counters with one hash function
per row (Figure 1 of the paper).  Updates add the increment to one bucket per
row; queries take the minimum across rows, which upper-bounds the true count
when all updates are non-negative.  Lemma 4 bounds the expected error of a
width-``2w`` sketch by ``||tail_w(v)||_1 / w + 2^{-j+1} ||v||_1``, which is the
form that composes with the hierarchy pruning analysis.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import HashFamily

__all__ = ["CountMinSketch"]


class CountMinSketch:
    """A Count-Min sketch over arbitrary hashable keys.

    Parameters
    ----------
    width:
        Number of buckets per row.  The paper's analysis uses width ``2w``
        with ``w = k`` (the pruning parameter); callers pass the actual number
        of buckets.
    depth:
        Number of rows ``j``.  Larger depth drives the heavy-collision term
        ``2^{-j+1} ||v||_1`` towards zero.
    seed:
        Seed for the hash family; fixing it makes the sketch reproducible and
        allows two sketches built with the same seed to be merged.

    Examples
    --------
    Scalar updates take a cell's bit tuple; batched ones take its canonical
    key ``(1 << l) | code`` and land in the same buckets:

    >>> sketch = CountMinSketch(width=64, depth=4, seed=0)
    >>> sketch.update((0, 1), 3.0)
    >>> sketch.update_batch(np.array([(1 << 2) | 0b01], dtype=np.uint64), np.array([2.0]))
    >>> sketch.query((0, 1))
    5.0
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

    # ------------------------------------------------------------------ #
    # update / query
    # ------------------------------------------------------------------ #
    def update(self, key, count: float = 1.0) -> None:
        """Add ``count`` to ``key``'s bucket in every row."""
        for row in range(self.depth):
            self._table[row, self._hashes.bucket(row, key)] += count
        self._total += count
        self._updates += 1

    def query(self, key) -> float:
        """Point estimate: minimum bucket value across rows."""
        return float(
            min(
                self._table[row, self._hashes.bucket(row, key)]
                for row in range(self.depth)
            )
        )

    def __contains__(self, key) -> bool:
        """Membership is not tracked exactly; a zero estimate means 'absent'."""
        return self.query(key) > 0

    # ------------------------------------------------------------------ #
    # bulk helpers
    # ------------------------------------------------------------------ #
    def update_many(self, keys, counts=None) -> None:
        """Update the sketch with an iterable of keys (optionally weighted)."""
        if counts is None:
            for key in keys:
                self.update(key)
        else:
            for key, count in zip(keys, counts):
                self.update(key, count)

    def update_batch(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Aggregated vectorised update: canonical integer keys with weights.

        ``keys`` must be a 1-d integer array of canonical keys (see
        :func:`repro.sketch.hashing.canonical_key`) in ``[0, 2^63)``, or
        ``ValueError`` is raised; for a hierarchy cell at level ``l`` with
        in-level index ``c`` that is the packed value ``(1 << l) | c``, so the
        batch lands in exactly the same buckets as per-item tuple updates.
        Each block of rows from :meth:`HashFamily.cell_blocks` is one
        ``np.add.at`` over the flat table, so every bucket's adds arrive in
        key order, as they do from per-item updates.  ``counts`` are
        aggregated multiplicities, and the ``updates`` counter advances by
        their sum so batched and per-item ingestion of the same stream leave
        identical sketch state.
        """
        counts = np.asarray(counts, dtype=float)
        if np.shape(keys) != counts.shape or counts.ndim != 1:
            raise ValueError("keys and counts must be 1-d arrays of equal length")
        for rows, cells in self._hashes.cell_blocks(keys):
            np.add.at(self._table[rows].reshape(-1), cells.ravel(), np.tile(counts, len(cells)))
        self._total += float(counts.sum())
        self._updates += int(round(float(counts.sum())))

    def query_many(self, keys) -> np.ndarray:
        """Point estimates of canonical integer keys, as one array.

        ``keys`` are canonical integer keys below ``2^63``, as for
        :meth:`update_batch`; entry ``i`` equals ``query`` of key ``i``.
        """
        return self._hashes.min_over_rows(self._table, keys)

    # ------------------------------------------------------------------ #
    # state / composition
    # ------------------------------------------------------------------ #
    @property
    def table(self) -> np.ndarray:
        """A copy of the counter matrix (rows x buckets)."""
        return self._table.copy()

    @property
    def total(self) -> float:
        """Total mass added to the sketch."""
        return self._total

    @property
    def updates(self) -> int:
        """Number of update operations performed."""
        return self._updates

    def add_noise_matrix(self, noise: np.ndarray) -> None:
        """Add a pre-sampled noise matrix to the counters (oblivious release)."""
        noise = np.asarray(noise, dtype=float)
        if noise.shape != self._table.shape:
            raise ValueError(
                f"noise shape {noise.shape} does not match sketch shape {self._table.shape}"
            )
        self._table += noise

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Merge another sketch built with identical parameters and seed."""
        if not isinstance(other, CountMinSketch):
            raise TypeError("can only merge with another CountMinSketch")
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise ValueError("sketches must share width, depth and seed to merge")
        merged = CountMinSketch(self.width, self.depth, seed=self.seed)
        merged._table = self._table + other._table
        merged._total = self._total + other._total
        merged._updates = self._updates + other._updates
        return merged

    def load_state(self, table: np.ndarray, total: float, updates: int) -> None:
        """Overwrite the counter state (checkpoint restore); hashes stay seeded."""
        table = np.asarray(table, dtype=float)
        if table.shape != self._table.shape:
            raise ValueError(
                f"table shape {table.shape} does not match sketch shape {self._table.shape}"
            )
        self._table = table.copy()
        self._total = float(total)
        self._updates = int(updates)

    def memory_words(self) -> int:
        """Number of machine words occupied by the counter table."""
        return int(self._table.size)

    def error_bound(self, tail_norm: float, total_norm: float) -> float:
        """Expected error bound of Lemma 4 for a width-``2w`` sketch.

        ``width`` here is the actual number of buckets, so the Lemma's ``w``
        equals ``width / 2``.
        """
        half_width = max(self.width / 2.0, 1.0)
        return tail_norm / half_width + 2.0 ** (-(self.depth) + 1) * total_norm

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"CountMinSketch(width={self.width}, depth={self.depth}, "
            f"total={self._total:.1f}, updates={self._updates})"
        )
