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
    """A Count-Min sketch over canonical integer cell keys.

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
    Writes and reads take the canonical keys ``(1 << l) | code`` of
    :func:`repro.core.base.cell_keys`:

    >>> from repro.core.base import cell_keys
    >>> sketch = CountMinSketch(width=64, depth=4, seed=0)
    >>> keys = cell_keys(2, np.array([0b01, 0b10]))
    >>> sketch.update_batch(keys, np.array([3.0, 2.0]))
    >>> sketch.query_many(keys).tolist(), sketch.query(int(keys[0]))
    ([3.0, 2.0], 3.0)
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

    def update_batch(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add each key's count to its bucket in every row: the one write.

        ``keys`` must be a 1-d integer array of canonical keys in ``[0,
        2^63)``, or ``ValueError`` is raised before the table changes; for a
        hierarchy cell at level ``l`` with in-level index ``c`` that is
        ``(1 << l) | c`` (:func:`repro.core.base.cell_keys`).  Each block of
        rows from :meth:`HashFamily.cell_blocks` is one ``np.add.at`` over
        the flat table, so every bucket's adds arrive in key order: the
        table equals adding each count at ``HashFamily.buckets(key)[row]``,
        key by key.  ``counts`` are aggregated multiplicities, and the
        ``updates`` counter advances by their sum, the number of items they
        stand for.
        """
        counts = np.asarray(counts, dtype=float)
        if np.shape(keys) != counts.shape or counts.ndim != 1:
            raise ValueError("keys and counts must be 1-d arrays of equal length")
        for rows, cells in self._hashes.cell_blocks(keys):
            np.add.at(self._table[rows].reshape(-1), cells.ravel(), np.tile(counts, len(cells)))
        self._total += float(counts.sum())
        self._updates += int(round(float(counts.sum())))

    def query(self, key: int) -> float:
        """Point estimate of one canonical key: :meth:`query_many` of ``[key]``.

        A key that is not an integer in ``[0, 2^63)`` raises ``ValueError``.
        """
        return float(self.query_many(np.array([key]))[0])

    def query_many(self, keys) -> np.ndarray:
        """Point estimates of canonical integer keys, as one array.

        ``keys`` are canonical integer keys below ``2^63``, as for
        :meth:`update_batch`; each estimate is the minimum of the key's
        buckets across rows, under ``min()``'s tie rule
        (:meth:`HashFamily.min_over_rows`).
        """
        return self._hashes.min_over_rows(self._table, keys)

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
        """Number of items added: the rounded sum of every batch's counts."""
        return self._updates

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Merge another sketch of the same type built with identical
        parameters and seed (a plain and a private sketch never merge)."""
        if type(other) is not type(self):
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
