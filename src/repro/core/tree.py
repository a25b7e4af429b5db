"""The partition tree: a sparse binary tree of cell counts, stored by level.

PrivHP's tree has a level structure by construction: the complete levels
``0 .. L*`` of the exact counters, then at most ``2k`` cells per deeper level
grown from that level's sketch.  The tree stores exactly that: per level, the
int64 codes of its stored cells in ascending order (the
:meth:`repro.domain.base.Domain.pack_paths` code) and their float64 counts.
Children are always stored as the pair ``2c, 2c + 1`` under a stored parent
``c``, so a node is a leaf exactly when its children are absent.  Ingest,
noise, consistency, growing, sampling, the query tables and the codecs all
work on these arrays; bit tuples stay the :class:`~repro.domain.base.Domain`'s
cell currency, through a read-only tuple view (``count``, ``leaves``, ``in``).

Example:
    >>> import numpy as np
    >>> tree = PartitionTree.complete(1)
    >>> tree.increment_many(np.array([0]), np.array([4.0]), level=0)
    >>> tree.increment_many(np.array([0, 1]), np.array([3.0, 1.0]), level=1)
    >>> tree.append_level(np.array([0, 1]), np.array([2.0, 1.0]))
    >>> tree.leaves(), tree.count((0,)), tree.is_consistent(), tree.memory_words()
    ([(1,), (0, 0), (0, 1)], 3.0, True, 10)
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.domain.base import Cell

__all__ = ["PartitionTree"]

#: Deepest level whose cell codes fit an int64 (see ``Domain.pack_paths``).
_MAX_LEVEL = 62


def _cell(level: int, code: int) -> Cell:
    """The bit tuple of the ``code``-th cell at ``level`` (big-endian order)."""
    return tuple((code >> shift) & 1 for shift in range(level - 1, -1, -1))


def _code(theta) -> int:
    """The code of a bit tuple (the inverse of :func:`_cell`)."""
    code = 0
    for bit in theta:
        if bit not in (0, 1):
            raise ValueError(f"cell index must consist of bits, got {tuple(theta)}")
        code = (code << 1) | int(bit)
    return code


def _positions(stored: np.ndarray, codes) -> np.ndarray | None:
    """Where ``codes`` sit in the ascending ``stored``, or ``None`` if one is absent."""
    position = np.minimum(np.searchsorted(stored, codes), stored.size - 1)
    return position if np.array_equal(stored[position], codes) else None


class PartitionTree:
    """A sparse binary tree of cell counts, one ``(codes, counts)`` pair per level.

    A new tree holds only the root, with count ``root_count``.
    """

    def __init__(self, root_count: float = 0.0) -> None:
        self._codes: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._push(np.zeros(1, dtype=np.int64), np.array([float(root_count)]))

    def _push(self, codes: np.ndarray, counts: np.ndarray) -> None:
        codes.flags.writeable = False
        self._codes.append(codes)
        self._counts.append(counts)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def complete(cls, depth: int, initial_count: float = 0.0) -> "PartitionTree":
        """A complete binary tree of the given depth with a constant count."""
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        tree = cls(initial_count)
        for level in range(1, depth + 1):
            size = 1 << level
            tree._push(np.arange(size, dtype=np.int64), np.full(size, float(initial_count)))
        return tree

    @classmethod
    def from_cells(cls, cells) -> "PartitionTree":
        """Decode ``{cell: count}`` (or ``(cell, count)`` pairs) into a tree.

        Cells are bit tuples or bit strings (the JSON codec's keys); ``()``
        and ``""`` are the root.  Raises ``ValueError`` unless the cells form
        a tree (see :meth:`append_level`) with exactly one root.
        """
        levels: dict[int, list[tuple[int, float]]] = {}
        for cell, count in cells.items() if hasattr(cells, "items") else cells:
            if isinstance(cell, str) and not set(cell) <= {"0", "1"}:
                raise ValueError(f"invalid cell key {cell!r}: keys must be bit-strings")
            code = int(cell or "0", 2) if isinstance(cell, str) else _code(cell)
            if len(cell) > _MAX_LEVEL:
                raise ValueError(f"cells deeper than {_MAX_LEVEL} levels are not supported")
            levels.setdefault(len(cell), []).append((code, float(count)))
        root = levels.pop(0, [])
        if len(root) != 1:
            raise ValueError("duplicate root cell" if root else "the encoded tree has no root cell")
        tree = cls(root[0][1])
        for level in range(1, max(levels, default=0) + 1):
            entries = sorted(levels.get(level, []))
            tree.append_level([code for code, _ in entries], [count for _, count in entries])
        return tree

    def append_level(self, codes, counts) -> None:
        """Store a new deepest level from its ascending ``codes`` and ``counts``.

        The codes must come in sibling pairs ``2c, 2c + 1`` whose parents
        ``c`` are stored at the current deepest level; anything else raises
        ``ValueError``.  Both arrays are copied.
        """
        level = len(self._codes)
        codes = np.array(codes, dtype=np.int64)
        counts = np.array(counts, dtype=np.float64)
        left = codes[0::2]
        if level > _MAX_LEVEL:
            raise ValueError(f"levels deeper than {_MAX_LEVEL} are not supported")
        if codes.ndim != 1 or codes.shape != counts.shape:
            raise ValueError("a level needs one-dimensional codes and counts of equal length")
        if not codes.size or codes.size % 2 or np.any(left & 1) or np.any(codes[1::2] != left + 1):
            raise ValueError(f"level {level} must store its cells in sibling pairs (2c, 2c + 1)")
        if np.any(left[1:] <= left[:-1]):
            raise ValueError(f"level {level} codes must ascend without duplicates")
        if _positions(self._codes[-1], left >> 1) is None:
            raise ValueError(f"level {level} stores cells whose parent is not stored")
        self._push(codes, counts)

    # ------------------------------------------------------------------ #
    # the level arrays
    # ------------------------------------------------------------------ #
    def level(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The stored ``(codes, counts)`` of ``level`` (not copies).

        Writing into ``counts`` updates the tree; ``codes`` is read-only.
        """
        if not 0 <= level < len(self._codes):
            raise ValueError(f"level {level} is not stored (tree depth {self.depth()})")
        return self._codes[level], self._counts[level]

    def parent_counts(self, level: int) -> np.ndarray:
        """Counts of the parents of ``level``'s sibling pairs, one per pair."""
        codes, _ = self.level(level)
        parent_codes, parent_counts = self.level(level - 1)
        return parent_counts[np.searchsorted(parent_codes, codes[0::2] >> 1)]

    def increment_many(self, codes, amounts, level: int) -> None:
        """Add ``amounts`` to the stored cells ``codes`` of ``level``.

        The sparse way to add to stored counts: the noise pass adds one
        Laplace draw per cell and item-at-a-time ingest one count per level.
        Batched ingest adds each exact level's dense
        :func:`repro.core.base.level_counts` histogram to the whole
        ``counts`` array of :meth:`level` instead.  Repeated codes accumulate
        in order; a code that is not stored raises ``KeyError``.
        """
        stored, counts = self.level(level)
        position = _positions(stored, np.asarray(codes, dtype=np.int64))
        if position is None:
            raise KeyError(f"level {level} does not store every incremented cell")
        np.add.at(counts, position, np.asarray(amounts, dtype=np.float64))

    def _leaf_levels(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(level, codes, counts)`` of each level's leaves, top down."""
        for level, (codes, counts) in enumerate(zip(self._codes, self._counts)):
            if level < self.depth():
                leaf = ~np.isin(codes, self._codes[level + 1][0::2] >> 1, assume_unique=True)
                codes, counts = codes[leaf], counts[leaf]
            yield level, codes, counts

    def leaf_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The int64 levels, int64 codes and float64 counts of :meth:`leaves`,
        in the same order."""
        levels, codes, counts = zip(*self._leaf_levels())
        sizes = [level_codes.size for level_codes in codes]
        return (
            np.repeat(np.array(levels, dtype=np.int64), sizes),
            np.concatenate(codes),
            np.concatenate(counts),
        )

    def leaf_counts(self) -> np.ndarray:
        """The counts of :meth:`leaves`, in the same order."""
        return np.concatenate([counts for _, _, counts in self._leaf_levels()])

    def num_leaves(self) -> int:
        """``len(self.leaves())`` from the level sizes alone.

        Every internal node stores exactly two children, so a tree of ``n``
        nodes has ``(n - 1) / 2`` internal nodes and ``(n + 1) / 2`` leaves.
        """
        return (len(self) + 1) // 2

    # ------------------------------------------------------------------ #
    # tuple view
    # ------------------------------------------------------------------ #
    def get(self, theta: Cell, default: float = 0.0) -> float:
        """The stored count, or ``default`` when the node is absent."""
        level, code = len(theta), _code(theta)
        if level < len(self._codes):
            stored = self._codes[level]
            position = int(stored.searchsorted(code))
            if position < stored.size and stored[position] == code:
                return float(self._counts[level][position])
        return default

    def count(self, theta: Cell) -> float:
        """The stored count of a node."""
        count = self.get(theta, None)
        if count is None:
            raise KeyError(f"node {tuple(theta)} is not in the tree")
        return count

    def __contains__(self, theta: Cell) -> bool:
        return self.get(theta, None) is not None

    @property
    def root_count(self) -> float:
        """Count stored at the root (total probability mass of the sampler)."""
        return float(self._counts[0][0])

    def __len__(self) -> int:
        return sum(codes.size for codes in self._codes)

    def __iter__(self) -> Iterator[Cell]:
        return (theta for theta, _ in self.nodes())

    def nodes(self) -> Iterator[tuple[Cell, float]]:
        """Iterate over ``(theta, count)`` pairs in (level, index) order."""
        for level, (codes, counts) in enumerate(zip(self._codes, self._counts)):
            for code, count in zip(codes.tolist(), counts.tolist()):
                yield _cell(level, code), count

    def leaves(self) -> list[Cell]:
        """All leaf cells, sorted by (level, index)."""
        return [
            _cell(level, code) for level, codes, _ in self._leaf_levels() for code in codes.tolist()
        ]

    def nodes_at_level(self, level: int) -> list[Cell]:
        """All stored cells at a given level, sorted."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        if level > self.depth():
            return []
        return [_cell(level, code) for code in self._codes[level].tolist()]

    def depth(self) -> int:
        """Depth of the deepest stored level (0 for a root-only tree)."""
        return len(self._codes) - 1

    # ------------------------------------------------------------------ #
    # invariants, memory, export
    # ------------------------------------------------------------------ #
    def is_consistent(self, tolerance: float = 1e-6) -> bool:
        """Check the two consistency invariants of Section 4.4.

        (1) every stored count is non-negative, and (2) the two children of
        every internal node sum to the parent's count.
        """
        for level, counts in enumerate(self._counts):
            if np.any(counts < -tolerance):
                return False
            if level:
                parent = self.parent_counts(level)
                error = np.abs(counts[0::2] + counts[1::2] - parent)
                if np.any(error > tolerance * np.maximum(1.0, np.abs(parent)) + tolerance):
                    return False
        return True

    def memory_words(self) -> int:
        """Words of memory used: one code plus one count per node."""
        return 2 * len(self)

    def copy(self) -> "PartitionTree":
        """A copy whose counts are independent of this tree's."""
        clone = PartitionTree.__new__(PartitionTree)
        clone._codes = list(self._codes)
        clone._counts = [counts.copy() for counts in self._counts]
        return clone

    def merge(self, other: "PartitionTree") -> "PartitionTree":
        """Node-wise sum of two trees that store the same cells.

        Counts are linear statistics of the stream, so the merge of two
        shards' trees is exactly the tree of the concatenated stream.
        """
        if not isinstance(other, PartitionTree):
            raise TypeError("can only merge with another PartitionTree")
        if len(self._codes) != len(other._codes) or not all(
            np.array_equal(mine, theirs) for mine, theirs in zip(self._codes, other._codes)
        ):
            raise ValueError("can only merge trees that store the same cells")
        merged = self.copy()
        merged._counts = [mine + theirs for mine, theirs in zip(self._counts, other._counts)]
        return merged

    def as_dict(self) -> dict[Cell, float]:
        """A plain-dict snapshot of the tree (for tests and debugging)."""
        return dict(self.nodes())

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"PartitionTree(nodes={len(self)}, depth={self.depth()}, root={self.root_count:.2f})"
