"""The partition tree: a sparse binary tree of cell counts.

Nodes are keyed by their cell index ``theta`` (a bit tuple); the root is the
empty tuple.  The tree is sparse: only the cells PrivHP actually keeps (the
complete top ``L*`` levels plus the pruned hot branches below) are stored,
which is exactly what bounds the memory at ``O(k log^2 n)`` words.

The class is deliberately a plain container -- the streaming logic lives in
:mod:`repro.core.privhp` and the growing/consistency logic in
:mod:`repro.core.partition` / :mod:`repro.core.consistency` -- so that the
baselines (PMM, PrivTree) can reuse it unchanged.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator

from repro.domain.base import Cell, validate_cell

__all__ = ["PartitionTree", "cell_at"]


@functools.lru_cache(maxsize=131072)
def cell_at(level: int, code: int) -> Cell:
    """The bit tuple of the ``code``-th cell at ``level`` (big-endian order).

    Inverse of :meth:`repro.domain.base.Domain.pack_paths` for a single code;
    the batched ingestion paths use it to translate the level codes of
    :func:`repro.core.base.level_counts` back into tree cells.  Cells are
    immutable and the same few cells recur on every batch of every stream,
    so the translation is memoised (bounded) rather than rebuilt
    tuple-by-tuple on each call.
    """
    return tuple((code >> (level - 1 - position)) & 1 for position in range(level))


class PartitionTree:
    """A sparse binary tree mapping cell indices to (possibly noisy) counts."""

    def __init__(self) -> None:
        self._counts: dict[Cell, float] = {}

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def complete(cls, depth: int, initial_count: float = 0.0) -> "PartitionTree":
        """A complete binary tree of the given depth with a constant count."""
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        tree = cls()
        counts = tree._counts
        value = float(initial_count)
        for level in range(depth + 1):
            for theta in itertools.product((0, 1), repeat=level):
                counts[theta] = value
        return tree

    def add_node(self, theta: Cell, count: float = 0.0) -> None:
        """Insert a node (overwriting any existing count)."""
        self._counts[validate_cell(theta)] = float(count)

    def remove_node(self, theta: Cell) -> None:
        """Remove a node; descendants are left untouched."""
        del self._counts[validate_cell(theta)]

    # ------------------------------------------------------------------ #
    # counts
    # ------------------------------------------------------------------ #
    def __contains__(self, theta: Cell) -> bool:
        return tuple(theta) in self._counts

    def count(self, theta: Cell) -> float:
        """The stored count of a node."""
        return self._counts[tuple(theta)]

    def get(self, theta: Cell, default: float = 0.0) -> float:
        """The stored count, or ``default`` when the node is absent."""
        return self._counts.get(tuple(theta), default)

    def set_count(self, theta: Cell, count: float) -> None:
        """Overwrite the count of an existing node."""
        key = tuple(theta)
        if key not in self._counts:
            raise KeyError(f"node {key} is not in the tree")
        self._counts[key] = float(count)

    def increment(self, theta: Cell, amount: float = 1.0) -> None:
        """Add ``amount`` to an existing node's count."""
        key = tuple(theta)
        if key not in self._counts:
            raise KeyError(f"node {key} is not in the tree")
        self._counts[key] += amount

    def increment_many(self, thetas, amounts=None) -> None:
        """Add ``amounts`` (1.0 each when omitted) to existing nodes.

        This is the application half of the batched ingestion path: the
        caller aggregates a batch into per-cell totals (with
        :func:`repro.core.base.level_counts`) and applies them here in one
        pass over the distinct cells rather than one dict operation per
        stream item.
        """
        counts = self._counts
        if amounts is None:
            for theta in thetas:
                key = tuple(theta)
                if key not in counts:
                    raise KeyError(f"node {key} is not in the tree")
                counts[key] += 1.0
        else:
            for theta, amount in zip(thetas, amounts):
                key = tuple(theta)
                if key not in counts:
                    raise KeyError(f"node {key} is not in the tree")
                counts[key] += float(amount)

    def merge(self, other: "PartitionTree") -> "PartitionTree":
        """Node-wise sum of two trees (union of nodes, counts added).

        Counts are linear statistics of the stream, so the merge of two
        shards' trees is exactly the tree of the concatenated stream.
        """
        if not isinstance(other, PartitionTree):
            raise TypeError("can only merge with another PartitionTree")
        merged = self.copy()
        counts = merged._counts
        for theta, count in other._counts.items():
            counts[theta] = counts.get(theta, 0.0) + count
        return merged

    @property
    def root_count(self) -> float:
        """Count stored at the root (total probability mass of the sampler)."""
        return self._counts.get((), 0.0)

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._counts)

    def nodes(self) -> Iterator[tuple[Cell, float]]:
        """Iterate over ``(theta, count)`` pairs."""
        return iter(self._counts.items())

    def children_present(self, theta: Cell) -> tuple[bool, bool]:
        """Whether the left and right children are stored."""
        theta = tuple(theta)
        return (theta + (0,)) in self._counts, (theta + (1,)) in self._counts

    def has_children(self, theta: Cell) -> bool:
        """Whether at least one child of ``theta`` is stored."""
        left, right = self.children_present(theta)
        return left or right

    def is_leaf(self, theta: Cell) -> bool:
        """A stored node with no stored children."""
        return tuple(theta) in self._counts and not self.has_children(theta)

    def leaves(self) -> list[Cell]:
        """All leaf cells, sorted by (level, index) for determinism."""
        result = [theta for theta in self._counts if self.is_leaf(theta)]
        return sorted(result, key=lambda cell: (len(cell), cell))

    def internal_nodes(self) -> list[Cell]:
        """All nodes with at least one stored child, sorted by (level, index)."""
        result = [theta for theta in self._counts if self.has_children(theta)]
        return sorted(result, key=lambda cell: (len(cell), cell))

    def nodes_at_level(self, level: int) -> list[Cell]:
        """All stored cells at a given level, sorted for determinism."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return sorted(theta for theta in self._counts if len(theta) == level)

    def depth(self) -> int:
        """Depth of the deepest stored node (0 for a root-only tree)."""
        if not self._counts:
            return 0
        return max(len(theta) for theta in self._counts)

    def level_counts(self, level: int) -> dict[Cell, float]:
        """Mapping of cell -> count restricted to one level."""
        return {theta: count for theta, count in self._counts.items() if len(theta) == level}

    # ------------------------------------------------------------------ #
    # invariants, memory, export
    # ------------------------------------------------------------------ #
    def is_consistent(self, tolerance: float = 1e-6) -> bool:
        """Check the two consistency invariants of Section 4.4.

        (1) every stored count is non-negative, and (2) whenever both children
        of a node are stored, their counts sum to the parent's count.
        """
        for theta, count in self._counts.items():
            if count < -tolerance:
                return False
            left, right = theta + (0,), theta + (1,)
            if left in self._counts and right in self._counts:
                total = self._counts[left] + self._counts[right]
                if abs(total - count) > tolerance * max(1.0, abs(count)) + tolerance:
                    return False
        return True

    def memory_words(self) -> int:
        """Words of memory used: one count plus one key reference per node."""
        return 2 * len(self._counts)

    def copy(self) -> "PartitionTree":
        """A deep copy of the tree."""
        clone = PartitionTree()
        clone._counts = dict(self._counts)
        return clone

    def as_dict(self) -> dict[Cell, float]:
        """A plain-dict snapshot of the tree (for tests and serialisation)."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"PartitionTree(nodes={len(self._counts)}, depth={self.depth()}, "
            f"root_count={self.root_count:.2f})"
        )
