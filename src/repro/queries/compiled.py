"""Compiled leaf and node tables: the tree flattened into contiguous arrays.

The scalar query engines walked Python dicts -- one loop iteration per leaf
per query, which capped warm serving at a few hundred queries per second.
This module compiles a :class:`~repro.core.tree.PartitionTree` once, at
engine construction, into contiguous numpy arrays so that every query after
that is pure array arithmetic:

* :class:`CompiledLeafTable` -- per-leaf probabilities plus per-domain cell
  geometry (interval endpoints, per-axis box corners, or integer ranges) in
  the engine's canonical leaf order, with a prefix-sum/CDF array over the
  ordered-domain leaf order for diagnostics and inverse-CDF seeding.  The
  ``mass_many`` / ``marginal`` kernels evaluate whole query batches in one
  vectorised pass.
* :class:`CompiledDescentTable` -- the root-to-leaf branching structure as
  index arrays (left/right child, left-child count, leaf payloads), so a
  batch of quantile probabilities descends level-synchronously: one numpy
  pass per tree level for the *entire* batch instead of one Python descent
  per probability.  The synthetic-data sampler walks the same table.

Both tables compile from the tree's level arrays with no per-cell Python:
leaf and node ``(level, code)`` arrays go through one
:meth:`~repro.domain.base.Domain.cell_bounds_batch` call, and the CDF's leaf
order is an ``argsort`` of the codes left-aligned to level 62.

Byte-identical contract
-----------------------
Every kernel reproduces the retired scalar loops bit for bit: terms are
accumulated sequentially (``np.cumsum``, which sums left to right, not
``np.sum``'s pairwise reduction), per-axis box fractions multiply in axis
order, integer overlaps divide with the same int64 -> float64 true division,
and the quantile descent performs the same compare/subtract sequence per
probability.  ``tests/test_queries_vectorized.py`` pins the equality against
reference implementations of the old loops, which take each leaf's geometry
from the scalar ``cell_bounds`` / ``cell_range``, on randomised trees over
all five domains; ``tests/test_domain_cell_bounds_batch.py`` pins the batch
geometry against the scalar one at every level.

Example:
    >>> from repro.queries.compiled import CompiledLeafTable
    >>> from repro.baselines.pmm import build_exact_tree
    >>> from repro.domain.interval import UnitInterval
    >>> tree = build_exact_tree([0.1, 0.3, 0.6, 0.9], UnitInterval(), depth=2)
    >>> table = CompiledLeafTable(tree, UnitInterval())
    >>> table.probabilities
    array([0.25, 0.25, 0.25, 0.25])
    >>> import numpy as np
    >>> table.mass_many(np.asarray([0.0, 0.5]), np.asarray([0.5, 1.0]))
    array([0.5, 0.5])
"""

from __future__ import annotations

import numpy as np

from repro.core.tree import PartitionTree
from repro.domain.base import Domain
from repro.domain.discrete import DiscreteDomain
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain

__all__ = ["CompiledLeafTable", "CompiledDescentTable"]

#: Bound on the elements of one temporary (queries x leaves) block so that
#: arbitrarily large batches evaluate in bounded memory: ~2 MB of float64
#: per block, a size that stays in cache (63 queries at ~4.1k leaves).
#: Rows are independent, so the block size never changes an answer.
_BLOCK_ELEMENTS = 1 << 18


def _sequential_sum(terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """Left-to-right float accumulation starting from +0.0.

    Matches ``total = 0.0; for t in terms: total += t`` bit for bit (numpy's
    ``cumsum`` accumulates sequentially, unlike ``np.sum``'s pairwise
    reduction).  The prepended zero pins the scalar loops' ``total = 0.0``
    start, so an all ``-0.0`` term row still sums to ``+0.0``.
    """
    shape = list(terms.shape)
    shape[axis] = 1
    padded = np.concatenate([np.zeros(shape), terms], axis=axis)
    return np.take(np.cumsum(padded, axis=axis), -1, axis=axis)


class CompiledLeafTable:
    """Per-leaf probabilities and cell geometry as contiguous arrays.

    ``kind`` selects the geometry layout:

    * ``"interval"`` -- scalar dyadic cells: ``low``/``high``/``width`` are
      ``(L,)`` float arrays.
    * ``"box"`` -- vector cells: ``low``/``high``/``width`` are ``(L, d)``
      float arrays (normalised coordinates for :class:`GeoDomain`).
    * ``"intrange"`` -- integer cells: ``low``/``high`` are ``(L,)`` int64
      arrays of inclusive ranges (``low > high`` marks an empty cell).
    """

    def __init__(self, tree: PartitionTree, domain: Domain) -> None:
        self.domain = domain
        self.root_count = float(tree.root_count)
        levels, codes, counts = tree.leaf_arrays()
        weights = np.maximum(counts, 0.0)
        total = float(weights.sum())
        if total <= 0:
            # Degenerate release: the retired scalar engine fell back to a
            # single root "leaf" carrying the whole mass (the uniform law).
            levels = codes = np.zeros(1, dtype=np.int64)
            self.probabilities = np.array([1.0])
        else:
            self.probabilities = weights / total
        self.size = len(self.probabilities)
        self._positive = self.probabilities > 0
        self._compile_geometry(domain, levels, codes)
        self._compile_cdf(domain, levels, codes)

    @classmethod
    def from_arrays(cls, domain: Domain, *, kind: str, root_count: float, arrays: dict) -> "CompiledLeafTable":
        """Rebuild a table from :meth:`export_arrays` output (mmap-friendly).

        The arrays are used as-is (read-only memory-mapped views are fine:
        the kernels never write into them), so loading a persisted table is
        O(1) in the number of leaves -- no tree walk, no geometry recompute.
        Derived state (``width``, the positive-probability mask) is recomputed
        with the same expressions compilation uses, so a rebuilt table answers
        queries bit-identically to one compiled from the tree.
        """
        if kind not in ("interval", "box", "intrange"):
            raise ValueError(f"unknown compiled leaf-table kind {kind!r}")
        table = cls.__new__(cls)
        table.domain = domain
        table.root_count = float(root_count)
        table.kind = kind
        try:
            table.probabilities = arrays["probabilities"]
            table.low = arrays["low"]
            table.high = arrays["high"]
        except KeyError as error:
            raise ValueError(f"compiled leaf table is missing the {error} array") from error
        table.size = len(table.probabilities)
        if kind == "box":
            if table.low.ndim != 2:
                raise ValueError("box leaf tables need two-dimensional bound arrays")
            table.dimension = int(table.low.shape[1])
        if kind in ("interval", "box"):
            table.width = table.high - table.low
        if table.low.shape != table.high.shape or len(table.low) != table.size:
            raise ValueError("compiled leaf-table arrays disagree on the leaf count")
        table._positive = table.probabilities > 0
        if "cdf" in arrays or "leaf_order" in arrays:
            try:
                table.leaf_order = arrays["leaf_order"]
                table.cdf = arrays["cdf"]
            except KeyError as error:
                raise ValueError(f"compiled leaf table is missing the {error} array") from error
            if len(table.cdf) != table.size or len(table.leaf_order) != table.size:
                raise ValueError("compiled CDF arrays disagree on the leaf count")
        else:
            table.leaf_order = None
            table.cdf = None
        return table

    def export_arrays(self) -> dict[str, np.ndarray]:
        """The table's persistent arrays, keyed by :meth:`from_arrays` names."""
        arrays = {"probabilities": self.probabilities, "low": self.low, "high": self.high}
        if self.cdf is not None:
            arrays["leaf_order"] = self.leaf_order
            arrays["cdf"] = self.cdf
        return arrays

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def _compile_geometry(self, domain: Domain, levels: np.ndarray, codes: np.ndarray) -> None:
        if isinstance(domain, UnitInterval):
            self.kind = "interval"
        elif isinstance(domain, (Hypercube, GeoDomain)):
            self.kind = "box"
        elif isinstance(domain, (IPv4Domain, DiscreteDomain)):
            self.kind = "intrange"
        else:
            raise TypeError(
                f"range queries are not supported on {type(domain).__name__}"
            )
        self.low, self.high = domain.cell_bounds_batch(levels, codes)
        if self.kind == "box":
            self.dimension = self.low.shape[1]
        if self.kind != "intrange":
            self.width = self.high - self.low

    def _compile_cdf(self, domain: Domain, levels: np.ndarray, codes: np.ndarray) -> None:
        """Prefix-sum/CDF array over the ordered-domain leaf order.

        For one-dimensional ordered domains the leaves partition the domain
        left to right.  No leaf is a prefix of another, so sorting the
        codes left-aligned to level 62, ``code << (62 - level)``, is the
        lexicographic order of their bit tuples, which *is* the domain
        order; ``cdf[j]`` is the released probability mass at or below the
        ``j``-th leaf's upper endpoint.  Vector domains have no total order
        and carry no CDF.
        """
        if isinstance(domain, (UnitInterval, IPv4Domain, DiscreteDomain)):
            order = np.argsort(codes << (62 - levels), kind="stable")
            self.leaf_order = order.astype(np.int64, copy=False)
            self.cdf = np.cumsum(self.probabilities[self.leaf_order])
        else:
            self.leaf_order = None
            self.cdf = None

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def mass_many(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        """Probability mass of ``N`` regions in one vectorised pass.

        ``lowers``/``uppers`` are already canonical for the table's kind:
        ``(N,)`` floats for intervals, ``(N, d)`` normalised floats for
        boxes, ``(N,)`` int64 for integer ranges.  Row ``i`` of the result
        is bit-identical to the retired scalar ``mass`` on query ``i``.
        """
        count = len(lowers)
        result = np.empty(count)
        block = max(1, _BLOCK_ELEMENTS // max(self.size, 1))
        for start in range(0, count, block):
            stop = min(start + block, count)
            fractions = self._fractions(lowers[start:stop], uppers[start:stop])
            terms = np.where(
                self._positive[None, :], self.probabilities[None, :] * fractions, 0.0
            )
            totals = _sequential_sum(terms, axis=1)
            result[start:stop] = np.minimum(np.maximum(totals, 0.0), 1.0)
        return result

    def _fractions(self, lowers, uppers) -> np.ndarray:
        """Fraction of each leaf cell covered by each query region: (N, L)."""
        if self.kind == "interval":
            overlap = np.maximum(
                0.0,
                np.minimum(self.high[None, :], uppers[:, None])
                - np.maximum(self.low[None, :], lowers[:, None]),
            )
            valid = self.width > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                fractions = overlap / self.width[None, :]
            return np.where(valid[None, :], fractions, 0.0)
        if self.kind == "box":
            # Multiply per-axis coverage in axis order, exactly like the
            # scalar loop's running ``fraction *= overlap / width``; any
            # degenerate axis zeroes the whole leaf (the scalar early
            # return).
            n = len(lowers)
            fractions = np.ones((n, self.size))
            degenerate = np.zeros(self.size, dtype=bool)
            for axis in range(self.dimension):
                width = self.width[:, axis]
                valid = width > 0
                degenerate |= ~valid
                overlap = np.maximum(
                    0.0,
                    np.minimum(self.high[None, :, axis], uppers[:, None, axis])
                    - np.maximum(self.low[None, :, axis], lowers[:, None, axis]),
                )
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = overlap / width[None, :]
                fractions = fractions * np.where(valid[None, :], ratio, 0.0)
            return np.where(degenerate[None, :], 0.0, fractions)
        # intrange
        overlap = np.maximum(
            0,
            np.minimum(self.high[None, :], uppers[:, None])
            - np.maximum(self.low[None, :], lowers[:, None])
            + 1,
        )
        size = self.high - self.low + 1
        valid = self.low <= self.high
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = overlap / np.where(valid, size, 1)[None, :]
        return np.where(valid[None, :], fractions, 0.0)

    def marginal(self, axis: int, bins: int) -> np.ndarray:
        """One-dimensional marginal histogram for box tables: (bins,).

        Bit-identical to the retired scalar loop: the per-leaf term is
        ``(probability * overlap) / width`` (that exact association order)
        and bins accumulate leaf by leaf in table order.
        """
        edges = np.linspace(0.0, 1.0, bins + 1)
        cell_low = self.low[:, axis]
        cell_high = self.high[:, axis]
        width = self.width[:, axis]
        overlap = np.maximum(
            0.0,
            np.minimum(cell_high[:, None], edges[None, 1:])
            - np.maximum(cell_low[:, None], edges[None, :-1]),
        )
        valid = self._positive & (width > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (self.probabilities[:, None] * overlap) / width[:, None]
        terms = np.where(valid[:, None], terms, 0.0)
        return _sequential_sum(terms, axis=0)


class CompiledDescentTable:
    """The tree's branching structure flattened for batch descent.

    Nodes are the tree's nodes in (level, index) order, so node ``0`` is the
    root and children always follow their parent.  ``internal[i]`` says
    whether node ``i`` has children; internal nodes carry both child
    indices, and every node carries ``left_count`` -- ``max(count(left
    child), 0.0)`` -- which is the only number the descent compares against.
    Every node also carries its cell's ``low``/``high`` from
    :meth:`~repro.domain.base.Domain.cell_bounds_batch`, on all five domains:
    quantile answers interpolate in them, and the sampler draws points in
    them.
    """

    def __init__(self, tree: PartitionTree, domain: Domain) -> None:
        self.domain = domain
        # The scalar descent multiplied by ``max(root_count, 0.0)``.
        self.root_count = max(float(tree.root_count), 0.0)
        self.depth = tree.depth()
        levels = [tree.level(level) for level in range(self.depth + 1)]
        start = np.cumsum([0] + [codes.size for codes, _ in levels])
        internal, left_index, left_count = [], [], []
        for level, (codes, _) in enumerate(levels):
            nodes = start[level] + np.arange(codes.size)
            if level < self.depth:
                child_codes, child_counts = levels[level + 1]
                left = np.searchsorted(child_codes, codes << 1)
                left = np.minimum(left, child_codes.size - 1)
                branch = child_codes[left] == codes << 1
                internal.append(branch)
                left_index.append(np.where(branch, start[level + 1] + left, nodes))
                left_count.append(np.where(branch, np.maximum(child_counts[left], 0.0), 0.0))
            else:
                internal.append(np.zeros(codes.size, dtype=bool))
                left_index.append(nodes)
                left_count.append(np.zeros(codes.size))
        self.internal = np.concatenate(internal)
        self.left_index = np.concatenate(left_index).astype(np.int64)
        self.right_index = np.where(self.internal, self.left_index + 1, self.left_index)
        self.left_count = np.concatenate(left_count)
        self.leaf_count = np.maximum(np.concatenate([counts for _, counts in levels]), 0.0)
        sizes = [codes.size for codes, _ in levels]
        self.low, self.high = domain.cell_bounds_batch(
            np.repeat(np.arange(self.depth + 1), sizes),
            np.concatenate([codes for codes, _ in levels]),
        )
        self.integer = self.low.dtype.kind in "iu"
        # Plain-Python mirrors for the scalar fast path (list indexing beats
        # numpy scalar extraction for a single root-to-leaf walk).
        self._py_internal = self.internal.tolist()
        self._py_left_index = self.left_index.tolist()
        self._py_right_index = self.right_index.tolist()
        self._py_left_count = self.left_count.tolist()
        self._py_leaf_count = self.leaf_count.tolist()
        self._py_low = self.low.tolist()
        self._py_high = self.high.tolist()

    @classmethod
    def from_arrays(cls, domain: Domain, *, root_count: float, arrays: dict) -> "CompiledDescentTable":
        """Rebuild a descent table from :meth:`export_arrays` output.

        The child-index arrays are checked, with numpy, to form a tree rooted
        at node 0 whose children follow their parent, and the plain-Python
        mirrors are re-materialised; every stored array is used as-is, so
        read-only memory-mapped sections are fine.
        """
        table = cls.__new__(cls)
        table.domain = domain
        table.root_count = float(root_count)
        try:
            table.internal = arrays["internal"]
            table.left_index = arrays["left_index"]
            table.right_index = arrays["right_index"]
            table.left_count = arrays["left_count"]
            table.leaf_count = arrays["leaf_count"]
            table.low = arrays["low"]
            table.high = arrays["high"]
        except KeyError as error:
            raise ValueError(f"compiled descent table is missing the {error} array") from error
        size = len(table.internal)
        for name in ("left_index", "right_index", "left_count", "leaf_count", "low", "high"):
            if len(arrays[name]) != size:
                raise ValueError("compiled descent-table arrays disagree on the node count")
        table.integer = table.low.dtype.kind in "iu"
        table._py_internal = table.internal.tolist()
        table._py_left_index = table.left_index.tolist()
        table._py_right_index = table.right_index.tolist()
        table._py_left_count = table.left_count.tolist()
        table._py_leaf_count = table.leaf_count.tolist()
        table._py_low = table.low.tolist()
        table._py_high = table.high.tolist()
        # Both children of an internal node carry indices greater than their
        # parent's, and every node but the root is the child of exactly one
        # node, so every node is reached from the root.
        internal = np.asarray(table.internal, dtype=bool)
        parents = np.flatnonzero(internal)
        children = np.concatenate([table.left_index[parents], table.right_index[parents]])
        if np.any(children <= np.tile(parents, 2)) or np.any(children >= size):
            raise ValueError("compiled descent-table child indices are not a valid tree")
        if np.any(np.bincount(children, minlength=size)[1:] != 1):
            raise ValueError("compiled descent-table child indices leave unreachable nodes")
        table.depth = 0
        frontier = parents[:1] if size and internal[0] else parents[:0]
        while frontier.size:
            table.depth += 1
            children = np.concatenate([table.left_index[frontier], table.right_index[frontier]])
            frontier = children[internal[children]]
        return table

    def export_arrays(self) -> dict[str, np.ndarray]:
        """The table's persistent arrays, keyed by :meth:`from_arrays` names."""
        return {
            "internal": self.internal,
            "left_index": self.left_index,
            "right_index": self.right_index,
            "left_count": self.left_count,
            "leaf_count": self.leaf_count,
            "low": self.low,
            "high": self.high,
        }

    # ------------------------------------------------------------------ #
    # scalar walk (single probability)
    # ------------------------------------------------------------------ #
    def descend(self, probability: float) -> tuple[int, float]:
        """One root-to-leaf walk; returns (node index, remaining mass).

        The same compare/subtract sequence as the retired per-query loop,
        over list-backed node arrays instead of dict lookups.
        """
        remaining = probability * self.root_count
        node = 0
        while self._py_internal[node]:
            count = self._py_left_count[node]
            if count >= remaining:
                node = self._py_left_index[node]
            else:
                remaining -= count
                node = self._py_right_index[node]
        return node, remaining

    # ------------------------------------------------------------------ #
    # batch walk (many probabilities, level-synchronous)
    # ------------------------------------------------------------------ #
    def descend_many(self, probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Descend the whole batch one level per numpy pass.

        Each lane performs exactly the scalar walk's arithmetic (same
        compares, same sequential subtractions), so the landing node and
        remaining mass are bit-identical per probability.
        """
        remaining = probabilities * self.root_count
        nodes = np.zeros(len(probabilities), dtype=np.int64)
        for _ in range(self.depth):
            active = self.internal[nodes]
            if not active.any():
                break
            counts = self.left_count[nodes]
            go_left = counts >= remaining
            go_right = active & ~go_left
            remaining = np.where(go_right, remaining - counts, remaining)
            nodes = np.where(
                active,
                np.where(go_left, self.left_index[nodes], self.right_index[nodes]),
                nodes,
            )
        return nodes, remaining

    def interpolate_many(self, nodes: np.ndarray, remaining: np.ndarray) -> np.ndarray:
        """Quantile representatives for the landed nodes, vectorised.

        Mirrors the scalar tail of the descent exactly: an empty leaf
        answers its cell's upper point; otherwise the point ``remaining /
        leaf_count`` (clamped to [0, 1]) of the way through the cell --
        linear interpolation for intervals, nearest integer (banker's
        rounding, like :func:`round`) for integer domains.
        """
        counts = self.leaf_count[nodes]
        populated = counts > 0
        fraction = remaining / np.where(populated, counts, 1.0)
        fraction = np.minimum(np.maximum(fraction, 0.0), 1.0)
        low = self.low[nodes]
        high = self.high[nodes]
        if not self.integer:
            return np.where(populated, low + fraction * (high - low), high)
        rounded = np.rint(low + fraction * (high - low)).astype(np.int64)
        interpolated = np.where(low > high, low, rounded)
        return np.where(populated, interpolated, high)
