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
Every kernel reproduces the retired scalar loops bit for bit.  The range
kernel evaluates only the *kept* leaves -- probability > 0 and a
non-degenerate cell -- which are exactly the leaves the scalar loop did not
skip or zero; every other leaf added ``+0.0`` to a non-negative running
sum, which is exact, so dropping it changes no bit.  The kept leaves stay
in table order, and their terms are accumulated sequentially, never by
``np.sum``'s pairwise reduction; adding ``0.0`` to the total reproduces the
loop's ``total = 0.0`` start, so an all ``-0.0`` sum still ends as ``+0.0``.
Per-axis box fractions multiply in axis order, integer overlaps divide with
the same int64 -> float64 true division, and the quantile descent performs
the same compare/subtract sequence per probability.

Interval blocks of ``_COVERED_MIN_QUERIES`` or more queries skip most of
the overlap arithmetic.  In IEEE arithmetic a kept leaf that lies inside
``[lower, upper]`` adds exactly its probability: the overlap is
``high - low``, the very subtraction that made ``width``, ``x / x`` is
``1.0`` for any finite positive ``x``, and ``p * 1.0`` is ``p``.  A leaf
outside the range adds a zero, and the sign of a zero term cannot change a
sum that ends with ``+ 0.0``.  Kept interval cells are disjoint, so at most
two of them -- the ones that strictly contain a bound -- need the formula,
with the same ufuncs in the same order as the formula kernel.  That block is
one ``(kept leaves x queries)`` buffer summed with ``np.add.reduce`` along
the leaf axis, which is its outer, non-contiguous axis: numpy then adds the
buffer row by row, left to right in every column, and only a reduction
along the contiguous axis is pairwise.  A one-query block is a single
column, which numpy reduces pairwise, so it, and every block too small to
gain, takes the formula kernel, summed by an in-place ``np.cumsum`` along
the leaf axis.

``tests/test_queries_vectorized.py`` pins the equality against
reference implementations of the old loops, which take each leaf's geometry
from the scalar ``cell_bounds`` / ``cell_range``, on randomised trees over
all five domains; ``tests/test_interval_range_kernel.py`` pins interval
answers at every block shape either kernel sees, and
``tests/test_domain_cell_bounds_batch.py`` pins the batch geometry against
the scalar one at every level.

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

#: Bound on the elements of one (queries x kept leaves) buffer so that
#: arbitrarily large batches evaluate in bounded memory: ~2 MB of float64
#: per buffer, a size that stays in cache (at least 63 queries at ~4.1k
#: leaves, more when zero-mass leaves are skipped).  Queries are
#: independent, so the block size never changes an answer.
_BLOCK_ELEMENTS = 1 << 18

#: Interval blocks of at least this many queries take the covered-leaf
#: kernel; smaller ones keep the formula kernel.  A one-query block must:
#: numpy sums a single column pairwise, which moves the last bits.  Up to
#: about 16 queries the formula kernel is also the faster one, since the
#: covered-leaf kernel pays a per-leaf cost in each of its passes (on 215
#: to 3,336 kept leaves, on a 2-vCPU host, it overtakes between 8 and 24
#: queries).
_COVERED_MIN_QUERIES = 16


def _overlap_fractions(high, low, divisor, lowers, uppers, out, scratch) -> None:
    """``max(0, min(high, upper) - max(low, lower)) / divisor`` into ``out``,
    with the scalar loop's operations in its order (``scratch`` holds the
    overlap's lower edge)."""
    np.minimum(high, uppers, out=out)
    np.maximum(low, lowers, out=scratch)
    np.subtract(out, scratch, out=out)
    np.maximum(0.0, out, out=out)
    np.divide(out, divisor, out=out)


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
        self._keep_leaves()
        self._compile_cdf(domain, levels, codes)

    @classmethod
    def from_arrays(cls, domain: Domain, *, kind: str, root_count: float, arrays: dict) -> "CompiledLeafTable":
        """Rebuild a table from :meth:`export_arrays` output (mmap-friendly).

        The arrays are used as-is (read-only memory-mapped views are fine:
        the kernels never write into them) -- no tree walk, no geometry
        recompute.  Derived state (``width``, the positive-probability mask
        and the kept leaves ``mass_many`` evaluates, with their domain order
        on the interval) is recomputed in a few array passes with the same
        expressions compilation uses, so a rebuilt table answers queries
        bit-identically to one compiled from the tree.  Interval arrays whose
        kept cells overlap, which no tree compiles to, raise ``ValueError``.
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
        table._keep_leaves()
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

    def _keep_leaves(self) -> None:
        """The leaves ``mass_many`` evaluates, in table order.

        A leaf is kept when its probability is positive and its cell is not
        degenerate (positive width on every axis, or ``low <= high`` for an
        integer range): the scalar loop skipped every other leaf or added
        ``+0.0`` for it.  Each kept leaf carries its bounds, the divisor of
        its overlap (``width``, or ``high - low + 1`` in int64) and its
        probability.  Box geometry is stored axis-major, ``(d, K)``, so each
        axis is one contiguous row.
        """
        if self.kind == "intrange":
            cells = self.low <= self.high
        elif self.kind == "box":
            cells = np.all(self.width > 0, axis=1)
        else:
            cells = self.width > 0
        kept = np.flatnonzero(self._positive & cells)
        self._kept_probabilities = self.probabilities[kept]
        if self.kind == "box":
            self._kept_low = np.ascontiguousarray(self.low[kept].T)
            self._kept_high = np.ascontiguousarray(self.high[kept].T)
            self._kept_divisor = np.ascontiguousarray(self.width[kept].T)
        else:
            self._kept_low = self.low[kept]
            self._kept_high = self.high[kept]
            if self.kind == "interval":
                self._kept_divisor = self.width[kept]
                self._order_kept_cells()
            else:
                self._kept_divisor = self._kept_high - self._kept_low + 1

    def _order_kept_cells(self) -> None:
        """The kept interval cells in domain order, for the covered-leaf kernel.

        Kept cells are leaves of one partition with positive width, so
        sorting them by lower edge sorts their upper edges too, and each
        query's covered cells are one run of that order.  ``_kept_rank``
        gives each kept leaf's position in it, in the narrowest signed
        integer type that holds ``-kept - 1``, so ``rank - first`` is exact
        and its unsigned view compares cheaply.  Tables loaded from arrays
        are checked here, since overlapping cells would break the run.
        """
        order = np.argsort(self._kept_low, kind="stable")
        self._domain_order = order
        self._domain_low = self._kept_low[order]
        self._domain_high = self._kept_high[order]
        if np.any(self._domain_high[:-1] > self._domain_low[1:]):
            raise ValueError("compiled interval leaf cells overlap")
        count = len(order)
        self._kept_rank = np.empty(count, dtype=np.min_scalar_type(-count - 1))
        self._kept_rank[order] = np.arange(count)

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

        The formula kernel fills one ``(queries x kept leaves)`` buffer of
        terms per block in place -- overlap, divide by the divisor, multiply
        by the probability; a scratch buffer of the same shape (two for
        boxes) holds the overlap's lower edge -- and sums it left to right
        with an in-place ``np.cumsum`` along the leaf axis.  Interval blocks
        of at least ``_COVERED_MIN_QUERIES`` queries take the covered-leaf
        kernel instead (:meth:`_covered_sums`).
        """
        count = len(lowers)
        result = np.zeros(count)
        kept = len(self._kept_probabilities)
        if count == 0 or kept == 0:
            return result
        block = min(count, max(1, _BLOCK_ELEMENTS // kept))
        for start in range(0, count, block):
            stop = min(start + block, count)
            if self.kind == "interval" and stop - start >= _COVERED_MIN_QUERIES:
                totals = self._covered_sums(lowers[start:stop], uppers[start:stop])
            else:
                totals = self._formula_sums(lowers[start:stop], uppers[start:stop])
            result[start:stop] = np.minimum(np.maximum(totals, 0.0), 1.0)
        return result

    def _formula_sums(self, lowers, uppers) -> np.ndarray:
        """One block's sums through the formula kernel, query-major."""
        shape = (len(lowers), len(self._kept_probabilities))
        terms = np.empty(shape)
        scratch = np.empty(shape)
        ratio = np.empty(shape) if self.kind == "box" else None
        self._fill_terms(lowers, uppers, terms, scratch, ratio)
        sums = np.cumsum(terms, axis=1, out=terms)
        # The scalar loop started from ``total = 0.0``.
        return sums[:, -1] + 0.0

    def _covered_sums(self, lowers, uppers) -> np.ndarray:
        """One interval block's sums through the covered-leaf kernel.

        The block is one ``(kept leaves x queries)`` buffer.  A kept leaf
        inside ``[lower, upper]`` adds exactly its probability, and a leaf
        outside adds ``+0.0`` (see the module's contract), so the buffer
        starts as the covered mask times the probabilities: the covered
        leaves are the domain positions ``first <= rank < end``, found by
        ``searchsorted``.  Only a leaf that strictly contains a bound needs
        the overlap formula, and that leaf is the one just before ``first``
        or at ``end``; the formula is written at both, which is exact even
        where neither bound is strictly inside, because it gives every leaf
        its own term.  ``np.add.reduce`` along the leaf axis, which is not
        the buffer's contiguous axis, adds row by row, left to right.
        """
        kept = len(self._kept_probabilities)
        first = np.searchsorted(self._domain_low, lowers)
        end = np.searchsorted(self._domain_high, uppers, side="right")
        rank = self._kept_rank
        unsigned = np.dtype(f"u{rank.itemsize}")
        # ``rank - first`` viewed unsigned is below ``end - first`` exactly
        # when ``first <= rank < end``.
        offset = np.subtract(rank[:, None], first.astype(rank.dtype))
        covered = np.less(offset.view(unsigned), np.maximum(end - first, 0).astype(unsigned))
        terms = covered.astype(np.float64)
        np.multiply(terms, self._kept_probabilities[:, None], out=terms)
        leaves = self._domain_order[
            np.concatenate([np.maximum(first - 1, 0), np.minimum(end, kept - 1)])
        ]
        edges = np.empty(len(leaves))
        _overlap_fractions(
            self._kept_high[leaves],
            self._kept_low[leaves],
            self._kept_divisor[leaves],
            np.concatenate([lowers, lowers]),
            np.concatenate([uppers, uppers]),
            edges,
            np.empty(len(leaves)),
        )
        np.multiply(self._kept_probabilities[leaves], edges, out=edges)
        terms[leaves, np.tile(np.arange(len(lowers)), 2)] = edges
        # The scalar loop started from ``total = 0.0``.
        return np.add.reduce(terms, axis=0) + 0.0

    def _fill_terms(self, lowers, uppers, terms, scratch, ratio) -> None:
        """Write ``probability * fraction covered`` of each kept leaf by each
        query into ``terms``, with the scalar loop's operations in its order."""
        high, low, divisor = self._kept_high, self._kept_low, self._kept_divisor
        if self.kind == "interval":
            _overlap_fractions(high, low, divisor, lowers[:, None], uppers[:, None], terms, scratch)
        elif self.kind == "box":
            # The running ``fraction *= overlap / width`` in axis order; the
            # first axis's ratio is the product's first factor (1.0 * r == r).
            for axis in range(self.dimension):
                overlap = terms if axis == 0 else ratio
                _overlap_fractions(
                    high[axis],
                    low[axis],
                    divisor[axis],
                    lowers[:, axis, None],
                    uppers[:, axis, None],
                    overlap,
                    scratch,
                )
                if axis:
                    np.multiply(terms, overlap, out=terms)
        else:
            # Integer overlaps in int64, held in the two float buffers'
            # memory; the true division reads ``overlap`` and writes
            # ``terms``, whose int64 contents are dead by then.
            overlap = scratch.view(np.int64)
            start = terms.view(np.int64)
            np.minimum(high, uppers[:, None], out=overlap)
            np.maximum(low, lowers[:, None], out=start)
            np.subtract(overlap, start, out=overlap)
            np.add(overlap, 1, out=overlap)
            np.maximum(0, overlap, out=overlap)
            np.divide(overlap, divisor, out=terms)
        np.multiply(self._kept_probabilities, terms, out=terms)

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
