"""The array-native table compile equals the retired tuple-built one, byte for byte.

``CompiledLeafTable`` and ``CompiledDescentTable`` used to build their
geometry from one Python bit tuple per leaf or node (``tree.leaves()``,
``list(tree)``) and to sort the leaf tuples for the CDF order.  They now
compile from the tree's level arrays with one ``cell_bounds_batch`` call and
an ``argsort`` of left-aligned codes.  This module keeps the retired compile
steps verbatim as the oracle and compares every array the tables persist in
a binary envelope -- ``low``, ``high``, ``leaf_order``, ``cdf`` -- by its
bytes, on private trees whose leaves sit at many levels, exact trees,
zero-mass trees and a chain down to level 62.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PrivHPBuilder
from repro.api.registry import make_domain
from repro.baselines.pmm import build_exact_tree
from repro.core.tree import PartitionTree
from repro.domain.discrete import DiscreteDomain
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain
from repro.queries.compiled import CompiledDescentTable, CompiledLeafTable

SPECS = ("interval", "hypercube:2", "hypercube:3", "geo", "ipv4", "discrete:4096")


# --------------------------------------------------------------------------- #
# the retired compile steps, copied verbatim
# --------------------------------------------------------------------------- #
class RetiredLeafCompile:
    """``CompiledLeafTable.__init__``'s geometry and CDF steps over leaf tuples."""

    def __init__(self, tree, domain):
        weights = np.maximum(tree.leaf_counts(), 0.0)
        total = float(weights.sum())
        if total <= 0:
            leaves = [()]
            self.probabilities = np.array([1.0])
        else:
            leaves = tree.leaves()
            self.probabilities = weights / total
        self.size = len(self.probabilities)
        self._compile_geometry(domain, leaves)
        self._compile_cdf(domain, leaves)

    def _compile_geometry(self, domain, leaves):
        if isinstance(domain, UnitInterval):
            self.kind = "interval"
            bounds = [domain.cell_bounds(theta) for theta in leaves]
            self.low = np.array([b[0] for b in bounds])
            self.high = np.array([b[1] for b in bounds])
            self.width = self.high - self.low
        elif isinstance(domain, (Hypercube, GeoDomain)):
            self.kind = "box"
            self.dimension = 2 if isinstance(domain, GeoDomain) else domain.dimension
            bounds = [domain.cell_bounds(theta) for theta in leaves]
            self.low = np.array([b[0] for b in bounds], dtype=float).reshape(
                self.size, self.dimension
            )
            self.high = np.array([b[1] for b in bounds], dtype=float).reshape(
                self.size, self.dimension
            )
            self.width = self.high - self.low
        elif isinstance(domain, (IPv4Domain, DiscreteDomain)):
            self.kind = "intrange"
            ranges = [domain.cell_range(theta) for theta in leaves]
            self.low = np.array([r[0] for r in ranges], dtype=np.int64)
            self.high = np.array([r[1] for r in ranges], dtype=np.int64)

    def _compile_cdf(self, domain, leaves):
        if isinstance(domain, (UnitInterval, IPv4Domain, DiscreteDomain)):
            order = sorted(range(self.size), key=leaves.__getitem__)
            self.leaf_order = np.array(order, dtype=np.int64)
            self.cdf = np.cumsum(self.probabilities[self.leaf_order])
        else:
            self.leaf_order = None
            self.cdf = None


def retired_node_points(tree, domain):
    """``CompiledDescentTable._compile_points`` over ``list(tree)``.

    The retired step covered the interval and the integer domains; on the
    box domains the oracle is the same loop over the scalar ``cell_bounds``.
    """
    cells = list(tree)
    if isinstance(domain, (UnitInterval, Hypercube, GeoDomain)):
        bounds = [domain.cell_bounds(theta) for theta in cells]
        return np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds])
    ranges = [domain.cell_range(theta) for theta in cells]
    low = np.array([r[0] for r in ranges], dtype=np.int64)
    high = np.array([r[1] for r in ranges], dtype=np.int64)
    return low, high


# --------------------------------------------------------------------------- #
# trees
# --------------------------------------------------------------------------- #
def _stream(domain, rng, size):
    if isinstance(domain, UnitInterval):
        return rng.beta(2.0, 5.0, size)
    if isinstance(domain, Hypercube):
        return rng.random((size, domain.dimension)) ** 2
    if isinstance(domain, GeoDomain):
        return np.column_stack([rng.uniform(-90, 90, size), rng.uniform(-180, 180, size)])
    if isinstance(domain, IPv4Domain):
        return (rng.beta(2.0, 5.0, size) * (2**32 - 1)).astype(np.int64)
    return (rng.random(size) ** 3 * domain.size).astype(np.int64)


def _chain(depth: int) -> PartitionTree:
    """Mass split at every level along one path down to ``depth``."""
    tree = PartitionTree(16.0)
    code = 0
    for level in range(1, depth + 1):
        tree.append_level([code << 1, (code << 1) | 1], [9.0, 7.0])
        code = (code << 1) | (level % 2)
    return tree


def _trees(spec):
    domain = make_domain(spec)
    rng = np.random.default_rng(11)
    trees = {
        "exact": build_exact_tree(_stream(domain, rng, 600), domain, depth=6),
        "zero": PartitionTree.from_cells({(): 0.0, (0,): 0.0, (1,): 0.0}),
        "chain": _chain(32 if spec == "ipv4" else 62),
    }
    for consistency in (True, False):
        release = (
            PrivHPBuilder(spec)
            .epsilon(1.0)
            .pruning_k(4)
            .stream_size(1500)
            .seed(9)
            .override(apply_consistency=consistency)
            .build()
            .update_batch(_stream(domain, rng, 1500))
            .release()
        )
        trees["consistent" if consistency else "raw"] = release.tree
    return domain, trees


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", SPECS)
def test_leaf_table_matches_the_retired_compile(spec):
    domain, trees = _trees(spec)
    assert len(set(trees["consistent"].leaf_arrays()[0].tolist())) > 2
    for name, tree in trees.items():
        table = CompiledLeafTable(tree, domain)
        retired = RetiredLeafCompile(tree, domain)
        assert table.kind == retired.kind, name
        for field in ("probabilities", "low", "high"):
            assert _same(getattr(table, field), getattr(retired, field)), (name, field)
        if table.kind != "intrange":
            assert _same(table.width, retired.width), name
        if retired.cdf is None:
            assert table.cdf is None and table.leaf_order is None
        else:
            assert _same(table.leaf_order, retired.leaf_order), name
            assert _same(table.cdf, retired.cdf), name


@pytest.mark.parametrize("spec", SPECS)
def test_descent_table_points_match_the_scalar_cells(spec):
    domain, trees = _trees(spec)
    for name, tree in trees.items():
        table = CompiledDescentTable(tree, domain)
        low, high = retired_node_points(tree, domain)
        assert _same(table.low, low), name
        assert _same(table.high, high), name
        assert table.integer == (low.dtype == np.int64)
