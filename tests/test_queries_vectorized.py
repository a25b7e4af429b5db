"""Byte-identity pins: vectorized query engines vs the retired scalar loops.

The compiled-leaf-table engines (`repro.queries.compiled`) must answer every
query bit-for-bit like the per-leaf Python loops they replaced.  This module
keeps reference implementations of those retired loops (copied verbatim from
the pre-compilation engines) and compares answers with exact ``==`` -- no
tolerances -- on randomized private and exact trees over all five domains.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PrivHPBuilder
from repro.baselines.pmm import build_exact_tree
from repro.core.tree import PartitionTree
from repro.domain.discrete import DiscreteDomain
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain
from repro.queries import compiled
from repro.queries.quantiles import QuantileEngine
from repro.queries.range_queries import RangeQueryEngine


# --------------------------------------------------------------------------- #
# reference implementations: the retired scalar loops, copied verbatim
# --------------------------------------------------------------------------- #
def _interval_overlap(cell_low, cell_high, low, high):
    return max(0.0, min(cell_high, high) - max(cell_low, low))


class ScalarRangeReference:
    """The pre-compilation ``RangeQueryEngine`` hot loops, kept as the oracle."""

    def __init__(self, tree, domain):
        self.tree = tree
        self.domain = domain
        leaves = tree.leaves()
        weights = np.array([max(tree.count(theta), 0.0) for theta in leaves])
        total = float(weights.sum())
        if total <= 0:
            self._leaf_probabilities = {(): 1.0}
        else:
            self._leaf_probabilities = {
                theta: float(weight / total) for theta, weight in zip(leaves, weights)
            }

    def _cell_fraction(self, theta, lower, upper):
        domain = self.domain
        if isinstance(domain, UnitInterval):
            cell_low, cell_high = domain.cell_bounds(theta)
            width = cell_high - cell_low
            if width <= 0:
                return 0.0
            return _interval_overlap(cell_low, cell_high, float(lower), float(upper)) / width
        if isinstance(domain, (Hypercube, GeoDomain)):
            cell_low, cell_high = domain.cell_bounds(theta)
            if isinstance(domain, GeoDomain):
                lower = domain._normalise(lower)
                upper = domain._normalise(upper)
            lower = np.asarray(lower, dtype=float).ravel()
            upper = np.asarray(upper, dtype=float).ravel()
            fraction = 1.0
            for axis in range(len(cell_low)):
                width = cell_high[axis] - cell_low[axis]
                if width <= 0:
                    return 0.0
                overlap = _interval_overlap(
                    cell_low[axis], cell_high[axis], lower[axis], upper[axis]
                )
                fraction *= overlap / width
            return fraction
        cell_low, cell_high = domain.cell_range(theta)
        if cell_low > cell_high:
            return 0.0
        low = int(lower) if not isinstance(lower, str) else IPv4Domain.parse(lower)
        high = int(upper) if not isinstance(upper, str) else IPv4Domain.parse(upper)
        overlap = max(0, min(cell_high, high) - max(cell_low, low) + 1)
        return overlap / (cell_high - cell_low + 1)

    def mass(self, lower, upper):
        total = 0.0
        for theta, probability in self._leaf_probabilities.items():
            if probability <= 0:
                continue
            total += probability * self._cell_fraction(theta, lower, upper)
        return float(min(max(total, 0.0), 1.0))

    def count(self, lower, upper):
        return self.mass(lower, upper) * max(self.tree.root_count, 0.0)

    def cdf(self, point):
        if isinstance(self.domain, UnitInterval):
            return self.mass(0.0, float(point))
        return self.mass(0, point)

    def marginal(self, axis, bins=32):
        edges = np.linspace(0.0, 1.0, bins + 1)
        masses = np.zeros(bins)
        for theta, probability in self._leaf_probabilities.items():
            if probability <= 0:
                continue
            cell_low, cell_high = self.domain.cell_bounds(theta)
            width = cell_high[axis] - cell_low[axis]
            if width <= 0:
                continue
            for bin_index in range(bins):
                overlap = _interval_overlap(
                    cell_low[axis], cell_high[axis], edges[bin_index], edges[bin_index + 1]
                )
                masses[bin_index] += probability * overlap / width
        return masses


class ScalarQuantileReference:
    """The pre-compilation per-probability tree descent, kept as the oracle."""

    def __init__(self, tree, domain):
        self.tree = tree
        self.domain = domain

    def _cell_upper_point(self, theta):
        if isinstance(self.domain, UnitInterval):
            _, upper = self.domain.cell_bounds(theta)
            return float(upper)
        _, upper = self.domain.cell_range(theta)
        return int(upper)

    def _cell_interpolated_point(self, theta, fraction):
        fraction = min(max(fraction, 0.0), 1.0)
        if isinstance(self.domain, UnitInterval):
            lower, upper = self.domain.cell_bounds(theta)
            return float(lower + fraction * (upper - lower))
        lower, upper = self.domain.cell_range(theta)
        if lower > upper:
            return int(lower)
        return int(round(lower + fraction * (upper - lower)))

    def quantile(self, probability):
        total = max(self.tree.root_count, 0.0)
        if total <= 0:
            return self._cell_interpolated_point((), probability)
        remaining = probability * total
        theta = ()
        while theta + (0,) in self.tree:
            left, right = theta + (0,), theta + (1,)
            left_count = max(self.tree.get(left, 0.0), 0.0)
            if left_count >= remaining:
                theta = left
            else:
                remaining -= left_count
                theta = right
        leaf_count = max(self.tree.get(theta, 0.0), 0.0)
        if leaf_count <= 0:
            return self._cell_upper_point(theta)
        return self._cell_interpolated_point(theta, remaining / leaf_count)

    def quantiles(self, probabilities):
        return np.asarray([self.quantile(float(p)) for p in probabilities])


# --------------------------------------------------------------------------- #
# randomized trees and workloads per domain
# --------------------------------------------------------------------------- #
DOMAINS = {
    "interval": UnitInterval(),
    "hypercube": Hypercube(2),
    "ipv4": IPv4Domain(),
    "geo": GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0),
    "discrete": DiscreteDomain(4096),
}
DOMAIN_SPECS = {
    "interval": "interval",
    "hypercube": "hypercube:2",
    "ipv4": "ipv4",
    "geo": "geo:24,49,-125,-66",
    "discrete": "discrete:4096",
}
ORDERED = ("interval", "ipv4", "discrete")
VECTOR = ("hypercube", "geo")


def _stream(name, rng, size=1500):
    if name == "interval":
        return rng.beta(2.0, 5.0, size)
    if name == "hypercube":
        return rng.random((size, 2))
    if name == "ipv4":
        return rng.integers(0, 2**32, size)
    if name == "geo":
        return np.column_stack(
            [rng.uniform(24.0, 49.0, size), rng.uniform(-125.0, -66.0, size)]
        )
    return rng.integers(0, 4096, size)


def _noisy_tree(name, seed):
    rng = np.random.default_rng(seed)
    data = _stream(name, rng)
    release = (
        PrivHPBuilder(DOMAIN_SPECS[name])
        .epsilon(1.0)
        .pruning_k(4)
        .stream_size(len(data))
        .seed(seed)
        .build()
        .update_batch(data)
        .release()
    )
    return release.tree


def _random_bounds(name, rng, count=40):
    """Random (lower, upper) query bounds in each domain's raw coordinates."""
    if name == "interval":
        pairs = np.sort(rng.random((count, 2)), axis=1)
        return [(float(a), float(b)) for a, b in pairs]
    if name == "hypercube":
        corners = np.sort(rng.random((count, 2, 2)), axis=1)
        return [(list(c[0]), list(c[1])) for c in corners]
    if name == "ipv4":
        pairs = np.sort(rng.integers(0, 2**32, (count, 2)), axis=1)
        bounds = [(int(a), int(b)) for a, b in pairs]
        bounds.append(("10.0.0.0", "10.255.255.255"))
        return bounds
    if name == "geo":
        lats = np.sort(rng.uniform(24.0, 49.0, (count, 2)), axis=1)
        lons = np.sort(rng.uniform(-125.0, -66.0, (count, 2)), axis=1)
        return [
            ([la[0], lo[0]], [la[1], lo[1]]) for la, lo in zip(lats, lons)
        ]
    pairs = np.sort(rng.integers(0, 4096, (count, 2)), axis=1)
    return [(int(a), int(b)) for a, b in pairs]


def _edge_bounds(name, tree, rng, count=4):
    """Bounds on the edges of the compiled table's leaf cells.

    Each picked leaf gives its own cell, a box from one leaf's lower corner
    to another's upper corner, and ``lower == upper`` at both of its edges
    (one-item ranges on the integer domains); the domain's ends follow,
    with ``-0.0`` beside ``0.0`` on the interval and the hypercube.
    """
    table = compiled.CompiledLeafTable(tree, DOMAINS[name])
    picks = rng.integers(0, len(table), (count, 2))
    if name in ("ipv4", "discrete"):
        low, high = table.low.tolist(), table.high.tolist()
        bounds = []
        for i, j in picks:
            if low[i] <= high[i]:
                bounds += [(low[i], high[i]), (low[i], low[i]), (high[i], high[i])]
            bounds.append((min(low[i], low[j]), max(high[i], high[j])))
        last = 2**32 - 1 if name == "ipv4" else 4095
        return bounds + [(0, 0), (last, last), (0, last), (0, 1), (last - 1, last)]
    if name == "interval":
        low, high = table.low.tolist(), table.high.tolist()
        bounds = []
        for i, j in picks:
            bounds += [(low[i], high[i]), (low[i], low[i]), (high[i], high[i])]
            bounds.append((min(low[i], low[j]), max(high[i], high[j])))
        ends = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0), (1.0, 1.0)]
        return bounds + ends + [(-0.0, 1.0), (0.0, 1.0), (-0.0, 0.5), (0.5, 1.0)]
    low, high = table.low, table.high
    if name == "geo":
        # The table holds normalised corners; queries take (lat, lon).
        low, high = DOMAINS[name]._denormalise(low), DOMAINS[name]._denormalise(high)
    bounds = []
    for i, j in picks:
        bounds += [(low[i].tolist(), high[i].tolist()), (low[i].tolist(), low[i].tolist())]
        bounds.append((high[i].tolist(), high[i].tolist()))
        bounds.append((np.minimum(low[i], low[j]).tolist(), np.maximum(high[i], high[j]).tolist()))
    if name == "geo":
        return bounds + [([24.0, -125.0], [49.0, -66.0]), ([24.0, -125.0], [24.0, -125.0])]
    ends = [
        ([-0.0, -0.0], [0.0, 0.0]),
        ([-0.0, 0.0], [1.0, -0.0]),
        ([0.0, 0.0], [1.0, 1.0]),
        ([-0.0, -0.0], [1.0, 1.0]),
        ([1.0, 1.0], [1.0, 1.0]),
        ([-0.0, 0.5], [0.5, 1.0]),
    ]
    return bounds + ends


def _degenerate_tree():
    return PartitionTree(0.0)


def _trees(name):
    trees = [_noisy_tree(name, seed) for seed in (11, 97)]
    rng = np.random.default_rng(5)
    trees.append(build_exact_tree(_stream(name, rng, 400), DOMAINS[name], depth=5))
    trees.append(_degenerate_tree())
    return trees


# --------------------------------------------------------------------------- #
# pins
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", list(DOMAINS))
def test_mass_and_count_bit_identical(name):
    domain = DOMAINS[name]
    rng = np.random.default_rng(42)
    for tree in _trees(name):
        engine = RangeQueryEngine(tree, domain)
        reference = ScalarRangeReference(tree, domain)
        bounds = _random_bounds(name, rng) + _edge_bounds(name, tree, rng)
        for lower, upper in bounds:
            assert engine.mass(lower, upper) == reference.mass(lower, upper)
            assert engine.count(lower, upper) == reference.count(lower, upper)
        batch = engine.mass_many([b[0] for b in bounds], [b[1] for b in bounds])
        assert batch.tolist() == [reference.mass(lo, hi) for lo, hi in bounds]
        counts = engine.count_many([b[0] for b in bounds], [b[1] for b in bounds])
        assert counts.tolist() == [reference.count(lo, hi) for lo, hi in bounds]


@pytest.mark.parametrize("name", list(DOMAINS))
def test_mass_and_count_bit_identical_across_blocks(name, monkeypatch):
    """The same pins with every batch split into several evaluation blocks.

    At the default block size each 40-query batch here is one block.  With
    39 elements a block holds one row of the 520- and 32-leaf trees, and
    the 1-leaf tree's batch splits into 39 rows and a short last block.
    """
    monkeypatch.setattr(compiled, "_BLOCK_ELEMENTS", 39)
    test_mass_and_count_bit_identical(name)


@pytest.mark.parametrize("name", list(ORDERED))
def test_cdf_bit_identical(name):
    domain = DOMAINS[name]
    rng = np.random.default_rng(43)
    random_points = [upper for _, upper in _random_bounds(name, rng, count=25) if not isinstance(upper, str)]
    for tree in _trees(name):
        engine = RangeQueryEngine(tree, domain)
        reference = ScalarRangeReference(tree, domain)
        # Leaf edges, the domain's ends and -0.0 beside the random points.
        points = random_points + [bound for pair in _edge_bounds(name, tree, rng) for bound in pair]
        assert [engine.cdf(p) for p in points] == [reference.cdf(p) for p in points]
        assert engine.cdf_many(points).tolist() == [reference.cdf(p) for p in points]


@pytest.mark.parametrize("name", list(VECTOR))
def test_marginal_bit_identical(name):
    domain = DOMAINS[name]
    for tree in _trees(name):
        engine = RangeQueryEngine(tree, domain)
        reference = ScalarRangeReference(tree, domain)
        for axis in (0, 1):
            for bins in (1, 7, 32):
                ours = engine.marginal(axis, bins=bins)
                theirs = reference.marginal(axis, bins=bins)
                assert ours.tolist() == theirs.tolist()


@pytest.mark.parametrize("name", list(ORDERED))
def test_quantiles_bit_identical(name):
    domain = DOMAINS[name]
    rng = np.random.default_rng(44)
    probabilities = np.concatenate([[0.0, 0.25, 0.5, 0.75, 1.0], rng.random(40)])
    for tree in _trees(name):
        engine = QuantileEngine(tree, domain)
        reference = ScalarQuantileReference(tree, domain)
        scalars = [engine.quantile(float(p)) for p in probabilities]
        expected = [reference.quantile(float(p)) for p in probabilities]
        assert scalars == expected
        assert [type(v) for v in scalars] == [type(v) for v in expected]
        batch = engine.quantiles(probabilities)
        assert batch.tolist() == expected
        assert batch.dtype == reference.quantiles(probabilities).dtype


def test_quantiles_batch_validation_matches_scalar():
    tree = build_exact_tree([0.1, 0.4, 0.8], UnitInterval(), depth=3)
    engine = QuantileEngine(tree, UnitInterval())
    with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\], got 1.5"):
        engine.quantiles([0.2, 1.5])
    assert engine.quantiles([]).shape == (0,)


def test_mass_many_empty_batch():
    tree = build_exact_tree([0.1, 0.4, 0.8], UnitInterval(), depth=3)
    engine = RangeQueryEngine(tree, UnitInterval())
    assert engine.mass_many([], []).shape == (0,)
