"""Tests for the synthetic data generator (Section 5 sampling)."""

import functools
from bisect import bisect_left

import numpy as np
import pytest

from repro.api import PrivHPBuilder
from repro.api.registry import make_domain
from repro.api.release import Release
from repro.baselines.pmm import build_exact_tree
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.discrete import DiscreteDomain
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain


def weighted_tree():
    """A depth-2 tree putting 3/4 of the mass in the left half."""
    return PartitionTree.from_cells(
        {
            (): 100.0,
            (0,): 75.0,
            (1,): 25.0,
            (0, 0): 50.0,
            (0, 1): 25.0,
            (1, 0): 25.0,
            (1, 1): 0.0,
        }
    )


class TestSampling:
    def test_samples_lie_in_domain(self, interval, rng):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=rng)
        samples = generator.sample(500)
        assert samples.shape == (500,)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= 1.0)

    def test_sample_size_zero(self, interval, rng):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=rng)
        assert generator.sample(0).shape[0] == 0

    def test_negative_size_rejected(self, interval, rng):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=rng)
        with pytest.raises(ValueError):
            generator.sample(-1)

    def test_leaf_frequencies_match_counts(self, interval):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=0)
        samples = generator.sample(8000)
        # Leaf (0,0) covers [0, 0.25) and holds half the mass.
        fraction_first_quarter = np.mean(samples < 0.25)
        assert fraction_first_quarter == pytest.approx(0.5, abs=0.03)
        # Leaf (1,1) covers [0.75, 1] and holds no mass.
        assert np.mean(samples >= 0.75) == pytest.approx(0.0, abs=0.01)

    def test_two_dimensional_output_shape(self, square, rng):
        tree = PartitionTree.from_cells({(): 10.0, (0,): 10.0, (1,): 0.0})
        generator = SyntheticDataGenerator(tree, square, rng=rng)
        samples = generator.sample(50)
        assert samples.shape == (50, 2)
        # All the mass sits in the x < 0.5 half.
        assert np.all(samples[:, 0] <= 0.5)

    def test_empty_tree_falls_back_to_uniform(self, interval, rng):
        generator = SyntheticDataGenerator(PartitionTree(0.0), interval, rng=rng)
        samples = generator.sample(200)
        assert np.all((samples >= 0.0) & (samples <= 1.0))
        # Roughly uniform: both halves occupied.
        assert 0.3 < np.mean(samples < 0.5) < 0.7

    def test_reproducible_with_seed(self, interval):
        first = SyntheticDataGenerator(weighted_tree(), interval, rng=42).sample(20)
        second = SyntheticDataGenerator(weighted_tree(), interval, rng=42).sample(20)
        np.testing.assert_allclose(first, second)


class TestLeafProbabilities:
    def test_probabilities_sum_to_one(self, interval):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=0)
        probabilities = generator.leaf_probabilities()
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_probabilities_proportional_to_counts(self, interval):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=0)
        probabilities = generator.leaf_probabilities()
        assert probabilities[(0, 0)] == pytest.approx(0.5)
        assert probabilities[(1, 1)] == pytest.approx(0.0)

    def test_negative_counts_clamped(self, interval):
        tree = weighted_tree()
        tree.level(2)[1][2] = -10.0
        generator = SyntheticDataGenerator(tree, interval, rng=0)
        probabilities = generator.leaf_probabilities()
        assert probabilities[(1, 0)] == 0.0
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_degenerate_tree_probability(self, interval):
        generator = SyntheticDataGenerator(PartitionTree(0.0), interval, rng=0)
        assert generator.leaf_probabilities() == {(): 1.0}


class TestUtilities:
    def test_total_mass_and_memory(self, interval):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=0)
        assert generator.total_mass == pytest.approx(100.0)
        assert generator.memory_words() == 2 * 7


#: A domain of each kind, with a draw of 300 points inside it.
EMPTY_REQUEST_DOMAINS = {
    "interval": (UnitInterval(), lambda rng: rng.beta(2.0, 5.0, 300)),
    "hypercube:2": (Hypercube(2), lambda rng: rng.random((300, 2))),
    "geo": (
        GeoDomain(),
        lambda rng: np.column_stack([rng.uniform(-90, 90, 300), rng.uniform(-180, 180, 300)]),
    ),
    "ipv4": (IPv4Domain(), lambda rng: rng.integers(0, 2**32, 300)),
    "discrete:100": (DiscreteDomain(100), lambda rng: rng.integers(0, 100, 300)),
}


def _release(name: str) -> Release:
    domain, draw = EMPTY_REQUEST_DOMAINS[name]
    tree = build_exact_tree(draw(np.random.default_rng(0)), domain, depth=5)
    return Release(SyntheticDataGenerator(tree, domain, rng=3))


class TestEmptyRequests:
    """An empty request answers an empty array with the shape past the first
    axis and the dtype of a non-empty answer, and draws no randomness."""

    @pytest.mark.parametrize("name", list(EMPTY_REQUEST_DOMAINS))
    def test_sample_zero(self, name):
        release, twin = _release(name), _release(name)
        empty = release.sample(0)
        drawn = twin.sample(3)
        assert empty.shape == (0, *drawn.shape[1:])
        assert empty.dtype == drawn.dtype
        np.testing.assert_array_equal(release.sample(3), drawn)

    @pytest.mark.parametrize("name", ["interval", "ipv4", "discrete:100"])
    def test_empty_quantiles(self, name):
        release = _release(name)
        empty = release.quantiles([])
        assert empty.shape == (0,)
        assert empty.dtype == release.quantiles([0.5]).dtype


# --------------------------------------------------------------------------- #
# the retired per-point walk, copied verbatim as the oracle
# --------------------------------------------------------------------------- #
class RetiredWalk:
    """``SyntheticDataGenerator``'s per-point sampler before the batch walk.

    ``_levels`` and ``_draw`` are the retired methods, unchanged.  On the
    interval, hypercube and geo domains the batch sampler must reproduce
    them byte for byte at the same seed.
    """

    def __init__(self, tree, domain, rng):
        self.tree = tree
        self.domain = domain
        self._rng = np.random.default_rng(rng)

    def sample(self, size):
        levels = self._levels()
        return np.asarray([self._draw(levels) for _ in range(size)])

    def _levels(self) -> list[tuple[list[int], list[float]]]:
        """The tree's levels below the root as plain lists, for the walks."""
        return [
            (codes.tolist(), counts.tolist())
            for codes, counts in map(self.tree.level, range(1, self.tree.depth() + 1))
        ]

    def _draw(self, levels):
        """One root-to-leaf walk over ``levels``, then a point of the leaf."""
        total = self.tree.root_count
        if total <= 0:
            return self.domain.sample_cell((), self._rng)

        threshold = self._rng.uniform(0.0, total)
        theta = ()
        code = 0
        for codes, counts in levels:
            left = bisect_left(codes, code << 1)
            if left == len(codes) or codes[left] != code << 1:
                break
            left_count = max(counts[left], 0.0)
            if left_count >= threshold:
                theta, code = theta + (0,), code << 1
            else:
                threshold -= left_count
                theta, code = theta + (1,), (code << 1) | 1
        return self.domain.sample_cell(theta, self._rng)


FLOAT_SPECS = ("interval", "hypercube:2", "geo")
ALL_SPECS = FLOAT_SPECS + ("ipv4", "discrete:4096")


def _stream(spec: str, size: int) -> np.ndarray:
    rng = np.random.default_rng(2024)
    if spec == "interval":
        return rng.beta(2.0, 6.0, size)
    if spec == "hypercube:2":
        return rng.random((size, 2)) ** 2
    if spec == "ipv4":
        return (rng.beta(2.0, 6.0, size) * (2**32 - 1)).astype(np.int64)
    if spec == "discrete:4096":
        return (rng.random(size) ** 3 * 4096).astype(np.int64)
    return np.column_stack([rng.normal(40.0, 10.0, size), rng.normal(-70.0, 20.0, size)])


@functools.lru_cache(maxsize=None)
def _fitted(spec: str, consistency: bool) -> Release:
    """A private release of 2,000 skewed items; raw trees keep negative counts."""
    return (
        PrivHPBuilder(spec)
        .epsilon(1.0)
        .pruning_k(8)
        .stream_size(2000)
        .seed(5)
        .override(apply_consistency=consistency)
        .build()
        .update_batch(_stream(spec, 2000))
        .release()
    )


def _bytes(samples: np.ndarray) -> bytes:
    return f"{samples.dtype.str}{samples.shape}".encode() + np.ascontiguousarray(samples).tobytes()


class TestMatchesRetiredWalk:
    @pytest.mark.parametrize("size", [64, 20_000])
    @pytest.mark.parametrize("consistency", [True, False], ids=["consistent", "raw"])
    @pytest.mark.parametrize("spec", FLOAT_SPECS)
    def test_samples_are_byte_identical(self, spec, consistency, size):
        release = _fitted(spec, consistency)
        if not consistency:
            assert release.tree.leaf_counts().min() < 0
        batch = SyntheticDataGenerator(release.tree, release.domain, rng=17).sample(size)
        oracle = RetiredWalk(release.tree, release.domain, 17).sample(size)
        assert _bytes(batch) == _bytes(oracle)

    @pytest.mark.parametrize("spec", FLOAT_SPECS)
    def test_sample_one_and_repeated_calls_continue_the_stream(self, spec):
        release = _fitted(spec, True)
        generator = SyntheticDataGenerator(release.tree, release.domain, rng=4)
        oracle = RetiredWalk(release.tree, release.domain, 4)
        first = generator.sample_one()
        rest = generator.sample(10)
        assert _bytes(np.asarray(first)) == _bytes(np.asarray(oracle.sample(1)[0]))
        assert _bytes(rest) == _bytes(oracle.sample(10))


def _walk_probabilities(tree: PartitionTree) -> np.ndarray:
    """Exact landing probabilities of the walk, in ``tree.leaf_arrays()`` order.

    The threshold is uniform on ``[0, root)``.  A node receives an interval
    ``(low, high]`` of remaining thresholds; its left child keeps those at
    most the clamped left count ``cut``, its right child the rest, shifted
    down by ``cut``.  This holds on inconsistent trees too.
    """
    spans = {(0, 0): (0.0, tree.root_count)}
    for level in range(1, tree.depth() + 1):
        codes, counts = tree.level(level)
        for left, count in zip(codes[0::2].tolist(), counts[0::2].tolist()):
            low, high = spans[level - 1, left >> 1]
            cut = max(count, 0.0)
            spans[level, left] = (low, max(low, min(high, cut)))
            spans[level, left + 1] = (max(low, cut) - cut, max(high, cut) - cut)
    levels, codes, _ = tree.leaf_arrays()
    lengths = [spans[level, code][1] - spans[level, code][0]
               for level, code in zip(levels.tolist(), codes.tolist())]
    return np.array(lengths) / tree.root_count


def _leaf_of(tree: PartitionTree, domain, samples: np.ndarray) -> np.ndarray:
    """The leaf holding each sample, as an index into ``tree.leaf_arrays()``."""
    levels, codes, _ = tree.leaf_arrays()
    depth = tree.depth()
    deepest = domain.pack_paths(domain.locate_batch(samples, depth))
    # Leaves are prefix-free and cover the domain, so a sample's leaf is the
    # one whose first depth-level code is the largest not above its own.
    starts = codes << (depth - levels)
    order = np.argsort(starts)
    return order[np.searchsorted(starts[order], deepest, side="right") - 1]


class TestLeafFrequencies:
    """Per-leaf sample counts against the walk's leaf probabilities.

    At ``n`` draws a leaf of probability ``p`` receives Binomial(n, p)
    samples.  Every leaf must land within five standard deviations of
    ``n p`` plus one sample, and a leaf of probability zero gets none.  This
    checks the IPv4 and discrete block draws, which no retired stream pins.
    On those two domains a sample's mid-item position ``(x - low + 0.5) /
    (high - low + 1)`` in its leaf's range is uniform on ``[0, 1]`` with
    variance at most 1/12, so the mean over the draws must lie within five
    standard errors of 1/2.
    """

    DRAWS = 200_000

    @pytest.mark.parametrize("consistency", [True, False], ids=["consistent", "raw"])
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_counts_follow_the_walk(self, spec, consistency):
        release = _fitted(spec, consistency)
        tree, domain = release.tree, release.domain
        if isinstance(domain, DiscreteDomain):
            # Below max_depth no two leaves share an item.
            assert tree.depth() <= domain.max_depth
        probabilities = _walk_probabilities(tree)
        assert probabilities.sum() == pytest.approx(1.0)
        samples = SyntheticDataGenerator(tree, domain, rng=99).sample(self.DRAWS)
        leaf = _leaf_of(tree, domain, samples)
        hits = np.bincount(leaf, minlength=probabilities.size)
        expected = self.DRAWS * probabilities
        bound = 5.0 * np.sqrt(expected * (1.0 - probabilities)) + 1.0
        assert np.all(np.abs(hits - expected) <= bound)
        assert np.all(hits[probabilities == 0] == 0)
        if samples.dtype == np.int64:
            levels, codes, _ = tree.leaf_arrays()
            low, high = domain.cell_bounds_batch(levels[leaf], codes[leaf])
            position = (samples - low + 0.5) / (high - low + 1)
            assert abs(position.mean() - 0.5) <= 5.0 * np.sqrt(1.0 / (12.0 * self.DRAWS))


class TestEdgeCases:
    @pytest.mark.parametrize("root", [0.0, -3.0])
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_zero_mass_tree_samples_the_whole_domain(self, spec, root):
        domain = make_domain(spec)
        tree = PartitionTree.from_cells({(): root, (0,): 0.0, (1,): root})
        samples = SyntheticDataGenerator(tree, domain, rng=8).sample(400)
        reference = SyntheticDataGenerator(_fitted(spec, True).tree, domain, rng=8).sample(1)
        assert samples.shape == (400, *reference.shape[1:])
        assert samples.dtype == reference.dtype
        assert all(domain.contains(point) for point in samples)
        # Both halves of the first split are hit.
        assert set(domain.locate_batch(samples, 1)[:, 0].tolist()) == {0, 1}
        if spec in FLOAT_SPECS:
            oracle = RetiredWalk(tree, domain, 8).sample(400)
            assert _bytes(samples) == _bytes(oracle)

    @staticmethod
    def _chain(depth: int) -> PartitionTree:
        """All mass runs down one zig-zag path to a sibling pair at ``depth``."""
        tree = PartitionTree(8.0)
        code = 0
        for level in range(1, depth + 1):
            pair = np.array([code << 1, (code << 1) | 1])
            last = level == depth
            counts = [4.0, 4.0] if last else ([8.0, 0.0] if level % 2 else [0.0, 8.0])
            tree.append_level(pair, counts)
            code = int(pair[0] if level % 2 else pair[1])
        return tree

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_deepest_chain_tree(self, spec):
        domain = make_domain(spec)
        depth = 32 if spec == "ipv4" else 62
        tree = self._chain(depth)
        assert tree.depth() == depth
        samples = SyntheticDataGenerator(tree, domain, rng=6).sample(500)
        codes, _ = tree.level(depth)
        low, high = domain.cell_bounds_batch(depth, codes)
        if isinstance(domain, GeoDomain):
            # The map back from the unit square is monotone on each axis.
            low, high = domain._denormalise(low), domain._denormalise(high)
        inside = [(low[i] <= samples) & (samples <= high[i]) for i in range(2)]
        if samples.ndim == 2:
            inside = [row.all(axis=1) for row in inside]
        assert np.all(inside[0] | inside[1])
        if spec in FLOAT_SPECS:
            assert _bytes(samples) == _bytes(RetiredWalk(tree, domain, 6).sample(500))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_sample_one_types_and_stream(self, spec):
        release = _fitted(spec, True)
        point = SyntheticDataGenerator(release.tree, release.domain, rng=21).sample_one()
        batch = SyntheticDataGenerator(release.tree, release.domain, rng=21).sample(1)
        if spec in ("hypercube:2", "geo"):
            assert isinstance(point, np.ndarray) and point.shape == (2,)
        else:
            assert type(point) is (float if spec == "interval" else int)
        np.testing.assert_array_equal(point, batch[0])

    def test_descent_table_is_compiled_once(self):
        release = _fitted("interval", True)
        generator = SyntheticDataGenerator(release.tree, release.domain, rng=0)
        generator.sample(3)
        table = generator._descent
        generator.sample_one()
        generator.reseed(1).sample(2)
        assert generator._descent is table
