"""Tests for the synthetic data generator (Section 5 sampling)."""

import numpy as np
import pytest

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

    def test_leaf_probability_of_point(self, interval):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=0)
        assert generator.leaf_probability_of_point(0.1) == pytest.approx(0.5)
        assert generator.leaf_probability_of_point(0.9) == pytest.approx(0.0)

    def test_degenerate_tree_probability(self, interval):
        generator = SyntheticDataGenerator(PartitionTree(0.0), interval, rng=0)
        assert generator.leaf_probabilities() == {(): 1.0}
        assert generator.leaf_probability_of_point(0.4) == 1.0


class TestUtilities:
    def test_expected_value_estimates_mean(self, interval):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=0)
        estimate = generator.expected_value(lambda x: float(x), num_samples=4000)
        # Mass: 0.5 on [0,0.25), 0.25 on [0.25,0.5), 0.25 on [0.5,0.75).
        expected = 0.5 * 0.125 + 0.25 * 0.375 + 0.25 * 0.625
        assert estimate == pytest.approx(expected, abs=0.02)

    def test_expected_value_requires_positive_samples(self, interval):
        generator = SyntheticDataGenerator(weighted_tree(), interval, rng=0)
        with pytest.raises(ValueError):
            generator.expected_value(lambda x: x, num_samples=0)

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
