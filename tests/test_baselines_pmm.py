"""Tests for the PMM baseline."""

import numpy as np
import pytest

from repro.baselines.pmm import PMMMethod, build_exact_tree
from repro.baselines.srrw import SRRWMethod
from repro.metrics.wasserstein import wasserstein1_1d


class TestBuildExactTree:
    def test_counts_are_exact_path_counts(self, interval):
        data = [0.1, 0.2, 0.8]
        tree = build_exact_tree(data, interval, depth=2)
        assert tree.count(()) == 3
        assert tree.count((0,)) == 2
        assert tree.count((1,)) == 1
        assert tree.is_consistent()

    def test_complete_structure(self, interval, rng):
        tree = build_exact_tree(rng.random(50), interval, depth=4)
        assert len(tree) == 2**5 - 1


class TestPMMMethod:
    def test_fit_returns_sampler_in_domain(self, interval, rng):
        method = PMMMethod(interval, epsilon=1.0, max_depth=8)
        sampler = method.fit(rng.random(300), rng=0)
        samples = sampler.sample(200)
        assert np.all((samples >= 0) & (samples <= 1))

    def test_memory_matches_full_tree(self, interval, rng):
        method = PMMMethod(interval, epsilon=1.0, max_depth=8)
        method.fit(rng.random(300), rng=0)
        depth = method._resolve_depth(300)
        assert method.memory_words() == 2 * (2 ** (depth + 1) - 1)

    def test_memory_zero_before_fit(self, interval):
        assert PMMMethod(interval, epsilon=1.0).memory_words() == 0

    def test_depth_scales_with_epsilon_n(self, interval):
        method = PMMMethod(interval, epsilon=1.0, max_depth=30)
        assert method._resolve_depth(1024) == 10
        assert method._resolve_depth(4096) == 12

    def test_depth_capped(self, interval):
        method = PMMMethod(interval, epsilon=1.0, max_depth=6)
        assert method._resolve_depth(10**6) == 6

    def test_high_budget_low_error(self, interval, rng):
        data = rng.beta(2, 6, size=2000)
        method = PMMMethod(interval, epsilon=500.0, max_depth=12)
        sampler = method.fit(data, rng=0)
        assert wasserstein1_1d(data, sampler.sample(2000)) < 0.02

    @pytest.mark.parametrize("method_class", [PMMMethod, SRRWMethod])
    def test_tree_is_consistent_after_fit(self, interval, rng, method_class):
        method = method_class(interval, epsilon=1.0, max_depth=8)
        method.fit(rng.random(200), rng=0)
        assert method._tree.is_consistent()

    def test_uniform_allocation_supported(self, interval, rng):
        method = PMMMethod(interval, epsilon=1.0, max_depth=8, budget_allocation="uniform")
        sampler = method.fit(rng.random(200), rng=0)
        assert sampler.total_mass >= 0

    def test_works_on_hypercube(self, square, rng):
        method = PMMMethod(square, epsilon=2.0, max_depth=8)
        sampler = method.fit(rng.random((300, 2)), rng=0)
        assert sampler.sample(50).shape == (50, 2)

    def test_invalid_parameters(self, interval):
        with pytest.raises(ValueError):
            PMMMethod(interval, epsilon=0.0)
        with pytest.raises(ValueError):
            PMMMethod(interval, epsilon=1.0, budget_allocation="bad")
        with pytest.raises(ValueError):
            PMMMethod(interval, epsilon=1.0, max_depth=0)

    def test_empty_data_rejected(self, interval):
        with pytest.raises(ValueError):
            PMMMethod(interval, epsilon=1.0).fit([], rng=0)
