"""Tests for PrivTree, DP-quantile, non-private and PrivHP-adapter methods."""

import numpy as np
import pytest

from repro.baselines.base import PrivHPMethod
from repro.baselines.nonprivate import NonPrivateHistogramMethod
from repro.baselines.privtree import PrivTreeMethod
from repro.baselines.quantile import QuantileMethod
from repro.core.config import PrivHPConfig
from repro.domain.hypercube import Hypercube
from repro.metrics.wasserstein import wasserstein1_1d


class TestPrivTree:
    def test_fit_and_sample(self, interval, rng):
        method = PrivTreeMethod(interval, epsilon=1.0, max_depth=10)
        sampler = method.fit(rng.beta(2, 5, size=400), rng=0)
        samples = sampler.sample(100)
        assert np.all((samples >= 0) & (samples <= 1))

    def test_adaptive_splitting_goes_deeper_where_data_is(self, interval, rng):
        data = np.concatenate([np.full(300, 0.125), rng.random(20)])
        method = PrivTreeMethod(interval, epsilon=5.0, max_depth=8)
        method.fit(data, rng=0)
        tree = method._tree
        # Cells covering the point mass at 0.125 should be split to depth > 2.
        deep_nodes = [theta for theta in tree.leaves() if len(theta) >= 3]
        assert deep_nodes

    def test_memory_after_fit(self, interval, rng):
        method = PrivTreeMethod(interval, epsilon=1.0, max_depth=6)
        assert method.memory_words() == 0
        method.fit(rng.random(200), rng=0)
        assert method.memory_words() > 0

    def test_high_budget_low_error(self, interval, rng):
        data = rng.beta(2, 6, size=1000)
        method = PrivTreeMethod(interval, epsilon=200.0, max_depth=10)
        sampler = method.fit(data, rng=0)
        assert wasserstein1_1d(data, sampler.sample(1000)) < 0.05

    def test_invalid_parameters(self, interval):
        with pytest.raises(ValueError):
            PrivTreeMethod(interval, epsilon=0.0)
        with pytest.raises(ValueError):
            PrivTreeMethod(interval, epsilon=1.0, structure_fraction=1.5)
        with pytest.raises(ValueError):
            PrivTreeMethod(interval, epsilon=1.0, max_depth=0)

    def test_empty_data_rejected(self, interval):
        with pytest.raises(ValueError):
            PrivTreeMethod(interval, epsilon=1.0).fit([], rng=0)

    def test_max_depth_past_the_code_width_raises_at_fit(self, interval, ipv4, rng):
        """Every point is located once at max_depth, so a depth whose cell
        codes do not fit raises at fit, however shallow the tree stays."""
        with pytest.raises(ValueError, match="deeper than 62 levels"):
            PrivTreeMethod(interval, epsilon=0.1, max_depth=63).fit(rng.random(20), rng=0)
        with pytest.raises(ValueError, match="32-bit"):
            PrivTreeMethod(ipv4, epsilon=0.1, max_depth=33).fit(np.arange(20), rng=0)


class TestQuantile:
    def test_fit_and_sample_interval(self, interval, rng):
        method = QuantileMethod(interval, epsilon=1.0, bins=128)
        sampler = method.fit(rng.beta(2, 5, size=500), rng=0)
        samples = sampler.sample(200)
        assert np.all((samples >= 0) & (samples <= 1))

    def test_discrete_domain_outputs_integers(self, discrete, rng):
        method = QuantileMethod(discrete, epsilon=1.0, bins=64)
        sampler = method.fit(rng.integers(0, 100, size=400), rng=0)
        samples = sampler.sample(100)
        assert samples.dtype.kind in "iu"
        assert np.all((samples >= 0) & (samples < 100))

    def test_quantile_function_monotone(self, interval, rng):
        method = QuantileMethod(interval, epsilon=5.0, bins=64)
        sampler = method.fit(rng.beta(2, 5, size=800), rng=0)
        values = [sampler.quantile(p) for p in np.linspace(0, 1, 21)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_quantile_probability_validated(self, interval, rng):
        method = QuantileMethod(interval, epsilon=1.0)
        sampler = method.fit(rng.random(100), rng=0)
        with pytest.raises(ValueError):
            sampler.quantile(1.5)

    def test_memory_bounded_by_bins(self, interval, rng):
        method = QuantileMethod(interval, epsilon=1.0, bins=64)
        method.fit(rng.random(10_000), rng=0)
        assert method.memory_words() <= 2 * 64 + 2

    def test_high_budget_low_error(self, interval, rng):
        data = rng.beta(2, 6, size=2000)
        method = QuantileMethod(interval, epsilon=500.0, bins=256)
        sampler = method.fit(data, rng=0)
        assert wasserstein1_1d(data, sampler.sample(2000)) < 0.02

    def test_rejects_multidimensional_domain(self):
        with pytest.raises(TypeError):
            QuantileMethod(Hypercube(2), epsilon=1.0)

    def test_invalid_parameters(self, interval):
        with pytest.raises(ValueError):
            QuantileMethod(interval, epsilon=0.0)
        with pytest.raises(ValueError):
            QuantileMethod(interval, epsilon=1.0, bins=1)


class TestNonPrivate:
    def test_near_exact_reconstruction(self, interval, rng):
        data = rng.beta(2, 6, size=2000)
        method = NonPrivateHistogramMethod(interval, max_depth=12)
        sampler = method.fit(data, rng=0)
        assert wasserstein1_1d(data, sampler.sample(2000)) < 0.02

    def test_epsilon_is_infinite(self, interval):
        assert NonPrivateHistogramMethod(interval).epsilon == float("inf")

    def test_memory_after_fit(self, interval, rng):
        method = NonPrivateHistogramMethod(interval, max_depth=6)
        method.fit(rng.random(100), rng=0)
        assert method.memory_words() == 2 * (2**7 - 1)

    def test_explicit_depth_respected(self, interval, rng):
        method = NonPrivateHistogramMethod(interval, depth=3)
        method.fit(rng.random(100), rng=0)
        assert method._tree.depth() == 3

    def test_empty_data_rejected(self, interval):
        with pytest.raises(ValueError):
            NonPrivateHistogramMethod(interval).fit([], rng=0)


class TestPrivHPAdapter:
    def test_fit_produces_generator(self, interval, rng):
        method = PrivHPMethod(interval, epsilon=1.0, pruning_k=4, seed=0)
        sampler = method.fit(rng.random(300), rng=0)
        samples = sampler.sample(100)
        assert np.all((samples >= 0) & (samples <= 1))
        assert method.memory_words() > 0

    def test_explicit_config_used(self, interval, rng):
        config = PrivHPConfig(epsilon=1.0, pruning_k=2, depth=6, level_cutoff=3,
                              sketch_width=4, sketch_depth=3, seed=0)
        method = PrivHPMethod(interval, epsilon=1.0, pruning_k=2, config=config)
        method.fit(rng.random(100), rng=0)
        assert method.last_run.config is config

    def test_config_overrides_forwarded(self, interval):
        method = PrivHPMethod(interval, epsilon=1.0, pruning_k=2, depth=9)
        config = method.build_config(1000)
        assert config.depth == 9

    def test_memory_smaller_than_pmm_for_large_streams(self, interval, rng):
        """The headline Table-1 property: PrivHP's summary is much smaller than PMM's."""
        from repro.baselines.pmm import PMMMethod

        data = rng.random(8192)
        privhp = PrivHPMethod(interval, epsilon=1.0, pruning_k=4, seed=0)
        pmm = PMMMethod(interval, epsilon=1.0, max_depth=16)
        privhp.fit(data, rng=0)
        pmm.fit(data, rng=0)
        assert privhp.memory_words() < pmm.memory_words() / 2
