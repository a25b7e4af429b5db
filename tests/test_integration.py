"""Integration tests: whole-pipeline behaviour across modules.

These tests exercise the public API the way the examples and benchmarks do --
stream in a workload, finalize, sample, evaluate -- and assert the qualitative
properties the paper claims (utility between the non-private floor and the
uniform ceiling, bounded memory, skew sensitivity, epsilon monotonicity).
"""

import numpy as np

from repro import (
    Hypercube,
    IPv4Domain,
    PrivHP,
    PrivHPConfig,
    UnitInterval,
    empirical_wasserstein,
)
from repro.baselines import NonPrivateHistogramMethod, PMMMethod, PrivHPMethod
from repro.metrics.evaluation import evaluate_method
from repro.metrics.tail import tail_norm
from repro.stream.datasets import ipv4_traffic_stream
from repro.stream.generators import sparse_cluster_stream, uniform_stream, zipf_cell_stream
from repro.stream.stream import DataStream


class TestEndToEndInterval:
    def test_pipeline_beats_uniform_sampler(self, rng):
        domain = UnitInterval()
        data = rng.beta(2.0, 8.0, size=4000)
        config = PrivHPConfig.from_stream_size(len(data), epsilon=1.0, pruning_k=8, seed=3)
        release = PrivHP(domain, config, rng=3).update_batch(data).release()
        synthetic = release.sample(4000)
        privhp_error = empirical_wasserstein(data, synthetic)
        uniform_error = empirical_wasserstein(data, rng.random(4000))
        assert privhp_error < 0.5 * uniform_error

    def test_stream_wrapper_integration(self, rng):
        domain = UnitInterval()
        data = rng.random(1000)
        config = PrivHPConfig.from_stream_size(1000, epsilon=1.0, pruning_k=4, seed=0)
        algorithm = PrivHP(domain, config, rng=0)
        stats = DataStream(data).feed(algorithm)
        assert stats.items == 1000
        release = algorithm.release()
        assert release.sample(10).shape == (10,)

    def test_memory_stays_sublinear_as_stream_grows(self, rng):
        domain = UnitInterval()
        words = {}
        for n in (1024, 8192):
            config = PrivHPConfig.from_stream_size(n, epsilon=1.0, pruning_k=4, seed=0)
            algorithm = PrivHP(domain, config, rng=0)
            algorithm.update_batch(rng.random(n))
            algorithm.release()
            words[n] = algorithm.memory_words()
        # An 8x larger stream should cost far less than 8x the memory.
        assert words[8192] < 4 * words[1024]

    def test_epsilon_degrades_gracefully(self, rng):
        domain = UnitInterval()
        data = rng.beta(2.0, 8.0, size=2000)

        def mean_error(epsilon):
            errors = []
            for seed in range(3):
                config = PrivHPConfig.from_stream_size(len(data), epsilon=epsilon,
                                                       pruning_k=8, seed=seed)
                release = PrivHP(domain, config, rng=seed).update_batch(data).release()
                errors.append(empirical_wasserstein(data, release.sample(2000)))
            return float(np.mean(errors))

        assert mean_error(100.0) < mean_error(0.2)

    def test_skewed_streams_are_easier_than_uniform(self, rng):
        """The Delta_approx term: sparse/skewed inputs lose less from pruning."""
        domain = UnitInterval()
        sparse = sparse_cluster_stream(3000, dimension=1, num_clusters=3, rng=rng)
        uniform = uniform_stream(3000, dimension=1, rng=rng)

        def mean_error(data):
            errors = []
            for seed in range(3):
                method = PrivHPMethod(domain, epsilon=1.0, pruning_k=4, seed=seed)
                result = evaluate_method(method, data, domain, repetitions=1,
                                         rng=seed)
                errors.append(result.wasserstein_mean)
            return float(np.mean(errors))

        sparse_tail = tail_norm(sparse, domain, level=10, k=4)
        uniform_tail = tail_norm(uniform, domain, level=10, k=4)
        assert sparse_tail < uniform_tail
        # The *relative* error (error / best achievable for that data) is what
        # the bound predicts; the sparse stream should not be dramatically
        # worse despite aggressive pruning.
        assert mean_error(sparse) < mean_error(uniform) + 0.05


class TestEndToEndComparisons:
    def test_privhp_tracks_pmm_accuracy_with_less_memory(self, rng):
        domain = UnitInterval()
        data = zipf_cell_stream(6000, dimension=1, level=8, exponent=1.4, rng=rng)
        privhp = PrivHPMethod(domain, epsilon=1.0, pruning_k=8, seed=0)
        pmm = PMMMethod(domain, epsilon=1.0, max_depth=14)

        privhp_result = evaluate_method(privhp, data, domain, repetitions=2, rng=0)
        pmm_result = evaluate_method(pmm, data, domain, repetitions=2, rng=0)

        assert privhp.memory_words() < pmm.memory_words() / 2
        # Accuracy within a small constant factor of the full-memory method.
        assert privhp_result.wasserstein_mean < 6 * pmm_result.wasserstein_mean + 0.02

    def test_nonprivate_floor_is_lowest(self, rng):
        domain = UnitInterval()
        data = rng.beta(2, 5, size=3000)
        floor = evaluate_method(NonPrivateHistogramMethod(domain, max_depth=12),
                                data, domain, repetitions=1, rng=0)
        private = evaluate_method(PrivHPMethod(domain, epsilon=0.5, pruning_k=8, seed=0),
                                  data, domain, repetitions=1, rng=0)
        assert floor.wasserstein_mean <= private.wasserstein_mean + 1e-6


class TestEndToEndOtherDomains:
    def test_hypercube_pipeline(self, rng):
        domain = Hypercube(2)
        centres = np.array([[0.2, 0.2], [0.8, 0.7], [0.5, 0.1]])
        labels = rng.integers(0, 3, size=2500)
        data = np.clip(centres[labels] + rng.normal(0, 0.05, (2500, 2)), 0, 1)
        config = PrivHPConfig.from_stream_size(len(data), epsilon=1.0, pruning_k=16, seed=0)
        release = PrivHP(domain, config, rng=0).update_batch(data).release()
        synthetic = release.sample(2500)
        clustered_error = empirical_wasserstein(data, synthetic, domain=domain)
        uniform_error = empirical_wasserstein(data, rng.random((2500, 2)), domain=domain)
        assert clustered_error < uniform_error

    def test_ipv4_pipeline_preserves_heavy_subnets(self, rng):
        domain = IPv4Domain()
        data = ipv4_traffic_stream(4000, num_heavy_subnets=4, heavy_fraction=0.9,
                                   zipf_exponent=1.5, rng=rng)
        config = PrivHPConfig.from_stream_size(len(data), epsilon=1.0, pruning_k=8,
                                               seed=0, depth=16)
        release = PrivHP(domain, config, rng=0).update_batch(data).release()
        synthetic = release.sample(4000)

        true_codes, true_counts = domain.level_frequencies(data, 8)
        synthetic_codes, synthetic_counts = domain.level_frequencies(synthetic, 8)
        top_true = true_codes[np.argsort(-true_counts, kind="stable")[:3]]
        top_synthetic_mass = synthetic_counts[np.isin(synthetic_codes, top_true)].sum()
        # The heavy /8 blocks should still carry a large share of the synthetic data.
        assert top_synthetic_mass > 0.4 * 4000
