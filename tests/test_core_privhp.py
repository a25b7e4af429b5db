"""Tests for the end-to-end PrivHP algorithm (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.metrics.wasserstein import wasserstein1_1d


def small_config(**overrides):
    defaults = dict(
        epsilon=1.0,
        pruning_k=4,
        depth=8,
        level_cutoff=4,
        sketch_width=8,
        sketch_depth=5,
        seed=0,
    )
    defaults.update(overrides)
    return PrivHPConfig(**defaults)


class TestInitialisation:
    def test_tree_is_complete_to_cutoff(self, interval):
        algorithm = PrivHP(interval, small_config(), rng=0)
        assert len(algorithm.tree) == 2 ** (4 + 1) - 1

    def test_one_sketch_per_deep_level(self, interval):
        algorithm = PrivHP(interval, small_config(), rng=0)
        assert sorted(algorithm.sketches) == [5, 6, 7, 8]

    def test_counters_carry_initial_noise(self, interval):
        algorithm = PrivHP(interval, small_config(), rng=0)
        counts = [count for _, count in algorithm.tree.nodes()]
        assert any(abs(count) > 1e-9 for count in counts)

    def test_budget_ledger_sums_to_epsilon(self, interval):
        algorithm = PrivHP(interval, small_config(epsilon=0.7), rng=0)
        assert algorithm.accountant.spent == pytest.approx(0.7)
        assert len(algorithm.level_budgets) == algorithm.config.depth + 1

    def test_uniform_allocation_supported(self, interval):
        algorithm = PrivHP(interval, small_config(budget_allocation="uniform"), rng=0)
        budgets = algorithm.level_budgets
        assert all(b == pytest.approx(budgets[0]) for b in budgets)

    def test_privacy_summary_readable(self, interval):
        algorithm = PrivHP(interval, small_config(), rng=0)
        assert "tree level 0" in algorithm.privacy_summary()


class TestStreaming:
    def test_update_counts_items(self, interval, rng):
        algorithm = PrivHP(interval, small_config(), rng=0)
        for value in rng.random(25):
            algorithm.update(value)
        assert algorithm.items_processed == 25

    def test_update_after_finalize_rejected(self, interval, rng):
        algorithm = PrivHP(interval, small_config(), rng=0)
        algorithm.update_batch(rng.random(10))
        algorithm.release()
        with pytest.raises(RuntimeError):
            algorithm.update(0.5)

    def test_finalize_twice_rejected(self, interval, rng):
        algorithm = PrivHP(interval, small_config(), rng=0)
        algorithm.update_batch(rng.random(10))
        algorithm.release()
        with pytest.raises(RuntimeError):
            algorithm.release()

    def test_exact_counters_track_path_counts(self, interval):
        """With a huge budget the counters equal the true path counts (almost no noise)."""
        config = small_config(epsilon=10_000.0)
        algorithm = PrivHP(interval, config, rng=0)
        data = [0.1] * 20 + [0.9] * 10
        algorithm.update_batch(data)
        # Level-1 cells: [0, 0.5) holds 20 points, [0.5, 1] holds 10.
        assert algorithm.tree.count((0,)) == pytest.approx(20, abs=1.0)
        assert algorithm.tree.count((1,)) == pytest.approx(10, abs=1.0)


class TestFinalize:
    def test_generator_samples_in_domain(self, interval, rng):
        algorithm = PrivHP(interval, small_config(), rng=0)
        algorithm.update_batch(rng.beta(2, 5, size=400))
        release = algorithm.release()
        samples = release.sample(300)
        assert np.all((samples >= 0) & (samples <= 1))

    def test_grown_tree_reaches_depth(self, interval, rng):
        algorithm = PrivHP(interval, small_config(), rng=0)
        algorithm.update_batch(rng.random(400))
        algorithm.release()
        assert algorithm.tree.depth() == algorithm.config.depth

    def test_grown_tree_is_consistent(self, interval, rng):
        algorithm = PrivHP(interval, small_config(), rng=0)
        algorithm.update_batch(rng.random(400))
        algorithm.release()
        assert algorithm.tree.is_consistent()

    def test_memory_respects_pruning_budget(self, interval, rng):
        config = small_config()
        algorithm = PrivHP(interval, config, rng=0)
        algorithm.update_batch(rng.random(500))
        algorithm.release()
        # Tree nodes: the complete tree to L*, plus one full expansion of the
        # level-L* frontier (Algorithm 2 starts from every node at L*), plus at
        # most 2k new nodes for every deeper level.
        max_nodes = (
            (2 ** (config.level_cutoff + 1) - 1)
            + 2 ** (config.level_cutoff + 1)
            + 2 * config.pruning_k * (config.depth - config.level_cutoff - 1)
        )
        assert len(algorithm.tree) <= max_nodes

    def test_high_budget_run_has_low_error(self, interval, rng):
        """With effectively no noise the synthetic data tracks a skewed input closely."""
        data = rng.beta(2.0, 8.0, size=3000)
        config = PrivHPConfig.from_stream_size(len(data), epsilon=1000.0, pruning_k=16, seed=1)
        release = PrivHP(interval, config, rng=1).update_batch(data).release()
        synthetic = release.sample(3000)
        low_noise_error = wasserstein1_1d(data, synthetic)
        assert low_noise_error < 0.05

    def test_more_noise_means_more_error_on_average(self, interval, rng):
        """epsilon = 1000 runs should beat epsilon = 0.1 runs on the same data."""
        data = rng.beta(2.0, 8.0, size=1500)

        def error(epsilon, seed):
            config = PrivHPConfig.from_stream_size(len(data), epsilon=epsilon, pruning_k=8, seed=seed)
            release = PrivHP(interval, config, rng=seed).update_batch(data).release()
            return wasserstein1_1d(data, release.sample(1500))

        tight = np.mean([error(1000.0, seed) for seed in range(3)])
        loose = np.mean([error(0.1, seed) for seed in range(3)])
        assert tight < loose

    def test_works_on_hypercube(self, square, rng):
        data = np.clip(rng.normal(0.5, 0.1, size=(300, 2)), 0, 1)
        config = PrivHPConfig.from_stream_size(len(data), epsilon=2.0, pruning_k=8, seed=0)
        release = PrivHP(square, config, rng=0).update_batch(data).release()
        samples = release.sample(100)
        assert samples.shape == (100, 2)

    def test_works_on_ipv4(self, ipv4, rng):
        addresses = rng.integers(0, 2**32, size=300)
        config = PrivHPConfig.from_stream_size(300, epsilon=2.0, pruning_k=8, seed=0, depth=12)
        release = PrivHP(ipv4, config, rng=0).update_batch(addresses).release()
        samples = release.sample(50)
        assert np.all((samples >= 0) & (samples < 2**32))


class TestMemoryAccounting:
    def test_memory_words_positive_and_stable_under_streaming(self, interval, rng):
        algorithm = PrivHP(interval, small_config(), rng=0)
        before = algorithm.memory_words()
        algorithm.update_batch(rng.random(300))
        after = algorithm.memory_words()
        assert before > 0
        # Streaming must not grow the summary (that is the whole point).
        assert after == before

    def test_memory_grows_only_modestly_after_finalize(self, interval, rng):
        config = small_config()
        algorithm = PrivHP(interval, config, rng=0)
        algorithm.update_batch(rng.random(300))
        before = algorithm.memory_words()
        algorithm.release()
        growth = algorithm.memory_words() - before
        # Growing adds one full expansion of the level-L* frontier plus at most
        # 2k nodes (2 words each) per remaining level.
        allowed = 2 * (
            2 ** (config.level_cutoff + 1)
            + 2 * config.pruning_k * (config.depth - config.level_cutoff - 1)
        )
        assert growth <= allowed
