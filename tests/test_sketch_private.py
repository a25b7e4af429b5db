"""Tests for the private (oblivious-noise) Count-Min sketch."""

import numpy as np
import pytest

from repro.sketch.countmin import CountMinSketch
from repro.sketch.private import PrivateCountMinSketch


class TestPrivateCountMinSketch:
    def test_noise_applied_at_initialisation(self):
        sketch = PrivateCountMinSketch(width=16, depth=3, epsilon=1.0, seed=0, rng=0)
        assert sketch.noise_applied
        # Even before any update, a query returns (pure noise) not exactly zero.
        assert sketch.query((0, 1)) != 0.0

    def test_estimates_track_true_counts_when_budget_is_large(self):
        sketch = PrivateCountMinSketch(width=256, depth=4, epsilon=100.0, seed=1, rng=1)
        for _ in range(50):
            sketch.update((0, 0, 1))
        assert sketch.query((0, 0, 1)) == pytest.approx(50, abs=3)

    def test_noise_scale_property(self):
        sketch = PrivateCountMinSketch(width=8, depth=5, epsilon=0.5, seed=0, rng=0)
        assert sketch.noise_scale == pytest.approx(10.0)
        assert sketch.sensitivity == 5.0

    def test_memory_words(self):
        sketch = PrivateCountMinSketch(width=16, depth=4, epsilon=1.0, seed=0, rng=0)
        assert sketch.memory_words() == 64

    def test_error_bound_includes_noise(self):
        sketch = PrivateCountMinSketch(width=16, depth=4, epsilon=0.5, seed=0, rng=0)
        assert sketch.error_bound(tail_norm=0.0, total_norm=0.0) >= sketch.noise_scale

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            PrivateCountMinSketch(width=8, depth=2, epsilon=0.0)

    def test_same_seed_rng_reproducible(self):
        def build():
            sketch = PrivateCountMinSketch(width=32, depth=3, epsilon=1.0, seed=7, rng=7)
            sketch.update_many([(i % 4,) for i in range(20)])
            return sketch.query((1,))

        assert build() == pytest.approx(build())

    def test_noisy_tables_on_neighbouring_streams_overlap(self):
        """The noisy tables built from neighbouring streams differ by O(noise).

        This is a sanity check of the oblivious-release argument rather than a
        formal DP test: on neighbouring inputs the un-noised tables differ by
        exactly `depth` cells of magnitude 1, which the Laplace(depth/eps)
        noise is calibrated to hide.
        """
        stream_a = [(i % 8,) for i in range(64)]
        stream_b = list(stream_a)
        stream_b[0] = (7,)

        raw_a = CountMinSketch(width=16, depth=3, seed=5)
        raw_b = CountMinSketch(width=16, depth=3, seed=5)
        raw_a.update_many(stream_a)
        raw_b.update_many(stream_b)
        difference = np.abs(raw_a.table - raw_b.table)
        assert difference.sum() == pytest.approx(2 * 3)  # one removal + one addition per row
        assert difference.max() == pytest.approx(1.0)

    def test_update_batch_matches_per_item_updates(self):
        """The batch path lands each key's aggregated count where per-item
        updates put it, on top of the same oblivious noise."""
        keys = np.array([5, 9, 200, 513], dtype=np.uint64)
        counts = np.array([3.0, 1.0, 2.0, 4.0])
        batched = PrivateCountMinSketch(width=32, depth=4, epsilon=1.0, seed=2, rng=0)
        batched.update_batch(keys, counts)
        sequential = PrivateCountMinSketch(width=32, depth=4, epsilon=1.0, seed=2, rng=0)
        for key, count in zip(keys, counts):
            for _ in range(int(count)):
                sequential.update(int(key))
        np.testing.assert_allclose(batched.table, sequential.table)
        assert batched.updates == sequential.updates
