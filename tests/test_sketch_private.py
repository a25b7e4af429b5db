"""Tests for the private (oblivious-noise) Count-Min sketch."""

import numpy as np
import pytest

from repro.core.base import cell_keys
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import HashFamily
from repro.sketch.private import PrivateCountMinSketch


class TestPrivateCountMinSketch:
    def test_is_a_count_min_sketch(self):
        sketch = PrivateCountMinSketch(width=16, depth=3, epsilon=1.0, seed=0, rng=0)
        assert isinstance(sketch, CountMinSketch)
        assert (sketch.width, sketch.depth, sketch.seed) == (16, 3, 0)

    def test_noise_applied_at_initialisation(self):
        sketch = PrivateCountMinSketch(width=16, depth=3, epsilon=1.0, seed=0, rng=0)
        assert sketch.noise_applied
        # Even before any update, a query returns (pure noise) not exactly zero.
        assert sketch.query(int(cell_keys(2, np.array([0b01]))[0])) != 0.0

    def test_estimates_track_true_counts_when_budget_is_large(self):
        sketch = PrivateCountMinSketch(width=256, depth=4, epsilon=100.0, seed=1, rng=1)
        key = cell_keys(3, np.array([0b001]))
        sketch.update_batch(key, np.array([50.0]))
        assert sketch.query(int(key[0])) == pytest.approx(50, abs=3)

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
        keys = cell_keys(2, np.arange(4))

        def build():
            sketch = PrivateCountMinSketch(width=32, depth=3, epsilon=1.0, seed=7, rng=7)
            sketch.update_batch(keys, np.full(4, 5.0))
            return sketch.query(int(keys[1]))

        assert build() == pytest.approx(build())

    def test_apply_noise_now_adds_one_laplace_matrix(self):
        """The noise is one ``Laplace(depth/epsilon)`` draw of the table's
        shape, added to the counts already there, and only once."""
        keys = cell_keys(2, np.arange(4))
        sketch = PrivateCountMinSketch(width=8, depth=3, epsilon=0.5, seed=0, apply_noise=False)
        sketch.update_batch(keys, np.array([1.0, 2.0, 3.0, 4.0]))
        raw = sketch.table
        sketch.apply_noise_now(np.random.default_rng(4))
        noise = np.random.default_rng(4).laplace(0.0, 6.0, size=(3, 8))
        assert sketch.table.tobytes() == (raw + noise).tobytes()
        with pytest.raises(RuntimeError):
            sketch.apply_noise_now(np.random.default_rng(4))

    def test_noisy_tables_on_neighbouring_streams_overlap(self):
        """The noisy tables built from neighbouring streams differ by O(noise).

        This is a sanity check of the oblivious-release argument rather than a
        formal DP test: on neighbouring inputs the un-noised tables differ by
        exactly `depth` cells of magnitude 1, which the Laplace(depth/eps)
        noise is calibrated to hide.
        """
        keys = cell_keys(3, np.arange(8))
        counts_a = np.full(8, 8.0)
        counts_b = counts_a + np.eye(8)[7] - np.eye(8)[0]  # one item moved from cell 0 to 7

        raw_a = CountMinSketch(width=16, depth=3, seed=5)
        raw_b = CountMinSketch(width=16, depth=3, seed=5)
        raw_a.update_batch(keys, counts_a)
        raw_b.update_batch(keys, counts_b)
        difference = np.abs(raw_a.table - raw_b.table)
        assert difference.sum() == pytest.approx(2 * 3)  # one removal + one addition per row
        assert difference.max() == pytest.approx(1.0)

    def test_update_batch_lands_on_top_of_the_noise(self):
        """The batch adds each key's count at its oracle buckets, on top of
        the oblivious noise drawn at initialisation."""
        keys = np.array([5, 9, 200, 513], dtype=np.uint64)
        counts = np.array([3.0, 1.0, 2.0, 4.0])
        noise_only = PrivateCountMinSketch(width=32, depth=4, epsilon=1.0, seed=2, rng=0)
        batched = PrivateCountMinSketch(width=32, depth=4, epsilon=1.0, seed=2, rng=0)
        batched.update_batch(keys, counts)
        expected = noise_only.table
        for key, count in zip(keys.tolist(), counts):
            for row, bucket in enumerate(HashFamily(depth=4, width=32, seed=2).buckets(key)):
                expected[row, bucket] += count
        assert batched.table.tobytes() == expected.tobytes()
        assert batched.updates == 10


class TestPrivateMerge:
    def _shard(self, noisy: bool, seed: int = 0) -> PrivateCountMinSketch:
        return PrivateCountMinSketch(width=8, depth=2, epsilon=1.0, seed=seed, rng=1,
                                     apply_noise=noisy)

    def test_merge_adds_tables_and_keeps_one_noise_draw(self):
        raw, noisy = self._shard(False), self._shard(True)
        keys = cell_keys(1, np.array([0, 1]))
        raw.update_batch(keys, np.array([2.0, 3.0]))
        merged = raw.merge(noisy)
        assert isinstance(merged, PrivateCountMinSketch)
        assert merged.noise_applied
        assert merged.table.tobytes() == (raw.table + noisy.table).tobytes()
        assert (merged.total, merged.updates) == (5.0, 5)

    def test_two_noisy_operands_are_refused(self):
        with pytest.raises(ValueError, match="both carry"):
            self._shard(True).merge(self._shard(True))

    def test_merge_requires_matching_parameters(self):
        with pytest.raises(ValueError):
            self._shard(False, seed=0).merge(self._shard(False, seed=1))
