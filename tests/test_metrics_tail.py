"""Tests for tail norms."""

import pytest

from repro.metrics.tail import tail_norm, tail_norm_from_counts


class TestTailNormFromCounts:
    def test_zero_k_is_total_mass(self):
        assert tail_norm_from_counts([5, 3, 2], 0) == 10.0

    def test_removes_largest_coordinates(self):
        assert tail_norm_from_counts([5, 3, 2], 1) == 5.0
        assert tail_norm_from_counts([5, 3, 2], 2) == 2.0

    def test_k_beyond_support_is_zero(self):
        assert tail_norm_from_counts([5, 3], 10) == 0.0

    def test_accepts_dicts(self):
        assert tail_norm_from_counts({"a": 7, "b": 1}, 1) == 1.0

    def test_empty_counts(self):
        assert tail_norm_from_counts([], 3) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            tail_norm_from_counts([1], -1)

    def test_matches_the_sorted_suffix_sum(self):
        counts = [1, 9, 3, 4, 1]
        for k in range(7):
            assert tail_norm_from_counts(counts, k) == sum(sorted(counts, reverse=True)[k:])


class TestTailNormFromData:
    def test_sparse_data_has_zero_tail(self, interval):
        """All mass in two cells => tail_2 = 0 at that level."""
        data = [0.1] * 50 + [0.9] * 50
        assert tail_norm(data, interval, level=1, k=2) == 0.0

    def test_uniform_data_has_large_tail(self, interval, rng):
        data = rng.random(1024)
        value = tail_norm(data, interval, level=6, k=4)
        # 4 of 64 cells removed from a roughly uniform histogram.
        assert value > 0.8 * 1024 * (60 / 64) * 0.8

    def test_tail_monotone_in_k(self, interval, rng):
        data = rng.beta(2, 5, size=500)
        values = [tail_norm(data, interval, level=5, k=k) for k in range(0, 8)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_tail_monotone_in_level(self, interval, rng):
        """Splitting cells can only grow the tail (the paper's key observation)."""
        data = rng.beta(2, 5, size=800)
        k = 4
        shallow = tail_norm(data, interval, level=3, k=k)
        deep = tail_norm(data, interval, level=6, k=k)
        assert shallow <= deep + 1e-9
