"""Tests for the Count-Min sketch."""

import numpy as np
import pytest

from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import canonical_key


class TestCountMinBasics:
    def test_query_never_underestimates_nonnegative_stream(self):
        sketch = CountMinSketch(width=32, depth=4, seed=0)
        counts = {("a" + str(i)): (i % 7) + 1 for i in range(100)}
        for key, count in counts.items():
            sketch.update(key, count)
        for key, count in counts.items():
            assert sketch.query(key) >= count

    def test_exact_when_no_collisions(self):
        sketch = CountMinSketch(width=1024, depth=5, seed=1)
        sketch.update((0, 1), 3)
        sketch.update((1, 0), 5)
        assert sketch.query((0, 1)) == pytest.approx(3)
        assert sketch.query((1, 0)) == pytest.approx(5)

    def test_absent_key_estimate_is_small(self):
        sketch = CountMinSketch(width=256, depth=6, seed=2)
        for i in range(50):
            sketch.update(i, 1)
        assert sketch.query("never-seen") <= 2

    def test_total_and_updates_tracked(self):
        sketch = CountMinSketch(width=8, depth=2, seed=0)
        sketch.update("x", 2.0)
        sketch.update("y", 3.0)
        assert sketch.total == pytest.approx(5.0)
        assert sketch.updates == 2

    def test_update_many_and_query_many(self):
        sketch = CountMinSketch(width=64, depth=4, seed=0)
        keys = [(i % 10,) for i in range(100)]
        sketch.update_many(keys)
        estimates = sketch.query_many([canonical_key((i,)) for i in range(10)])
        assert estimates.shape == (10,)
        assert np.all(estimates >= 10)
        assert estimates.tolist() == [sketch.query((i,)) for i in range(10)]

    @pytest.mark.parametrize(
        "depth, n", [(3, 4), (20, 25), (20, 250), (20, 820), (20, 16385)]
    )
    def test_query_many_keeps_the_first_row_on_ties(self, depth, n):
        """A later row wins only when strictly smaller, so ``min(0.0, -0.0)``
        stays ``0.0`` as with Python's ``min``: the first zero row wins, with
        or without a larger row ahead of it, inside one block of hashed rows
        and across blocks (25 and 820 keys split 20 rows into 19 + 1, and
        250 keys, like every count past 16,384, hash one row per block)."""
        sketch = CountMinSketch(width=4, depth=depth, seed=0)
        keys = np.arange(n, dtype=np.uint64)
        for lead in ([], [[1.0] * 4]):
            for first, later in ((0.0, -0.0), (-0.0, 0.0)):
                rows = lead + [[first] * 4] + [[later] * 4] * (depth - 1 - len(lead))
                sketch.load_state(np.array(rows), total=0.0, updates=0)
                assert (np.signbit(sketch.query_many(keys)) == np.signbit(first)).all()

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0, depth=4)
        with pytest.raises(ValueError):
            CountMinSketch(width=4, depth=0)

    def test_memory_words_is_table_size(self):
        sketch = CountMinSketch(width=32, depth=4)
        assert sketch.memory_words() == 128


class TestCountMinAccuracy:
    def test_error_shrinks_with_width(self, rng):
        keys = rng.zipf(1.3, size=5000) % 1000
        errors = {}
        for width in (8, 64, 512):
            sketch = CountMinSketch(width=width, depth=4, seed=0)
            for key in keys:
                sketch.update(int(key))
            true_counts = {}
            for key in keys:
                true_counts[int(key)] = true_counts.get(int(key), 0) + 1
            errors[width] = np.mean(
                [sketch.query(key) - count for key, count in true_counts.items()]
            )
        assert errors[512] <= errors[64] <= errors[8]

    def test_lemma4_expected_error_bound_holds_on_skewed_stream(self, rng):
        """Mean overestimate stays below the Lemma-4 style tail bound (with slack)."""
        width, depth = 64, 5
        keys = (rng.zipf(1.5, size=8000) % 500).astype(int)
        true_counts: dict = {}
        for key in keys:
            true_counts[key] = true_counts.get(key, 0) + 1
        sketch = CountMinSketch(width=width, depth=depth, seed=3)
        for key in keys:
            sketch.update(int(key))

        counts_sorted = sorted(true_counts.values(), reverse=True)
        tail = sum(counts_sorted[width // 2:])
        bound = sketch.error_bound(tail_norm=tail, total_norm=len(keys))
        mean_error = np.mean([sketch.query(k) - c for k, c in true_counts.items()])
        # The bound is on the expectation for each item; allow a 3x slack for
        # the finite-sample average and the pairwise (not fully random) hashes.
        assert mean_error <= 3.0 * bound + 1.0


class TestCountMinComposition:
    def test_merge_adds_tables(self):
        left = CountMinSketch(width=32, depth=3, seed=9)
        right = CountMinSketch(width=32, depth=3, seed=9)
        left.update("a", 2)
        right.update("a", 3)
        right.update("b", 1)
        merged = left.merge(right)
        assert merged.query("a") >= 5
        assert merged.total == pytest.approx(6.0)

    def test_merge_requires_matching_parameters(self):
        left = CountMinSketch(width=32, depth=3, seed=9)
        right = CountMinSketch(width=32, depth=3, seed=10)
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_requires_countmin(self):
        left = CountMinSketch(width=8, depth=2, seed=0)
        with pytest.raises(TypeError):
            left.merge("not a sketch")

    def test_add_noise_matrix_shape_checked(self):
        sketch = CountMinSketch(width=8, depth=2, seed=0)
        with pytest.raises(ValueError):
            sketch.add_noise_matrix(np.zeros((3, 8)))

    def test_add_noise_matrix_changes_estimates(self):
        sketch = CountMinSketch(width=8, depth=2, seed=0)
        sketch.update("a", 1)
        before = sketch.query("a")
        sketch.add_noise_matrix(np.full((2, 8), 2.0))
        assert sketch.query("a") == pytest.approx(before + 2.0)
