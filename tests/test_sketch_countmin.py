"""Tests for the Count-Min sketch."""

import numpy as np
import pytest

from repro.core.base import cell_keys
from repro.sketch.countmin import CountMinSketch
from repro.sketch.private import PrivateCountMinSketch


def _unique_cells(level: int, codes) -> tuple[np.ndarray, np.ndarray]:
    """The ascending cell keys of ``codes`` at ``level`` and each one's count."""
    cells, counts = np.unique(np.asarray(codes), return_counts=True)
    return cell_keys(level, cells), counts.astype(float)


class TestCountMinBasics:
    def test_query_never_underestimates_nonnegative_stream(self):
        sketch = CountMinSketch(width=32, depth=4, seed=0)
        keys = cell_keys(7, np.arange(100))
        counts = np.arange(100) % 7 + 1.0
        sketch.update_batch(keys, counts)
        for key, count in zip(keys.tolist(), counts):
            assert sketch.query(key) >= count

    def test_exact_when_no_collisions(self):
        sketch = CountMinSketch(width=1024, depth=5, seed=1)
        keys = cell_keys(2, np.array([0b01, 0b10]))
        sketch.update_batch(keys, np.array([3.0, 5.0]))
        assert sketch.query(int(keys[0])) == pytest.approx(3)
        assert sketch.query(int(keys[1])) == pytest.approx(5)

    def test_absent_key_estimate_is_small(self):
        sketch = CountMinSketch(width=256, depth=6, seed=2)
        sketch.update_batch(cell_keys(6, np.arange(50)), np.ones(50))
        assert sketch.query(int(cell_keys(6, np.array([63]))[0])) <= 2

    def test_total_and_updates_tracked(self):
        """``updates`` counts the items the counts stand for."""
        sketch = CountMinSketch(width=8, depth=2, seed=0)
        sketch.update_batch(cell_keys(1, np.array([0, 1])), np.array([2.0, 3.0]))
        assert sketch.total == pytest.approx(5.0)
        assert sketch.updates == 5

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
        keys, counts = _unique_cells(10, rng.zipf(1.3, size=5000) % 1000)
        errors = {}
        for width in (8, 64, 512):
            sketch = CountMinSketch(width=width, depth=4, seed=0)
            sketch.update_batch(keys, counts)
            errors[width] = np.mean(sketch.query_many(keys) - counts)
        assert errors[512] <= errors[64] <= errors[8]

    def test_lemma4_expected_error_bound_holds_on_skewed_stream(self, rng):
        """Mean overestimate stays below the Lemma-4 style tail bound (with slack)."""
        width, depth = 64, 5
        keys, counts = _unique_cells(9, rng.zipf(1.5, size=8000) % 500)
        sketch = CountMinSketch(width=width, depth=depth, seed=3)
        sketch.update_batch(keys, counts)

        tail = np.sort(counts)[::-1][width // 2:].sum()
        bound = sketch.error_bound(tail_norm=tail, total_norm=counts.sum())
        mean_error = np.mean(sketch.query_many(keys) - counts)
        # The bound is on the expectation for each item; allow a 3x slack for
        # the finite-sample average and the pairwise (not fully random) hashes.
        assert mean_error <= 3.0 * bound + 1.0


class TestCountMinComposition:
    def test_merge_adds_tables(self):
        left = CountMinSketch(width=32, depth=3, seed=9)
        right = CountMinSketch(width=32, depth=3, seed=9)
        a, b = cell_keys(1, np.array([0, 1])).tolist()
        left.update_batch(np.array([a]), np.array([2.0]))
        right.update_batch(np.array([a, b]), np.array([3.0, 1.0]))
        merged = left.merge(right)
        assert merged.query(a) >= 5
        assert merged.total == pytest.approx(6.0)
        assert np.array_equal(merged.table, left.table + right.table)

    def test_merge_requires_matching_parameters(self):
        left = CountMinSketch(width=32, depth=3, seed=9)
        right = CountMinSketch(width=32, depth=3, seed=10)
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_requires_countmin(self):
        left = CountMinSketch(width=8, depth=2, seed=0)
        with pytest.raises(TypeError):
            left.merge("not a sketch")

    @pytest.mark.parametrize("plain_first", [True, False], ids=["plain-private", "private-plain"])
    def test_plain_and_private_sketches_do_not_merge(self, plain_first):
        """A raw private shard has the plain sketch's parameters and table,
        yet merging the two in either order is refused: the result would
        fall outside the private sketch's one-noise-draw accounting."""
        plain = CountMinSketch(width=8, depth=2, seed=0)
        private = PrivateCountMinSketch(width=8, depth=2, epsilon=1.0, seed=0, apply_noise=False)
        left, right = (plain, private) if plain_first else (private, plain)
        with pytest.raises(TypeError):
            left.merge(right)
