"""Tests for the seeded hash families."""

import numpy as np
import pytest

from repro.sketch.hashing import (
    MERSENNE_PRIME,
    HashFamily,
    PairwiseHash,
    SignedHash,
    canonical_key,
)


class TestCanonicalKey:
    def test_bit_tuples_of_different_lengths_do_not_collide(self):
        assert canonical_key((0,)) != canonical_key((0, 0))
        assert canonical_key(()) != canonical_key((0,))

    def test_bit_tuples_deterministic(self):
        assert canonical_key((1, 0, 1)) == canonical_key((1, 0, 1))

    def test_distinct_tuples_map_to_distinct_values(self):
        keys = {canonical_key(tuple((i >> b) & 1 for b in range(8))) for i in range(256)}
        assert len(keys) == 256

    def test_integers_and_strings_supported(self):
        assert canonical_key(42) == 42
        assert isinstance(canonical_key("10.0.0.1"), int)

    def test_numpy_integers_supported(self):
        assert canonical_key(np.int64(7)) == 7

    def test_values_stay_below_prime(self):
        assert canonical_key("some fairly long string key") < MERSENNE_PRIME

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_key(3.14)


class TestPairwiseHash:
    def test_output_in_range(self):
        hasher = PairwiseHash(a=12345, b=678, width=17)
        for key in range(200):
            assert 0 <= hasher(key) < 17

    def test_deterministic(self):
        hasher = PairwiseHash(a=999, b=3, width=8)
        assert hasher((1, 0, 1)) == hasher((1, 0, 1))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            PairwiseHash(a=1, b=0, width=0)
        with pytest.raises(ValueError):
            PairwiseHash(a=0, b=0, width=4)


class TestSignedHash:
    def test_values_are_plus_minus_one(self):
        hasher = SignedHash(a=54321, b=99)
        values = {hasher(key) for key in range(100)}
        assert values <= {-1, 1}

    def test_roughly_balanced(self):
        hasher = SignedHash(a=54321, b=99)
        signs = [hasher(key) for key in range(2000)]
        assert 0.35 < np.mean(np.array(signs) == 1) < 0.65


class TestHashFamily:
    def test_same_seed_same_hashes(self):
        family_a = HashFamily(depth=4, width=32, seed=7)
        family_b = HashFamily(depth=4, width=32, seed=7)
        for key in [(0, 1), (1, 1, 0), 42, "x"]:
            assert family_a.buckets(key) == family_b.buckets(key)

    def test_different_rows_are_different_functions(self):
        family = HashFamily(depth=6, width=64, seed=11)
        keys = list(range(200))
        rows = [[family.bucket(row, key) for key in keys] for row in range(6)]
        distinct_rows = {tuple(row) for row in rows}
        assert len(distinct_rows) == 6

    def test_buckets_spread_over_width(self):
        family = HashFamily(depth=1, width=16, seed=3)
        buckets = [family.bucket(0, key) for key in range(1000)]
        occupied = len(set(buckets))
        assert occupied >= 14

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            HashFamily(depth=0, width=8)
        with pytest.raises(ValueError):
            HashFamily(depth=2, width=0)

    @pytest.mark.parametrize("level", [59, 60, 61, 62])
    def test_batch_hashes_are_exact_for_cell_keys_up_to_2_63(self, level):
        """Cell keys ``(1 << level) | code`` reach past the prime from level 61
        on; the vectorised fold must still match the scalar hash of the cell's
        bit tuple (which reduces mod p) for every key below 2^63."""
        rng = np.random.default_rng(level)
        codes = [0, 1, (1 << level) - 2, (1 << level) - 1]
        codes += [int(code) for code in rng.integers(0, 1 << level, size=60, dtype=np.int64)]
        keys = np.array([(1 << level) | code for code in codes], dtype=np.uint64)
        cells = [
            tuple((code >> shift) & 1 for shift in range(level - 1, -1, -1)) for code in codes
        ]
        for seed in range(3):
            family = HashFamily(depth=8, width=13, seed=seed)
            for row in range(family.depth):
                assert family.buckets_batch(row, keys).tolist() == [
                    family.bucket(row, cell) for cell in cells
                ]
                assert family.signs_batch(row, keys).tolist() == [
                    float(family.sign(row, cell)) for cell in cells
                ]
