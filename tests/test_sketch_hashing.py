"""Tests for the seeded hash families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continual.sketch import ContinualPrivateCountMinSketch
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import (
    MERSENNE_PRIME,
    HashFamily,
    PairwiseHash,
    _coefficient_columns,
    canonical_key,
)
from repro.sketch.private import PrivateCountMinSketch


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


def _keys_of_bit_length(bits: int):
    """A strategy for the keys of bit length ``bits``."""
    return st.integers((1 << bits) >> 1, (1 << bits) - 1)


#: Single keys at the edges of the quotient path's range: 1, 2^49 and
#: 2^50 - 1 take it, the rest the integer path.
_EDGE_KEYS = [1, 1 << 49, (1 << 50) - 1, 1 << 50, (1 << 52) + 1, (1 << 53) - 1,
              (1 << 54) - 1, (1 << 63) - 1]
_EDGE_KEY_IDS = ["1", "2^49", "2^50-1", "2^50", "2^52+1", "2^53-1", "2^54-1", "2^63-1"]


def _family_of(hashes: list[PairwiseHash]) -> HashFamily:
    """A family whose rows are exactly ``hashes`` (all of one width)."""
    family = HashFamily(depth=len(hashes), width=hashes[0].width, seed=0)
    family._row_hashes = list(hashes)
    family._row_columns = _coefficient_columns(family._row_hashes)
    return family


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

    @pytest.mark.parametrize("level", [1, 20, 48, 49, 50, 59, 60, 61, 62])
    def test_batch_hashes_are_exact_for_cell_keys_up_to_2_63(self, level):
        """Cell keys ``(1 << level) | code`` of levels up to 49 are below
        2^50 and take the quotient path; from level 50 on they take the
        integer path, and from level 61 on they reach past the prime.  Both
        must match the scalar hash of the cell's bit tuple (which reduces
        mod p) for every key below 2^63."""
        rng = np.random.default_rng(level)
        codes = [0, 1, (1 << level) - 2, (1 << level) - 1]
        codes += [int(code) for code in rng.integers(0, 1 << level, size=60, dtype=np.int64)]
        keys = np.array([(1 << level) | code for code in codes], dtype=np.uint64)
        cells = [
            tuple((code >> shift) & 1 for shift in range(level - 1, -1, -1)) for code in codes
        ]
        for seed in range(3):
            family = HashFamily(depth=8, width=13, seed=seed)
            buckets = np.vstack([
                blocked - 13 * np.arange(len(blocked))[:, None]
                for _, blocked in family.cell_blocks(keys)
            ])
            for row in range(family.depth):
                assert buckets[row].tolist() == [family.bucket(row, cell) for cell in cells]

    @pytest.mark.parametrize("width", [6, 13, 16])
    @pytest.mark.parametrize(
        "residue", [0, 1, MERSENNE_PRIME - 2, MERSENNE_PRIME - 1], ids=["0", "1", "p-2", "p-1"]
    )
    def test_batch_hashes_reduce_keys_whose_residue_is_zero(self, residue, width):
        """A key with ``a k + b = 0 (mod p)`` folds to exactly ``p`` before
        the final conditional subtract, so the batched bucket matches the
        scalar one only if that subtract happens; keys ``k + m p`` below 2^63
        reach the same residue through different unreduced sums.  Residues
        1, ``p - 2`` and ``p - 1`` sit at the other edges of the fold, and
        the bucket reduction by division must give ``residue mod width`` at
        each of them."""
        family = HashFamily(depth=6, width=width, seed=5)
        targets = [
            ((residue - h.b) * pow(h.a, -1, MERSENNE_PRIME)) % MERSENNE_PRIME
            for h in family._row_hashes
        ]
        keys = np.array(
            [k + m * MERSENNE_PRIME for k in targets for m in range(4)], dtype=np.uint64
        )
        buckets = np.vstack([
            blocked - width * np.arange(len(blocked))[:, None]
            for _, blocked in family.cell_blocks(keys)
        ])
        for row in range(family.depth):
            assert buckets[row].tolist() == [family.bucket(row, int(k)) for k in keys]
        assert (buckets[np.arange(6).repeat(4), np.arange(24)] == residue % width).all()

    @pytest.mark.parametrize("width", [6, 13, 16])
    @pytest.mark.parametrize(
        "a", [1, MERSENNE_PRIME - 1, 1815673109382999697], ids=["1", "p-1", "random"]
    )
    @pytest.mark.parametrize("key", _EDGE_KEYS, ids=_EDGE_KEY_IDS)
    def test_batch_hashes_are_exact_at_the_edges_of_the_quotient_estimate(self, key, a, width):
        """The quotient path truncates ``t - 1/2 +- 0.38``, ``t = (a k + b) /
        p``.  Residues 0 and 1 put ``t`` just above an integer, so the
        estimate truncates one below the quotient and the final ``min`` must
        take off the extra ``p``; residues ``p - 2`` and ``p - 1`` put ``t``
        just below the next integer, which an estimate without the ``- 1/2``
        would reach; residues around ``p / 2`` put the estimate itself next
        to an integer.  Each row's ``b`` makes one of them for the key.  Keys
        from 2^50 on take the integer path: there the estimate's error may
        pass 1/2, and from 2^53 on a key need not convert to float64 exactly,
        so these residues would put it off by more than the ``min`` repairs."""
        residues = [0, 1, MERSENNE_PRIME // 2, MERSENNE_PRIME // 2 + 1,
                    MERSENNE_PRIME - 2, MERSENNE_PRIME - 1]
        hashes = [PairwiseHash(a, (r - a * key) % MERSENNE_PRIME, width) for r in residues]
        [(_, cells)] = _family_of(hashes).cell_blocks(np.array([key], dtype=np.uint64))
        buckets = (cells[:, 0] - width * np.arange(len(hashes))).tolist()
        assert buckets == [(h.a * key + h.b) % MERSENNE_PRIME % width for h in hashes]
        assert buckets == [r % width for r in residues]

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(1, MERSENNE_PRIME - 1),
        b=st.integers(0, MERSENNE_PRIME - 1),
        width=st.integers(1, 1 << 20),
        keys=st.lists(st.integers(0, 63).flatmap(_keys_of_bit_length), min_size=1, max_size=24),
    )
    def test_batch_hashes_match_python_ints(self, a, b, width, keys):
        """Buckets equal Python's ``(a k + b) % p % width`` for keys of every
        bit length up to 63: hashed one at a time (each key picks its own
        path), together with ``2^50 - 1`` below 2^50 (the quotient path at
        its limit) and together with ``2^50`` (the integer path)."""
        family = _family_of([PairwiseHash(a, b, width)])
        low = [key for key in keys if key < 1 << 50] + [(1 << 50) - 1]
        for batch in [[key] for key in keys] + [low, keys + [1 << 50]]:
            [(_, cells)] = family.cell_blocks(np.array(batch, dtype=np.uint64))
            assert cells[0].tolist() == [(a * key + b) % MERSENNE_PRIME % width for key in batch]

    @pytest.mark.parametrize("n", [1, 24, 25, 64, 249, 250, 498])
    def test_small_key_sets_hash_in_blocks_that_keep_the_gil(self, n):
        """numpy releases the GIL for calls on more than ~500 values, and
        an ingest thread that releases it beside a busy reader thread can
        wait a whole switch interval to take it back.  Up to 498 keys, no
        block holds more than 498 hashed values, and the blocks still
        cover every row once."""
        family = HashFamily(depth=20, width=13, seed=0)
        blocks = [rows for rows, _ in family.cell_blocks(np.arange(n, dtype=np.uint64))]
        assert [row for rows in blocks for row in range(rows.start, rows.stop)] == list(range(20))
        assert max(rows.stop - rows.start for rows in blocks) * n <= 498


#: The pins' key sources, one per residue path: ``(bits, edges, levels)``.
#: A source's keys are its edges, the first and last cell keys ``(1 <<
#: level) | code`` of its levels, then random keys below ``2^bits``.  Every
#: nonempty 63-bit key set holds ``2^63 - 1`` and takes the integer path;
#: every 50-bit one takes the quotient path.
_KEY_SOURCES = {
    "63-bit": (63, [(1 << 63) - 1, 0], (59, 60, 61, 62)),
    "50-bit": (50, [0, (1 << 50) - 1], (1, 20, 48, 49)),
}


def _pin_keys(n: int, seed: int, source: str) -> np.ndarray:
    """The first ``n`` keys of ``_KEY_SOURCES[source]``."""
    bits, edges, levels = _KEY_SOURCES[source]
    edges = list(edges)
    for level in levels:
        edges += [(1 << level) | 0, (1 << level) | ((1 << level) - 1)]
    rng = np.random.default_rng(seed)
    fill = rng.integers(0, 1 << bits, size=max(n - len(edges), 0), dtype=np.uint64)
    return np.concatenate([np.array(edges, dtype=np.uint64), fill])[:n]


# Key counts on both sides of each change in the batched hashes' rows per
# block, for every depth and width.  Up to 498 keys a block holds at most
# 498 hashed values: 20 -> 19 rows at 25 keys, 12 -> 11 at 42, 2 -> 1 at
# 250.  From 499 keys on it holds up to 2^14: back to 20 rows at 499, 20 ->
# 19 at 820, 10 -> 9 at 1,639 and one clamped row from 16,385 on.  The clamp
# cases run once, at 20 rows: the scalar oracle costs ~2 us per key and row,
# and the clamp depends on neither depth nor width.
_PIN_CASES = [
    (depth, width, n)
    for depth in (1, 12, 20)
    for width in (1, 13, 16)
    for n in (0, 1, 24, 25, 41, 42, 249, 250, 498, 499, 819, 820, 1638, 1639)
] + [(20, 13, 16384), (20, 13, 16385)]


@pytest.mark.parametrize("depth, width, n", _PIN_CASES)
@pytest.mark.parametrize("source", sorted(_KEY_SOURCES))
class TestBatchedSketchesMatchScalarSketches:
    """Every batched sketch read and write equals its scalar counterpart bit
    for bit, on either residue path: same buckets, and each bucket's adds
    arrive in key order."""

    def _inputs(self, depth, width, n, source):
        rng = np.random.default_rng([depth, width, n])
        keys = _pin_keys(n, seed=n, source=source)
        return keys, rng.laplace(0.0, 3.0, n), rng.laplace(0.0, 1.0, (depth, width))

    def test_countmin_update_batch(self, depth, width, n, source):
        keys, counts, noise = self._inputs(depth, width, n, source)
        batched, scalar = (CountMinSketch(width, depth, seed=3) for _ in range(2))
        for sketch in (batched, scalar):
            sketch.add_noise_matrix(noise)
        batched.update_batch(keys, counts)
        for key, count in zip(keys, counts):
            scalar.update(int(key), float(count))
        assert batched.table.tobytes() == scalar.table.tobytes()

    def test_countmin_query_many(self, depth, width, n, source):
        keys, _, noise = self._inputs(depth, width, n, source)
        sketch = CountMinSketch(width, depth, seed=4)
        sketch.add_noise_matrix(noise)
        expected = np.array([sketch.query(int(key)) for key in keys], dtype=float)
        assert sketch.query_many(keys).tobytes() == expected.tobytes()

    def test_continual_update_batch(self, depth, width, n, source):
        keys, counts, _ = self._inputs(depth, width, n, source)
        batched, itemwise = (
            ContinualPrivateCountMinSketch(
                width, depth, epsilon=1.0, horizon=4, seed=5, rng=np.random.default_rng(6)
            )
            for _ in range(2)
        )
        batched.update_batch(keys, counts)
        itemwise.update_many([int(key) for key in keys], [float(count) for count in counts])
        banks = [sketch.state_dict(arrays=True)["bank"] for sketch in (batched, itemwise)]
        for table in ("alpha", "noisy_alpha"):
            assert banks[0][table].tobytes() == banks[1][table].tobytes()
        assert batched.updates == itemwise.updates


def _sketch(kind: str):
    if kind == "countmin":
        return CountMinSketch(13, 4, seed=1)
    if kind == "private":
        return PrivateCountMinSketch(13, 4, epsilon=1.0, seed=1, apply_noise=False)
    return ContinualPrivateCountMinSketch(13, 4, epsilon=1.0, horizon=4, seed=1, rng=0)


class TestBatchedKeysAreValidated:
    """Batched reads and writes take only keys they hash exactly: a 1-d
    integer array with every key in [0, 2^63).  Anything else raises before
    the sketch changes, instead of wrapping -1 to 2^64 - 1, folding keys past
    2^63 into the wrong bucket or truncating 1.5 to 1."""

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([-1]),
            np.array([5, 1 << 63], dtype=np.uint64),
            np.array([17642056304801353255], dtype=np.uint64),
            np.array([1.5]),
            np.array([[1, 2]]),
        ],
        ids=["negative", "2^63", "above-2^63", "float", "2-d"],
    )
    @pytest.mark.parametrize(
        "kind, method",
        [
            ("countmin", "update_batch"),
            ("countmin", "query_many"),
            ("private", "update_batch"),
            ("private", "query_many"),
            ("continual", "update_batch"),
            ("continual", "query_many"),
        ],
    )
    def test_keys_outside_the_exact_range_raise(self, kind, method, keys):
        sketch = _sketch(kind)
        args = (keys, np.ones(keys.shape)) if method == "update_batch" else (keys,)
        with pytest.raises(ValueError, match="1-d"):
            getattr(sketch, method)(*args)
        assert sketch.updates == 0
        if kind == "continual":
            assert sketch.events == 0
        else:
            assert not sketch.table.any()
