"""Tests for the seeded hash families and the sketches' batched reads and
writes, checked against the Python-int oracle ``HashFamily.buckets``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continual.sketch import ContinualPrivateCountMinSketch
from repro.core.base import cell_keys
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import MERSENNE_PRIME, HashFamily, _coefficient_columns
from repro.sketch.private import PrivateCountMinSketch


def oracle_table(family: HashFamily, keys, counts, start=None) -> np.ndarray:
    """The table a write of ``counts`` at ``keys`` must leave on ``start``
    (zeros by default): each count added at ``family.buckets(key)[row]``,
    key by key in the order given."""
    table = np.zeros((family.depth, family.width)) if start is None else np.array(start)
    for key, count in zip(np.asarray(keys).tolist(), np.asarray(counts).tolist()):
        for row, bucket in enumerate(family.buckets(key)):
            table[row, bucket] += count
    return table


def oracle_estimates(family: HashFamily, table: np.ndarray, keys) -> np.ndarray:
    """Each key's minimum bucket across the rows of ``table``, by ``min()``."""
    return np.array(
        [
            min(table[row, bucket] for row, bucket in enumerate(family.buckets(key)))
            for key in np.asarray(keys).tolist()
        ],
        dtype=float,
    )


class TestCellKeys:
    """``cell_keys`` packs a cell's bit tuple ``b_0 .. b_{l-1}`` as the bits
    ``1 b_0 .. b_{l-1}``: one key per cell, across levels."""

    def test_key_is_the_bit_tuple_behind_a_leading_one(self):
        for level in range(9):
            keys = cell_keys(level, np.arange(1 << level)).tolist()
            bits = [format(code, f"0{level}b") if level else "" for code in range(1 << level)]
            assert keys == [int("1" + cell, 2) for cell in bits]

    def test_cells_of_every_level_map_to_distinct_keys(self):
        keys = np.concatenate([cell_keys(level, np.arange(1 << level)) for level in range(9)])
        assert len(set(keys.tolist())) == keys.size == (1 << 9) - 1

    def test_deepest_cells_stay_below_2_63(self):
        deepest = cell_keys(62, np.array([0, (1 << 62) - 1]))
        assert deepest.tolist() == [1 << 62, (1 << 63) - 1]


class TestBuckets:
    def test_buckets_are_python_int_hashes_of_the_drawn_rows(self):
        """Rows are drawn from the seed row by row, ``a`` in [1, p) then
        ``b`` in [0, p), and a key's bucket in row ``i`` is ``(a_i k + b_i)
        mod p mod width``."""
        rng = np.random.default_rng(7)
        rows = [
            (int(rng.integers(1, MERSENNE_PRIME)), int(rng.integers(0, MERSENNE_PRIME)))
            for _ in range(5)
        ]
        family = HashFamily(depth=5, width=17, seed=7)
        for key in (0, 1, 5, 42, MERSENNE_PRIME, (1 << 63) - 1):
            assert family.buckets(key) == [(a * key + b) % MERSENNE_PRIME % 17 for a, b in rows]

    def test_numpy_integers_hash_like_python_ints(self):
        family = HashFamily(depth=4, width=32, seed=7)
        for key in (7, (1 << 63) - 1):
            assert family.buckets(np.uint64(key)) == family.buckets(key)
        assert family.buckets(np.int64(7)) == family.buckets(7)

    def test_non_integer_keys_raise(self):
        family = HashFamily(depth=2, width=8, seed=0)
        for key in (3.14, "5", (0, 1)):
            with pytest.raises(TypeError):
                family.buckets(key)


def _keys_of_bit_length(bits: int):
    """A strategy for the keys of bit length ``bits``."""
    return st.integers((1 << bits) >> 1, (1 << bits) - 1)


#: Single keys at the edges of the quotient path's range: 1, 2^49 and
#: 2^50 - 1 take it, the rest the integer path.
_EDGE_KEYS = [1, 1 << 49, (1 << 50) - 1, 1 << 50, (1 << 52) + 1, (1 << 53) - 1,
              (1 << 54) - 1, (1 << 63) - 1]
_EDGE_KEY_IDS = ["1", "2^49", "2^50-1", "2^50", "2^52+1", "2^53-1", "2^54-1", "2^63-1"]


def _family_of(rows: list[tuple[int, int]], width: int) -> HashFamily:
    """A family of ``width`` whose rows are exactly the ``(a, b)`` pairs
    ``rows``."""
    family = HashFamily(depth=len(rows), width=width, seed=0)
    family._rows = list(rows)
    family._row_columns = _coefficient_columns(family._rows)
    return family


class TestHashFamily:
    def test_same_seed_same_hashes(self):
        family_a = HashFamily(depth=4, width=32, seed=7)
        family_b = HashFamily(depth=4, width=32, seed=7)
        for key in [0b101, 0b1110, 42, (1 << 63) - 1]:
            assert family_a.buckets(key) == family_b.buckets(key)

    def test_different_rows_are_different_functions(self):
        family = HashFamily(depth=6, width=64, seed=11)
        rows = list(zip(*(family.buckets(key) for key in range(200))))
        distinct_rows = set(rows)
        assert len(distinct_rows) == 6

    def test_buckets_spread_over_width(self):
        family = HashFamily(depth=1, width=16, seed=3)
        buckets = [family.buckets(key)[0] for key in range(1000)]
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
        must match the Python-int hash for every key below 2^63."""
        rng = np.random.default_rng(level)
        codes = [0, 1, (1 << level) - 2, (1 << level) - 1]
        codes += [int(code) for code in rng.integers(0, 1 << level, size=60, dtype=np.int64)]
        keys = cell_keys(level, np.array(codes, dtype=np.int64))
        for seed in range(3):
            family = HashFamily(depth=8, width=13, seed=seed)
            buckets = np.vstack([
                blocked - 13 * np.arange(len(blocked))[:, None]
                for _, blocked in family.cell_blocks(keys)
            ])
            assert buckets.T.tolist() == [family.buckets(key) for key in keys.tolist()]

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
            ((residue - b) * pow(a, -1, MERSENNE_PRIME)) % MERSENNE_PRIME
            for a, b in family._rows
        ]
        keys = np.array(
            [k + m * MERSENNE_PRIME for k in targets for m in range(4)], dtype=np.uint64
        )
        buckets = np.vstack([
            blocked - width * np.arange(len(blocked))[:, None]
            for _, blocked in family.cell_blocks(keys)
        ])
        assert buckets.T.tolist() == [family.buckets(key) for key in keys.tolist()]
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
        rows = [(a, (r - a * key) % MERSENNE_PRIME) for r in residues]
        [(_, cells)] = _family_of(rows, width).cell_blocks(np.array([key], dtype=np.uint64))
        buckets = (cells[:, 0] - width * np.arange(len(rows))).tolist()
        assert buckets == [(a * key + b) % MERSENNE_PRIME % width for a, b in rows]
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
        family = _family_of([(a, b)], width)
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
# cases run once, at 20 rows: the Python-int oracle costs ~1 us per key and
# row, and the clamp depends on neither depth nor width.
_PIN_CASES = [
    (depth, width, n)
    for depth in (1, 12, 20)
    for width in (1, 13, 16)
    for n in (0, 1, 24, 25, 41, 42, 249, 250, 498, 499, 819, 820, 1638, 1639)
] + [(20, 13, 16384), (20, 13, 16385)]


@pytest.mark.parametrize("depth, width, n", _PIN_CASES)
@pytest.mark.parametrize("source", sorted(_KEY_SOURCES))
class TestBatchedSketchesMatchTheOracle:
    """Every batched sketch read and write equals the Python-int oracle bit
    for bit, on either residue path and at every block height: each count
    lands at ``HashFamily.buckets(key)[row]`` with each bucket's adds in key
    order, and each estimate is ``min()`` over the key's buckets."""

    def _inputs(self, depth, width, n, source):
        rng = np.random.default_rng([depth, width, n])
        keys = _pin_keys(n, seed=n, source=source)
        return keys, rng.laplace(0.0, 3.0, n), rng.laplace(0.0, 1.0, (depth, width))

    def test_countmin_update_batch(self, depth, width, n, source):
        keys, counts, noise = self._inputs(depth, width, n, source)
        sketch = CountMinSketch(width, depth, seed=3)
        sketch.load_state(noise, total=0.0, updates=0)
        sketch.update_batch(keys, counts)
        expected = oracle_table(HashFamily(depth, width, seed=3), keys, counts, start=noise)
        assert sketch.table.tobytes() == expected.tobytes()

    def test_countmin_query_many(self, depth, width, n, source):
        keys, _, noise = self._inputs(depth, width, n, source)
        sketch = CountMinSketch(width, depth, seed=4)
        sketch.load_state(noise, total=0.0, updates=0)
        expected = oracle_estimates(HashFamily(depth, width, seed=4), noise, keys)
        assert sketch.query_many(keys).tobytes() == expected.tobytes()

    def test_continual_update_batch(self, depth, width, n, source):
        """One write is one event whose weights, the bank's exact state
        after it, are the oracle's table built from zeros."""
        keys, counts, _ = self._inputs(depth, width, n, source)
        sketch = ContinualPrivateCountMinSketch(
            width, depth, epsilon=1.0, horizon=4, seed=5, rng=np.random.default_rng(6)
        )
        sketch.update_batch(keys, counts)
        bank = sketch.state_dict(arrays=True)["bank"]
        expected = oracle_table(HashFamily(depth, width, seed=5), keys, counts)
        assert bank["steps"] == 1
        assert bank["alpha"][:, 0].tobytes() == expected.tobytes()
        assert sketch.updates == n


#: Float counts, half of them signed zeros, so that a key's buckets often
#: tie at 0.0 and -0.0 and ``min()``'s tie rule decides its estimate.
_COUNTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e9, 1e9, allow_nan=False))

#: ``{key: count}`` with every key below ``2^50`` (the quotient path) or
#: below ``2^63``, where nearly every set holds a key past ``2^50`` (the
#: integer path).
_KEYED_COUNTS = st.sampled_from([50, 63]).flatmap(
    lambda bits: st.dictionaries(st.integers(0, (1 << bits) - 1), _COUNTS, max_size=40)
)

#: Up to 40 keys over at most 16 buckets a row, so buckets collide and the
#: order of their adds shows.
_SHAPES = dict(depth=st.integers(1, 20), width=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))


def _ascending(keyed: dict) -> tuple[np.ndarray, np.ndarray]:
    keys = sorted(keyed)
    return np.array(keys, dtype=np.uint64), np.array([keyed[key] for key in keys], dtype=float)


class TestSketchesMatchTheOracle:
    """For random canonical keys in ascending order on both sides of 2^50
    and random float counts, ``update_batch`` leaves exactly the oracle's
    table, and ``query`` and ``query_many`` read that table's row minimum
    under ``min()``'s tie rule."""

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["countmin", "private"]), keyed=_KEYED_COUNTS, data=st.data(),
           **_SHAPES)
    def test_update_batch_then_reads(self, kind, keyed, data, depth, width, seed):
        start = data.draw(st.lists(_COUNTS, min_size=depth * width, max_size=depth * width))
        start = np.array(start).reshape(depth, width)
        if kind == "countmin":
            sketch = CountMinSketch(width, depth, seed=seed)
            sketch.load_state(start, total=0.0, updates=0)
        else:
            sketch = PrivateCountMinSketch(width, depth, epsilon=1.0, seed=seed, apply_noise=False)
            sketch.load_state(start, total=0.0, updates=0, noise_applied=True)
        keys, counts = _ascending(keyed)
        sketch.update_batch(keys, counts)
        family = HashFamily(depth, width, seed=seed)
        table = oracle_table(family, keys, counts, start=start)
        assert sketch.table.tobytes() == table.tobytes()
        expected = oracle_estimates(family, table, keys)
        assert sketch.query_many(keys).tobytes() == expected.tobytes()
        scalar = np.array([sketch.query(key) for key in keys.tolist()], dtype=float)
        assert scalar.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(keyed=_KEYED_COUNTS, **_SHAPES)
    def test_continual_update_batch_then_reads(self, keyed, depth, width, seed):
        sketch = ContinualPrivateCountMinSketch(
            width, depth, epsilon=1.0, horizon=4, seed=seed, rng=seed
        )
        keys, counts = _ascending(keyed)
        sketch.update_batch(keys, counts)
        family = HashFamily(depth, width, seed=seed)
        alpha = sketch.state_dict(arrays=True)["bank"]["alpha"]
        assert alpha[:, 0].tobytes() == oracle_table(family, keys, counts).tobytes()
        expected = oracle_estimates(family, sketch.released_table(), keys)
        assert sketch.query_many(keys).tobytes() == expected.tobytes()
        scalar = np.array([sketch.query(key) for key in keys.tolist()], dtype=float)
        assert scalar.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize(
        "key",
        [-1, 1 << 63, 1 << 64, 1.5, "5", (1, 2), None],
        ids=["negative", "2^63", "2^64", "float", "str", "tuple", "None"],
    )
    @pytest.mark.parametrize("kind", ["countmin", "private", "continual"])
    def test_scalar_queries_raise_what_query_many_raises(self, kind, key):
        with pytest.raises(ValueError, match="1-d"):
            _sketch(kind).query(key)
