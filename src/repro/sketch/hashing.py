"""Seeded hash families for the Count-Min sketch.

The paper's error analysis (Lemma 4) assumes fully random hash functions, but
its privacy guarantee does not.  In the implementation we use seeded
polynomial hashing over a Mersenne prime, which is the standard practical
substitute: it is deterministic given the seed (so sketches are reproducible
and mergeable) and behaves like a random function on the cell keys used by
the hierarchy.

Keys are canonical integers: a hierarchy cell at level ``l`` with in-level
index ``c`` is the key ``(1 << l) | c`` that
:func:`repro.core.base.cell_keys` produces.  Row ``i`` of a family maps key
``k`` to ``((a_i k + b_i) mod p) mod width``.  :meth:`HashFamily.cell_blocks`
hashes a 1-d array of keys in ``[0, 2^63)`` against every row of the family,
a block of rows at a time; :meth:`HashFamily.buckets` computes one key's
buckets in Python ints, the oracle the batched paths are tested against.

The residue ``(a k + b) mod p`` of a batch is computed one of two ways, and
the largest key picks which.  Keys below ``2^50`` (the cell keys of levels
0-49) take the quotient path: the wrapping uint64 ``a k + b`` minus a float64
estimate of its quotient times ``p``, then one conditional subtract, 9 array
passes per block of rows (:func:`_quotient_residues`, which holds the error
bound that makes it exact).  Larger keys take the integer path, which
assembles the product from 32-bit halves and folds it with ``2^61 = 1 (mod
p)`` in 20 passes (:func:`_split_residues`).  The float estimate is too
coarse past ``2^50``, so the integer path is the only exact one for the cell
keys of levels 50-62; both give the residue Python's ``(a * k + b) % p``
gives.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

__all__ = ["MERSENNE_PRIME", "HashFamily"]

# 2^61 - 1: large Mersenne prime that still fits comfortably in 64-bit ints.
MERSENNE_PRIME = (1 << 61) - 1


_MASK61 = np.uint64(MERSENNE_PRIME)
_LOW32 = np.uint64(0xFFFFFFFF)
_KEY_LIMIT = 1 << 63

#: Key sets whose largest key is below this bound hash through
#: :func:`_quotient_residues`; the rest through :func:`_split_residues`.
_QUOTIENT_KEY_LIMIT = 1 << 50

#: Hashed values per block of rows for key sets of at most this many keys.
#: numpy releases the GIL for calls on more than about 500 values
#: (``np.add.at`` from 499), and a thread that releases it beside a busy
#: Python thread can wait a whole switch interval to take it back; blocks
#: this small keep every call of a small append or read holding the GIL.
_GIL_VALUES = 498

#: Hashed values per block of rows for larger key sets, whose every call
#: releases the GIL anyway: fewer, larger calls, with the block's
#: ``rows x keys`` uint64 temporaries still cache-resident.
_BLOCK_VALUES = 1 << 14


def _exact_keys(keys) -> tuple[np.ndarray, int]:
    """``keys`` as uint64 and their maximum (0 for none), after checking the
    residue kernel hashes them exactly.

    Both residue paths are exact for keys below ``2^63`` only, and a signed
    or float key would be wrapped or truncated by the cast; such keys raise
    instead of landing in a bucket :meth:`HashFamily.buckets` would not pick.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        raise ValueError(
            f"batched sketch keys must be a 1-d integer array, got a {keys.ndim}-d "
            f"{keys.dtype} array"
        )
    top = int(keys.max()) if keys.size else 0
    if keys.size and (keys.min() < 0 if keys.dtype.kind == "i" else top >= _KEY_LIMIT):
        raise ValueError("batched sketch keys must be a 1-d integer array of values in [0, 2^63)")
    return keys.astype(np.uint64, copy=False), top


def _coefficient_columns(rows) -> tuple[np.ndarray, ...]:
    """The ``(a, b, fl(a / p), fl(b / p - 1/2))`` columns of
    :func:`_residue_blocks`, one row per ``(a, b)`` pair of ``rows``.

    ``a`` and ``b`` are uint64.  The float64 columns come from Python's int
    true division, which is correctly rounded: ``a / p`` and ``(2 b - p) /
    (2 p)``.
    """
    return (
        np.array([[a] for a, _ in rows], dtype=np.uint64),
        np.array([[b] for _, b in rows], dtype=np.uint64),
        np.array([[a / MERSENNE_PRIME] for a, _ in rows]),
        np.array([[(2 * b - MERSENNE_PRIME) / (2 * MERSENNE_PRIME)] for _, b in rows]),
    )


def _residue_blocks(columns, keys: np.ndarray, top: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, residues)`` with ``residues[i, j] = (a k_j + b) mod p``
    for the coefficients ``(a, b)`` of row ``rows.start + i``.

    Rows are hashed ``max(1, values // len(keys))`` at a time, where
    ``values`` is ``_GIL_VALUES`` for up to that many keys and
    ``_BLOCK_VALUES`` past it, so the block height follows the key count
    alone.  ``top``, the largest key, picks the arithmetic: below ``2^50``
    :func:`_quotient_residues`, else :func:`_split_residues`, which takes
    ``a = a_hi 2^32 + a_lo`` as ``(8 a_hi, a_hi, a_lo)``.
    """
    a, b, a_over_p, b_offset = columns
    depth = len(b)
    values = _GIL_VALUES if keys.size <= _GIL_VALUES else _BLOCK_VALUES
    height = min(depth, max(1, values // max(keys.size, 1)))
    blocks = [slice(start, min(start + height, depth)) for start in range(0, depth, height)]
    if top < _QUOTIENT_KEY_LIMIT:
        floats = keys.astype(np.float64)
        for rows in blocks:
            yield rows, _quotient_residues(
                a[rows], b[rows], a_over_p[rows], b_offset[rows], keys, floats
            )
    else:
        a_hi = a >> 32
        hi8, lo = a_hi << 3, a & _LOW32
        k_hi, k_lo = keys >> 32, keys & _LOW32
        for rows in blocks:
            yield rows, _split_residues(hi8[rows], a_hi[rows], lo[rows], b[rows], k_hi, k_lo)


def _quotient_residues(a, b, a_over_p, b_offset, keys, floats) -> np.ndarray:
    """``(a k + b) mod p`` for a block of row coefficients against keys below
    ``2^50`` (``floats`` is ``keys`` as float64), in 9 array passes.

    ``x = a k + b`` is computed in wrapping uint64 arithmetic, the quotient
    is estimated as ``q = trunc(fl(a / p) k + fl(b / p - 1/2))`` in float64,
    and ``r = min(x - q p, x - q p - p)``, wrapping again, is the residue.

    Why it is exact, assuming IEEE-754 binary64 with round to nearest
    (relative error ``u = 2^-53`` per operation): a key below ``2^50``
    converts to float64 exactly.  ``a / p < 1`` and ``|b / p - 1/2| <=
    1/2``, so the two stored columns are off by at most ``u k`` and ``u /
    2`` (the first after multiplying by ``k``), the product by at most ``u
    k`` and the sum by at most ``u (k + 1/2)``: the estimate lies within
    ``3 u k + u < 0.38`` of ``t - 1/2``, with ``t = (a k + b) / p``.  Being
    in ``(t - 0.88, t - 0.12)``, it truncates to ``floor(t)`` or one less;
    where it is negative (above ``-0.88``), ``t < 0.88`` and the truncation
    toward zero gives ``0 = floor(t)``.  So ``x - q p`` is ``r`` or ``r +
    p``, both below ``2^64`` and hence exact despite the wrapping.  ``r + p
    - p`` is ``r``, and ``r - p`` wraps past ``r``, so the ``min`` picks
    ``r`` either way.  The estimate stays in ``[-0.88, 2^50 + 1)``, where
    ``astype(np.int64)`` is defined.
    """
    total = a * keys
    total += b
    estimate = a_over_p * floats
    estimate += b_offset
    quotients = estimate.astype(np.int64).view(np.uint64)
    quotients *= _MASK61
    total -= quotients
    np.subtract(total, _MASK61, out=quotients)
    np.minimum(total, quotients, out=total)
    return total


def _split_residues(hi8, hi, lo, b, k_hi, k_lo) -> np.ndarray:
    """``(a k + b) mod p`` for a block of row coefficients against keys below
    ``2^63`` (split as ``k = k_hi 2^32 + k_lo``), in 20 array passes.

    The product is assembled from 32-bit halves, ``a k = hh 2^64 + mid 2^32
    + ll``, and folded with ``2^61 = 1 (mod p)``: ``2^64 = 8``, ``mid 2^32 =
    (mid >> 29) + ((mid << 32) & p)`` and ``ll = (ll >> 61) + (ll & p)``.
    With ``a < 2^61`` and keys below ``2^63`` the unreduced sum ``8 hh +
    (mid >> 29) + ((mid << 32) & p) + (ll >> 61) + (ll & p) + b`` stays
    below ``2^63 + 3 2^61 + 2^35 + 8 < 2^64``, so nothing wraps, and one
    more fold leaves at most ``p + 7``: a single conditional subtract of
    ``p`` gives the residue.  The temporaries are updated in place.
    """
    total = hi8 * k_hi
    total += b
    part = lo * k_lo
    spare = part & _MASK61
    total += spare
    part >>= 61
    total += part
    np.multiply(hi, k_lo, out=part)
    np.multiply(lo, k_hi, out=spare)
    part += spare
    np.right_shift(part, 29, out=spare)
    total += spare
    part <<= 32
    part &= _MASK61
    total += part
    np.right_shift(total, 61, out=spare)
    total &= _MASK61
    total += spare
    # total - p wraps past total exactly when total < p.
    np.subtract(total, _MASK61, out=spare)
    np.minimum(total, spare, out=total)
    return total


class HashFamily:
    """A reproducible family of ``depth`` row hashes of one ``width``.

    Row ``i`` is the pair ``(a_i, b_i)`` of Python ints, drawn from ``seed``
    row by row: ``a = rng.integers(1, p)``, then ``b = rng.integers(0, p)``.
    """

    def __init__(self, depth: int, width: int, seed: int | None = None) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.depth = depth
        self.width = width
        rng = np.random.default_rng(seed)
        self._rows = [
            (int(rng.integers(1, MERSENNE_PRIME)), int(rng.integers(0, MERSENNE_PRIME)))
            for _ in range(depth)
        ]
        self._row_columns = _coefficient_columns(self._rows)
        self._row_offsets = np.arange(depth, dtype=np.uint64)[:, None] * np.uint64(width)

    def cell_blocks(self, keys) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield ``(rows, cells)`` covering every row once, a block at a time.

        ``keys`` is a 1-d integer array of canonical keys in ``[0, 2^63)``
        (anything else raises ``ValueError`` before the first block);
        ``cells[i, j]`` is ``i * width + buckets(keys[j])[rows.start + i]``,
        the flat index of key ``j``'s bucket in ``table[rows].reshape(-1)``.
        See :func:`_residue_blocks` for the block rule and the two residue
        paths.

        Each residue ``r`` is reduced to its bucket as ``r - (r // width) *
        width``, in place: numpy divides a uint64 array by a scalar through
        libdivide's multiply-and-shift, about twice as fast on a 16,384-value
        block as its uint64 remainder, and the two give the same integers.

        The cell keys of a level-42 cell (quotient path) and a level-57 one
        (integer path) land in the buckets :meth:`buckets` gives them:

        >>> from repro.core.base import cell_keys
        >>> family = HashFamily(depth=3, width=10, seed=0)
        >>> for level in (42, 57):
        ...     key = cell_keys(level, np.array([1 << (level - 2)]))
        ...     [(rows, cells)] = family.cell_blocks(key)
        ...     print((cells[:, 0] % 10).tolist(), family.buckets(int(key[0])))
        [2, 7, 5] [2, 7, 5]
        [5, 0, 7] [5, 0, 7]
        """
        width = np.uint64(self.width)
        for rows, residues in _residue_blocks(self._row_columns, *_exact_keys(keys)):
            quotients = residues // width
            quotients *= width
            residues -= quotients
            residues += self._row_offsets[: len(residues)]
            yield rows, residues.view(np.int64)

    def min_over_rows(self, table: np.ndarray, keys) -> np.ndarray:
        """Count-Min point estimates of canonical integer keys from ``table``.

        Each key's estimate is the minimum of its buckets across the rows of
        the ``depth x width`` table.  A later row wins only when strictly
        smaller, which is ``min()``'s tie rule: ``min(0.0, -0.0)`` is
        ``0.0``, where ``np.minimum`` may return either zero.  Inside a block
        the minimum is exact except for that sign, so a zero minimum is
        replaced by the block's first zero; blocks merge with a strict ``<``.
        (An ``argmin`` gather keeps the rule in one step, but numpy's
        arg-reductions release the GIL at every size and run 2-10x slower
        than ``min`` on these blocks.)
        """
        estimates = None
        for rows, cells in self.cell_blocks(keys):
            values = table[rows].reshape(-1)[cells]
            lowest = values.min(axis=0)
            tied = np.flatnonzero(lowest == 0.0)
            if tied.size:
                zeros = values[:, tied] == 0.0
                lowest[tied] = values[zeros.argmax(axis=0), tied]
            if estimates is not None:
                lowest = np.where(lowest < estimates, lowest, estimates)
            estimates = lowest
        return estimates

    def buckets(self, key: int) -> list[int]:
        """Bucket of one canonical key in every row, in Python ints.

        ``((a k + b) mod p) mod width`` per row: the scalar oracle of
        :meth:`cell_blocks` and of every sketch read and write.
        """
        key = operator.index(key)
        return [(a * key + b) % MERSENNE_PRIME % self.width for a, b in self._rows]
