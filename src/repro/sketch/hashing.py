"""Seeded hash families for sketching.

The paper's error analysis (Lemma 4) assumes fully random hash functions, but
its privacy guarantee does not.  In the implementation we use seeded
polynomial hashing over a Mersenne prime, which is the standard practical
substitute: it is deterministic given the seed (so sketches are reproducible
and mergeable) and behaves like a random function on the bit-string keys used
by the hierarchy.

Keys are arbitrary hashable Python objects; bit-tuples (the ``theta`` indices
of hierarchy cells) and integers are the common cases, and both are converted
to a canonical byte representation before hashing so that equal keys always
collide with themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MERSENNE_PRIME", "canonical_key", "PairwiseHash", "SignedHash", "HashFamily"]

# 2^61 - 1: large Mersenne prime that still fits comfortably in 64-bit ints.
MERSENNE_PRIME = (1 << 61) - 1


def canonical_key(key) -> int:
    """Map an arbitrary key to a non-negative integer deterministically.

    Bit tuples (the hierarchy's ``theta`` indices) are packed as
    ``1 b_0 b_1 ... b_{l-1}`` so that tuples of different lengths never
    collide by construction.  Integers map to themselves (offset to be
    non-negative), strings and bytes are hashed via a simple polynomial over
    their bytes.  The mapping must be stable across processes, so Python's
    built-in randomised ``hash`` is deliberately avoided.
    """
    if isinstance(key, (tuple, list)):
        value = 1
        for element in key:
            if isinstance(element, (int, np.integer)) and int(element) in (0, 1):
                value = ((value << 1) | int(element)) % MERSENNE_PRIME
            else:
                # General tuples: fold each element recursively.
                value = (value * 1_000_003 + canonical_key(element)) % MERSENNE_PRIME
        return value % MERSENNE_PRIME
    if isinstance(key, (int, np.integer)):
        return int(key) % MERSENNE_PRIME
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        value = 0
        for byte in key:
            value = (value * 257 + byte + 1) % MERSENNE_PRIME
        return value
    raise TypeError(f"unsupported sketch key type: {type(key)!r}")


_MASK61 = np.uint64(MERSENNE_PRIME)


def _mulmod_mersenne61(multiplier: int, keys: np.ndarray) -> np.ndarray:
    """``(multiplier * keys) mod (2^61 - 1)`` on uint64 arrays without overflow.

    The 64x64-bit products are assembled from 32-bit halves and the 128-bit
    result is folded with ``2^61 = 1 (mod p)``, so the arithmetic matches the
    arbitrary-precision Python-int computation bit for bit for every
    ``multiplier < p`` and every key below ``2^63``.
    """
    a = np.uint64(multiplier)
    a_hi, a_lo = a >> np.uint64(32), a & np.uint64(0xFFFFFFFF)
    k_hi, k_lo = keys >> np.uint64(32), keys & np.uint64(0xFFFFFFFF)
    # multiplier * keys = hh<<64 + (hl + lh)<<32 + ll.  With a_hi < 2^29 and
    # k_hi < 2^31 (keys < 2^63), hh < 2^60 and mid < 2^61 + 2^63, and the
    # folded sum below stays under 2^63 + 2^62 + 2^36: nothing wraps 2^64.
    hh = a_hi * k_hi
    mid = a_hi * k_lo + a_lo * k_hi
    ll = a_lo * k_lo
    # Fold mod p: 2^64 = 8, x<<32 = (x >> 29) + ((x << 32) & p), x = (x>>61) + (x & p).
    result = hh * np.uint64(8)
    result += (mid >> np.uint64(29)) + ((mid << np.uint64(32)) & _MASK61)
    result += (ll >> np.uint64(61)) + (ll & _MASK61)
    result = (result & _MASK61) + (result >> np.uint64(61))
    return _reduce61(result)


def _reduce61(values: np.ndarray) -> np.ndarray:
    """Final reduction of values ``< 2^62`` to ``[0, p)`` for ``p = 2^61 - 1``."""
    values = (values & _MASK61) + (values >> np.uint64(61))
    return np.where(values >= _MASK61, values - _MASK61, values)


@dataclass(frozen=True)
class PairwiseHash:
    """A single pairwise-independent hash ``h(x) = ((a x + b) mod p) mod width``."""

    a: int
    b: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"hash width must be positive, got {self.width}")
        if not (1 <= self.a < MERSENNE_PRIME):
            raise ValueError("hash coefficient a must be in [1, p)")
        if not (0 <= self.b < MERSENNE_PRIME):
            raise ValueError("hash coefficient b must be in [0, p)")

    def __call__(self, key) -> int:
        value = canonical_key(key)
        return int(((self.a * value + self.b) % MERSENNE_PRIME) % self.width)

    def buckets_batch(self, keys: np.ndarray) -> np.ndarray:
        """Bucket indices for an array of integer keys below ``2^63``.

        The result equals ``[self(k) for k in keys]``: keys need not be
        reduced mod p, because the fold in :func:`_mulmod_mersenne61` is exact
        for every key below ``2^63`` -- which covers the cell keys
        ``(1 << l) | c`` of every level ``l <= 62``.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        hashed = _reduce61(_mulmod_mersenne61(self.a, keys) + np.uint64(self.b))
        return (hashed % np.uint64(self.width)).astype(np.int64)


@dataclass(frozen=True)
class SignedHash:
    """A +/-1 valued hash used by Count-Sketch."""

    a: int
    b: int

    def __call__(self, key) -> int:
        value = canonical_key(key)
        bit = ((self.a * value + self.b) % MERSENNE_PRIME) & 1
        return 1 if bit else -1

    def signs_batch(self, keys: np.ndarray) -> np.ndarray:
        """``+/-1`` signs for an array of integer keys below ``2^63``.

        The result equals ``[self(k) for k in keys]``, under the same key
        bound as :meth:`PairwiseHash.buckets_batch`.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        hashed = _reduce61(_mulmod_mersenne61(self.a, keys) + np.uint64(self.b))
        return np.where(hashed & np.uint64(1), 1.0, -1.0)


class HashFamily:
    """A reproducible family of ``depth`` row hashes (and optional sign hashes)."""

    def __init__(self, depth: int, width: int, seed: int | None = None) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.depth = depth
        self.width = width
        rng = np.random.default_rng(seed)
        self._row_hashes = [
            PairwiseHash(
                a=int(rng.integers(1, MERSENNE_PRIME)),
                b=int(rng.integers(0, MERSENNE_PRIME)),
                width=width,
            )
            for _ in range(depth)
        ]
        self._sign_hashes = [
            SignedHash(
                a=int(rng.integers(1, MERSENNE_PRIME)),
                b=int(rng.integers(0, MERSENNE_PRIME)),
            )
            for _ in range(depth)
        ]

    def bucket(self, row: int, key) -> int:
        """Bucket index of ``key`` in ``row``."""
        return self._row_hashes[row](key)

    def buckets_batch(self, row: int, keys: np.ndarray) -> np.ndarray:
        """Vectorised bucket indices for canonical integer keys in ``row``."""
        return self._row_hashes[row].buckets_batch(keys)

    def min_over_rows(self, table: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Count-Min point estimates of canonical integer keys from ``table``.

        Each key's estimate is the minimum of its buckets across the rows of
        the ``depth x width`` table.  Rows are scanned in order and a later
        row wins only when strictly smaller, which is ``min()``'s tie rule
        (``np.minimum`` would turn ``min(0.0, -0.0) = 0.0`` into ``-0.0``).
        """
        keys = np.asarray(keys, dtype=np.uint64)
        estimates = table[0, self.buckets_batch(0, keys)]
        for row in range(1, self.depth):
            values = table[row, self.buckets_batch(row, keys)]
            estimates = np.where(values < estimates, values, estimates)
        return estimates

    def sign(self, row: int, key) -> int:
        """Sign (+1/-1) of ``key`` in ``row`` (used by Count-Sketch only)."""
        return self._sign_hashes[row](key)

    def signs_batch(self, row: int, keys: np.ndarray) -> np.ndarray:
        """Vectorised signs for canonical integer keys in ``row``."""
        return self._sign_hashes[row].signs_batch(keys)

    def buckets(self, key) -> list[int]:
        """Bucket indices of ``key`` for every row."""
        return [h(key) for h in self._row_hashes]
