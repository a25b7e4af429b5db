"""Misra-Gries heavy-hitter summary.

This is the counter-based sketch used by the Biswas et al. hierarchical
heavy-hitter baseline that the paper compares against in related work: its
error is ``n / (capacity + 1)`` regardless of skew, whereas the hash-based
sketches used by PrivHP have error governed by the tail norm.  Implementing it
lets the sketch-ablation benchmark demonstrate the paper's claim that the
hash-based sketch "composes nicely with hierarchy pruning" while the
counter-based one does not.
"""

from __future__ import annotations

__all__ = ["MisraGries"]


class MisraGries:
    """Classic Misra-Gries summary with a fixed number of counters.

    >>> summary = MisraGries(capacity=2)
    >>> summary.update_many("aabacad")
    >>> summary.counters   # "a" occurred 4 times; estimates never overshoot
    {'a': 3.0, 'd': 1.0}
    >>> summary.error_bound()   # total / (capacity + 1)
    2.3333333333333335
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._counters: dict = {}
        self._total = 0.0

    def update(self, key, count: float = 1.0) -> None:
        """Process one stream item (optionally weighted)."""
        if count < 0:
            raise ValueError("Misra-Gries only supports non-negative updates")
        self._total += count
        if key in self._counters:
            self._counters[key] += count
            return
        if len(self._counters) < self.capacity:
            self._counters[key] = count
            return
        # Decrement phase: reduce every counter by the incoming weight and
        # drop the ones that reach zero.
        decrement = min(count, min(self._counters.values()))
        remaining = count - decrement
        for existing in list(self._counters):
            self._counters[existing] -= decrement
            if self._counters[existing] <= 0:
                del self._counters[existing]
        if remaining > 0 and len(self._counters) < self.capacity:
            self._counters[key] = remaining

    def update_many(self, keys, counts=None) -> None:
        """Update with an iterable of keys (optionally weighted)."""
        if counts is None:
            for key in keys:
                self.update(key)
        else:
            for key, count in zip(keys, counts):
                self.update(key, count)

    def query(self, key) -> float:
        """Lower-bound estimate of ``key``'s frequency."""
        return float(self._counters.get(key, 0.0))

    def heavy_hitters(self, threshold: float) -> dict:
        """Keys whose estimated count is at least ``threshold``."""
        return {key: count for key, count in self._counters.items() if count >= threshold}

    @property
    def counters(self) -> dict:
        """A copy of the current counter map."""
        return dict(self._counters)

    @property
    def total(self) -> float:
        """Total mass processed."""
        return self._total

    def error_bound(self) -> float:
        """Worst-case underestimation: ``total / (capacity + 1)``."""
        return self._total / (self.capacity + 1)

    def memory_words(self) -> int:
        """Words used: two per stored counter (key reference + value)."""
        return 2 * len(self._counters)
