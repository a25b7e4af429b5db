"""A memoizing query cache with hit/miss statistics.

Real query workloads repeat: dashboards re-issue the same range counts,
monitors poll the same quantiles.  Because every answer is deterministic
post-processing of an immutable release, repeated queries can be served from
memory with zero privacy cost and zero staleness.  The cache is a bounded LRU
keyed by the canonical query form, safe to share across the threads of the
HTTP server.

Example:
    >>> from repro.serve.cache import QueryCache
    >>> cache = QueryCache(maxsize=2)
    >>> cache.lookup("a", lambda: 1.0)
    1.0
    >>> cache.lookup("a", lambda: 2.0)   # served from cache, not recomputed
    1.0
    >>> cache.stats()["hits"], cache.stats()["misses"]
    (1, 1)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any, Callable

__all__ = ["QueryCache"]

_MISSING = object()


class QueryCache:
    """Bounded, thread-safe LRU cache of query answers with hit/miss stats."""

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be at least 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        #: Single-flight state: one event per key currently being computed,
        #: and how many lookups waited on another thread's computation.
        self._inflight: dict[Hashable, threading.Event] = {}
        self._inflight_waits = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached answer for ``key`` (counts a hit or a miss)."""
        return self.get_many([key], default)[0]

    def get_many(self, keys: list[Hashable], default: Any = None) -> list:
        """:meth:`get` over a list of keys under one lock acquisition.

        Hits, misses and the LRU order come out as from one :meth:`get` per
        key in order; a missing key's slot holds ``default``.
        """
        values = []
        hits = 0
        with self._lock:
            entries = self._entries
            for key in keys:
                value = entries.get(key, _MISSING)
                if value is _MISSING:
                    values.append(default)
                else:
                    entries.move_to_end(key)
                    hits += 1
                    values.append(value)
            self._hits += hits
            self._misses += len(keys) - hits
        return values

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the least recently used
        entry when full."""
        self.put_many([(key, value)])

    def put_many(self, items: list[tuple[Hashable, Any]]) -> None:
        """Store ``(key, value)`` pairs in order under one lock acquisition.

        The entries left, and their LRU order, are those of one :meth:`put`
        per pair: either way the cache ends up holding the ``maxsize`` most
        recently stored or read keys.
        """
        with self._lock:
            entries = self._entries
            for key, value in items:
                entries[key] = value
                entries.move_to_end(key)
            while len(entries) > self.maxsize:
                entries.popitem(last=False)

    def lookup(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The cached answer for ``key``, computing and storing it on a miss.

        Cold keys are single-flight: the first thread to miss computes (with
        the lock released -- query evaluation can be slow) while every other
        thread parks on a per-key event and reuses the stored answer, so N
        concurrent requests for one cold key cost one evaluation instead of
        a thundering herd of N.  If the computing thread raises, its waiters
        wake and elect a new computer rather than failing.
        """
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return value
                event = self._inflight.get(key)
                if event is None:
                    # This thread is the computer for the cold key.
                    event = self._inflight[key] = threading.Event()
                    self._misses += 1
                    computer = True
                else:
                    self._inflight_waits += 1
                    computer = False
            if not computer:
                event.wait()
                continue
            try:
                value = compute()
                self.put(key, value)
                return value
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._inflight_waits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss counters plus occupancy, as a JSON-serialisable dict."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / total) if total else 0.0,
                "inflight_waits": self._inflight_waits,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        summary = self.stats()
        return (
            f"QueryCache(size={summary['size']}/{summary['maxsize']}, "
            f"hits={summary['hits']}, misses={summary['misses']})"
        )
