"""A Count-Min sketch that can be read privately at any point of the stream.

Every cell of the sketch is a binary-mechanism counter; because the sketch is
linear, a single stream element increments exactly one cell per row, so
per-row sensitivity is 1 and the whole table is epsilon-differentially
private under continual observation when each cell's counter is run with
budget ``epsilon / depth``.

The cells live in one :class:`~repro.continual.counter.BinaryMechanismCounterBank`
sharing a single event-driven time axis: each
:meth:`ContinualPrivateCountMinSketch.update_batch` call is one synchronized
step of the whole ``depth x width`` table (cells the event does not touch
step with weight 0).  That makes the time axis data-independent and lets one
``bincount`` per block of hashed rows replace per-cell Python updates -- the
batch-native hot path of the continual summarizer.

Memory is a factor ``O(log horizon)`` above the one-shot private sketch,
matching the usual cost of continual observation.
"""

from __future__ import annotations

import numpy as np

from repro.continual.counter import BinaryMechanismCounterBank
from repro.sketch.hashing import HashFamily

__all__ = ["ContinualPrivateCountMinSketch"]


class ContinualPrivateCountMinSketch:
    """Count-Min sketch whose cells release privately at every event.

    Writes and reads take the canonical keys ``(1 << l) | code`` of
    :func:`repro.core.base.cell_keys`; each :meth:`update_batch` is one
    event.

    Example:
        >>> from repro.core.base import cell_keys
        >>> sketch = ContinualPrivateCountMinSketch(
        ...     width=16, depth=2, epsilon=1000.0, horizon=8, seed=0, rng=0
        ... )
        >>> hot = cell_keys(3, np.array([5]))
        >>> sketch.update_batch(hot, np.array([5.0]))
        >>> sketch.update_batch(hot, np.array([2.0]))
        >>> sketch.events, round(sketch.query(int(hot[0])))
        (2, 7)
    """

    def __init__(
        self,
        width: int,
        depth: int,
        epsilon: float,
        horizon: int,
        seed: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.width = int(width)
        self.depth = int(depth)
        self.epsilon = float(epsilon)
        self.horizon = int(horizon)
        self.seed = seed
        self._hashes = HashFamily(depth=self.depth, width=self.width, seed=seed)
        self._rng = np.random.default_rng(rng)
        # Per-cell budget: one element touches one cell per row, so the rows
        # compose and each cell's counter runs with epsilon / depth.
        self._bank = BinaryMechanismCounterBank(
            epsilon=self.epsilon / self.depth,
            horizon=self.horizon,
            size=self.depth * self.width,
            rng=self._rng,
        )
        self._updates = 0
        self._released: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def update_batch(self, keys, counts) -> None:
        """Add a batch of keyed counts as one event: the one write.

        ``keys`` must be a 1-d integer array of canonical keys in
        ``[0, 2^63)`` (see
        :meth:`repro.sketch.countmin.CountMinSketch.update_batch`) and
        ``counts`` their aggregated weights.  One ``bincount`` per block of
        hashed rows builds the weight table, summing each bucket from 0.0 in
        key order, and the bank advances a single step, so the cost is
        ``O(batch * depth + depth * width * levels)`` independent of how many
        items the aggregated weights represent.
        """
        counts = np.asarray(counts, dtype=float)
        if np.shape(keys) != counts.shape:
            raise ValueError("keys and counts must have matching shapes")
        weights = np.empty((self.depth, self.width))
        for rows, cells in self._hashes.cell_blocks(keys):
            height = len(cells)
            weights[rows] = np.bincount(
                cells.ravel(), weights=np.tile(counts, height), minlength=height * self.width
            ).reshape(height, self.width)
        self._bank.step(weights.ravel())
        self._updates += int(counts.size)
        self._released = None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def released_table(self) -> np.ndarray:
        """The current noisy ``depth x width`` table (cached per event)."""
        if self._released is None:
            self._released = self._bank.query_all().reshape(self.depth, self.width)
        return self._released

    def query(self, key: int) -> float:
        """Noisy point estimate of one canonical key: :meth:`query_many` of
        ``[key]``; a key that is not an integer in ``[0, 2^63)`` raises
        ``ValueError``."""
        return float(self.query_many(np.array([key]))[0])

    def query_many(self, keys) -> np.ndarray:
        """Noisy point estimates of canonical integer keys, as one array.

        ``keys`` are canonical integer keys below ``2^63``, as for
        :meth:`update_batch`; each estimate is the minimum of the key's
        buckets across the rows of :meth:`released_table`.
        """
        return self._hashes.min_over_rows(self.released_table(), keys)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def updates(self) -> int:
        """Number of (key, count) pairs recorded so far."""
        return self._updates

    @property
    def events(self) -> int:
        """Number of synchronized steps the table has taken."""
        return self._bank.steps

    def memory_words(self) -> int:
        """Total words across the shared continual counter bank."""
        return self._bank.memory_words()

    # ------------------------------------------------------------------ #
    # merging and persistence
    # ------------------------------------------------------------------ #
    def merge(self, other: "ContinualPrivateCountMinSketch") -> "ContinualPrivateCountMinSketch":
        """Linear merge of two shard sketches built with identical parameters.

        Both sketches must share width, depth, epsilon, horizon, hash seed
        and event count (the continual summarizer aligns event counts with
        zero-weight padding before merging).  Noise adds with the tables --
        the unavoidable cost of merging continually-private state.
        """
        if not isinstance(other, ContinualPrivateCountMinSketch):
            raise TypeError("can only merge with another ContinualPrivateCountMinSketch")
        if (self.width, self.depth, self.epsilon, self.horizon, self.seed) != (
            other.width,
            other.depth,
            other.epsilon,
            other.horizon,
            other.seed,
        ):
            raise ValueError(
                "sketches must share width, depth, epsilon, horizon and seed to merge"
            )
        merged = ContinualPrivateCountMinSketch(
            width=self.width,
            depth=self.depth,
            epsilon=self.epsilon,
            horizon=self.horizon,
            seed=self.seed,
            rng=self._rng,
        )
        merged._bank = self._bank.merged_with(other._bank)
        merged._updates = self._updates + other._updates
        return merged

    def pad_events_to(self, events: int) -> None:
        """Advance to ``events`` steps with zero-weight (data-free) events."""
        self._bank.pad_to(events)
        self._released = None

    def state_dict(self, *, arrays: bool = False) -> dict:
        """JSON-serialisable state (the RNG is owned by the summarizer).

        ``arrays=True`` keeps the underlying bank's counter tables as ndarray
        copies for the binary envelope writer.
        """
        return {
            "width": self.width,
            "depth": self.depth,
            "epsilon": self.epsilon,
            "horizon": self.horizon,
            "seed": self.seed,
            "updates": self._updates,
            "bank": self._bank.state_dict(arrays=arrays),
        }

    @classmethod
    def from_state(
        cls, state: dict, rng: np.random.Generator | int | None = None
    ) -> "ContinualPrivateCountMinSketch":
        """Rebuild a sketch from :meth:`state_dict` (pair with the restored RNG)."""
        sketch = cls(
            width=int(state["width"]),
            depth=int(state["depth"]),
            epsilon=float(state["epsilon"]),
            horizon=int(state["horizon"]),
            seed=state["seed"],
            rng=rng,
        )
        sketch._bank = BinaryMechanismCounterBank.from_state(state["bank"], rng=sketch._rng)
        sketch._updates = int(state["updates"])
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ContinualPrivateCountMinSketch(width={self.width}, depth={self.depth}, "
            f"epsilon={self.epsilon}, events={self.events}/{self.horizon})"
        )
