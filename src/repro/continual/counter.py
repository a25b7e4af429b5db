"""The binary-tree mechanism for continual counting.

Releases a running count after every update while guaranteeing epsilon-DP for
the entire update sequence.  The stream of increments is tiled with dyadic
blocks; each block's partial sum receives independent ``Laplace(L/epsilon)``
noise (``L`` = number of dyadic levels), and any prefix sum is assembled from
at most ``L`` blocks, giving error ``O(L^{3/2}/epsilon)`` per release.

The counter is *event-driven*: its time axis is its own update sequence (one
step per call to :meth:`BinaryMechanismCounter.step`).  A single stream
element touches the counter at most once, so the per-element sensitivity
argument of the classic construction applies unchanged.

Two shapes of the mechanism live here:

* :class:`BinaryMechanismCounter` -- one counter, one time axis, one step
  at a time: the scalar reference the bank is checked against.
* :class:`BinaryMechanismCounterBank` -- a fixed-size vector of counters
  advancing one *shared* time axis.  This is the batch-native layout used by
  the continual sketches and the continual PrivHP tree levels: every
  ingestion event steps every cell (untouched cells step with weight 0), so
  the time axis is data-independent and one numpy pass updates all cells.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BinaryMechanismCounter", "BinaryMechanismCounterBank"]


def _dyadic_levels(horizon: int) -> int:
    """Number of dyadic levels needed for ``horizon`` steps."""
    return max(1, math.ceil(math.log2(horizon + 1)) + 1)


def _trailing_zeros(time: int) -> int:
    """Index of the lowest set bit of ``time`` (``time`` must be positive)."""
    lowest_zero = 0
    while (time >> lowest_zero) & 1 == 0:
        lowest_zero += 1
    return lowest_zero


class BinaryMechanismCounter:
    """Continual-release counter with dyadic-block Laplace noise.

    Example:
        >>> counter = BinaryMechanismCounter(epsilon=1000.0, horizon=16, rng=0)
        >>> round(counter.step(1.0))
        1
        >>> round(counter.step(2.0))
        3
        >>> counter.steps
        2
    """

    def __init__(
        self,
        epsilon: float,
        horizon: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        self.epsilon = float(epsilon)
        self.horizon = int(horizon)
        self.levels = _dyadic_levels(self.horizon)
        self._rng = np.random.default_rng(rng)
        self._noise_scale = self.levels / self.epsilon
        # alpha[i] holds the exact partial sum of the current dyadic block at
        # level i; noisy_alpha[i] the corresponding noisy release.
        self._alpha = np.zeros(self.levels)
        self._noisy_alpha = np.zeros(self.levels)
        self._steps = 0

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def step(self, value: float = 1.0) -> float:
        """Consume one increment and return the current noisy running count."""
        if self._steps >= self.horizon:
            raise RuntimeError(
                f"counter horizon of {self.horizon} steps exhausted; "
                "construct the counter with a larger horizon"
            )
        self._steps += 1
        time = self._steps
        # Lowest level whose dyadic block starts at this step.
        lowest_zero = _trailing_zeros(time)
        # The new block at `lowest_zero` absorbs all completed lower blocks.
        self._alpha[lowest_zero] = self._alpha[:lowest_zero].sum() + value
        self._alpha[:lowest_zero] = 0.0
        self._noisy_alpha[:lowest_zero] = 0.0
        self._noisy_alpha[lowest_zero] = self._alpha[lowest_zero] + self._rng.laplace(
            0.0, self._noise_scale
        )
        return self.query()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self) -> float:
        """The current noisy running count (private under continual observation)."""
        if self._steps == 0:
            return 0.0
        time = self._steps
        total = 0.0
        for level in range(self.levels):
            if (time >> level) & 1:
                total += self._noisy_alpha[level]
        return float(total)

    @property
    def steps(self) -> int:
        """Number of increments consumed so far."""
        return self._steps

    @property
    def true_count(self) -> float:
        """The exact running count (private state; used only by tests)."""
        time = self._steps
        return float(
            sum(self._alpha[level] for level in range(self.levels) if (time >> level) & 1)
        )

    def expected_error(self) -> float:
        """Rough expected absolute error of one release: ``levels * scale``."""
        return self.levels * self._noise_scale

    def memory_words(self) -> int:
        """Words of state: two arrays of dyadic partial sums."""
        return 2 * self.levels


class BinaryMechanismCounterBank:
    """A fixed-size vector of binary-mechanism counters on one shared time axis.

    All ``size`` counters advance together: each call to :meth:`step` is one
    event that adds a per-cell weight vector (zeros for untouched cells) and
    draws one Laplace vector for the newly formed dyadic block of every cell.
    Sharing the time axis has two payoffs over per-cell
    :class:`BinaryMechanismCounter` instances:

    * **speed** -- the dyadic bookkeeping is identical for every cell, so one
      step is a handful of numpy operations over a ``(size, levels)`` array
      instead of ``size`` Python-level updates; and
    * **privacy hygiene** -- the time axis is the (public) sequence of
      ingestion events, never the data-dependent count of hits per cell, so a
      released vector leaks nothing through which cells happen to carry noise.

    One stream element still changes exactly one step's weight vector by one
    unit in one cell, so the classic per-element sensitivity argument gives
    epsilon-DP under continual observation with ``Laplace(levels/epsilon)``
    noise per block, exactly as for the scalar counter.

    ``horizon`` bounds the number of *events* (batches or single items); the
    continual summarizer passes its item horizon, which is always an upper
    bound.

    Example:
        >>> bank = BinaryMechanismCounterBank(epsilon=1000.0, horizon=8, size=3, rng=0)
        >>> bank.step([1.0, 0.0, 4.0])
        >>> bank.step([1.0, 2.0, 0.0])
        >>> [round(value) for value in bank.query_all()]
        [2, 2, 4]
    """

    def __init__(
        self,
        epsilon: float,
        horizon: int,
        size: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        if size < 1:
            raise ValueError(f"bank size must be at least 1, got {size}")
        self.epsilon = float(epsilon)
        self.horizon = int(horizon)
        self.size = int(size)
        self.levels = _dyadic_levels(self.horizon)
        self._rng = np.random.default_rng(rng)
        self._noise_scale = self.levels / self.epsilon
        self._alpha = np.zeros((self.size, self.levels))
        self._noisy_alpha = np.zeros((self.size, self.levels))
        self._steps = 0

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def step(self, weights) -> None:
        """Advance every counter by one event carrying per-cell ``weights``."""
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.shape != (self.size,):
            raise ValueError(
                f"weights must have shape ({self.size},), got {weights.shape}"
            )
        if self._steps >= self.horizon:
            raise RuntimeError(
                f"bank horizon of {self.horizon} events exhausted; "
                "construct the bank with a larger horizon"
            )
        self._steps += 1
        lowest_zero = _trailing_zeros(self._steps)
        self._alpha[:, lowest_zero] = self._alpha[:, :lowest_zero].sum(axis=1) + weights
        self._alpha[:, :lowest_zero] = 0.0
        self._noisy_alpha[:, :lowest_zero] = 0.0
        self._noisy_alpha[:, lowest_zero] = self._alpha[:, lowest_zero] + self._rng.laplace(
            0.0, self._noise_scale, size=self.size
        )

    def pad_to(self, steps: int) -> None:
        """Advance to ``steps`` events with zero-weight (data-independent) steps.

        Used to align two shard banks before :meth:`merged_with`; padding
        events carry no data, so they are harmless post-processing.
        """
        if steps > self.horizon:
            raise ValueError(f"cannot pad to {steps} events beyond horizon {self.horizon}")
        zeros = np.zeros(self.size)
        while self._steps < steps:
            self.step(zeros)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query_all(self) -> np.ndarray:
        """The noisy running counts of every cell, as a ``(size,)`` array."""
        if self._steps == 0:
            return np.zeros(self.size)
        set_levels = [
            level for level in range(self.levels) if (self._steps >> level) & 1
        ]
        return self._noisy_alpha[:, set_levels].sum(axis=1)

    def true_counts(self) -> np.ndarray:
        """The exact running counts (private state; used only by tests)."""
        if self._steps == 0:
            return np.zeros(self.size)
        set_levels = [
            level for level in range(self.levels) if (self._steps >> level) & 1
        ]
        return self._alpha[:, set_levels].sum(axis=1)

    @property
    def steps(self) -> int:
        """Number of events consumed so far."""
        return self._steps

    def memory_words(self) -> int:
        """Words of state across all cells (two dyadic arrays per cell)."""
        return 2 * self.size * self.levels

    # ------------------------------------------------------------------ #
    # merging and persistence
    # ------------------------------------------------------------------ #
    def merged_with(self, other: "BinaryMechanismCounterBank") -> "BinaryMechanismCounterBank":
        """A new bank carrying the cell-wise sum of two shard banks.

        Both operands must share epsilon, horizon, size and step count (align
        with :meth:`pad_to` first).  Exact partial sums add linearly; the
        noise adds too, so a merged release carries the sum of the shards'
        noise -- the standard variance cost of merging continually-private
        state, since continual noise can never be deferred.
        """
        if not isinstance(other, BinaryMechanismCounterBank):
            raise TypeError("can only merge with another BinaryMechanismCounterBank")
        if (self.epsilon, self.horizon, self.size) != (
            other.epsilon,
            other.horizon,
            other.size,
        ):
            raise ValueError("banks must share epsilon, horizon and size to merge")
        if self._steps != other._steps:
            raise ValueError(
                f"banks must be aligned to the same event count to merge "
                f"({self._steps} vs {other._steps}); call pad_to first"
            )
        merged = BinaryMechanismCounterBank(
            self.epsilon, self.horizon, self.size, rng=self._rng
        )
        merged._alpha = self._alpha + other._alpha
        merged._noisy_alpha = self._noisy_alpha + other._noisy_alpha
        merged._steps = self._steps
        return merged

    def state_dict(self, *, arrays: bool = False) -> dict:
        """JSON-serialisable state (the RNG is owned by the caller).

        With ``arrays=True`` the counter tables stay float64 ndarray copies
        instead of nested lists -- the form the binary envelope writer stores
        zero-copy, skipping the list round trip entirely.
        """
        return {
            "epsilon": self.epsilon,
            "horizon": self.horizon,
            "size": self.size,
            "steps": self._steps,
            "alpha": self._alpha.copy() if arrays else self._alpha.tolist(),
            "noisy_alpha": self._noisy_alpha.copy() if arrays else self._noisy_alpha.tolist(),
        }

    @classmethod
    def from_state(
        cls, state: dict, rng: np.random.Generator | int | None = None
    ) -> "BinaryMechanismCounterBank":
        """Rebuild a bank from :meth:`state_dict` (pair with the restored RNG)."""
        bank = cls(
            epsilon=float(state["epsilon"]),
            horizon=int(state["horizon"]),
            size=int(state["size"]),
            rng=rng,
        )
        bank._alpha = np.asarray(state["alpha"], dtype=float).reshape(bank.size, bank.levels)
        bank._noisy_alpha = np.asarray(state["noisy_alpha"], dtype=float).reshape(
            bank.size, bank.levels
        )
        bank._steps = int(state["steps"])
        return bank

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"BinaryMechanismCounterBank(epsilon={self.epsilon}, size={self.size}, "
            f"steps={self._steps}/{self.horizon})"
        )
