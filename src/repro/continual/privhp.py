"""PrivHP under continual observation: a batch-native ``StreamSummarizer``.

The 1-pass algorithm releases its partition once, after the stream.  Replacing
the per-node Laplace counters with binary-mechanism counters and the private
sketches with their continual counterparts (as Section 3.1 of the paper
suggests) yields a variant whose internal state is private *at every point of
the stream*, so a synthetic generator for the prefix seen so far can be
snapshot at any time -- and arbitrarily often -- without additional privacy
cost (each snapshot is post-processing of the continually-private state).

Unlike the original item-at-a-time sketch of this idea, the summarizer is
**batch-native**: every exact tree level is one
:class:`~repro.continual.counter.BinaryMechanismCounterBank` and every deep
level one :class:`~repro.continual.sketch.ContinualPrivateCountMinSketch`,
all advancing a shared event-driven time axis (one event per
:meth:`PrivHPContinual.update_batch` call, or per single
:meth:`PrivHPContinual.update`).  A batch costs one vectorised
``locate_batch`` pass, the :func:`repro.core.base.level_counts` roll-up that
:class:`repro.core.privhp.PrivHP` ingests with too, one bank step per exact
level whose weight vector is the level's dense histogram, and one aggregated
sketch step per deep level.

It satisfies the full :class:`repro.api.summarizer.StreamSummarizer`
protocol: batched ingestion, shard :meth:`PrivHPContinual.merge`, versioned
:meth:`PrivHPContinual.checkpoint` / :meth:`PrivHPContinual.restore` (the
``repro.io`` checkpoint envelope resumes byte-for-byte), and
:meth:`PrivHPContinual.release`.  On top of the protocol,
:meth:`PrivHPContinual.snapshot` produces a full
:class:`repro.api.release.Release` at any point of the stream -- the hook the
live-serving path (:meth:`repro.serve.store.ReleaseStore.register_live`)
builds on.

The trade-offs are the standard ones for continual observation: an extra
``O(log n)`` factor in both the per-release noise and the memory, and noise
that is baked into the state (so merging shards sums their noise instead of
deferring one injection to release time).
"""

from __future__ import annotations

import threading
from dataclasses import asdict

import numpy as np

from repro.continual.counter import BinaryMechanismCounterBank
from repro.continual.sketch import ContinualPrivateCountMinSketch
from repro.core.base import SummarizerBase, cell_keys, level_counts
from repro.core.config import PrivHPConfig
from repro.core.partition import grow_partition
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.base import Domain

__all__ = ["PrivHPContinual"]

#: Version tag of the checkpoint payload produced by :meth:`PrivHPContinual.checkpoint`.
CONTINUAL_STATE_VERSION = 1

#: Identifies continual checkpoints inside the shared ``repro.io`` envelope.
CONTINUAL_STATE_KIND = "privhp-continual"


class PrivHPContinual(SummarizerBase):
    """PrivHP whose state is differentially private under continual observation.

    Privacy: epsilon-DP under continual observation for streams that differ
    by one added or removed item.  One item moves one counter of each exact
    level by 1 and ``j`` cells of each ``j``-row sketch, at one event, and
    that event touches up to ``L`` dyadic blocks of each binary-mechanism
    counter; so the exact levels' counters add ``Laplace(L/sigma_l)`` and
    the sketch cells ``Laplace(j*L/sigma_l)``, the level budgets
    ``sigma_l`` summing to epsilon.  When one item's value changes instead,
    the same noise gives 2 epsilon.

    Example:
        >>> import numpy as np
        >>> from repro.api.builder import PrivHPBuilder
        >>> summarizer = (
        ...     PrivHPBuilder("interval").stream_size(128).seed(0).continual().build()
        ... )
        >>> mid = summarizer.update_batch(np.linspace(0.0, 1.0, 64)).snapshot()
        >>> mid.items_processed
        64
        >>> summarizer.update_batch(np.linspace(0.0, 1.0, 64)).release().items_processed
        128
    """

    def __init__(
        self,
        domain: Domain,
        config: PrivHPConfig,
        horizon: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        super().__init__(domain, config, rng)
        self.horizon = int(horizon)
        self._events = 0
        self._lock = threading.RLock()

        # One continual counter bank per exact level (all 2^level cells share
        # the event time axis), one continual sketch per deep level.
        self._banks: dict[int, BinaryMechanismCounterBank] = {}
        for level in range(config.level_cutoff + 1):
            sigma = self.level_budgets[level]
            self._banks[level] = BinaryMechanismCounterBank(
                epsilon=sigma, horizon=self.horizon, size=1 << level, rng=self._rng
            )
            self.accountant.spend(sigma, label=f"continual tree level {level}")
        self._sketches: dict[int, ContinualPrivateCountMinSketch] = {}
        for level in range(config.level_cutoff + 1, config.depth + 1):
            sigma = self.level_budgets[level]
            self._sketches[level] = ContinualPrivateCountMinSketch(
                width=config.sketch_width,
                depth=config.sketch_depth,
                epsilon=sigma,
                horizon=self.horizon,
                seed=self._sketch_hash_seed(level),
                rng=self._rng,
            )
            self.accountant.spend(sigma, label=f"continual sketch level {level}")
        self.accountant.assert_within_budget()

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def update(self, point) -> None:
        """Process one stream item (one event); state stays private throughout."""
        self.update_batch([point])

    def update_batch(self, points) -> "PrivHPContinual":
        """Vectorised ingestion of a whole batch as one continual event.

        One :meth:`~repro.domain.base.Domain.locate_batch` pass locates every
        point; :func:`repro.core.base.level_counts` aggregates the batch, each
        exact level advances its counter bank one step by the level's dense
        histogram, and each deep level takes one aggregated sketch step over
        the batch's distinct cells.
        The exact counts after the batch are identical to item-wise
        processing (up to float summation order); the noise layout follows
        the event time axis, so private snapshots remain available after
        every batch.  Returns ``self`` for chaining.
        """
        self._check_open()
        codes = self._locate_codes(points)
        return self._ingest(codes, [codes.size])

    def update_segments(self, points, lengths) -> "PrivHPContinual":
        """Apply several consecutive batches, one continual event per segment.

        Byte-identical to calling :meth:`update_batch` once per segment in
        order -- each segment is its own event on the binary-mechanism time
        axis, so unlike the one-shot variant the counter steps cannot be
        fused across segments without changing the noise layout.  What *is*
        shared is the elementwise location pass: the concatenation is located
        once and each event consumes its slice of the cell codes.  This
        method exists so the batched ingestion service can hand any
        summarizer a coerced concatenation plus segment lengths through one
        uniform call.
        """
        self._check_open()
        lengths = self._segment_lengths(points, lengths)
        if not any(lengths):
            return self
        return self._ingest(self._locate_codes(points), lengths)

    def _ingest(self, codes: np.ndarray, lengths: list[int]) -> "PrivHPContinual":
        start = 0
        for length in lengths:
            self._apply_event(codes[start : start + length])
            start += length
        return self

    def _apply_event(self, codes: np.ndarray) -> None:
        """Advance all banks and sketches one event from one segment's codes."""
        with self._lock:
            self._check_open()
            if codes.size == 0:
                return
            if self._items_processed + codes.size > self.horizon:
                raise RuntimeError(
                    f"stream horizon of {self.horizon} items exhausted; "
                    "construct PrivHPContinual with a larger horizon"
                )
            cutoff = self.config.level_cutoff
            exact, deep = level_counts(codes, self.config.depth, cutoff)
            for level, histogram in enumerate(exact):
                self._banks[level].step(histogram)
            for level, (cells, counts) in enumerate(deep, cutoff + 1):
                self._sketches[level].update_batch(
                    cell_keys(level, cells), counts.astype(float)
                )
            self._items_processed += int(codes.size)
            self._events += 1

    # ------------------------------------------------------------------ #
    # sharding: linear merge of continually-private summaries
    # ------------------------------------------------------------------ #
    def _pad_events_to(self, events: int) -> None:
        """Advance to ``events`` with zero-weight (data-independent) events."""
        with self._lock:
            while self._events < events:
                for bank in self._banks.values():
                    bank.pad_to(self._events + 1)
                for sketch in self._sketches.values():
                    sketch.pad_events_to(self._events + 1)
                self._events += 1

    def merge(self, other: "PrivHPContinual") -> "PrivHPContinual":
        """Combine two continual shard summaries into one (linear merge).

        Both operands must share configuration, domain, horizon and hash
        seeds, and must have been built with *independent* noise generators
        (:meth:`repro.api.builder.PrivHPBuilder.build_shards` arranges this) --
        continual noise is baked into the state the moment it is drawn, so
        unlike one-shot PrivHP shards there is no raw mode and the merged
        state carries the sum of the shards' noise.  Event counts are aligned
        first with zero-weight padding events, which are data-independent and
        therefore privacy-free.
        """
        self._check_mergeable(other)
        if self.horizon != other.horizon:
            raise ValueError("cannot merge summarizers with different horizons")

        target_events = max(self._events, other._events)
        self._pad_events_to(target_events)
        other._pad_events_to(target_events)

        merged = self._bare(self.domain, self.config, self._rng, self._hash_base)
        merged.horizon = self.horizon
        merged._items_processed = self._items_processed + other._items_processed
        merged._events = target_events
        merged._lock = threading.RLock()
        for epsilon, label in self._ledger():
            merged.accountant.spend(epsilon, label=label)
        merged._banks = {
            level: bank.merged_with(other._banks[level])
            for level, bank in self._banks.items()
        }
        merged._sketches = {
            level: sketch.merge(other._sketches[level])
            for level, sketch in self._sketches.items()
        }
        return merged

    # ------------------------------------------------------------------ #
    # checkpoint / restore (durable mid-stream state)
    # ------------------------------------------------------------------ #
    def checkpoint(self, *, arrays: bool = False) -> dict:
        """A JSON-serialisable snapshot of the full mid-stream state.

        Captures every counter bank, sketch, the privacy ledger and the exact
        generator state, so ``restore(checkpoint())`` continues the stream --
        and snapshots -- byte-for-byte identically to the original instance.
        Use :func:`repro.io.serialization.save_checkpoint` for the versioned
        on-disk envelope (it round-trips continual and one-shot summarizers
        through the same format).  Unlike a raw one-shot shard, a continual
        checkpoint is always as private as the summary itself: the noise is
        already in the state.

        ``arrays=True`` keeps the counter banks' tables as float64 ndarray
        copies instead of nested lists -- not JSON-serialisable, but exactly
        what the binary envelope writer stores without a list round trip.
        ``restore`` accepts either form.
        """
        with self._lock:
            if self._finalized:
                raise RuntimeError(
                    "cannot checkpoint a released summarizer; persist the Release instead"
                )
            return {
                **self._checkpoint_base(),
                "state_version": CONTINUAL_STATE_VERSION,
                "summarizer": CONTINUAL_STATE_KIND,
                "horizon": self.horizon,
                "events": self._events,
                "banks": [
                    {"level": level, "state": bank.state_dict(arrays=arrays)}
                    for level, bank in sorted(self._banks.items())
                ],
                "sketches": [
                    {"level": level, "state": sketch.state_dict(arrays=arrays)}
                    for level, sketch in sorted(self._sketches.items())
                ],
            }

    @classmethod
    def restore(cls, state: dict) -> "PrivHPContinual":
        """Reconstruct a summarizer from a :meth:`checkpoint` snapshot."""
        algorithm = cls._restore_base(state, CONTINUAL_STATE_VERSION)
        algorithm.horizon = int(state["horizon"])
        algorithm._events = int(state["events"])
        algorithm._lock = threading.RLock()
        algorithm._banks = {
            int(entry["level"]): BinaryMechanismCounterBank.from_state(
                entry["state"], rng=algorithm._rng
            )
            for entry in state["banks"]
        }
        algorithm._sketches = {
            int(entry["level"]): ContinualPrivateCountMinSketch.from_state(
                entry["state"], rng=algorithm._rng
            )
            for entry in state["sketches"]
        }
        return algorithm

    # ------------------------------------------------------------------ #
    # snapshots and release
    # ------------------------------------------------------------------ #
    def snapshot(self, sampling_seed: int | None = None):
        """A full :class:`repro.api.release.Release` for the prefix seen so far.

        May be called any number of times (including mid-stream and from
        serving threads while ingestion continues); each call is
        post-processing of the continually-private counters and sketches, so
        no extra privacy budget is consumed.  The release is tagged with the
        ``items_processed`` at snapshot time -- the version key live serving
        uses for cache invalidation.

        Snapshots never consume the ingestion noise generator: the sampler is
        seeded deterministically from ``(seed, items_processed)`` (or from
        ``sampling_seed``), so taking a snapshot leaves subsequent ingestion
        -- and checkpoint resume -- byte-for-byte unchanged.
        """
        from repro.api.release import Release

        with self._lock:
            tree = PartitionTree(self._banks[0].query_all()[0])
            for level in range(1, self.config.level_cutoff + 1):
                tree.append_level(np.arange(1 << level), self._banks[level].query_all())
            grow_partition(
                tree=tree,
                sketches=self._sketches,
                pruning_k=self.config.pruning_k,
                level_cutoff=self.config.level_cutoff,
                depth=self.config.depth,
                apply_consistency=self.config.apply_consistency,
            )
            items = self._items_processed
            events = self._events
            memory = self.memory_words()
            ledger = self._ledger()
        if sampling_seed is not None:
            sampler_rng = np.random.default_rng(sampling_seed)
        else:
            sampler_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(self._hash_base, items))
            )
        generator = SyntheticDataGenerator(tree, self.domain, rng=sampler_rng)
        return Release(
            generator=generator,
            epsilon=self.config.epsilon,
            items_processed=items,
            memory_words=memory,
            metadata={
                "config": asdict(self.config),
                "continual": {"horizon": self.horizon, "events": events},
                "privacy_ledger": ledger,
            },
        )

    def release(self):
        """Finish the stream and return the final :class:`~repro.api.release.Release`.

        Equivalent to a last :meth:`snapshot` followed by sealing the
        summarizer against further updates (the ``StreamSummarizer``
        contract).  Unlike the one-shot PrivHP no budget is spent here --
        everything was paid at initialisation -- and mid-stream snapshots
        taken earlier remain valid.
        """
        with self._lock:
            if self._finalized:
                raise RuntimeError("PrivHPContinual has already been finalized")
            release = self.snapshot()
            self._finalized = True
        return release

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> int:
        """Number of ingestion events (batches or single items) so far."""
        return self._events

    @property
    def banks(self) -> dict[int, BinaryMechanismCounterBank]:
        """The per-exact-level counter banks (noisy state; private)."""
        return dict(self._banks)

    @property
    def sketches(self) -> dict[int, ContinualPrivateCountMinSketch]:
        """The per-deep-level continual sketches (noisy state; private)."""
        return dict(self._sketches)

    def memory_words(self) -> int:
        """Words held by all continual counter banks and sketches."""
        bank_words = sum(bank.memory_words() for bank in self._banks.values())
        sketch_words = sum(sketch.memory_words() for sketch in self._sketches.values())
        return bank_words + sketch_words

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"PrivHPContinual(epsilon={self.config.epsilon}, k={self.config.pruning_k}, "
            f"items={self._items_processed}/{self.horizon}, events={self._events})"
        )
