"""PrivHP: the one-pass bounded-memory private synthetic data generator.

This module implements Algorithm 1 of the paper end to end:

1. **Initialisation** -- build a complete binary partition tree of depth
   ``L*`` whose counters are pre-loaded with ``Laplace(1/sigma_l)`` noise, and
   one private Count-Min sketch per level ``L*+1 .. L`` pre-loaded with
   ``Laplace(j/sigma_l)`` noise per cell.
2. **Parsing** -- stream items increment the exact counter at levels
   ``<= L*`` and update the level sketch below.  :meth:`PrivHP.update_segments`
   is the batch path (:meth:`PrivHP.update_batch` is its one-segment case):
   one vectorised location pass, then per segment the
   :func:`repro.core.base.level_counts` roll-up, one in-place add of each
   exact level's dense histogram and one aggregated update per sketch level.
   Item-by-item :meth:`PrivHP.update` is the one-item batch.
3. **Growing** -- :meth:`PrivHP.release` runs
   :func:`repro.core.partition.grow_partition` (Algorithm 2) and wraps the
   result in a :class:`repro.api.release.Release`.

The privacy argument (Theorem 2) is baked into the structure: all noise is
injected with per-level budgets summing to ``epsilon`` -- at initialisation in
the default mode, or once at release time in *shard mode*
(``add_noise=False``), where several raw summaries built from disjoint
sub-streams are combined with :meth:`PrivHP.merge` before the single noise
injection.  Everything after noise injection is deterministic post-processing
of the noisy statistics.  The randomness contract is stated in
:mod:`repro.core.base`.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from repro.core.base import SummarizerBase, cell_keys, level_counts
from repro.core.config import PrivHPConfig
from repro.core.partition import grow_partition
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.base import Domain
from repro.sketch.private import PrivateCountMinSketch

__all__ = ["PrivHP"]

#: Version tag of the checkpoint payload produced by :meth:`PrivHP.checkpoint`.
CHECKPOINT_STATE_VERSION = 1


class PrivHP(SummarizerBase):
    """The PrivHP streaming synthetic data generator (Algorithm 1).

    Privacy: epsilon-DP for streams that differ by one added or removed
    item.  Level ``l`` adds ``Laplace(1/sigma_l)`` to each exact counter and
    ``Laplace(j/sigma_l)`` to each cell of its ``j``-row sketch, the level
    budgets ``sigma_l`` summing to epsilon, because one item moves each
    exact level by 1 and each sketch table by ``j``
    (``tests/test_privacy_calibration.py``).  When one item's value changes
    instead, the same noise gives 2 epsilon.
    """

    def __init__(
        self,
        domain: Domain,
        config: PrivHPConfig,
        rng: np.random.Generator | int | None = None,
        add_noise: bool = True,
    ) -> None:
        super().__init__(domain, config, rng)
        # Algorithm 1, lines 2-8: the complete tree of depth L* and one
        # private Count-Min sketch per level L*+1 .. L, noisy unless in shard
        # mode.
        self._tree = PartitionTree.complete(config.level_cutoff)
        self._sketches = {
            level: PrivateCountMinSketch(
                width=config.sketch_width,
                depth=config.sketch_depth,
                epsilon=self.level_budgets[level],
                seed=self._sketch_hash_seed(level),
                rng=self._rng,
                apply_noise=False,
            )
            for level in range(config.level_cutoff + 1, config.depth + 1)
        }
        self._noise_applied = False
        if add_noise:
            self._apply_noise()
        self.accountant.assert_within_budget()

    def _apply_noise(self) -> None:
        """Inject the one oblivious noise copy and spend the budget.

        At initialisation by default, at release time in shard mode; both
        consume the generator in the same order, so a merged shard release
        draws what a noisy single-stream run would have drawn.
        """
        for level in range(self.config.level_cutoff + 1):
            sigma = self.level_budgets[level]
            # One vector draw per level consumes the generator exactly like
            # one scalar draw per cell, in cell code order.
            noise = self._rng.laplace(0.0, 1.0 / sigma, size=1 << level)
            self._tree.increment_many(np.arange(1 << level), noise, level)
            self.accountant.spend(sigma, label=f"tree level {level}")
        for level in range(self.config.level_cutoff + 1, self.config.depth + 1):
            self._sketches[level].apply_noise_now(self._rng)
            self.accountant.spend(self.level_budgets[level], label=f"sketch level {level}")
        self._noise_applied = True

    # ------------------------------------------------------------------ #
    # parsing the stream (Algorithm 1, lines 9-15)
    # ------------------------------------------------------------------ #
    def update(self, point) -> None:
        """Process one stream item: the one-item case of :meth:`update_batch`."""
        self.update_batch([point])

    def update_batch(self, points) -> "PrivHP":
        """Vectorised ingestion of one batch; returns ``self`` for chaining.

        The one-segment case of :meth:`update_segments`.  The resulting tree
        and sketch state is identical to calling :meth:`update` once per item
        (up to float summation order).
        """
        self._check_open()
        codes = self._locate_codes(points)
        return self._ingest(codes, [codes.size])

    def update_segments(self, points, lengths) -> "PrivHP":
        """Apply several consecutive batches in one pass over their concatenation.

        ``points`` is the concatenation of the segments (already coerced like
        any :meth:`update_batch` input) and ``lengths`` gives each segment's
        item count in order.  The state after this call is byte-identical to
        calling :meth:`update_batch` once per segment in order: the segment
        boundaries are preserved, so every counter receives the same floats in
        the same summation order, while the location and path-packing passes
        -- the per-batch fixed costs -- are paid once for the whole
        concatenation.  This is the fan-in primitive of the batched ingestion
        service: a worker drains many queued appends for one tenant and lands
        them with a single call.

        Empty segments are permitted and contribute nothing.
        """
        self._check_open()
        lengths = self._segment_lengths(points, lengths)
        if not any(lengths):
            return self
        return self._ingest(self._locate_codes(points), lengths)

    def _ingest(self, codes: np.ndarray, lengths: list[int]) -> "PrivHP":
        """Add each segment's :func:`level_counts` to the counters and sketches.

        Each exact level's dense histogram is added to the level's stored
        counts in place, one add per cell.  An untouched cell gets ``+0.0``,
        which leaves its count unchanged: neither a Laplace draw nor a sum of
        integer counts is ``-0.0``.  Deep levels go through one aggregated
        sketch update with keys in ascending order, so hash-colliding buckets
        accumulate in a fixed sequence.
        """
        depth = self.config.depth
        cutoff = self.config.level_cutoff
        start = 0
        for length in lengths:
            if length:
                exact, deep = level_counts(codes[start : start + length], depth, cutoff)
                for level, histogram in enumerate(exact):
                    _, counts = self._tree.level(level)
                    counts += histogram
                for level, (cells, counts) in enumerate(deep, cutoff + 1):
                    self._sketches[level].update_batch(
                        cell_keys(level, cells), counts.astype(float)
                    )
            start += length
        self._items_processed += start
        return self

    # ------------------------------------------------------------------ #
    # sharding: linear merge of raw summaries
    # ------------------------------------------------------------------ #
    def merge(self, other: "PrivHP") -> "PrivHP":
        """Combine two shard-mode summaries into one (linear merge).

        Both operands must be raw (built with ``add_noise=False``, e.g. via
        :meth:`repro.api.builder.PrivHPBuilder.build_shards`) and share the
        same configuration and domain.  The merged summarizer carries the sum
        of the shards' counters and a fresh noise generator seeded from
        ``config.seed``, so releasing it spends the budget exactly once and
        -- when a seed is set -- draws the same noise a single-stream run
        would have drawn.
        """
        self._check_mergeable(other)
        if self._noise_applied or other._noise_applied:
            raise ValueError(
                "merge requires shard-mode (raw) summarizers; build them with "
                "add_noise=False or PrivHPBuilder.build_shards() so noise is "
                "injected exactly once at release time"
            )
        # Built bare rather than through __init__ so the throwaway tree and
        # sketch tables of a fresh raw summarizer are never allocated; the
        # fresh default_rng(config.seed) matches what a noisy single-stream
        # initialisation would have drawn from.
        merged = self._bare(self.domain, self.config, None, self._hash_base)
        merged._noise_applied = False
        merged._tree = self._tree.merge(other._tree)
        merged._sketches = {
            level: self._sketches[level].merge(other._sketches[level])
            for level in self._sketches
        }
        merged._items_processed = self._items_processed + other._items_processed
        return merged

    # ------------------------------------------------------------------ #
    # checkpoint / restore (durable mid-stream state)
    # ------------------------------------------------------------------ #
    def checkpoint(self, *, arrays: bool = False) -> dict:
        """A JSON-serialisable snapshot of the full mid-stream state.

        Captures tree, sketch tables, the privacy ledger, and the exact
        generator state, so ``restore(checkpoint())`` continues the stream --
        and eventually releases -- byte-for-byte identically to the original
        instance.  Use :func:`repro.io.serialization.save_checkpoint` for the
        versioned on-disk envelope.

        ``arrays=True`` keeps the tree as a :class:`PartitionTree` and the
        sketch tables as float64 ndarrays (copies, all of them) instead of a
        bit-string dict and nested lists -- not JSON-serialisable, but
        exactly what the binary envelope writer stores without a round trip.
        ``restore`` accepts either form.
        """
        from repro.io.serialization import tree_to_dict

        if self._finalized:
            raise RuntimeError(
                "cannot checkpoint a released summarizer; persist the Release instead"
            )
        return {
            **self._checkpoint_base(),
            "state_version": CHECKPOINT_STATE_VERSION,
            "tree": self._tree.copy() if arrays else tree_to_dict(self._tree),
            "sketches": [
                {
                    "level": level,
                    "seed": sketch.seed,
                    "epsilon": sketch.epsilon,
                    "table": sketch.table.copy() if arrays else sketch.table.tolist(),
                    "total": sketch.total,
                    "updates": sketch.updates,
                    "noise_applied": sketch.noise_applied,
                }
                for level, sketch in sorted(self._sketches.items())
            ],
            "noise_applied": self._noise_applied,
        }

    @classmethod
    def restore(cls, state: dict) -> "PrivHP":
        """Reconstruct a summarizer from a :meth:`checkpoint` snapshot."""
        from repro.io.serialization import tree_from_dict

        algorithm = cls._restore_base(state, CHECKPOINT_STATE_VERSION)
        algorithm._noise_applied = bool(state["noise_applied"])
        tree = state["tree"]
        algorithm._tree = tree.copy() if isinstance(tree, PartitionTree) else tree_from_dict(tree)
        algorithm._sketches = {}
        for entry in state["sketches"]:
            sketch = PrivateCountMinSketch(
                width=algorithm.config.sketch_width,
                depth=algorithm.config.sketch_depth,
                epsilon=float(entry["epsilon"]),
                seed=entry["seed"],
                rng=algorithm._rng,
                apply_noise=False,
            )
            sketch.load_state(
                np.asarray(entry["table"], dtype=float),
                total=entry["total"],
                updates=entry["updates"],
                noise_applied=entry["noise_applied"],
            )
            algorithm._sketches[int(entry["level"])] = sketch
        return algorithm

    # ------------------------------------------------------------------ #
    # growing and releasing (Algorithm 1, line 16)
    # ------------------------------------------------------------------ #
    def release(self):
        """Grow the pruned partition and return a :class:`repro.api.release.Release`.

        In shard mode this first injects the single oblivious noise copy
        (spending the privacy budget); the growing step itself is
        deterministic post-processing.  May be called exactly once.
        """
        from repro.api.release import Release

        if self._finalized:
            raise RuntimeError("PrivHP has already been finalized")
        if not self._noise_applied:
            self._apply_noise()
        self.accountant.assert_within_budget()
        self._finalized = True
        grow_partition(
            tree=self._tree,
            sketches=self._sketches,
            pruning_k=self.config.pruning_k,
            level_cutoff=self.config.level_cutoff,
            depth=self.config.depth,
            apply_consistency=self.config.apply_consistency,
        )
        generator = SyntheticDataGenerator(self._tree, self.domain, rng=self._rng)
        return Release(
            generator=generator,
            epsilon=self.config.epsilon,
            items_processed=self._items_processed,
            memory_words=self.memory_words(),
            metadata={"config": asdict(self.config), "privacy_ledger": self._ledger()},
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def noise_applied(self) -> bool:
        """Whether the oblivious noise has been injected (False for raw shards)."""
        return self._noise_applied

    @property
    def tree(self) -> PartitionTree:
        """The internal partition tree (noisy counts; private state)."""
        return self._tree

    @property
    def sketches(self) -> dict[int, PrivateCountMinSketch]:
        """The per-level private sketches (noisy tables; private state)."""
        return dict(self._sketches)

    def memory_words(self) -> int:
        """Words of memory held by the tree and all sketches right now."""
        sketch_words = sum(sketch.memory_words() for sketch in self._sketches.values())
        return self._tree.memory_words() + sketch_words

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"PrivHP(epsilon={self.config.epsilon}, k={self.config.pruning_k}, "
            f"L={self.config.depth}, L*={self.config.level_cutoff}, "
            f"items={self._items_processed}, finalized={self._finalized})"
        )
