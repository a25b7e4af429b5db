"""What the one-shot and the continual PrivHP summarizers share.

:func:`level_counts` is the one ingest kernel: it turns a segment of located
items into exact counts for every level, one dense histogram per exact level
``0 .. L*`` and the occupied cells of each sketch level below.
:class:`repro.core.privhp.PrivHP` adds the histograms to its counters and the
cells to its sketches; :class:`repro.continual.privhp.PrivHPContinual` steps
the histograms into its banks and the cells into its continual sketches.

:class:`SummarizerBase` holds the state both keep around those counters: the
domain and config, the randomness contract, the per-level budgets and privacy
ledger, the item count, the checkpoint fields that encode them, and the
shard fold.

Randomness contract: the noise generator is ``rng`` when given (a Generator is
used as-is; an int must agree with ``config.seed`` when both are set, so the
two can never silently disagree) and ``config.seed`` otherwise.  Sketch hash
seeds are always derived from ``config.seed`` (falling back to an explicit int
``rng``, then 0) through one :class:`numpy.random.SeedSequence` per level, so
shards built from the same config always agree on their hash families.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict

import numpy as np

from repro.core.budget import allocate_budgets
from repro.core.config import PrivHPConfig
from repro.domain.base import Domain
from repro.privacy.accountant import BudgetAccountant

__all__ = ["SummarizerBase", "cell_keys", "level_counts"]


def level_counts(
    codes: np.ndarray, depth: int, cutoff: int
) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """Every level's item counts for one segment: ``(exact, deep)``.

    ``codes`` are the segment's full-depth cell codes (see
    :meth:`repro.domain.base.Domain.pack_paths`) and ``cutoff`` is the last
    exact level ``L*``.  ``exact[l]`` for ``l = 0 .. cutoff`` is level
    ``l``'s dense histogram: a float64 array of length ``2^l`` whose entry
    ``c`` is the exact number of items in cell ``c``.  ``deep[l - cutoff -
    1]`` for ``l = cutoff + 1 .. depth`` is ``(cells, counts)``: the distinct
    level-``l`` codes in ascending order and the number of items in each, as
    exact int64 counts.

    The deep levels sort the codes once; a parent's code is its child's
    shifted right by one, so each level's codes stay sorted and
    ``np.add.reduceat`` over their runs sums the children's counts.  One
    ``np.bincount`` then builds level ``cutoff`` from level ``cutoff + 1``'s
    parents and counts (from the unsorted codes when ``cutoff == depth``),
    and each level above it sums its children's sibling pairs.
    """
    cells, counts, deep = codes, None, []
    if cutoff < depth:
        cells = np.sort(codes)
        counts = np.ones(cells.size, dtype=np.int64)
        for _ in range(depth - cutoff):
            run_start = np.empty(cells.size, dtype=bool)
            run_start[:1] = True
            np.not_equal(cells[1:], cells[:-1], out=run_start[1:])
            starts = run_start.nonzero()[0]
            cells = cells[starts]
            counts = np.add.reduceat(counts, starts)
            deep.append((cells, counts))
            cells = cells >> 1
    # bincount returns int64 without weights or input, float64 otherwise.
    histogram = np.bincount(cells, weights=counts, minlength=1 << cutoff)
    histogram = histogram.astype(np.float64, copy=False)
    exact = [histogram]
    for _ in range(cutoff):
        histogram = histogram[0::2] + histogram[1::2]
        exact.append(histogram)
    return exact[::-1], deep[::-1]


def cell_keys(level: int, cells: np.ndarray) -> np.ndarray:
    """Canonical sketch keys ``(1 << level) | code`` of level-``level`` cells.

    The one producer of the keys every Count-Min sketch takes: the bit tuple
    ``b_0 .. b_{l-1}`` of a cell is packed as the bits ``1 b_0 .. b_{l-1}``,
    so cells of different levels never share a key.

    >>> cell_keys(2, np.array([0b01, 0b10])).tolist()
    [5, 6]
    """
    return cells.astype(np.uint64) | (np.uint64(1) << np.uint64(level))


def _jsonify_rng_state(value):
    """Make a bit-generator state dict JSON-safe (MT19937/Philox/SFC64 carry
    ndarrays); numpy's state setters accept the listified form unchanged."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _jsonify_rng_state(entry) for key, entry in value.items()}
    if isinstance(value, np.integer):
        return int(value)
    return value


class SummarizerBase:
    """State and bookkeeping common to both PrivHP summarizers.

    Subclasses build their counters and sketches after this initialiser and
    implement ``merge``, ``checkpoint``/``restore`` and ``release`` around the
    helpers here.
    """

    def __init__(
        self,
        domain: Domain,
        config: PrivHPConfig,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.domain = domain
        self.config = config
        if isinstance(rng, np.random.Generator):
            self._rng = rng
            hash_base = config.seed
        else:
            if rng is not None and config.seed is not None and int(rng) != config.seed:
                raise ValueError(
                    f"explicit rng seed {int(rng)} disagrees with config.seed {config.seed}; "
                    "pass one of them (or a Generator) -- see repro.core.base for the "
                    "randomness contract"
                )
            hash_base = config.seed if config.seed is not None else rng
            self._rng = np.random.default_rng(None if hash_base is None else int(hash_base))
        self._hash_base = int(hash_base) if hash_base is not None else 0
        # Per-level privacy budgets (Theorem 2 / Lemma 5).
        self.level_budgets = allocate_budgets(
            domain=domain,
            epsilon=config.epsilon,
            depth=config.depth,
            level_cutoff=config.level_cutoff,
            pruning_k=config.pruning_k,
            sketch_depth=config.sketch_depth,
            method=config.budget_allocation,
        )
        self.accountant = BudgetAccountant(total_budget=config.epsilon)
        self._items_processed = 0
        self._finalized = False

    @classmethod
    def _bare(cls, domain: Domain, config: PrivHPConfig, rng, hash_base: int):
        """An instance with only the shared state set (for merge and restore)."""
        summarizer = cls.__new__(cls)
        SummarizerBase.__init__(summarizer, domain, config, rng)
        summarizer._hash_base = hash_base
        return summarizer

    def _sketch_hash_seed(self, level: int) -> int:
        """Per-level hash seed, derived from one root seed via SeedSequence."""
        sequence = np.random.SeedSequence(entropy=self._hash_base, spawn_key=(level,))
        return int(sequence.generate_state(1)[0])

    # ------------------------------------------------------------------ #
    # ingestion helpers
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._finalized:
            raise RuntimeError(
                f"{type(self).__name__} has been finalized; no further updates are allowed"
            )

    def _locate_codes(self, points) -> np.ndarray:
        """Full-depth cell codes of ``points`` from one location pass."""
        return Domain.pack_paths(self.domain.locate_batch(points, self.config.depth))

    @staticmethod
    def _segment_lengths(points, lengths) -> list[int]:
        """Validated segment lengths of an ``update_segments`` call."""
        lengths = [int(length) for length in lengths]
        if any(length < 0 for length in lengths):
            raise ValueError("segment lengths must be non-negative")
        if sum(lengths) != len(points):
            raise ValueError(
                f"segment lengths sum to {sum(lengths)} but the concatenated "
                f"batch has {len(points)} items"
            )
        return lengths

    # ------------------------------------------------------------------ #
    # sharding
    # ------------------------------------------------------------------ #
    def _check_mergeable(self, other) -> None:
        """Reject a merge partner of another kind, state, config or domain."""
        from repro.io.serialization import domain_to_dict

        if not isinstance(other, type(self)):
            raise TypeError(f"can only merge with another {type(self).__name__}")
        if self._finalized or other._finalized:
            raise RuntimeError("cannot merge a summarizer that has already been released")
        if self.config != other.config:
            raise ValueError("cannot merge summarizers with different configurations")
        if domain_to_dict(self.domain) != domain_to_dict(other.domain):
            raise ValueError("cannot merge summarizers over different domains")
        if self._hash_base != other._hash_base:
            raise ValueError("cannot merge summarizers with different hash seed bases")

    @classmethod
    def merge_all(cls, shards: Iterable):
        """Left fold of ``merge`` over an iterable of shard summaries."""
        shards = list(shards)
        if not shards:
            raise ValueError("merge_all requires at least one shard")
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        return merged

    # ------------------------------------------------------------------ #
    # checkpoint / restore of the shared state
    # ------------------------------------------------------------------ #
    def _ledger(self) -> list[list]:
        """The privacy ledger as ``[epsilon, label]`` pairs."""
        return [[entry.epsilon, entry.label] for entry in self.accountant.ledger]

    def _checkpoint_base(self) -> dict:
        """Checkpoint fields of the shared state, generator state included."""
        from repro.io.serialization import domain_to_dict

        return {
            "config": asdict(self.config),
            "domain": domain_to_dict(self.domain),
            "hash_base": self._hash_base,
            "items_processed": self._items_processed,
            "accountant": {
                "total_budget": self.accountant.total_budget,
                "spends": self._ledger(),
            },
            "rng": {
                "bit_generator": type(self._rng.bit_generator).__name__,
                "state": _jsonify_rng_state(self._rng.bit_generator.state),
            },
        }

    @classmethod
    def _restore_base(cls, state: dict, version: int):
        """An instance with the shared state of a checkpoint restored."""
        from repro.io.serialization import domain_from_dict

        found = int(state.get("state_version", 0))
        if found > version:
            raise ValueError(
                f"{cls.__name__} checkpoint state version {found} is newer than "
                f"supported version {version}"
            )
        bit_generator = getattr(np.random, state["rng"]["bit_generator"])()
        bit_generator.state = state["rng"]["state"]
        summarizer = cls._bare(
            domain_from_dict(state["domain"]),
            PrivHPConfig(**state["config"]),
            np.random.Generator(bit_generator),
            int(state["hash_base"]),
        )
        summarizer._items_processed = int(state["items_processed"])
        ledger = state["accountant"]
        summarizer.accountant = BudgetAccountant(total_budget=ledger["total_budget"])
        for epsilon, label in ledger["spends"]:
            summarizer.accountant.spend(epsilon, label=label)
        return summarizer

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        """Total privacy budget of the summary."""
        return self.config.epsilon

    @property
    def items_processed(self) -> int:
        """Number of stream items consumed so far."""
        return self._items_processed

    @property
    def finalized(self) -> bool:
        """Whether ``release()`` has sealed the summarizer."""
        return self._finalized

    def privacy_summary(self) -> str:
        """Human-readable ledger of the per-level budget spends."""
        return self.accountant.summary()
