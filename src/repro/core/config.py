"""Parameter container for PrivHP with the paper's default settings.

Corollary 1 fixes the free parameters as functions of the stream length ``n``,
the privacy budget ``epsilon`` and the pruning parameter ``k``:

* hierarchy depth ``L = ceil(log2(epsilon * n))``, stopped at the first
  level whose cells have zero diameter when the domain is given,
* sketch depth ``j = ceil(log2(n))``,
* sketch width ``w = 2k`` buckets,
* exact-counter cut-off ``L* = O(log M)`` with ``M = k * log2(n)^2``.

:class:`PrivHPConfig` stores a fully resolved parameter set and
:meth:`PrivHPConfig.from_stream_size` derives one from ``(n, epsilon, k)``
using exactly those formulas, clamping so that ``log k <= L* <= L`` (the
requirement of Lemma 10) always holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.domain.base import Domain

__all__ = ["PrivHPConfig"]


@dataclass(frozen=True)
class PrivHPConfig:
    """A fully resolved PrivHP parameter set.

    Attributes
    ----------
    epsilon:
        Total differential-privacy budget ``sum_l sigma_l``.
    pruning_k:
        Number of hot branches kept per level below ``level_cutoff``.
    depth:
        Total hierarchy depth ``L``, at most 62.
    level_cutoff:
        ``L*``, the deepest level stored with exact (noisy) counters.
    sketch_width:
        Buckets per sketch row (the paper uses ``2k``).
    sketch_depth:
        Sketch rows ``j``.
    budget_allocation:
        ``"optimal"`` (Lemma 5) or ``"uniform"`` split of epsilon across levels.
    apply_consistency:
        Whether Algorithm 3 is applied while growing the partition.  Disabled
        only by the consistency ablation benchmark.
    seed:
        Seed for all randomness (noise and hash functions).
    """

    epsilon: float
    pruning_k: int
    depth: int
    level_cutoff: int
    sketch_width: int
    sketch_depth: int
    budget_allocation: str = "optimal"
    apply_consistency: bool = True
    seed: int | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.pruning_k < 1:
            raise ValueError(f"pruning parameter k must be at least 1, got {self.pruning_k}")
        if not 1 <= self.depth <= 62:
            # 62 is the deepest level whose cell codes fit an int64 (see
            # Domain.pack_paths); L = ceil(log2(epsilon * n)) never gets near it.
            raise ValueError(f"hierarchy depth must lie in [1, 62], got {self.depth}")
        if not 0 <= self.level_cutoff <= self.depth:
            raise ValueError(
                f"level cutoff L* must lie in [0, depth]; got {self.level_cutoff} with depth {self.depth}"
            )
        if self.sketch_width < 1:
            raise ValueError(f"sketch width must be at least 1, got {self.sketch_width}")
        if self.sketch_depth < 1:
            raise ValueError(f"sketch depth must be at least 1, got {self.sketch_depth}")
        if self.budget_allocation not in ("optimal", "uniform"):
            raise ValueError(
                f"budget_allocation must be 'optimal' or 'uniform', got {self.budget_allocation!r}"
            )

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def num_sketch_levels(self) -> int:
        """Number of private sketches (levels ``L*+1 .. L``)."""
        return self.depth - self.level_cutoff

    @property
    def exact_tree_nodes(self) -> int:
        """Nodes in the complete exact-counter tree of depth ``L*``."""
        return 2 ** (self.level_cutoff + 1) - 1

    def memory_budget_words(self) -> int:
        """A-priori word budget: exact tree plus all sketch tables."""
        tree_words = 2 * self.exact_tree_nodes
        sketch_words = self.num_sketch_levels * self.sketch_width * self.sketch_depth
        return tree_words + sketch_words

    def with_overrides(self, **changes) -> "PrivHPConfig":
        """A copy of the config with selected fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # the paper's defaults
    # ------------------------------------------------------------------ #
    @classmethod
    def from_stream_size(
        cls,
        stream_size: int,
        epsilon: float,
        pruning_k: int,
        budget_allocation: str = "optimal",
        apply_consistency: bool = True,
        seed: int | None = None,
        depth: int | None = None,
        level_cutoff: int | None = None,
        sketch_depth: int | None = None,
        sketch_width: int | None = None,
        domain: Domain | None = None,
    ) -> "PrivHPConfig":
        """Resolve the Corollary-1 defaults for a stream of ``stream_size`` items.

        Every derived parameter can be overridden explicitly, which is what
        the ablation benchmarks use to sweep one knob while keeping the rest
        at the paper's values.  ``domain`` is the domain the config is for:
        a derived depth stops at its first level whose cells have zero
        diameter (single items of a finite universe), since the optimal
        allocation gives the levels below that no budget.
        """
        if stream_size < 1:
            raise ValueError(f"stream_size must be positive, got {stream_size}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if pruning_k < 1:
            raise ValueError(f"pruning parameter k must be at least 1, got {pruning_k}")

        log_n = max(1, math.ceil(math.log2(max(stream_size, 2))))
        if depth is None:
            depth = max(1, math.ceil(math.log2(max(epsilon * stream_size, 2.0))))
            if domain is not None:
                depth = next(
                    (level for level in range(1, depth) if domain.level_max_diameter(level) == 0),
                    depth,
                )
        if sketch_depth is None:
            sketch_depth = log_n
        if sketch_width is None:
            sketch_width = 2 * pruning_k

        if level_cutoff is None:
            memory_target = max(2, pruning_k * log_n**2)
            # floor keeps the exact tree within the M = k log^2 n word budget
            # (ceil could overshoot it by up to a factor of two).
            level_cutoff = math.floor(math.log2(memory_target))
            # Lemma 10 needs L* >= log2 k; the cutoff can never exceed the depth.
            level_cutoff = max(level_cutoff, math.ceil(math.log2(max(pruning_k, 1))))
            level_cutoff = min(level_cutoff, depth)

        return cls(
            epsilon=float(epsilon),
            pruning_k=int(pruning_k),
            depth=int(depth),
            level_cutoff=int(level_cutoff),
            sketch_width=int(sketch_width),
            sketch_depth=int(sketch_depth),
            budget_allocation=budget_allocation,
            apply_consistency=apply_consistency,
            seed=seed,
            metadata={"stream_size_hint": int(stream_size)},
        )
