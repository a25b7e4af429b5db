"""Core PrivHP implementation: the paper's primary contribution.

* :mod:`repro.core.tree` -- the partition tree, stored as one array pair per level.
* :mod:`repro.core.consistency` -- Algorithm 3 (consistency enforcement).
* :mod:`repro.core.partition` -- Algorithm 2 (growing the pruned partition).
* :mod:`repro.core.budget` -- per-level privacy budget allocation (Lemma 5).
* :mod:`repro.core.config` -- parameter container with the paper's defaults.
* :mod:`repro.core.privhp` -- Algorithm 1, the one-pass streaming algorithm.
* :mod:`repro.core.base` -- the ingest kernel and the state that PrivHP and
  its continual variant share.
* :mod:`repro.core.sampler` -- the synthetic data generator (Section 5).
"""

from repro.core.budget import allocate_budgets
from repro.core.config import PrivHPConfig
from repro.core.consistency import enforce_consistency, enforce_tree_consistency
from repro.core.partition import grow_partition
from repro.core.privhp import PrivHP
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree

__all__ = [
    "PartitionTree",
    "PrivHP",
    "PrivHPConfig",
    "SyntheticDataGenerator",
    "allocate_budgets",
    "enforce_consistency",
    "enforce_tree_consistency",
    "grow_partition",
]
