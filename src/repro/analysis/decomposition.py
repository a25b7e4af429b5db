"""Reconstructing the Theorem-3 proof pipeline on real data.

``T_exact`` (Step 1 of the proof) is the tree obtained by pruning with *exact*
counts: at every level below the cut-off only the k truly heaviest cells are
expanded, and every kept cell carries its exact cardinality.  Its distance to
the empirical measure isolates the unavoidable cost of pruning
(Lemma 7: ``<= ||tail_k||_1 / n * sum gamma_l``), with no privacy noise and no
sketch error involved.

``decompose_error`` measures, on a concrete dataset, the empirical distance of
(a) ``T_exact`` and (b) the actual PrivHP release from the data, and reports
the difference as the combined noise + approximation cost -- the quantity the
remaining terms of Theorem 3 bound.  These diagnostics require access to the
raw data and are analysis-only tools; they are never part of the private
release path.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.base import Domain
from repro.metrics.tail import tail_norm
from repro.metrics.wasserstein import empirical_wasserstein
from repro.theory.bounds import privhp_approx_term, privhp_noise_term

__all__ = ["build_exact_pruned_tree", "decompose_error"]


def build_exact_pruned_tree(
    data,
    domain: Domain,
    pruning_k: int,
    level_cutoff: int,
    depth: int,
) -> PartitionTree:
    """Construct ``T_exact``: exact counts, exact top-k pruning (proof Step 1)."""
    if pruning_k < 1:
        raise ValueError(f"pruning_k must be at least 1, got {pruning_k}")
    if not 0 <= level_cutoff <= depth:
        raise ValueError("level_cutoff must lie in [0, depth]")
    data = list(data)
    if not data:
        raise ValueError("data must be non-empty")

    # Exact frequencies per level, computed once.
    level_frequencies = {
        level: domain.level_frequencies(data, level) for level in range(depth + 1)
    }

    # Complete portion: every cell down to the cut-off level.
    counts = {
        theta: float(level_frequencies[level].get(theta, 0))
        for level in range(level_cutoff + 1)
        for theta in domain.cells_at_level(level)
    }

    # Pruned portion: expand only the exactly-heaviest k cells per level.
    hot = list(domain.cells_at_level(level_cutoff))
    for level in range(level_cutoff + 1, depth + 1):
        frequencies = level_frequencies[level]
        children = [theta + (bit,) for theta in hot for bit in (0, 1)]
        for child in children:
            counts[child] = float(frequencies.get(child, 0))
        children.sort(key=lambda cell: (-counts[cell], cell))
        hot = children[:pruning_k]
    return PartitionTree.from_cells(counts)


def decompose_error(
    data,
    domain: Domain,
    config: PrivHPConfig,
    rng: np.random.Generator | int | None = None,
    synthetic_size: int | None = None,
) -> dict:
    """Measure the proof-pipeline error decomposition on a dataset.

    Returns a dictionary with the measured Wasserstein distance of the exactly
    pruned tree (pure pruning cost), of the actual PrivHP release (total
    cost), their difference (noise + approximation cost), the relevant tail
    norm, and the corresponding Theorem-3 terms for reference.
    """
    data = list(data)
    if not data:
        raise ValueError("data must be non-empty")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if synthetic_size is None:
        synthetic_size = len(data)
    data_array = np.asarray(data)

    exact_tree = build_exact_pruned_tree(
        data, domain, config.pruning_k, config.level_cutoff, config.depth
    )
    exact_sampler = SyntheticDataGenerator(exact_tree, domain, rng=generator)
    exact_error = empirical_wasserstein(
        data_array, np.asarray(exact_sampler.sample(synthetic_size)), domain=domain
    )

    algorithm = PrivHP(domain, config, rng=generator)
    release = algorithm.update_batch(data_array).release()
    total_error = empirical_wasserstein(
        data_array, np.asarray(release.sample(synthetic_size)), domain=domain
    )

    tail = tail_norm(data, domain, level=config.depth, k=config.pruning_k)
    return {
        "exact_pruning_error": float(exact_error),
        "total_error": float(total_error),
        "noise_and_approx_error": float(max(total_error - exact_error, 0.0)),
        "tail_norm": float(tail),
        "tail_fraction": float(tail / len(data)),
        "predicted_noise_term": privhp_noise_term(
            domain, len(data), config.epsilon, config.depth, config.level_cutoff,
            config.pruning_k, config.sketch_depth,
        ),
        "predicted_approx_term": privhp_approx_term(
            domain, len(data), tail, config.depth, config.level_cutoff, config.sketch_depth,
        ),
        "memory_words": algorithm.memory_words(),
    }
