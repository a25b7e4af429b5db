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

from repro.core.base import level_counts
from repro.core.config import PrivHPConfig
from repro.core.partition import select_top_k
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
    """Construct ``T_exact``: exact counts, exact top-k pruning (proof Step 1).

    One location pass at ``depth`` feeds :func:`repro.core.base.level_counts`.
    Its dense histograms fill the complete levels ``0 .. level_cutoff``, as
    in :func:`repro.baselines.pmm.build_exact_tree`.  Below, each level
    stores the children of the previous level's ``pruning_k`` heaviest cells
    with their counts looked up in the level's sorted occupied cells, and
    :func:`repro.core.partition.select_top_k` picks the next hot set, as
    :func:`repro.core.partition.grow_partition` does.
    """
    if pruning_k < 1:
        raise ValueError(f"pruning_k must be at least 1, got {pruning_k}")
    if not 0 <= level_cutoff <= depth:
        raise ValueError("level_cutoff must lie in [0, depth]")
    data = list(data)
    if not data:
        raise ValueError("data must be non-empty")

    codes = Domain.pack_paths(domain.locate_batch(data, depth))
    exact, deep = level_counts(codes, depth, level_cutoff)
    tree = PartitionTree.complete(level_cutoff)
    for level, histogram in enumerate(exact):
        _, counts = tree.level(level)
        counts += histogram

    hot = np.arange(1 << level_cutoff)
    for cells, cell_counts in deep:
        children = np.repeat(hot << 1, 2)
        children[1::2] += 1
        position = np.minimum(np.searchsorted(cells, children), cells.size - 1)
        counts = np.where(cells[position] == children, cell_counts[position], 0).astype(float)
        tree.append_level(children, counts)
        hot = select_top_k(children, counts, pruning_k)
    return tree


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
    generator = np.random.default_rng(rng)
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
