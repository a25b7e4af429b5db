"""Ablation experiments A-budget, A-consistency and A-sketch.

These probe three design choices of the paper:

* **Budget allocation** (Lemma 5): the optimal Lagrange split of epsilon
  across levels versus a uniform split.
* **Consistency** (Section 4.4): Algorithm 3 enabled versus disabled.
* **Sketch parameters** (Lemma 4): error as a function of sketch width and
  depth, and Count-Min versus the counter-based Misra-Gries summary the
  related work uses.

The method-level ablations are PrivHP configuration variants on the
``methods`` axis of a :class:`repro.experiments.runner.MatrixSpec`; the
sketch ablation probes the sketch structures directly on the level's cell
codes.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import cell_keys
from repro.domain.base import Domain
from repro.domain.interval import UnitInterval
from repro.experiments.harness import domain_spec_for_dimension, measured_row
from repro.experiments.runner import MatrixSpec, run_matrix
from repro.sketch.countmin import CountMinSketch
from repro.sketch.misra_gries import MisraGries
from repro.stream.generators import zipf_cell_stream

__all__ = ["budget_ablation", "consistency_ablation", "sketch_ablation"]


def _privhp_variant_rows(
    variants: dict[str, dict],
    parameter_name: str,
    parameter_values: dict[str, object],
    dimension: int,
    stream_size: int,
    epsilon: float,
    pruning_k: int,
    repetitions: int,
    seed: int,
    workers: int,
) -> list[dict]:
    """Evaluate labelled PrivHP config variants on one shared grid point."""
    spec = MatrixSpec(
        name=f"ablation-{parameter_name}",
        methods=tuple(
            {"name": "privhp", "label": label, "params": params}
            for label, params in variants.items()
        ),
        domains=(domain_spec_for_dimension(dimension),),
        generators=("gaussian_mixture",),
        epsilons=(float(epsilon),),
        stream_sizes=(int(stream_size),),
        trials=int(repetitions),
        base_seed=int(seed),
        pruning_k=int(pruning_k),
    )
    outcome = run_matrix(spec, workers=workers)
    by_label = {row["method"]: row for row in outcome["aggregate"]}

    rows = []
    for label in variants:
        row = measured_row(by_label[label])
        row[parameter_name] = parameter_values[label]
        rows.append(row)
    return rows


def budget_ablation(
    dimension: int = 1,
    stream_size: int = 4096,
    epsilon: float = 1.0,
    pruning_k: int = 8,
    repetitions: int = 3,
    seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Optimal (Lemma 5) versus uniform per-level budget allocation."""
    return _privhp_variant_rows(
        variants={
            "budget-optimal": {"budget_allocation": "optimal"},
            "budget-uniform": {"budget_allocation": "uniform"},
        },
        parameter_name="allocation",
        parameter_values={"budget-optimal": "optimal", "budget-uniform": "uniform"},
        dimension=dimension,
        stream_size=stream_size,
        epsilon=epsilon,
        pruning_k=pruning_k,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
    )


def consistency_ablation(
    dimension: int = 1,
    stream_size: int = 4096,
    epsilon: float = 1.0,
    pruning_k: int = 8,
    repetitions: int = 3,
    seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Algorithm 3 enabled versus disabled while growing the partition."""
    return _privhp_variant_rows(
        variants={
            "consistency-on": {"apply_consistency": True},
            "consistency-off": {"apply_consistency": False},
        },
        parameter_name="consistency",
        parameter_values={"consistency-on": True, "consistency-off": False},
        dimension=dimension,
        stream_size=stream_size,
        epsilon=epsilon,
        pruning_k=pruning_k,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
    )


def sketch_ablation(
    widths=(4, 8, 16, 32, 64),
    depths=(2, 4, 8, 12),
    stream_size: int = 8192,
    level: int = 10,
    zipf_exponent: float = 1.2,
    seed: int = 0,
) -> dict:
    """Frequency-estimation error of Count-Min (per width and depth) vs Misra-Gries.

    The workload is the level-``level`` cell-index stream of a Zipf-skewed
    dataset -- exactly the vectors PrivHP sketches -- and the reported error is
    the mean absolute estimation error over the distinct cells, which is the
    quantity bounded by Lemma 4.
    """
    domain = UnitInterval()
    rng = np.random.default_rng(seed)
    data = zipf_cell_stream(stream_size, dimension=1, level=level, exponent=zipf_exponent, rng=rng)
    codes = Domain.pack_paths(domain.locate_batch(data, level))
    cells, true_counts = np.unique(codes, return_counts=True)
    keys = cell_keys(level, cells)

    def mean_absolute_error(estimates) -> float:
        return float(np.mean(np.abs(estimates - true_counts)))

    def count_min(width: int, depth: int) -> float:
        sketch = CountMinSketch(width=width, depth=depth, seed=seed)
        sketch.update_batch(keys, true_counts.astype(float))
        return mean_absolute_error(sketch.query_many(keys))

    width_rows = [
        {"width": int(width), "depth": 6, "mean_abs_error": count_min(int(width), 6)}
        for width in widths
    ]
    depth_rows = [
        {"width": 16, "depth": int(depth), "mean_abs_error": count_min(16, int(depth))}
        for depth in depths
    ]

    # Misra-Gries depends on arrival order, so it sees the stream item by item.
    misra = MisraGries(capacity=16)
    misra.update_many(codes.tolist())
    misra_estimates = np.array([misra.query(cell) for cell in cells.tolist()])
    comparison_rows = [
        {"sketch": "CountMin(w=16,j=6)", "mean_abs_error": count_min(16, 6)},
        {"sketch": "MisraGries(c=16)", "mean_abs_error": mean_absolute_error(misra_estimates)},
    ]
    return {
        "width_sweep": width_rows,
        "depth_sweep": depth_rows,
        "sketch_comparison": comparison_rows,
        "distinct_cells": int(cells.size),
    }
