"""Experiment harness: the code that regenerates the paper's tables and figures.

Each module corresponds to one experiment family (Table 1, the trade-offs,
skew, throughput and the ablations) and is driven by the ``bench_*.py``
checks under ``benchmarks/`` (and runnable directly, e.g.
``python -m repro.experiments.table1``).  Functions return plain lists of row
dictionaries so benchmarks, tests and examples can all consume them.
"""

from repro.experiments.harness import format_table
from repro.experiments.runner import (
    MatrixSpec,
    ResultStore,
    aggregate_records,
    check_smoke_ordering,
    load_spec,
    run_matrix,
    smoke_spec,
)
from repro.experiments.table1 import run_table1, table1_spec
from repro.experiments.tradeoffs import (
    epsilon_tradeoff,
    memory_tradeoff,
    stream_length_tradeoff,
)
from repro.experiments.skew import skew_experiment
from repro.experiments.performance import throughput_experiment
from repro.experiments.ablations import (
    budget_ablation,
    consistency_ablation,
    sketch_ablation,
)

__all__ = [
    "MatrixSpec",
    "ResultStore",
    "aggregate_records",
    "budget_ablation",
    "check_smoke_ordering",
    "consistency_ablation",
    "epsilon_tradeoff",
    "format_table",
    "load_spec",
    "memory_tradeoff",
    "run_matrix",
    "run_table1",
    "sketch_ablation",
    "skew_experiment",
    "smoke_spec",
    "stream_length_tradeoff",
    "table1_spec",
    "throughput_experiment",
]
