"""Utility metrics: Wasserstein distances, tail norms, evaluation harness.

The paper measures utility as the expected 1-Wasserstein distance between the
empirical measure of the input and the synthetic generator's distribution
(Section 3.2), and expresses the pruning cost via the tail norm
``||tail_k||_1`` of the level-wise subdomain frequency vector.  This package
implements both, plus the evaluation harness shared by every experiment.
"""

from repro.metrics.wasserstein import (
    empirical_wasserstein,
    hierarchical_wasserstein,
    sliced_wasserstein,
    wasserstein1_1d,
    wasserstein1_exact,
)
from repro.metrics.tail import (
    tail_norm,
    tail_norm_from_counts,
)
from repro.metrics.evaluation import EvaluationResult, evaluate_method

__all__ = [
    "EvaluationResult",
    "empirical_wasserstein",
    "evaluate_method",
    "hierarchical_wasserstein",
    "sliced_wasserstein",
    "tail_norm",
    "tail_norm_from_counts",
    "wasserstein1_1d",
    "wasserstein1_exact",
]
