"""Tail norms of level-wise subdomain frequency vectors.

The paper measures the skew of a dataset through ``tail_k^l``: the vector of
subdomain cardinalities at level ``l`` with the ``k`` largest coordinates set
to zero.  ``||tail_k^l||_1`` governs both the pruning error (Lemma 7) and the
sketch estimation error (Lemma 4), so the experiments report it alongside the
Wasserstein distances to verify the predicted dependence on skew.
"""

from __future__ import annotations

import numpy as np

from repro.domain.base import Domain

__all__ = [
    "tail_norm_from_counts",
    "tail_norm",
]


def tail_norm_from_counts(counts, k: int) -> float:
    """``||tail_k(v)||_1``: the total mass outside the ``k`` largest coordinates.

    ``counts`` may be a mapping (cell -> count) or any iterable of counts.
    ``k = 0`` returns the full L1 norm; ``k`` larger than the support returns 0.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if isinstance(counts, dict):
        values = np.array(sorted(counts.values(), reverse=True), dtype=float)
    else:
        values = np.array(sorted(counts, reverse=True), dtype=float)
    if values.size == 0:
        return 0.0
    return float(np.sum(values[k:]))


def tail_norm(data, domain: Domain, level: int, k: int) -> float:
    """``||tail_k^level(X)||_1`` computed from the raw dataset.

    The counts are :meth:`repro.domain.base.Domain.level_frequencies`: one
    location pass over ``data`` at ``level``.
    """
    _, counts = domain.level_frequencies(data, level)
    return tail_norm_from_counts(counts, k)
