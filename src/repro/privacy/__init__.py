"""Differential privacy budget accounting used by PrivHP.

:mod:`repro.privacy.accountant` holds a basic-composition budget accountant
that tracks the per-level budgets ``{sigma_l}`` spent by the hierarchical
decomposition.  The noise itself is drawn where it is injected, straight from
the summarizer's :class:`numpy.random.Generator`: ``Laplace(1/sigma_l)`` per
exact tree counter in :mod:`repro.core.privhp` and ``Laplace(j/sigma_l)`` per
sketch cell in :mod:`repro.sketch.private`.
"""

from repro.privacy.accountant import BudgetAccountant, PrivacySpend

__all__ = [
    "BudgetAccountant",
    "PrivacySpend",
]
