"""SRRW-style private measure (Boedihardjo, Strohmer & Vershynin).

The original construction perturbs the empirical measure with a
*super-regular random walk*, a correlated noise process whose partial sums
stay ``O(log^{3/2})``, yielding accuracy ``O(log^{3/2}(eps n) (eps n)^{-1/d})``
with memory ``Theta(d n)``.  Reproducing the exact walk is unnecessary for the
Table-1 comparison: what matters is (i) near-optimal accuracy and (ii) memory
proportional to the dataset, both of which are achieved by perturbing the
dyadic prefix structure of the empirical measure with independent per-level
Laplace noise under a *uniform* budget split (the classical hierarchical
mechanism, whose partial-sum error is also polylogarithmic).  That is PMM
with the uniform split instead of the Lagrange-optimal one, so
:class:`SRRWMethod` is exactly that.
"""

from __future__ import annotations

from repro.baselines.pmm import PMMMethod
from repro.domain.base import Domain

__all__ = ["SRRWMethod"]


class SRRWMethod(PMMMethod):
    """Dyadic prefix-noise private measure (SRRW stand-in): PMM, uniform budgets.

    Privacy: as :class:`~repro.baselines.pmm.PMMMethod`, epsilon-DP for
    datasets that differ by one added or removed item, with every level at
    ``Laplace(1/b_l)`` and ``b_l = epsilon / (depth + 1)``.  One changed
    item costs 2 epsilon.
    """

    name = "SRRW"

    def __init__(
        self,
        domain: Domain,
        epsilon: float,
        depth: int | None = None,
        max_depth: int = 16,
        apply_consistency: bool = True,
    ) -> None:
        super().__init__(
            domain,
            epsilon,
            depth=depth,
            max_depth=max_depth,
            budget_allocation="uniform",
            apply_consistency=apply_consistency,
        )
