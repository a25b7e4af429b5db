"""Tenant-granular accounting: privacy budgets at admission, words at runtime.

Two ledgers keep the ingestion service honest:

* :class:`TenantBudgetRegistry` sits *on top of* the existing per-level
  :class:`repro.privacy.accountant.BudgetAccountant`: every tenant gets its
  own accountant capped at the spec's ``max_epsilon`` (or exactly its
  ``epsilon``), and an optional service-wide accountant caps the total
  epsilon admitted across all tenants.  Admission is the enforcement point:
  a tenant whose budget does not fit is rejected before its summarizer ever
  exists, and the summarizer's own internal accountant then guards the
  per-level split as before.
* :class:`MemoryLedger` tracks the words each resident summarizer holds
  plus a recency order, which is what the worker's eviction of cold tenants
  to checkpoint files runs on.  A summarizer's words are fixed at
  construction (the paper's bounded-memory layout: complete exact levels,
  then fixed-size sketches), so the worker records them once, from the
  summarizer's ``memory_words()``, when the tenant becomes resident; the
  ledger's totals are exact, not estimates.  One ledger per worker --
  workers share no mutable state.
"""

from __future__ import annotations

import threading

from repro.ingest.spec import TenantSpec
from repro.privacy.accountant import BudgetAccountant, BudgetExceededError

__all__ = ["TenantBudgetRegistry", "MemoryLedger"]


class TenantBudgetRegistry:
    """Admission control and reporting for per-tenant privacy budgets.

    Example:
        >>> registry = TenantBudgetRegistry(service_budget=2.0)
        >>> registry.admit(TenantSpec("a", epsilon=1.5, stream_size=64))
        >>> registry.admit(  # doctest: +IGNORE_EXCEPTION_DETAIL
        ...     TenantSpec("b", epsilon=1.0, stream_size=64))
        Traceback (most recent call last):
        ...
        BudgetExceededError: tenant 'b': spending 1.0 exceeds remaining budget
        >>> registry.admitted(), round(registry.total_epsilon(), 3)
        (['a'], 1.5)
    """

    def __init__(self, service_budget: float | None = None) -> None:
        #: Optional cap on the summed epsilon across every admitted tenant
        #: (``None`` admits any number of tenants).
        self._service_accountant = (
            BudgetAccountant(total_budget=service_budget) if service_budget is not None else None
        )
        self._tenants: dict[str, BudgetAccountant] = {}
        self._lock = threading.Lock()

    def admit(self, spec: TenantSpec) -> None:
        """Reserve ``spec.epsilon`` for the tenant, or raise.

        Raises :class:`~repro.privacy.accountant.BudgetExceededError` when
        the tenant's epsilon exceeds its own ``max_epsilon`` cap or would
        push the service-wide total past its budget, and ``ValueError`` for
        a duplicate tenant id.  Rejection happens before any summarizer is
        built, so no private state exists for an over-budget tenant.
        """
        with self._lock:
            if spec.tenant_id in self._tenants:
                raise ValueError(f"tenant {spec.tenant_id!r} is already admitted")
            accountant = BudgetAccountant(
                total_budget=spec.max_epsilon if spec.max_epsilon is not None else spec.epsilon
            )
            label = f"tenant {spec.tenant_id!r} summarizer"
            try:
                accountant.spend(spec.epsilon, label=label)
                if self._service_accountant is not None:
                    self._service_accountant.spend(spec.epsilon, label=label)
            except BudgetExceededError as error:
                raise BudgetExceededError(f"tenant {spec.tenant_id!r}: {error}") from error
            self._tenants[spec.tenant_id] = accountant

    def admitted(self) -> list[str]:
        """Sorted ids of every admitted tenant."""
        with self._lock:
            return sorted(self._tenants)

    def total_epsilon(self) -> float:
        """Summed epsilon across all admitted tenants."""
        with self._lock:
            return float(sum(accountant.spent for accountant in self._tenants.values()))

    def remaining_epsilon(self, tenant_id: str) -> float:
        """Unspent headroom under the tenant's ``max_epsilon`` cap."""
        with self._lock:
            return self._tenants[tenant_id].remaining

    def summary(self) -> dict:
        """JSON-serialisable budget report (the ``stats()`` building block)."""
        with self._lock:
            service_remaining = (
                self._service_accountant.remaining
                if self._service_accountant is not None
                else None
            )
            return {
                "tenants": len(self._tenants),
                "total_epsilon": float(
                    sum(accountant.spent for accountant in self._tenants.values())
                ),
                "service_budget_remaining": service_remaining,
            }


class MemoryLedger:
    """Per-tenant words plus recency for one worker's resident tenants.

    Not thread-safe by design: exactly one worker owns a ledger, the same
    way it exclusively owns its partition of tenants.

    Since a summarizer's words are fixed at construction, the worker calls
    :meth:`record` once per residency, and every later :meth:`touch` only
    bumps the tenant's recency.  ``total_words`` is maintained
    incrementally, so the budget check on the append hot path is O(1)
    instead of a sum over every resident tenant.

    Example:
        >>> ledger = MemoryLedger()
        >>> ledger.record("a", 100)
        >>> ledger.record("b", 40)
        >>> ledger.touch("a")
        >>> ledger.total_words, ledger.eviction_order()
        (140, ['b', 'a'])
        >>> ledger.drop("a")
        100
        >>> ledger.total_words
        40
    """

    def __init__(self) -> None:
        self._words: dict[str, int] = {}
        self._last_touch: dict[str, int] = {}
        self._clock = 0
        self._total = 0

    def record(self, tenant_id: str, words: int) -> None:
        """Track a tenant that has just become resident, holding ``words``.

        Counts as one touch: the tenant enters the recency order as the
        warmest resident.
        """
        words = int(words)
        self._total += words - self._words.get(tenant_id, 0)
        self._words[tenant_id] = words
        self.touch(tenant_id)

    def touch(self, tenant_id: str) -> None:
        """Mark a tenant as the most recently used one."""
        self._clock += 1
        self._last_touch[tenant_id] = self._clock

    def drop(self, tenant_id: str) -> int:
        """Forget a tenant (evicted or released); returns the words freed."""
        self._last_touch.pop(tenant_id, None)
        freed = self._words.pop(tenant_id, 0)
        self._total -= freed
        return freed

    @property
    def total_words(self) -> int:
        """Words held by every resident tenant together (O(1))."""
        return self._total

    def eviction_order(self, protect: str | None = None) -> list[str]:
        """Cost-aware eviction order, best candidate first.

        Candidates are ranked by ``coldness x resident words`` (descending),
        where coldness is the number of ledger touches since the tenant was
        last touched: one big cold tenant frees the budget in one eviction
        where pure LRU would churn through many small warm ones.  Ties break
        coldest-first then by tenant id, so the order is deterministic; when
        all tenants are the same size the policy degenerates to exactly LRU.
        ``protect`` (the tenant just touched) is excluded.
        """
        candidates = [tenant for tenant in self._words if tenant != protect]
        return sorted(
            candidates,
            key=lambda tenant: (
                -(self._clock - self._last_touch[tenant]) * self._words[tenant],
                self._last_touch[tenant],
                tenant,
            ),
        )
