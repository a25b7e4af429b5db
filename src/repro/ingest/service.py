"""``IngestService``: one long-running layer owning thousands of private streams.

The service is the multi-tenant front of the fit side.  Each registered
:class:`~repro.ingest.spec.TenantSpec` names one private stream; appends are
routed by the tenant's stable hash partition (:func:`~repro.ingest.partition.partition_of`)
to the one :class:`~repro.ingest.partition.IngestWorker` thread that owns
it, so every tenant's summarizer is touched by exactly one thread and its
event order -- hence its noise draws, hence its release bytes -- is
identical to an in-process run of the same batches.

What the service adds on top of the workers:

* **append coalescing** -- :meth:`IngestService.append` stages batches in
  per-worker buffers and ships one ``append_many`` inbox message carrying
  many tenants' arrays once the buffer holds :data:`STAGE_ITEMS` items (or
  when the background flusher fires, every :data:`FLUSH_INTERVAL_S`
  seconds, or when any synchronising call -- ``flush``, ``release``,
  ``snapshot``, ``evict``, ``stats``, ``close`` -- needs the staged data
  applied first).  Batches keep their identity end to end: each original
  append is one segment of the shipped message, so the owning worker lands
  them with the segment boundaries -- and therefore the float summation
  order and the continual event axis -- intact, and releases stay
  byte-identical to the uncoalesced path;
* **admission accounting** -- every tenant passes the
  :class:`~repro.ingest.accounting.TenantBudgetRegistry` before a
  summarizer exists, enforcing per-tenant ``max_epsilon`` caps and an
  optional service-wide epsilon budget on top of each summarizer's own
  per-level accountant;
* **bounded memory** -- a service-wide word budget is split evenly across
  workers, each evicting its coldest-by-cost tenants (coldness x resident
  words) to checkpoint files through a shared asynchronous
  :class:`~repro.io.checkpoint_writer.CheckpointWriter` (restored
  transparently and byte-identically on next touch);
* **live serving** -- given a :class:`~repro.serve.store.ReleaseStore`,
  every *continual* tenant is registered for live snapshot serving the
  moment it has data, unregistered on eviction or release (a dead
  summarizer can never be snapshotted through HTTP), and its final release
  is added to the store as a static entry.  A live answer covers every
  append the service accepted before the query, flushed or not.

Example:
    >>> import numpy as np
    >>> from repro.ingest.spec import TenantSpec
    >>> with IngestService(workers=2) as service:
    ...     service.register(TenantSpec("acme", stream_size=64, seed=1))
    ...     service.append("acme", np.linspace(0.0, 1.0, 64))
    ...     release = service.release("acme")
    >>> release.items_processed
    64
"""

from __future__ import annotations

import pathlib
import threading

import numpy as np

from repro.ingest.accounting import TenantBudgetRegistry
from repro.ingest.partition import (
    DEFAULT_REPLY_TIMEOUT,
    AppendError,
    IngestWorker,
    partition_of,
)
from repro.ingest.spec import TenantSpec
from repro.io.checkpoint_writer import CheckpointWriter

__all__ = ["IngestService", "LiveTenantHandle"]

#: Staged items at which :meth:`IngestService.append` ships a worker's
#: buffer as one coalesced inbox message.
STAGE_ITEMS = 2048

#: Seconds between the background flusher's ships of whatever is staged:
#: the longest a trickling tenant's append waits before it ships.
FLUSH_INTERVAL_S = 0.05


def _unknown_tenant(tenant_id: str) -> KeyError:
    return KeyError(f"unknown tenant {tenant_id!r}; register a TenantSpec for it first")


class _ItemCounter:
    """A tenant's monotonic item counts.

    ``value`` is the summarizer's ``items_processed`` as the owning worker
    last left it, so it includes items restored from a checkpoint.
    ``accepted`` counts the items :meth:`IngestService.append` has staged
    on this service instance (written under the tenant's stage lock, which
    serialises every append of the tenant): it starts at 0 whatever the
    tenant restored, so it is an increasing version, not a quantity to
    subtract ``value`` from.
    """

    __slots__ = ("value", "accepted")

    def __init__(self) -> None:
        self.value = 0
        self.accepted = 0


class _StagingBuffer:
    """Per-worker append staging: batches coalesce here before shipping.

    Guarded by its own lock so appenders targeting different workers never
    contend; per-tenant batch lists keep insertion order, which is exactly
    the per-tenant append order the determinism contract preserves.
    """

    __slots__ = ("lock", "batches", "items")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.batches: dict[str, list] = {}
        self.items = 0


class LiveTenantHandle:
    """The live-serving face of one tenant: what a ReleaseStore snapshots.

    Satisfies the :meth:`~repro.serve.store.ReleaseStore.register_live`
    contract (``snapshot()`` + ``items_processed``) by routing through the
    service, so serving threads never touch a summarizer directly -- the
    owning worker takes the snapshot between appends, under the tenant's
    strict per-partition ordering.  ``items_accepted`` is what the store
    versions the tenant's snapshots by: an append is counted the moment
    :meth:`IngestService.append` returns, and the next snapshot covers it,
    flushed or not.

    Example: the second append counts as accepted when ``append``
    returns, and the snapshot covers it whether or not the worker had
    applied it yet.
        >>> import numpy as np
        >>> from repro.ingest.spec import TenantSpec
        >>> with IngestService(workers=1) as service:
        ...     service.register(TenantSpec("live", stream_size=64, seed=2,
        ...                                 continual=True))
        ...     service.append("live", np.linspace(0.0, 1.0, 32))
        ...     _ = service.flush()
        ...     handle = LiveTenantHandle(service, "live")
        ...     service.append("live", np.linspace(0.0, 1.0, 16))
        ...     handle.items_accepted, handle.snapshot().items_processed
        (48, 48)
    """

    def __init__(self, service: "IngestService", tenant_id: str) -> None:
        self._service = service
        self._tenant_id = tenant_id

    @property
    def items_processed(self) -> int:
        """Items the owning worker has fully processed for this tenant."""
        return self._service.items_processed(self._tenant_id)

    @property
    def items_accepted(self) -> int:
        """Items :meth:`IngestService.append` has accepted for this tenant."""
        return self._service.items_accepted(self._tenant_id)

    def snapshot(self, sampling_seed: int | None = None):
        """A Release of the tenant's state after every append accepted so
        far (worker-serialised)."""
        return self._service.snapshot(self._tenant_id, sampling_seed=sampling_seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"LiveTenantHandle(tenant_id={self._tenant_id!r})"


class IngestService:
    """Multi-tenant ingestion: register specs, append batches, release.

    Parameters
    ----------
    specs:
        Optional iterable (or id-keyed mapping) of tenant specs registered
        at construction.
    workers:
        Worker threads; the tenant space is hash-partitioned across them
        and each partition is owned exclusively by one worker.
    checkpoint_dir:
        Directory for evicted-tenant state files (required when a memory
        budget is set; created if missing).
    memory_budget_words:
        Service-wide bound on resident summarizer words, split evenly
        across workers; cold tenants are evicted to ``checkpoint_dir`` and
        restored byte-identically on their next touch.
    store:
        Optional :class:`repro.serve.store.ReleaseStore`; continual tenants
        are served live from the moment they have data.
    service_epsilon_budget:
        Optional cap on the summed epsilon across every admitted tenant.
    reply_timeout:
        Seconds callers wait for a worker reply (``flush``, ``release``,
        ...) before raising ``TimeoutError``; a deep coalesced queue under
        heavy load can legitimately need more than the default 60 s.

    Appends stage per worker and ship once :data:`STAGE_ITEMS` items
    accumulate; a background flusher ships whatever is staged every
    :data:`FLUSH_INTERVAL_S` seconds.  Each worker's inbox holds
    :data:`~repro.ingest.partition.INBOX_SIZE` messages, and a full inbox
    blocks the shipping ``append`` (backpressure).  Eviction checkpoints
    are written in the binary envelope of :mod:`repro.io.binary`.

    Example:
        >>> import numpy as np
        >>> from repro.ingest.spec import TenantSpec
        >>> with IngestService(workers=2) as service:
        ...     for name in ("t1", "t2", "t3"):
        ...         service.register(TenantSpec(name, stream_size=32, seed=5))
        ...     for name in ("t1", "t2", "t3"):
        ...         service.append(name, np.linspace(0.0, 1.0, 32))
        ...     stats = service.stats()
        >>> stats["tenants"], stats["items_ingested"]
        (3, 96)
    """

    def __init__(
        self,
        specs=None,
        *,
        workers: int = 4,
        checkpoint_dir: str | pathlib.Path | None = None,
        memory_budget_words: int | None = None,
        store=None,
        service_epsilon_budget: float | None = None,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if memory_budget_words is not None and memory_budget_words < 1:
            raise ValueError(
                f"memory_budget_words must be >= 1, got {memory_budget_words}"
            )
        if memory_budget_words is not None and checkpoint_dir is None:
            raise ValueError(
                "a memory budget needs a checkpoint_dir to evict cold tenants to"
            )
        if reply_timeout <= 0:
            raise ValueError(f"reply_timeout must be positive, got {reply_timeout}")
        self.checkpoint_dir = (
            pathlib.Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.store = store
        self.budget_registry = TenantBudgetRegistry(service_budget=service_epsilon_budget)
        self.reply_timeout = float(reply_timeout)
        self._specs: dict[str, TenantSpec] = {}
        self._counters: dict[str, _ItemCounter] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._writer = (
            CheckpointWriter() if self.checkpoint_dir is not None else None
        )
        per_worker_budget = (
            None if memory_budget_words is None else max(1, memory_budget_words // workers)
        )
        self._workers = [
            IngestWorker(
                index=index,
                checkpoint_dir=self.checkpoint_dir,
                memory_budget_words=per_worker_budget,
                on_live_event=self._on_live_event,
                counters=self._counters,
                checkpoint_writer=self._writer,
                reply_timeout=self.reply_timeout,
            )
            for index in range(workers)
        ]
        self._stages = [_StagingBuffer() for _ in self._workers]
        for worker in self._workers:
            worker.start()
        self._flusher_stop = threading.Event()
        self._flusher = threading.Thread(
            target=self._flush_loop, name="ingest-flusher", daemon=True
        )
        self._flusher.start()
        if specs is not None:
            entries = specs.values() if hasattr(specs, "values") else specs
            try:
                for spec in entries:
                    self.register(spec)
            except BaseException:
                # A refused spec must not leave the threads started above
                # running for the life of the process.
                self.close()
                raise

    # ------------------------------------------------------------------ #
    # tenant lifecycle
    # ------------------------------------------------------------------ #
    def _worker_for(self, tenant_id: str) -> IngestWorker:
        return self._workers[partition_of(tenant_id, len(self._workers))]

    def _require_tenant(self, tenant_id: str) -> TenantSpec:
        spec = self._specs.get(tenant_id)
        if spec is None:
            raise _unknown_tenant(tenant_id)
        return spec

    def _counter_of(self, tenant_id: str) -> _ItemCounter:
        counter = self._counters.get(tenant_id)
        if counter is None:
            raise _unknown_tenant(tenant_id)
        return counter

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the ingest service has been closed")

    def register(self, spec: TenantSpec) -> None:
        """Admit a tenant: budget check, then hand the spec to its worker.

        Raises :class:`repro.privacy.accountant.BudgetExceededError` when
        the tenant does not fit its own or the service's privacy budget and
        ``ValueError`` on duplicate ids.  Registration is O(1) per tenant --
        the summarizer is built lazily on first touch -- so thousands of
        tenants register cheaply.
        """
        self._check_open()
        with self._lock:
            if spec.tenant_id in self._specs:
                raise ValueError(f"tenant {spec.tenant_id!r} is already registered")
            self.budget_registry.admit(spec)
            self._specs[spec.tenant_id] = spec
            self._counters[spec.tenant_id] = _ItemCounter()
        self._worker_for(spec.tenant_id).send("register", spec)

    def tenants(self) -> list[str]:
        """Sorted ids of every registered tenant."""
        with self._lock:
            return sorted(self._specs)

    def items_processed(self, tenant_id: str) -> int:
        """Items the owning worker has fully processed for the tenant."""
        return self._counter_of(tenant_id).value

    def items_accepted(self, tenant_id: str) -> int:
        """Items :meth:`append` has accepted for the tenant on this service
        instance, applied or not.

        An increasing version that moves with every append, including
        appends that later fail at the worker (a horizon overrun, bad
        values); live serving versions the tenant's snapshots by it.  It
        starts at 0 when the service starts and leaves out items the
        tenant restored from a checkpoint, so it is not comparable with
        :meth:`items_processed`.
        """
        return self._counter_of(tenant_id).accepted

    # ------------------------------------------------------------------ #
    # data path
    # ------------------------------------------------------------------ #
    def append(self, tenant_id: str, values) -> None:
        """Stage one batch of stream items for the tenant's worker.

        Fire-and-forget: the batch lands in the worker's staging buffer and
        ships -- coalesced with other tenants' batches into one inbox
        message -- once the buffer holds :data:`STAGE_ITEMS` items (the
        call blocks only when that ship hits a full inbox, which is the
        backpressure).  Whatever stays staged is shipped by the background
        flusher or the next synchronising call.
        Per-tenant ordering is the caller's append order; failures (horizon
        exhausted, bad values) surface on the next :meth:`flush`.

        The batch counts towards :meth:`items_accepted` before the call
        returns, so a live query that starts after it covers the batch:
        the store sees the accepted count move and re-snapshots, and the
        snapshot ships the staged batch and waits for the worker to apply
        it.
        """
        self._check_open()
        counter = self._counter_of(tenant_id)
        batch = np.asarray(values)
        index = partition_of(tenant_id, len(self._workers))
        stage = self._stages[index]
        with stage.lock:
            stage.batches.setdefault(tenant_id, []).append(batch)
            items = int(batch.shape[0]) if batch.ndim else 1
            stage.items += items
            counter.accepted += items
            if stage.items >= STAGE_ITEMS:
                self._ship_locked(index, stage)

    def _ship_locked(self, index: int, stage: _StagingBuffer) -> None:
        """Ship a worker's staged batches as one message (stage.lock held).

        Shipping under the lock keeps the per-tenant order airtight: no
        append can slip between taking the staged batches and enqueueing
        them, so the inbox sees batches in exactly the caller's order.
        """
        if not stage.batches:
            return
        message = list(stage.batches.items())
        stage.batches = {}
        stage.items = 0
        self._workers[index].send("append_many", message)

    def _ship_worker(self, index: int) -> None:
        stage = self._stages[index]
        with stage.lock:
            self._ship_locked(index, stage)

    def _ship_all(self) -> None:
        for index in range(len(self._workers)):
            self._ship_worker(index)

    def _flush_loop(self) -> None:
        while not self._flusher_stop.wait(FLUSH_INTERVAL_S):
            try:
                self._ship_all()
            except Exception:
                # A dead worker's full inbox surfaces through the
                # synchronous paths; the timer must keep running.
                pass

    def flush(self, raise_on_failure: bool = True) -> dict:
        """Ship and apply everything staged and queued; surface failures.

        Observes every staged-but-unshipped buffer (they are shipped first),
        waits until each worker has processed its whole inbox, and returns
        the aggregated worker stats (same shape as :meth:`stats`).  With
        ``raise_on_failure`` (the default), any append that failed since
        the last flush -- including background checkpoint-write failures --
        raises an :class:`~repro.ingest.partition.AppendError` listing
        every ``(tenant, message)`` pair.
        """
        self._check_open()
        self._ship_all()
        rows = [worker.request("sync") for worker in self._workers]
        stats = self._combine(rows)
        if self._writer is not None:
            # flush() is the settlement point: every eviction the appends
            # above triggered must be durable before the stats report it.
            self._writer.drain(timeout=self.reply_timeout)
            stats["failures"].extend(
                (tenant, f"checkpoint write failed: {message}")
                for tenant, message in self._writer.pop_errors()
            )
            stats["checkpoint"] = {
                "writes": self._writer.writes,
                "skipped_writes": self._writer.skipped_writes,
                "take_backs": self._writer.take_backs,
                "pending": self._writer.pending_count,
            }
        if raise_on_failure and stats["failures"]:
            raise AppendError(stats["failures"])
        return stats

    def snapshot(self, tenant_id: str, sampling_seed: int | None = None):
        """A mid-stream Release of a continual tenant (post-processing only).

        Serialised through the owning worker, so the snapshot sits at a
        well-defined point of the tenant's append order.  Evicted tenants
        are restored transparently first.
        """
        self._check_open()
        self._require_tenant(tenant_id)
        index = partition_of(tenant_id, len(self._workers))
        self._ship_worker(index)
        return self._workers[index].request("snapshot", tenant_id, sampling_seed)

    def release(self, tenant_id: str):
        """Seal a tenant's stream and return its final Release.

        The tenant's checkpoint file (if any) is removed with the release
        -- the stream is over -- and, when the service fronts a store, the
        live entry is replaced by the release as a static entry, so the
        tenant stays queryable over HTTP after its stream ends.
        """
        self._check_open()
        self._require_tenant(tenant_id)
        index = partition_of(tenant_id, len(self._workers))
        self._ship_worker(index)
        release = self._workers[index].request("release", tenant_id)
        if self.store is not None:
            self.store.add(tenant_id, release)
        return release

    def evict(self, tenant_id: str) -> bool:
        """Checkpoint a tenant to disk and drop it from memory now.

        Returns whether the tenant was resident.  The next touch restores
        it byte-identically; until then a live continual tenant is
        unregistered from the store (querying it over HTTP is a 404).
        """
        self._check_open()
        self._require_tenant(tenant_id)
        index = partition_of(tenant_id, len(self._workers))
        self._ship_worker(index)
        evicted = bool(self._workers[index].request("evict", tenant_id))
        if evicted and self._writer is not None:
            # Explicit eviction is a durability request: don't return until
            # the background writer has landed this tenant's checkpoint.
            self._writer.wait_for(tenant_id, timeout=self.reply_timeout)
        return evicted

    # ------------------------------------------------------------------ #
    # live serving integration
    # ------------------------------------------------------------------ #
    def _on_live_event(self, tenant_id: str, kind: str) -> None:
        """Worker-thread callback maintaining the store's live entries."""
        if self.store is None:
            return
        if kind == "data":
            self.store.register_live(tenant_id, LiveTenantHandle(self, tenant_id))
        elif kind in ("evict", "release"):
            self.store.unregister_live(tenant_id)

    # ------------------------------------------------------------------ #
    # stats / shutdown
    # ------------------------------------------------------------------ #
    @staticmethod
    def _combine(rows: list[dict]) -> dict:
        combined = {
            "workers": len(rows),
            "resident": sum(row["resident"] for row in rows),
            "released": sum(row["released"] for row in rows),
            "memory_words": sum(row["memory_words"] for row in rows),
            "evictions": sum(row["evictions"] for row in rows),
            "restores": sum(row["restores"] for row in rows),
            "items_ingested": sum(row["items_ingested"] for row in rows),
            "appends": sum(row["appends"] for row in rows),
            "exact_measures": sum(row["exact_measures"] for row in rows),
            "failures": [failure for row in rows for failure in row["failures"]],
        }
        return combined

    def stats(self) -> dict:
        """Aggregated service statistics (flushes the workers first).

        Includes the privacy-budget summary from the registry, so the row
        reports tenants, residency, words, evictions/restores, items and
        total admitted epsilon in one place.
        """
        stats = self.flush(raise_on_failure=False)
        stats["tenants"] = len(self._specs)
        stats["budget"] = self.budget_registry.summary()
        return stats

    def close(self) -> dict:
        """Drain, checkpoint every resident tenant, and stop the workers.

        Idempotent.  Live store entries are unregistered (the service can
        no longer answer for them); released tenants stay as the static
        entries :meth:`release` added.  Returns the final stats row.
        """
        if self._closed:
            return {"workers": 0, "closed": True}
        self._flusher_stop.set()
        self._flusher.join(timeout=self.reply_timeout)
        self._ship_all()
        rows = [worker.request("drain") for worker in self._workers]
        self._closed = True
        for worker in self._workers:
            worker.stop()
        if self._writer is not None:
            # Land every eviction checkpoint the drain handed over before
            # reporting the service closed.
            self._writer.close(timeout=self.reply_timeout)
        if self.store is not None:
            for tenant_id in list(self._specs):
                self.store.unregister_live(tenant_id)
        stats = self._combine(rows)
        stats["tenants"] = len(self._specs)
        stats["budget"] = self.budget_registry.summary()
        return stats

    def __enter__(self) -> "IngestService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"IngestService(tenants={len(self._specs)}, workers={len(self._workers)}, "
            f"memory_budget={self.checkpoint_dir is not None})"
        )
