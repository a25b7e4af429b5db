"""Hash-partitioned workers: each tenant is owned by exactly one thread.

The concurrency design follows the worker-partition / message-exchange style
of epidemic-simulation patch grids: the tenant space is split into fixed
hash partitions (:func:`partition_of`), each :class:`IngestWorker` thread
exclusively owns the summarizers of one partition, and *all* communication
happens through the worker's inbox queue -- appends, snapshot/release
requests and sync barriers are messages, results travel back through
per-request reply boxes.  No summarizer is ever touched by two threads, so
per-tenant processing is strictly ordered and deterministic: replaying the
same per-tenant append sequence yields byte-identical releases no matter
how many workers the service runs or what the other tenants do.

The inbox is drained in *batches*: each wakeup takes every queued message,
coalesces consecutive appends into one per-tenant plan (first-touch order,
never across a non-append message, so cross-op ordering is preserved) and
lands each tenant's run of appends with a single ``coerce_stream`` plus one
:meth:`update_segments` call -- byte-identical to applying the appends one
by one, because the segment boundaries (and with them the float summation
order and the continual event axis) are preserved.

Each worker also keeps its own word budget in a
:class:`repro.ingest.accounting.MemoryLedger`.  A summarizer's words are
fixed at construction, so the worker reads ``memory_words()`` once, when a
tenant becomes resident, and every later touch only bumps the tenant's
recency.  When its partition exceeds its share of the service's memory
budget, the worker evicts tenants cost-aware (coldness x resident words) by
handing the summarizer to the service's shared
:class:`repro.io.checkpoint_writer.CheckpointWriter`, which persists it in
the background.  An evicted tenant is restored transparently -- and
byte-for-byte -- on its next touch, either by reclaiming the still-pending
object from the writer or by loading the checkpoint file.
"""

from __future__ import annotations

import hashlib
import queue
import threading
from itertools import accumulate

import numpy as np

from repro.ingest.accounting import MemoryLedger
from repro.ingest.spec import TenantSpec
from repro.io.serialization import load_checkpoint

__all__ = ["partition_of", "IngestWorker", "ReplyBox", "AppendError"]

#: How long a caller waits on a worker reply before giving up (seconds).
DEFAULT_REPLY_TIMEOUT = 60.0


def partition_of(tenant_id: str, partitions: int) -> int:
    """The stable hash partition owning ``tenant_id``.

    Deterministic across processes and platforms (BLAKE2, not Python's
    salted ``hash``), so a restarted service routes every tenant to the same
    partition -- which is where its checkpoint files and ordering guarantees
    live.

    Example:
        >>> partition_of("acme", 8) == partition_of("acme", 8)
        True
        >>> {partition_of(f"tenant-{i}", 4) for i in range(64)} == {0, 1, 2, 3}
        True
    """
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    digest = hashlib.blake2b(str(tenant_id).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % partitions


class AppendError(RuntimeError):
    """One or more fire-and-forget appends failed inside a worker.

    Raised by :meth:`repro.ingest.service.IngestService.flush`; the
    ``failures`` attribute lists ``(tenant_id, message)`` pairs so one bad
    tenant never masks another.

    Example:
        >>> error = AppendError([("acme", "horizon exhausted")])
        >>> error.failures
        [('acme', 'horizon exhausted')]
    """

    def __init__(self, failures: list[tuple[str, str]]) -> None:
        self.failures = list(failures)
        lines = "; ".join(f"{tenant}: {message}" for tenant, message in self.failures)
        super().__init__(f"{len(self.failures)} append(s) failed -- {lines}")


class ReplyBox:
    """A one-shot reply slot for a request message sent to a worker.

    Example:
        >>> box = ReplyBox()
        >>> box.resolve(42)
        >>> box.wait()
        42
    """

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._error: BaseException | None = None

    def resolve(self, value) -> None:
        """Deliver the result and wake the waiter."""
        self._value = value
        self._event.set()

    def fail(self, error: BaseException) -> None:
        """Deliver an exception; :meth:`wait` re-raises it in the caller."""
        self._error = error
        self._event.set()

    def wait(self, timeout: float = DEFAULT_REPLY_TIMEOUT):
        """Block for the reply; re-raises worker-side errors in the caller."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"no worker reply within {timeout} seconds")
        if self._error is not None:
            raise self._error
        return self._value


class _Resident:
    """A tenant currently held in memory by its worker."""

    __slots__ = ("summarizer", "domain", "announced")

    def __init__(self, summarizer, domain) -> None:
        self.summarizer = summarizer
        self.domain = domain
        #: Whether the "tenant has data" live-serving event has fired for
        #: this residency (reset by eviction so restores re-register).
        self.announced = False


class IngestWorker(threading.Thread):
    """One partition's owner: summarizers, word ledger and inbox loop.

    Constructed and driven by :class:`repro.ingest.service.IngestService`;
    nothing here is shared -- specs arrive as ``register`` messages, data as
    ``append`` messages, and results leave through :class:`ReplyBox` slots.

    Example:
        >>> import numpy as np
        >>> from repro.ingest.spec import TenantSpec
        >>> worker = IngestWorker(index=0)
        >>> worker.start()
        >>> worker.send("register", TenantSpec("demo", stream_size=64, seed=3))
        >>> worker.send("append", "demo", np.linspace(0.0, 1.0, 64))
        >>> release = worker.request("release", "demo")
        >>> release.items_processed
        64
        >>> worker.stop()
    """

    def __init__(
        self,
        index: int,
        checkpoint_dir=None,
        memory_budget_words: int | None = None,
        queue_size: int = 4096,
        on_live_event=None,
        counters: dict | None = None,
        checkpoint_format: str = "binary",
        checkpoint_writer=None,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    ) -> None:
        super().__init__(name=f"ingest-worker-{index}", daemon=True)
        if checkpoint_format not in ("binary", "json"):
            raise ValueError(
                f"checkpoint_format must be 'binary' or 'json', got {checkpoint_format!r}"
            )
        if reply_timeout <= 0:
            raise ValueError(f"reply_timeout must be positive, got {reply_timeout}")
        if checkpoint_dir is not None and checkpoint_writer is None:
            raise ValueError("a checkpoint_dir needs a checkpoint_writer to evict tenants through")
        self.index = index
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_format = checkpoint_format
        #: Shared service-level async writer, the one path evictions take.
        self._writer = checkpoint_writer
        self.reply_timeout = float(reply_timeout)
        self.memory_budget_words = memory_budget_words
        self.inbox: queue.Queue = queue.Queue(maxsize=queue_size)
        #: ``(tenant_id, kind)`` live-serving callback (kind in
        #: ``{"data", "evict", "release"}``), invoked from the worker thread.
        self._on_live_event = on_live_event or (lambda tenant, kind: None)
        #: Shared per-tenant item counters the service exposes to live
        #: handles (plain attribute writes; reads are monotonic).
        self._counters = counters if counters is not None else {}
        self._specs: dict[str, TenantSpec] = {}
        self._residents: dict[str, _Resident] = {}
        self._released: set[str] = set()
        self._ledger = MemoryLedger()
        self._failures: list[tuple[str, str]] = []
        self.evictions = 0
        self.restores = 0
        self.items_ingested = 0
        self.appends = 0
        #: ``memory_words()`` reads: one each time a tenant becomes resident.
        self.exact_measures = 0

    # ------------------------------------------------------------------ #
    # message API (called from the service / caller threads)
    # ------------------------------------------------------------------ #
    def send(self, op: str, *payload) -> None:
        """Enqueue a fire-and-forget message (blocks when the inbox is full,
        which is the service's backpressure)."""
        self.inbox.put((op, None, payload))

    def request(self, op: str, *payload, timeout: float | None = None):
        """Enqueue a message carrying a :class:`ReplyBox` and wait for it."""
        box = ReplyBox()
        self.inbox.put((op, box, payload))
        return box.wait(self.reply_timeout if timeout is None else timeout)

    def stop(self, timeout: float | None = None) -> None:
        """Stop the loop after the already-queued messages and join."""
        self.inbox.put(("stop", None, ()))
        self.join(self.reply_timeout if timeout is None else timeout)

    # ------------------------------------------------------------------ #
    # worker loop (everything below runs only on the worker thread)
    # ------------------------------------------------------------------ #
    def run(self) -> None:  # pragma: no cover - exercised via the service tests
        while True:
            messages = [self.inbox.get()]
            # Drain the whole inbox in one wakeup so appends queued behind
            # each other can be coalesced per tenant.
            while True:
                try:
                    messages.append(self.inbox.get_nowait())
                except queue.Empty:
                    break
            if self._process(messages):
                break

    def _process(self, messages) -> bool:
        """Handle one drained inbox batch; True when a ``stop`` was seen.

        Consecutive append messages are folded into one per-tenant plan and
        applied (in first-touch tenant order) before any other op, so every
        message still observes exactly the state the FIFO order implies.
        """
        pending: dict[str, list] = {}

        def apply_pending() -> None:
            for tenant_id, arrays in pending.items():
                try:
                    self._apply_tenant(tenant_id, arrays)
                except BaseException as error:  # noqa: BLE001 - surfaced at flush
                    self._failures.append((tenant_id, f"{type(error).__name__}: {error}"))
            pending.clear()

        for op, box, payload in messages:
            if op == "append":
                pending.setdefault(str(payload[0]), []).append(payload[1])
                continue
            if op == "append_many":
                for tenant_id, arrays in payload[0]:
                    pending.setdefault(str(tenant_id), []).extend(arrays)
                continue
            apply_pending()
            if op == "stop":
                return True
            try:
                result = self._dispatch(op, payload)
            except BaseException as error:  # noqa: BLE001 - forwarded, not dropped
                if box is not None:
                    box.fail(error)
                else:
                    tenant = str(payload[0]) if payload else "<worker>"
                    self._failures.append((tenant, f"{type(error).__name__}: {error}"))
                continue
            if box is not None:
                box.resolve(result)
        apply_pending()
        return False

    def _dispatch(self, op: str, payload):
        if op == "register":
            return self._op_register(*payload)
        if op == "snapshot":
            return self._op_snapshot(*payload)
        if op == "release":
            return self._op_release(*payload)
        if op == "evict":
            return self._op_evict(*payload)
        if op == "sync":
            return self._stats()
        if op == "drain":
            return self._op_drain()
        raise ValueError(f"unknown worker op {op!r}")

    def _checkpoint_path(self, tenant_id: str):
        if self.checkpoint_dir is None:
            return None
        suffix = "bin" if self.checkpoint_format == "binary" else "json"
        return self.checkpoint_dir / f"{tenant_id}.state.{suffix}"

    def _existing_checkpoint(self, tenant_id: str):
        """The tenant's on-disk checkpoint in *any* format, or ``None``.

        Restores try the configured format first, then the other suffix, so
        a service restarted with a different ``checkpoint_format`` still
        picks up the checkpoints its predecessor wrote (``load_checkpoint``
        autodetects the content by magic bytes either way).
        """
        if self.checkpoint_dir is None:
            return None
        for suffix in ("bin", "json") if self.checkpoint_format == "binary" else ("json", "bin"):
            path = self.checkpoint_dir / f"{tenant_id}.state.{suffix}"
            if path.exists():
                return path
        return None

    def _resident(self, tenant_id: str) -> _Resident:
        """The tenant's in-memory state, restoring or building it lazily."""
        state = self._residents.get(tenant_id)
        if state is not None:
            return state
        spec = self._specs.get(tenant_id)
        if spec is None:
            raise KeyError(f"tenant {tenant_id!r} is not registered with this worker")
        if tenant_id in self._released:
            raise RuntimeError(
                f"tenant {tenant_id!r} has been released; its stream is sealed"
            )
        summarizer = None
        if self._writer is not None:
            # A pending (or in-flight) eviction write holds the newest state;
            # reclaiming it skips both the write and the disk round trip.
            summarizer = self._writer.take_back(tenant_id, timeout=self.reply_timeout)
            if summarizer is not None:
                self.restores += 1
        if summarizer is None:
            path = self._existing_checkpoint(tenant_id)
            if path is not None:
                summarizer = load_checkpoint(path)
                self.restores += 1
            else:
                summarizer = spec.build_summarizer()
        state = _Resident(summarizer, spec.make_domain())
        self._residents[tenant_id] = state
        self.exact_measures += 1
        self._ledger.record(tenant_id, summarizer.memory_words())
        return state

    def _maybe_announce(self, tenant_id: str, state: _Resident) -> None:
        if state.announced or state.summarizer.items_processed == 0:
            return
        state.announced = True
        if self._specs[tenant_id].continual:
            self._on_live_event(tenant_id, "data")

    def _op_register(self, spec: TenantSpec) -> None:
        # Registration only stores the spec -- the summarizer is built on
        # first touch, so registering thousands of tenants is O(1) each.
        self._specs[spec.tenant_id] = spec

    def _apply_tenant(self, tenant_id: str, arrays) -> int:
        """Land one drained run of appends for a tenant in a single pass.

        The segment structure of the original ``append`` calls is preserved
        (each array is one segment), so the summarizer state -- float
        summation order, continual event axis -- is byte-identical to the
        uncoalesced path; only the per-batch fixed costs (message, coerce,
        locate) are amortized across the run.
        """
        state = self._resident(tenant_id)
        segments = [np.asarray(values) for values in arrays]
        lengths = [len(segment) for segment in segments]
        applied_before = int(state.summarizer.items_processed)
        try:
            # coerce_stream is elementwise, so coercing the concatenation
            # equals concatenating the coerced segments.
            stream = state.domain.coerce_stream(np.concatenate(segments))
            state.summarizer.update_segments(stream, lengths)
            self.items_ingested += len(stream)
            self.appends += len(segments)
        except BaseException:
            # Either nothing landed (coercion, concatenation or location
            # failed up front) or a prefix of the run did (continual
            # segments land one event at a time, so a horizon overrun stops
            # the run mid-way).  Replay the segments after the landed prefix
            # one by one, so the good batches go through exactly as they
            # would have uncoalesced and only the bad ones surface at
            # flush().
            landed = int(state.summarizer.items_processed) - applied_before
            done = list(accumulate(lengths, initial=0)).index(landed)
            self.items_ingested += landed
            self.appends += done
            for segment in segments[done:]:
                try:
                    stream = state.domain.coerce_stream(segment)
                    state.summarizer.update_batch(stream)
                    self.items_ingested += len(stream)
                    self.appends += 1
                except BaseException as error:  # noqa: BLE001 - surfaced at flush
                    self._failures.append((tenant_id, f"{type(error).__name__}: {error}"))
        items = int(state.summarizer.items_processed)
        counter = self._counters.get(tenant_id)
        if counter is not None:
            counter.value = items
        self._ledger.touch(tenant_id)
        self._maybe_announce(tenant_id, state)
        self._enforce_memory_budget(protect=tenant_id)
        return items

    def _op_snapshot(self, tenant_id: str, sampling_seed=None):
        state = self._resident(tenant_id)
        # A snapshot can restore an evicted tenant; make room as an append does.
        self._enforce_memory_budget(protect=tenant_id)
        if not hasattr(state.summarizer, "snapshot"):
            raise ValueError(
                f"tenant {tenant_id!r} is a one-shot summarizer with no "
                "mid-stream snapshot; release() it instead (or register it "
                "as continual)"
            )
        self._ledger.touch(tenant_id)
        return state.summarizer.snapshot(sampling_seed=sampling_seed)

    def _op_release(self, tenant_id: str):
        state = self._resident(tenant_id)
        release = state.summarizer.release()
        self._released.add(tenant_id)
        del self._residents[tenant_id]
        self._ledger.drop(tenant_id)
        if self.checkpoint_dir is not None:
            # A stale checkpoint would resurrect the sealed stream on the
            # next touch; remove it (in either format) with the release.
            for suffix in ("bin", "json"):
                (self.checkpoint_dir / f"{tenant_id}.state.{suffix}").unlink(missing_ok=True)
        if self._specs[tenant_id].continual:
            self._on_live_event(tenant_id, "release")
        return release

    def _op_evict(self, tenant_id: str) -> bool:
        if tenant_id not in self._specs:
            raise KeyError(f"tenant {tenant_id!r} is not registered with this worker")
        if tenant_id not in self._residents:
            return False
        self._evict(tenant_id)
        return True

    def _op_drain(self) -> dict:
        """Checkpoint every resident tenant (service shutdown) and report."""
        if self.checkpoint_dir is not None:
            for tenant_id in list(self._residents):
                self._evict(tenant_id)
        return self._stats()

    def _evict(self, tenant_id: str) -> None:
        path = self._checkpoint_path(tenant_id)
        if path is None:
            raise RuntimeError(
                "evicting a tenant requires a checkpoint directory; construct "
                "the service with checkpoint_dir=..."
            )
        # Hand the summarizer to the background writer and return; the
        # worker drops its reference, so the writer is the sole owner until
        # the write lands or the tenant is restored via take_back.  The
        # tenant leaves the residents only after the hand-over succeeds.
        self._writer.submit(
            tenant_id, self._residents[tenant_id].summarizer, path,
            format=self.checkpoint_format,
        )
        del self._residents[tenant_id]
        self._ledger.drop(tenant_id)
        self.evictions += 1
        if self._specs[tenant_id].continual:
            self._on_live_event(tenant_id, "evict")

    def _enforce_memory_budget(self, protect: str) -> None:
        budget = self.memory_budget_words
        if budget is None or self._ledger.total_words <= budget:
            return
        for tenant_id in self._ledger.eviction_order(protect=protect):
            if self._ledger.total_words <= budget:
                return
            self._evict(tenant_id)

    def _stats(self) -> dict:
        failures, self._failures = self._failures, []
        return {
            "partition": self.index,
            "registered": len(self._specs),
            "resident": len(self._residents),
            "released": len(self._released),
            "memory_words": self._ledger.total_words,
            "evictions": self.evictions,
            "restores": self.restores,
            "items_ingested": self.items_ingested,
            "appends": self.appends,
            "exact_measures": self.exact_measures,
            "failures": failures,
        }
