"""Asynchronous checkpoint writer: eviction persistence off the hot path.

The ingestion workers evict tenants by handing the live summarizer object to
a :class:`CheckpointWriter` and returning immediately; the writer serialises
and fsyncs in the background.  Three properties make this safe to put under a
byte-identity contract:

* **Single ownership.** A submitted summarizer belongs to the writer until
  the write completes (or until :meth:`take_back` reclaims it); the worker
  that evicted it holds no reference, so nothing mutates state mid-write.

* **Sequence-numbered coalescing.** Every submission for a stem gets a
  monotonically increasing sequence number, and only the newest pending
  submission per stem is ever written -- older queued writes are skipped.
  A stem evicted twice between writer wakeups costs one serialisation.

* **Restore-after-evict ordering.** :meth:`take_back` returns the pending
  (newest) summarizer for a stem, cancelling its queued write, so an
  evict -> restore round trip yields exactly the object that was evicted --
  trivially byte-identical, and never a stale file.  If the write is already
  in progress, ``take_back`` waits for it to land and returns ``None``; the
  caller then loads the just-written file, which is the newest state.

Write failures never raise on the worker path; they are recorded and
surfaced through :meth:`pop_errors` (the ingest service folds them into
``flush()`` failures).  The summarizer of a failed write stays with the
writer, so :meth:`take_back` still returns it on the tenant's next touch
instead of the tenant resuming from an older file or from nothing; a later
:meth:`submit` for the stem replaces it.
"""

from __future__ import annotations

import pathlib
import queue
import threading

from repro.io.serialization import save_checkpoint

__all__ = ["CheckpointWriter"]


class _Pending:
    """One queued (or in-flight) checkpoint write for a stem."""

    __slots__ = ("sequence", "summarizer", "path", "writing")

    def __init__(self, sequence: int, summarizer, path: pathlib.Path) -> None:
        self.sequence = sequence
        self.summarizer = summarizer
        self.path = path
        self.writing = False


class CheckpointWriter:
    """Background thread that persists evicted summarizers with coalescing.

    Every checkpoint is written in the binary envelope of
    :mod:`repro.io.binary`; ``repro convert`` turns one into JSON for
    reading.

    >>> import tempfile, pathlib
    >>> from repro.ingest.spec import TenantSpec
    >>> from repro.io.serialization import load_checkpoint
    >>> spec = TenantSpec(tenant_id="t", domain="interval", epsilon=1.0,
    ...                   pruning_k=4, stream_size=64, seed=7)
    >>> summarizer = spec.build_summarizer()
    >>> writer = CheckpointWriter()
    >>> with tempfile.TemporaryDirectory() as root:
    ...     path = pathlib.Path(root) / "t.state.bin"
    ...     sequence = writer.submit("t", summarizer, path)
    ...     landed = writer.wait_for("t")
    ...     restored = load_checkpoint(path)
    ...     writer.close()
    >>> (sequence, landed)
    (1, True)
    >>> restored.items_processed
    0
    """

    def __init__(self) -> None:
        self._queue: queue.Queue = queue.Queue(maxsize=1024)
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._pending: dict[str, _Pending] = {}
        #: Summarizers whose write failed, kept for take_back.
        self._unwritten: dict[str, object] = {}
        self._sequences: dict[str, int] = {}
        self._errors: list[tuple[str, str]] = []
        self._closed = False
        self.writes = 0
        self.skipped_writes = 0
        self.take_backs = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-checkpoint-writer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # producer side (worker threads)
    # ------------------------------------------------------------------ #
    def submit(self, stem: str, summarizer, path: str | pathlib.Path) -> int:
        """Hand a summarizer over for background persistence.

        The caller must drop its own reference: the object is owned by the
        writer until the write lands or :meth:`take_back` reclaims it.
        Returns the submission's sequence number.
        """
        path = pathlib.Path(path)
        with self._lock:
            if self._closed:
                raise RuntimeError("CheckpointWriter is closed")
            sequence = self._sequences.get(stem, 0) + 1
            self._sequences[stem] = sequence
            self._unwritten.pop(stem, None)
            previous = self._pending.get(stem)
            if previous is not None and not previous.writing:
                # Supersede in place: the queued ticket for the old sequence
                # no longer matches and will be skipped when the writer
                # thread reaches it; this submission's own ticket (enqueued
                # below) carries the write.
                previous.sequence = sequence
                previous.summarizer = summarizer
                previous.path = path
            else:
                self._pending[stem] = _Pending(sequence, summarizer, path)
        # put() outside the lock: a full queue must not block take_back/drain.
        self._queue.put((stem, sequence))
        return sequence

    def take_back(self, stem: str, timeout: float | None = None):
        """Reclaim the pending summarizer for ``stem``, cancelling its write.

        Returns the summarizer when one is still queued or its write failed
        (the caller resumes with exactly the evicted object), or ``None``
        when nothing is pending -- including after waiting out an
        in-progress write that landed, in which case the freshly written
        file holds the newest state.
        """
        with self._settled:
            entry = self._pending.get(stem)
            while entry is not None and entry.writing:
                # An in-flight write owns the object; wait for it to land so
                # the fallback file read can never observe an older state.
                if not self._settled.wait_for(
                    lambda: self._pending.get(stem) is not entry, timeout=timeout
                ):
                    return None
                entry = self._pending.get(stem)
            if entry is not None:
                del self._pending[stem]
                summarizer = entry.summarizer
            else:
                summarizer = self._unwritten.pop(stem, None)
                if summarizer is None:
                    return None
            self.take_backs += 1
            self._settled.notify_all()
            return summarizer

    def wait_for(self, stem: str, timeout: float | None = None) -> bool:
        """Block until no write is pending for ``stem`` (durability barrier)."""
        with self._settled:
            return self._settled.wait_for(lambda: stem not in self._pending, timeout=timeout)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every pending write has landed (or been reclaimed)."""
        with self._settled:
            return self._settled.wait_for(lambda: not self._pending, timeout=timeout)

    def pop_errors(self) -> list[tuple[str, str]]:
        """Drain and return ``(stem, message)`` pairs for failed writes."""
        with self._lock:
            errors, self._errors = self._errors, []
            return errors

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def close(self, timeout: float | None = None) -> None:
        """Drain outstanding writes and stop the thread (idempotent)."""
        with self._lock:
            if self._closed:
                closed = True
            else:
                self._closed = True
                closed = False
        if not closed:
            self.drain(timeout=timeout)
            self._queue.put(None)
        self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    # writer thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is None:
                break
            stem, sequence = ticket
            with self._lock:
                entry = self._pending.get(stem)
                if entry is None or entry.sequence != sequence:
                    # Reclaimed by take_back, or superseded by a newer
                    # submission whose own ticket is still in the queue.
                    self.skipped_writes += 1
                    continue
                entry.writing = True
                summarizer, path = entry.summarizer, entry.path
            try:
                save_checkpoint(summarizer, path, format="binary")
                error = None
            except BaseException as exc:  # noqa: BLE001 - surfaced via pop_errors
                error = f"{type(exc).__name__}: {exc}"
            with self._settled:
                if self._pending.get(stem) is entry:
                    del self._pending[stem]
                    if error is not None:
                        self._unwritten[stem] = summarizer
                if error is not None:
                    self._errors.append((stem, error))
                else:
                    self.writes += 1
                self._settled.notify_all()
