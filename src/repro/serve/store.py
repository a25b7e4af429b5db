"""A directory of released summaries, loaded lazily and routed by name/domain.

A :class:`ReleaseStore` is the serving layer's view of "many releases": every
``*.json`` or ``*.bin`` file in a directory that carries the
``privhp-generator`` format is addressable by its file stem.  Releases load
lazily (first query wins the disk read, later queries reuse the live object
and its cached engines); binary envelopes take the mmap fast path of
:mod:`repro.io.binary`, so a store over thousands of releases opens in O(1)
and pages each release's arrays in on first query.  Releases can also be
registered in-memory, which is how tests and notebooks serve freshly fitted
releases without touching disk.

Beyond finished releases, a store can front *live* continual summarizers
(:meth:`ReleaseStore.register_live`): queries against a live name are
answered from a snapshot of the summarizer's current state, re-taken
whenever ingestion has advanced, so a stream is queryable mid-ingestion.

Only released (post-noise) artefacts ever leave a store: static entries are
post-release by construction, and live entries answer through
continually-private snapshots, so serving is pure post-processing of
epsilon-DP state -- the store never exposes raw stream data.

Example:
    >>> from repro.serve.store import ReleaseStore
    >>> from repro.api.release import Release
    >>> from repro.baselines.pmm import build_exact_tree
    >>> from repro.core.sampler import SyntheticDataGenerator
    >>> from repro.domain.interval import UnitInterval
    >>> tree = build_exact_tree([0.2, 0.8], UnitInterval(), depth=1)
    >>> store = ReleaseStore()
    >>> store.add("demo", Release(SyntheticDataGenerator(tree, UnitInterval())))
    >>> store.names()
    ['demo']
    >>> store.get("demo").mass(0.0, 1.0)
    1.0
"""

from __future__ import annotations

import pathlib
import threading

from repro.api.release import Release

__all__ = ["ReleaseStore"]


class ReleaseStore:
    """Lazily loaded releases addressable by name, with domain-based routing.

    Thread safety: every registry mutation happens under one store-wide lock,
    and refreshing a live snapshot is single-flight per name (a per-name
    snapshot lock), so concurrent readers racing an ingesting stream observe
    exactly one ``snapshot()`` per advanced version.  The store lock is
    *never* held across ``summarizer.snapshot()`` / ``items_processed`` --
    those can block on an ingest worker that itself needs
    :meth:`register_live`/:meth:`unregister_live` to make progress.
    """

    def __init__(self, directory: str | pathlib.Path | None = None) -> None:
        self.directory = pathlib.Path(directory) if directory is not None else None
        self._lock = threading.RLock()
        self._paths: dict[str, pathlib.Path] = {}
        #: Releases registered through :meth:`add` (no backing file; never
        #: dropped by a rescan) vs. the lazy cache of disk loads.
        self._local: dict[str, Release] = {}
        self._loaded: dict[str, Release] = {}
        #: Live continual summarizers from :meth:`register_live`, plus the
        #: most recent snapshot of each, keyed by its ``items_processed``,
        #: and the per-name lock that makes snapshot refreshes single-flight.
        self._live: dict[str, object] = {}
        self._live_snapshots: dict[str, Release] = {}
        self._snapshot_locks: dict[str, threading.Lock] = {}
        if self.directory is not None:
            self.refresh()

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def refresh(self) -> list[str]:
        """Re-scan the directory for ``*.json`` and ``*.bin`` release files.

        Returns the sorted names now addressable.  Files are not parsed here
        (loading stays lazy, and binary envelopes additionally mmap-load in
        O(1) of their size when first queried, so opening a directory of
        thousands of releases costs one ``listdir`` regardless of content);
        a non-release file surfaces a ``ValueError`` when it is first
        requested.  When a stem exists in both formats the binary file wins
        (it is the faster-loading artefact of the same release).
        Already-loaded releases are kept unless their file disappeared;
        in-memory releases from :meth:`add` and live summarizers from
        :meth:`register_live` are always kept.
        """
        if self.directory is None:
            return self.names()
        if not self.directory.is_dir():
            raise ValueError(f"release store directory {self.directory} does not exist")
        paths = {path.stem: path for path in sorted(self.directory.glob("*.json"))}
        paths.update((path.stem, path) for path in sorted(self.directory.glob("*.bin")))
        with self._lock:
            self._paths = paths
            for name in list(self._loaded):
                if name not in self._paths:
                    del self._loaded[name]
        return self.names()

    def add(self, name: str, release: Release) -> None:
        """Register an in-memory release under ``name`` (no file needed).

        In-memory releases shadow same-named files and survive
        :meth:`refresh`.
        """
        if not name:
            raise ValueError("release name must be non-empty")
        with self._lock:
            self._local[str(name)] = release

    def register_live(self, name: str, summarizer) -> None:
        """Serve live snapshots of a continual summarizer under ``name``.

        ``summarizer`` must expose ``snapshot() -> Release`` and
        ``items_processed`` (i.e. a
        :class:`repro.continual.privhp.PrivHPContinual`).  Queries against the
        name are answered from a snapshot of the summarizer's *current* state:
        the snapshot is re-taken whenever ``items_processed`` has advanced and
        reused otherwise, so a stream can be queried mid-ingestion at the cost
        of one snapshot per observed version.  Snapshots are pure
        post-processing of continually-private state -- serving them consumes
        no extra privacy budget, no matter how often the stream is queried.

        Live names shadow same-named files, survive :meth:`refresh`, and are
        versioned by ``items_processed`` (see :meth:`version_of`), which is
        what :class:`repro.serve.service.QueryService` keys its cache on.
        """
        if not name:
            raise ValueError("release name must be non-empty")
        if not hasattr(summarizer, "snapshot") or not hasattr(summarizer, "items_processed"):
            raise TypeError(
                "register_live needs a continual summarizer exposing snapshot() "
                "and items_processed; finished releases go through add()"
            )
        with self._lock:
            self._live[str(name)] = summarizer
            self._live_snapshots.pop(str(name), None)
            self._snapshot_locks[str(name)] = threading.Lock()

    def unregister_live(self, name: str) -> bool:
        """Stop serving live snapshots under ``name``; returns whether it was live.

        The ingestion service calls this when a tenant is evicted to disk,
        released, or the service shuts down -- a summarizer that is no
        longer ingesting (or no longer in memory) must not be snapshotted
        through the HTTP path.  Subsequent queries for the name fall back to
        a static/disk release of the same name if one exists, and otherwise
        raise ``KeyError`` (HTTP 404 with the known-release listing).
        Idempotent: unregistering a name that is not live returns ``False``.
        """
        name = str(name)
        with self._lock:
            self._live_snapshots.pop(name, None)
            self._snapshot_locks.pop(name, None)
            return self._live.pop(name, None) is not None

    def is_live(self, name: str) -> bool:
        """Whether ``name`` serves live snapshots of an ingesting summarizer."""
        with self._lock:
            return name in self._live

    def version_of(self, name: str) -> int | None:
        """The current snapshot version of a live release (``items_processed``
        of the summarizer right now), or ``None`` for static releases."""
        with self._lock:
            summarizer = self._live.get(name)
        if summarizer is None:
            return None
        # items_processed may block on an ingest worker: read it unlocked.
        return int(summarizer.items_processed)

    def names(self) -> list[str]:
        """Sorted names of every addressable release (disk, memory or live)."""
        with self._lock:
            return sorted(set(self._paths) | set(self._local) | set(self._live))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._live or name in self._local or name in self._paths

    def __len__(self) -> int:
        return len(self.names())

    # ------------------------------------------------------------------ #
    # access and routing
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> Release:
        """The release registered under ``name``, loading it on first use.

        Live names return a snapshot of the summarizer's current state,
        refreshed whenever its ``items_processed`` has advanced since the
        last snapshot; the refresh is single-flight, so concurrent readers
        racing an ingesting thread share one ``snapshot()`` call per
        version instead of interleaving duplicate snapshots.  Raises
        ``KeyError`` for unknown names and ``ValueError`` for files that are
        not valid release documents.
        """
        with self._lock:
            summarizer = self._live.get(name)
            snapshot_lock = self._snapshot_locks.get(name)
        if summarizer is not None and snapshot_lock is not None:
            return self._live_snapshot(name, summarizer, snapshot_lock)
        with self._lock:
            release = self._local.get(name) or self._loaded.get(name)
            path = self._paths.get(name)
        if release is not None:
            return release
        if path is None:
            raise KeyError(
                f"unknown release {name!r}; known releases: {', '.join(self.names()) or '(none)'}"
            )
        release = Release.load(path)
        with self._lock:
            # A concurrent loader may have won; keep one canonical object so
            # its compiled engines are shared.
            return self._loaded.setdefault(name, release)

    def _live_snapshot(self, name: str, summarizer, snapshot_lock: threading.Lock) -> Release:
        """Current snapshot for a live name, re-taken when ingestion advanced.

        The fast path returns the cached snapshot without any blocking call;
        the slow path serialises on the per-name lock so exactly one reader
        snapshots a given version while the rest wait and reuse it.  The
        summarizer is only consulted outside the store lock (it can block on
        an ingest worker), and the cache write is skipped if the name was
        unregistered (or re-registered) meanwhile.
        """
        version = int(summarizer.items_processed)
        with self._lock:
            snapshot = self._live_snapshots.get(name)
        if snapshot is not None and snapshot.items_processed == version:
            return snapshot
        with snapshot_lock:
            # Re-check: the reader that held the lock before us may have
            # snapshotted this (or a newer) version already.
            version = int(summarizer.items_processed)
            with self._lock:
                snapshot = self._live_snapshots.get(name)
            if snapshot is not None and snapshot.items_processed == version:
                return snapshot
            snapshot = summarizer.snapshot()
            with self._lock:
                if self._live.get(name) is summarizer:
                    self._live_snapshots[name] = snapshot
            return snapshot

    def domain_of(self, name: str) -> str:
        """The domain type name (e.g. ``"UnitInterval"``) of a release."""
        return type(self.get(name).domain).__name__

    def names_for_domain(self, domain_type: str) -> list[str]:
        """Names of every release whose domain type matches ``domain_type``
        (case-insensitive; loads releases as needed).

        Files that turn out not to be valid releases are skipped, so one
        stray JSON in the store directory cannot break domain routing.
        """
        wanted = str(domain_type).lower()
        matches = []
        for name in self.names():
            try:
                if self.domain_of(name).lower() == wanted:
                    matches.append(name)
            except ValueError:
                continue
        return matches

    def resolve(self, name: str | None = None, domain: str | None = None) -> tuple[str, Release]:
        """Route to a single release by ``name`` or, failing that, ``domain``.

        Raises ``KeyError`` when the addressed release does not exist
        (unknown name, domain with no match) and ``ValueError`` when the
        request itself is bad (no addressing given, ambiguous domain) --
        serving cannot guess between two interval releases.
        """
        if name is not None:
            return name, self.get(name)
        if domain is not None:
            matches = self.names_for_domain(domain)
            if len(matches) == 1:
                return matches[0], self.get(matches[0])
            if not matches:
                raise KeyError(f"domain {domain!r} matches no release")
            raise ValueError(
                f"domain {domain!r} is ambiguous: it matches "
                f"{', '.join(matches)}; address one by name"
            )
        raise ValueError("a query must address a release by 'release' name or 'domain'")

    # ------------------------------------------------------------------ #
    # listing
    # ------------------------------------------------------------------ #
    def info(self, name: str) -> dict:
        """JSON-serialisable metadata for one release (the ``/releases`` row)."""
        release = self.get(name)
        return {
            "name": name,
            "domain": type(release.domain).__name__,
            "epsilon": release.epsilon,
            "items_processed": release.items_processed,
            "memory_words": release.memory_words,
            "leaves": release.tree.num_leaves(),
            "queries": list(release.supported_queries()),
            "live": self.is_live(name),
        }

    def describe(self) -> list[dict]:
        """:meth:`info` for every addressable release, skipping invalid files.

        A directory can legitimately hold non-release JSON (checkpoints,
        workloads); those are reported with an ``"error"`` field instead of
        failing the whole listing.
        """
        rows = []
        for name in self.names():
            try:
                rows.append(self.info(name))
            except ValueError as error:
                rows.append({"name": name, "error": str(error)})
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ReleaseStore(directory={self.directory}, releases={self.names()})"
