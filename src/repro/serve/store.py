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
answered from a snapshot that covers every item the source had accepted
when the query arrived, re-taken only when that count has moved, so a
stream is queryable mid-ingestion and a writer reads its own appends.

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


class _LiveEntry:
    """One live name: its snapshot source, the lock and the cached snapshot.

    ``snapshot`` is ``(version, release)``: the last snapshot and the source
    version read *before* it was requested, so the release covers at least
    that version.  ``lock`` makes refreshes single-flight.
    """

    __slots__ = ("source", "version_attr", "lock", "snapshot")

    def __init__(self, source) -> None:
        self.source = source
        #: An ingest-service tenant counts the items ``append()`` accepted,
        #: ahead of those its worker has applied; an in-process summarizer
        #: applies each batch before ``update_batch`` returns, so its
        #: ``items_processed`` is that count.
        self.version_attr = (
            "items_accepted" if hasattr(source, "items_accepted") else "items_processed"
        )
        self.lock = threading.Lock()
        self.snapshot: tuple[int, Release] | None = None

    def version(self) -> int:
        return int(getattr(self.source, self.version_attr))

    def current(self) -> Release:
        """The cached snapshot, re-taken when the source's version moved.

        Versions only grow, so a snapshot cached under a version at least
        the one this reader read on arrival covers everything the reader
        must see.  The fast path returns it without any blocking call; the
        slow path serialises on the entry's lock, and a reader that waited
        there reuses the snapshot the reader before it took, even though
        appends moved the version meanwhile: concurrent readers of a
        tenant that is being appended to share one snapshot instead of
        taking one each.  A snapshot taken for an entry that was
        unregistered meanwhile lands in the dead entry, which later lookups
        no longer reach.
        """
        version = self.version()
        cached = self.snapshot
        if cached is not None and cached[0] >= version:
            return cached[1]
        with self.lock:
            cached = self.snapshot
            if cached is not None and cached[0] >= version:
                return cached[1]
            # Cache the snapshot under the newest version it covers.
            version = self.version()
            snapshot = self.source.snapshot()
            self.snapshot = (version, snapshot)
            return snapshot


class ReleaseStore:
    """Lazily loaded releases addressable by name, with domain-based routing.

    Thread safety: every registry mutation happens under one store-wide lock,
    and refreshing a live snapshot is single-flight per live name (the
    entry's own lock), so concurrent readers share one ``snapshot()`` per
    version.  The store lock is *never* held across a source's
    ``snapshot()`` or its counts -- those can block on an ingest worker that
    itself needs :meth:`register_live`/:meth:`unregister_live` to make
    progress.
    """

    def __init__(self, directory: str | pathlib.Path | None = None) -> None:
        self.directory = pathlib.Path(directory) if directory is not None else None
        self._lock = threading.RLock()
        self._paths: dict[str, pathlib.Path] = {}
        #: Releases registered through :meth:`add` (no backing file; never
        #: dropped by a rescan) vs. the lazy cache of disk loads.
        self._local: dict[str, Release] = {}
        self._loaded: dict[str, Release] = {}
        #: Live snapshot sources from :meth:`register_live`.
        self._live: dict[str, _LiveEntry] = {}
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
        ``items_processed``: a :class:`repro.continual.privhp.PrivHPContinual`
        fed in process, or the
        :class:`~repro.ingest.service.LiveTenantHandle` an ingest service
        registers for each continual tenant.  A query against the name is
        answered from a snapshot that covers every item the source had
        accepted when the query arrived:

        * the version of a source is its ``items_accepted`` when it has one
          (an ingest-service tenant, whose worker applies appends after
          ``append()`` returns) and its ``items_processed`` otherwise (an
          in-process summarizer, which applies a batch before
          ``update_batch`` returns); either way a count that never
          decreases;
        * the version is read *before* a snapshot is requested and cached
          with it, so the snapshot covers at least that version;
        * the snapshot is reused while the version is unchanged; once it
          moves, one reader re-snapshots, and readers that arrived before
          that snapshot was requested wait for it and reuse it.

        So on a tenant that is being appended to, each query after an append
        waits for the tenant's worker to apply it and take a snapshot; it
        does not return an older snapshot at once.  An append the worker
        fails (a horizon overrun, bad values) still moved the accepted
        count: the next query re-snapshots once, and later queries reuse
        that snapshot.  Snapshots are pure post-processing of
        continually-private state -- serving them consumes no extra privacy
        budget, no matter how often the stream is queried.

        Live names shadow same-named files and survive :meth:`refresh`;
        :class:`repro.serve.service.QueryService` keys its cache on the
        answering snapshot's ``items_processed``.

        Example: the next read covers an append, whether or not the
        worker has applied it yet.
            >>> import numpy as np
            >>> from repro.ingest import IngestService, TenantSpec
            >>> store = ReleaseStore()
            >>> with IngestService(workers=1, store=store) as service:
            ...     service.register(TenantSpec("live", stream_size=64, seed=2,
            ...                                 continual=True))
            ...     service.append("live", np.linspace(0.0, 1.0, 32))
            ...     _ = service.flush()
            ...     before = store.get("live").items_processed
            ...     service.append("live", np.linspace(0.0, 1.0, 16))
            ...     after = store.get("live").items_processed
            >>> before, after
            (32, 48)
        """
        if not name:
            raise ValueError("release name must be non-empty")
        if not hasattr(summarizer, "snapshot") or not hasattr(summarizer, "items_processed"):
            raise TypeError(
                "register_live needs a continual summarizer exposing snapshot() "
                "and items_processed; finished releases go through add()"
            )
        # Built before taking the store lock: choosing the version reads
        # the source's attributes, which for a tenant handle are counts.
        entry = _LiveEntry(summarizer)
        with self._lock:
            self._live[str(name)] = entry

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
        with self._lock:
            return self._live.pop(str(name), None) is not None

    def is_live(self, name: str) -> bool:
        """Whether ``name`` serves live snapshots of an ingesting summarizer."""
        with self._lock:
            return name in self._live

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

        A live name returns a snapshot covering every item its source had
        accepted when the call began (see :meth:`register_live`).  Raises
        ``KeyError`` for unknown names and ``ValueError`` for files that are
        not valid release documents.
        """
        return self.lookup(name)[0]

    def lookup(self, name: str) -> tuple[Release, bool]:
        """:meth:`get`, plus whether the release is a live snapshot.

        Both come from one registry read.  Asking :meth:`is_live` after
        :meth:`get` instead can mistake a snapshot for the static release
        of the same name: an ingest service unregisters a released tenant's
        live entry, then adds its final release under the same name.  When
        that happens while this call snapshots the tenant, the worker
        refuses the snapshot, and the call answers from what the name holds
        now (the final release, or ``KeyError``).
        """
        with self._lock:
            entry = self._live.get(name)
            release = self._local.get(name) or self._loaded.get(name)
            path = self._paths.get(name)
        if entry is not None:
            try:
                return entry.current(), True
            except RuntimeError:
                # A source unregistered while this call snapshotted it (an
                # ingest tenant released, or its service closed) refuses the
                # snapshot; answer as a call arriving a moment later would.
                with self._lock:
                    if self._live.get(name) is entry:
                        raise
                return self.lookup(name)
        if release is not None:
            return release, False
        if path is None:
            raise KeyError(
                f"unknown release {name!r}; known releases: {', '.join(self.names()) or '(none)'}"
            )
        release = Release.load(path)
        with self._lock:
            # A concurrent loader may have won; keep one canonical object so
            # its compiled engines are shared.
            return self._loaded.setdefault(name, release), False

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

    def route(self, name: str | None = None, domain: str | None = None) -> str:
        """The name a request addresses: ``name``, or else the one release of
        ``domain``.

        Raises ``KeyError`` when the addressed domain has no release and
        ``ValueError`` when the request itself is bad (no addressing given,
        ambiguous domain) -- serving cannot guess between two interval
        releases.  An unknown ``name`` raises on :meth:`lookup`.
        """
        if name is not None:
            return name
        if domain is not None:
            matches = self.names_for_domain(domain)
            if len(matches) == 1:
                return matches[0]
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
        release, live = self.lookup(name)
        return {
            "name": name,
            "domain": type(release.domain).__name__,
            "epsilon": release.epsilon,
            "items_processed": release.items_processed,
            "memory_words": release.memory_words,
            "leaves": release.tree.num_leaves(),
            "queries": list(release.supported_queries()),
            "live": live,
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
