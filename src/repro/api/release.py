"""First-class release objects: the sample-side half of the fit/sample split.

A :class:`Release` bundles the released
:class:`~repro.core.sampler.SyntheticDataGenerator` with the privacy and
memory metadata of the run that produced it, and serialises through
:mod:`repro.io.serialization` using the existing ``privhp-generator`` JSON
format (the metadata block carries the extra fields), so releases written by
older versions still load.

Only released (post-noise) state ever reaches a ``Release``; sampling,
querying and serialisation are pure post-processing, so everything here
inherits the epsilon-DP guarantee of the summarizer that produced it.

Beyond sampling, a release answers analytic queries directly (range counts,
CDFs, quantiles, marginals) through lazily constructed
:mod:`repro.queries` engines, which is what the serving layer in
:mod:`repro.serve` builds on.

Example:
    >>> from repro.api.release import Release
    >>> from repro.baselines.pmm import build_exact_tree
    >>> from repro.core.sampler import SyntheticDataGenerator
    >>> from repro.domain.interval import UnitInterval
    >>> tree = build_exact_tree([0.1, 0.3, 0.6, 0.9], UnitInterval(), depth=2)
    >>> release = Release(SyntheticDataGenerator(tree, UnitInterval(), rng=0))
    >>> release.mass(0.0, 0.5)
    0.5
    >>> release.quantile(0.5)
    0.5
"""

from __future__ import annotations

import pathlib
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.base import Domain
from repro.io.serialization import (
    generator_from_dict,
    generator_to_dict,
    load_release_document,
    save_generator,
)
from repro.queries.quantiles import QuantileEngine
from repro.queries.range_queries import RangeQueryEngine
from repro.queries.support import supported_queries

__all__ = ["Release"]


@dataclass
class Release:
    """A released private summary: generator plus privacy/memory metadata."""

    generator: SyntheticDataGenerator
    epsilon: float = float("inf")
    items_processed: int = 0
    memory_words: int = 0
    metadata: dict = field(default_factory=dict)
    #: Lazily constructed query engines, keyed by engine class name.  They are
    #: derived state (rebuildable, never serialised) and excluded from
    #: equality.  Construction compiles the tree into contiguous leaf/node
    #: tables, so it is expensive enough that concurrent cold starts must not
    #: each build their own copy: ``_engine_lock`` serialises first builds.
    _engines: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _engine_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # sampling (delegates to the generator)
    # ------------------------------------------------------------------ #
    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` synthetic points."""
        return self.generator.sample(size)

    def sample_one(self):
        """Draw a single synthetic point."""
        return self.generator.sample_one()

    def reseed(self, seed: int | np.random.Generator | None) -> "Release":
        """Reseed *sampling only*; the released tree counts are never touched."""
        self.generator.reseed(seed)
        return self

    @property
    def domain(self) -> Domain:
        """The metric domain the synthetic points live in."""
        return self.generator.domain

    @property
    def tree(self) -> PartitionTree:
        """The released (noisy, grown) partition tree."""
        return self.generator.tree

    # ------------------------------------------------------------------ #
    # queries (lazily constructed, cached engines)
    # ------------------------------------------------------------------ #
    def _engine(self, key: str, factory):
        """Double-checked lazy construction of a cached query engine.

        The lock-free fast path serves the (overwhelmingly common) warm
        case; the lock makes a cold release under N concurrent queries
        compile its table exactly once instead of N times racing on
        ``_engines``.
        """
        engine = self._engines.get(key)
        if engine is None:
            with self._engine_lock:
                engine = self._engines.get(key)
                if engine is None:
                    engine = self._engines[key] = factory(self.tree, self.domain)
        return engine

    def range_engine(self) -> RangeQueryEngine:
        """The cached :class:`~repro.queries.range_queries.RangeQueryEngine`.

        Built on first use (the engine compiles the leaf table once) and
        reused by every subsequent range/CDF/marginal query on this release.
        """
        return self._engine("range", RangeQueryEngine)

    def quantile_engine(self) -> QuantileEngine:
        """The cached :class:`~repro.queries.quantiles.QuantileEngine`.

        Raises ``TypeError`` on domains without a total order (hypercubes,
        geographic boxes); see :meth:`supported_queries`.
        """
        return self._engine("quantile", QuantileEngine)

    def supported_queries(self) -> tuple[str, ...]:
        """The query types this release's domain can answer.

        Example:
            >>> from repro.api.release import Release
            >>> from repro.baselines.pmm import build_exact_tree
            >>> from repro.core.sampler import SyntheticDataGenerator
            >>> from repro.domain.interval import UnitInterval
            >>> tree = build_exact_tree([0.2, 0.8], UnitInterval(), depth=1)
            >>> Release(SyntheticDataGenerator(tree, UnitInterval())).supported_queries()
            ('mass', 'range_count', 'cdf', 'quantile')
        """
        return supported_queries(self.domain)

    def mass(self, lower, upper) -> float:
        """Estimated probability mass of the region ``[lower, upper]``.

        For vector domains ``lower``/``upper`` are per-axis bounds of an
        axis-aligned box; for ordered domains they are interval or integer
        range endpoints (inclusive).  Pure post-processing: no privacy budget
        is consumed.
        """
        return self.range_engine().mass(lower, upper)

    def range_count(self, lower, upper) -> float:
        """Estimated number of stream items in ``[lower, upper]``
        (:meth:`mass` scaled by the released total count)."""
        return self.range_engine().count(lower, upper)

    def cdf(self, point) -> float:
        """Estimated CDF at ``point`` (one-dimensional ordered domains only)."""
        return self.range_engine().cdf(point)

    def quantile(self, probability: float):
        """The ``probability``-quantile of the released distribution."""
        return self.quantile_engine().quantile(probability)

    def quantiles(self, probabilities) -> np.ndarray:
        """Vectorised :meth:`quantile` evaluation."""
        return self.quantile_engine().quantiles(probabilities)

    def marginal(self, axis: int, bins: int = 32) -> np.ndarray:
        """One-dimensional marginal histogram along ``axis`` (vector domains)."""
        return self.range_engine().marginal(axis, bins=bins)

    # ------------------------------------------------------------------ #
    # batch queries (one vectorised pass over the compiled leaf table)
    # ------------------------------------------------------------------ #
    def mass_many(self, lowers, uppers) -> np.ndarray:
        """Batch :meth:`mass`: entry ``i`` equals ``mass(lowers[i], uppers[i])``."""
        return self.range_engine().mass_many(lowers, uppers)

    def range_count_many(self, lowers, uppers) -> np.ndarray:
        """Batch :meth:`range_count` in one vectorised pass."""
        return self.range_engine().count_many(lowers, uppers)

    def cdf_many(self, points) -> np.ndarray:
        """Batch :meth:`cdf` in one vectorised pass."""
        return self.range_engine().cdf_many(points)

    # ------------------------------------------------------------------ #
    # copy/pickle: the engine cache and its lock are derived state
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_engines"] = {}
        del state["_engine_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__["_engines"] = {}
        self.__dict__["_engine_lock"] = threading.Lock()

    # ------------------------------------------------------------------ #
    # serialisation through repro.io
    # ------------------------------------------------------------------ #
    def _document_metadata(self) -> dict:
        """The metadata block persisted alongside the generator."""
        metadata = dict(self.metadata)
        metadata.update(
            {
                "epsilon": self.epsilon,
                "items_processed": self.items_processed,
                "memory_words": self.memory_words,
            }
        )
        return metadata

    def to_dict(self) -> dict:
        """Encode as a ``privhp-generator`` document with release metadata."""
        return generator_to_dict(self.generator, metadata=self._document_metadata())

    @classmethod
    def _from_parts(cls, generator: SyntheticDataGenerator, metadata: dict) -> "Release":
        """Build a release from a decoded generator plus its metadata block.

        Splits the release fields out of the metadata exactly like
        :meth:`from_dict`; the binary fast path
        (:func:`repro.io.binary.load_release_binary`) reuses it so both
        loaders agree on field semantics.
        """
        metadata = dict(metadata)
        epsilon = float(metadata.pop("epsilon", float("inf")))
        items_processed = int(metadata.pop("items_processed", 0))
        memory_words = metadata.pop("memory_words", None)
        return cls(
            generator=generator,
            epsilon=epsilon,
            items_processed=items_processed,
            memory_words=int(memory_words) if memory_words is not None else generator.memory_words(),
            metadata=metadata,
        )

    @classmethod
    def from_dict(cls, document: dict, sampling_seed: int | None = None) -> "Release":
        """Decode a document produced by :meth:`to_dict` (or a bare generator
        document from an older version); ``sampling_seed`` reseeds sampling
        only."""
        generator = generator_from_dict(document, seed=sampling_seed)
        return cls._from_parts(generator, document.get("metadata", {}))

    def save(self, path: str | pathlib.Path, *, format: str | None = None) -> pathlib.Path:
        """Write the release to disk and return the path.

        ``format`` is ``"json"`` (the interchange default), ``"binary"``
        (the mmap-loadable envelope of :mod:`repro.io.binary`, which also
        embeds the compiled query tables), or ``None`` to infer from the
        suffix: ``.bin`` writes binary, anything else JSON.
        """
        path = pathlib.Path(path)
        if format is None:
            format = "binary" if path.suffix == ".bin" else "json"
        if format == "binary":
            from repro.io.binary import save_binary

            return save_binary(self.to_dict(), path)
        if format != "json":
            raise ValueError(f"format must be 'json' or 'binary', got {format!r}")
        return save_generator(self.generator, path, metadata=self._document_metadata())

    @classmethod
    def load(cls, path: str | pathlib.Path, sampling_seed: int | None = None) -> "Release":
        """Load a release written by :meth:`save` (or by older ``save_generator``
        callers); ``sampling_seed`` affects future samples only, never the
        persisted tree counts.

        The format is autodetected by magic bytes.  Binary envelopes take the
        mmap fast path (:func:`repro.io.binary.load_release_binary`): query
        engines come pre-seeded straight from the file's compiled sections
        and answer byte-identically to a JSON load.  JSON reading and
        validation go through
        :func:`repro.io.serialization.load_release_document`, so malformed
        files of either format fail with the same ``ValueError`` everywhere.
        """
        from repro.io.binary import detect_format, load_release_binary

        if detect_format(path) == "binary":
            return load_release_binary(path, sampling_seed=sampling_seed)
        return cls.from_dict(load_release_document(path), sampling_seed=sampling_seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Release(epsilon={self.epsilon}, items={self.items_processed}, "
            f"memory_words={self.memory_words}, leaves={self.tree.num_leaves()})"
        )
