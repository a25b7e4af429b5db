"""Fluent builder for PrivHP summarizers.

The builder owns the config -> fit plumbing every consumer used to
re-implement: resolve the paper's Corollary-1 defaults from
``(stream_size, epsilon, k)``, apply explicit overrides, pick the domain (by
object or registry spec), and construct either one noisy summarizer or a set
of raw shard summarizers that merge into a single release::

    release = (
        PrivHPBuilder("interval")
        .epsilon(1.0)
        .pruning_k(8)
        .stream_size(100_000)
        .seed(7)
        .build()
        .update_batch(values)
        .release()
    )

    shards = builder.build_shards(4)          # raw (noise-free) shard summaries
    for shard, part in zip(shards, parts):
        shard.update_batch(part)              # ingest in parallel
    release = PrivHP.merge_all(shards).release()   # noise injected exactly once
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import make_domain
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.domain.base import Domain

__all__ = ["PrivHPBuilder"]


class PrivHPBuilder:
    """Fluent configuration of a PrivHP summarizer (domain + budget + defaults).

    Example:
        >>> import numpy as np
        >>> release = (
        ...     PrivHPBuilder("interval")
        ...     .epsilon(1.0)
        ...     .pruning_k(4)
        ...     .stream_size(256)
        ...     .seed(0)
        ...     .build()
        ...     .update_batch(np.linspace(0.0, 1.0, 256))
        ...     .release()
        ... )
        >>> release.items_processed
        256
        >>> 0.0 <= release.mass(0.0, 0.5) <= 1.0
        True
    """

    #: Defaults applied when the corresponding setter was never called.
    DEFAULT_EPSILON = 1.0
    DEFAULT_PRUNING_K = 8

    def __init__(self, domain: Domain | str | None = None) -> None:
        self._domain: Domain | None = make_domain(domain) if domain is not None else None
        self._epsilon: float | None = None
        self._pruning_k: int | None = None
        self._stream_size: int | None = None
        self._seed: int | None = None
        self._explicit_config: PrivHPConfig | None = None
        self._overrides: dict = {}
        self._continual = False
        self._horizon: int | None = None

    # ------------------------------------------------------------------ #
    # fluent setters (each returns self)
    # ------------------------------------------------------------------ #
    def domain(self, domain: Domain | str) -> "PrivHPBuilder":
        """Set the metric domain, by object or registry spec (e.g. ``"hypercube:3"``)."""
        self._domain = make_domain(domain)
        return self

    def epsilon(self, value: float) -> "PrivHPBuilder":
        """Set the total privacy budget."""
        self._epsilon = float(value)
        return self

    def pruning_k(self, value: int) -> "PrivHPBuilder":
        """Set the pruning parameter ``k`` (hot branches per level)."""
        self._pruning_k = int(value)
        return self

    def stream_size(self, value: int) -> "PrivHPBuilder":
        """Set the (expected) stream length the paper defaults derive from."""
        self._stream_size = int(value)
        return self

    def seed(self, value: int | None) -> "PrivHPBuilder":
        """Set the seed governing noise and hash functions."""
        self._seed = None if value is None else int(value)
        return self

    def config(self, config: PrivHPConfig) -> "PrivHPBuilder":
        """Use a fully resolved config, bypassing the paper defaults."""
        self._explicit_config = config
        return self

    def continual(self, horizon: int | None = None) -> "PrivHPBuilder":
        """Build continual-observation summarizers (private at every point).

        ``horizon`` bounds the stream length the binary-mechanism counters
        must survive; it defaults to ``stream_size``.  :meth:`build` then
        returns a :class:`repro.continual.privhp.PrivHPContinual`, whose
        ``snapshot()`` yields a full release at any point of the stream.

        Example:
            >>> import numpy as np
            >>> summarizer = (
            ...     PrivHPBuilder("interval")
            ...     .stream_size(256)
            ...     .seed(0)
            ...     .continual()
            ...     .build()
            ...     .update_batch(np.linspace(0.0, 1.0, 128))
            ... )
            >>> summarizer.snapshot().items_processed
            128
        """
        self._continual = True
        self._horizon = None if horizon is None else int(horizon)
        return self

    def override(self, **changes) -> "PrivHPBuilder":
        """Override derived parameters (``depth``, ``level_cutoff``,
        ``sketch_width``, ``sketch_depth``, ``budget_allocation``,
        ``apply_consistency``)."""
        self._overrides.update(changes)
        return self

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def build_config(self) -> PrivHPConfig:
        """Resolve the configuration the summarizers will share.

        An explicit ``.config(...)`` carries its own parameters, so combining
        it with disagreeing ``.epsilon()`` / ``.pruning_k()`` / ``.override()``
        calls is rejected rather than silently resolved in the config's
        favour (only ``.seed()`` is reconciled onto the config).
        """
        if self._explicit_config is not None:
            config = self._explicit_config
            if self._seed is not None and config.seed != self._seed:
                config = config.with_overrides(seed=self._seed)
            conflicts = []
            if self._stream_size is not None:
                # The config does not record the stream size it was derived
                # from, so the two can never be reconciled.
                conflicts.append(
                    f".stream_size({self._stream_size}) has no effect with an "
                    "explicit config (derive the config from that size instead)"
                )
            if self._epsilon is not None and self._epsilon != config.epsilon:
                conflicts.append(f".epsilon({self._epsilon}) vs config.epsilon={config.epsilon}")
            if self._pruning_k is not None and self._pruning_k != config.pruning_k:
                conflicts.append(
                    f".pruning_k({self._pruning_k}) vs config.pruning_k={config.pruning_k}"
                )
            for key, value in self._overrides.items():
                if not hasattr(config, key):
                    raise ValueError(f"unknown override {key!r}; not a PrivHPConfig field")
                if getattr(config, key) != value:
                    conflicts.append(f".override({key}={value}) vs config.{key}={getattr(config, key)}")
            if conflicts:
                raise ValueError(
                    "explicit .config(...) disagrees with builder settings "
                    f"({'; '.join(conflicts)}); set the values on the config instead"
                )
            return config
        if self._stream_size is None:
            raise ValueError(
                "stream_size is required to resolve the paper defaults; call "
                ".stream_size(n) or provide a full config via .config(...)"
            )
        return PrivHPConfig.from_stream_size(
            stream_size=self._stream_size,
            epsilon=self._epsilon if self._epsilon is not None else self.DEFAULT_EPSILON,
            pruning_k=self._pruning_k if self._pruning_k is not None else self.DEFAULT_PRUNING_K,
            seed=self._seed,
            domain=self._domain,
            **self._overrides,
        )

    def _require_domain(self) -> Domain:
        if self._domain is None:
            raise ValueError("a domain is required; call .domain(...) first")
        return self._domain

    def _resolve_horizon(self) -> int:
        horizon = self._horizon if self._horizon is not None else self._stream_size
        if horizon is None:
            raise ValueError(
                "a continual summarizer needs a horizon; call .continual(horizon=n) "
                "or .stream_size(n)"
            )
        return int(horizon)

    def build(self, rng: np.random.Generator | int | None = None):
        """A standard (noisy-at-initialisation) summarizer.

        With :meth:`continual` set, returns a
        :class:`~repro.continual.privhp.PrivHPContinual` instead of a
        :class:`~repro.core.privhp.PrivHP`; both satisfy
        :class:`~repro.api.summarizer.StreamSummarizer`.
        """
        if self._continual:
            from repro.continual.privhp import PrivHPContinual

            return PrivHPContinual(
                self._require_domain(),
                self.build_config(),
                horizon=self._resolve_horizon(),
                rng=rng,
            )
        return PrivHP(self._require_domain(), self.build_config(), rng=rng)

    def build_shard(self) -> PrivHP:
        """One raw shard summarizer (noise deferred to the merged release)."""
        if self._continual:
            raise ValueError(
                "continual summarizers have no raw shard mode (noise cannot be "
                "deferred under continual observation); use build_shards(), whose "
                "shards each carry independent noise and merge additively"
            )
        return PrivHP(self._require_domain(), self.build_config(), add_noise=False)

    def build_shards(self, count: int) -> list:
        """``count`` shard summarizers sharing one config and hash seeds.

        One-shot shards are *raw* (noise-free): ingest disjoint sub-streams
        into them (in parallel if desired), then combine with
        :meth:`repro.core.privhp.PrivHP.merge_all` and call ``release()`` on
        the result; the privacy budget is spent exactly once at that release.

        Continual shards (after :meth:`continual`) instead each carry their
        own noise from *independent* generators spawned off the builder seed
        (continual noise can never be deferred); merging with
        :meth:`repro.continual.privhp.PrivHPContinual.merge_all` sums state
        and noise, and each shard is already private on its own sub-stream.
        """
        if count < 1:
            raise ValueError(f"shard count must be at least 1, got {count}")
        config = self.build_config()
        domain = self._require_domain()
        if self._continual:
            from repro.continual.privhp import PrivHPContinual

            horizon = self._resolve_horizon()
            children = np.random.SeedSequence(config.seed).spawn(count)
            return [
                PrivHPContinual(
                    domain, config, horizon=horizon, rng=np.random.default_rng(child)
                )
                for child in children
            ]
        return [PrivHP(domain, config, add_noise=False) for _ in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"PrivHPBuilder(domain={self._domain!r}, epsilon={self._epsilon}, "
            f"k={self._pruning_k}, stream_size={self._stream_size}, seed={self._seed})"
        )
