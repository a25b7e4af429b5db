"""Common protocol for synthetic-data methods plus the PrivHP adapter.

A method owns its parameters; :meth:`SyntheticDataMethod.fit` consumes a
dataset (or stream) and returns a sampler object exposing ``sample(size)``.
After fitting, :meth:`SyntheticDataMethod.memory_words` reports the words of
state the *summary* occupies -- for PrivHP that is the tree plus sketches; for
the static baselines it is whatever structure they must hold to sample, which
is what Table 1's memory column compares.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.api.summarizer import DEFAULT_BATCH_SIZE, ingest_batches
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.core.sampler import SyntheticDataGenerator
from repro.domain.base import Domain

__all__ = ["SyntheticDataMethod", "PrivHPMethod", "PrivHPContinualMethod"]


class SyntheticDataMethod(ABC):
    """Protocol shared by PrivHP and every baseline."""

    #: Human-readable name used in result tables.
    name: str = "method"

    @abstractmethod
    def fit(self, data, rng: np.random.Generator | int | None = None):
        """Build the private summary from ``data`` and return a sampler.

        The returned object must expose ``sample(size) -> array``.
        """

    @abstractmethod
    def memory_words(self) -> int:
        """Words of memory held by the fitted summary (0 before fitting)."""

    @property
    def epsilon(self) -> float:
        """Privacy budget of the method; ``inf`` for non-private baselines."""
        return getattr(self, "_epsilon", float("inf"))


class PrivHPMethod(SyntheticDataMethod):
    """Adapter running PrivHP through the common method protocol.

    Parameters mirror :meth:`repro.core.config.PrivHPConfig.from_stream_size`;
    any keyword accepted there can be overridden through ``config_overrides``.
    """

    name = "PrivHP"

    #: Items fed per vectorised ingestion batch during :meth:`fit`.
    batch_size = DEFAULT_BATCH_SIZE

    def __init__(
        self,
        domain: Domain,
        epsilon: float,
        pruning_k: int,
        config: PrivHPConfig | None = None,
        stream_size: int | None = None,
        **config_overrides,
    ) -> None:
        self.domain = domain
        self._epsilon = float(epsilon)
        self.pruning_k = int(pruning_k)
        self._explicit_config = config
        self._stream_size = None if stream_size is None else int(stream_size)
        self._config_overrides = config_overrides
        self._last: PrivHP | None = None

    def build_config(self, stream_size: int) -> PrivHPConfig:
        """Resolve the configuration for a stream of the given size."""
        if self._explicit_config is not None:
            return self._explicit_config
        return PrivHPConfig.from_stream_size(
            stream_size=stream_size,
            epsilon=self._epsilon,
            pruning_k=self.pruning_k,
            domain=self.domain,
            **self._config_overrides,
        )

    def _resolve_stream_size(self, data) -> int:
        """Stream length without materialising the stream.

        Precedence: the explicit ``stream_size`` constructor argument, then
        ``len(data)`` when the source is sized.  Unsized iterables without an
        explicit size are rejected -- silently calling ``list(data)`` would
        defeat the bounded-memory contract the method exists to demonstrate.
        """
        if self._stream_size is not None:
            return self._stream_size
        try:
            return len(data)
        except TypeError:
            raise ValueError(
                "the data source has no len(); pass stream_size= to "
                "PrivHPMethod so the paper defaults can be resolved without "
                "materialising the stream"
            ) from None

    def fit(self, data, rng: np.random.Generator | int | None = None) -> SyntheticDataGenerator:
        config = (
            self._explicit_config
            if self._explicit_config is not None
            else self.build_config(self._resolve_stream_size(data))
        )
        algorithm = PrivHP(self.domain, config, rng=rng)
        # ingest_batches chunks unsized / forward-only sources lazily, so one
        # call covers arrays and generators alike.
        ingest_batches(algorithm, data, self.batch_size)
        self._last = algorithm
        return algorithm.release().generator

    def memory_words(self) -> int:
        if self._last is None:
            return 0
        return self._last.memory_words()

    @property
    def last_run(self) -> PrivHP | None:
        """The PrivHP instance from the most recent fit (for introspection)."""
        return self._last


class PrivHPContinualMethod(PrivHPMethod):
    """Adapter running continual-observation PrivHP through the method protocol.

    Fits a :class:`repro.continual.privhp.PrivHPContinual` (private at every
    point of the stream) and returns the generator of its final snapshot, so
    the continual variant slots into the same evaluation tables as the
    one-shot methods.  ``horizon`` defaults to the resolved stream size.
    """

    name = "PrivHP-Continual"

    def __init__(
        self,
        domain: Domain,
        epsilon: float,
        pruning_k: int,
        config: PrivHPConfig | None = None,
        stream_size: int | None = None,
        horizon: int | None = None,
        **config_overrides,
    ) -> None:
        super().__init__(
            domain,
            epsilon,
            pruning_k,
            config=config,
            stream_size=stream_size,
            **config_overrides,
        )
        self._horizon = None if horizon is None else int(horizon)

    def _build_continual(self, stream_size: int, rng):
        from repro.continual.privhp import PrivHPContinual

        if self._explicit_config is not None and self._horizon is not None:
            config, horizon = self._explicit_config, self._horizon
        else:
            config = (
                self._explicit_config
                if self._explicit_config is not None
                else self.build_config(stream_size)
            )
            horizon = self._horizon if self._horizon is not None else stream_size
        return PrivHPContinual(self.domain, config, horizon=horizon, rng=rng)

    def fit(self, data, rng: np.random.Generator | int | None = None) -> SyntheticDataGenerator:
        algorithm = self._build_continual(self._resolve_stream_size(data), rng)
        ingest_batches(algorithm, data, self.batch_size)
        self._last = algorithm
        return algorithm.snapshot().generator

    def fit_trajectory(self, epochs, rng: np.random.Generator | int | None = None):
        """Ingest epoch arrays in order, yielding a snapshot sampler per epoch.

        This is the hook :func:`repro.metrics.evaluation.evaluate_method_trajectory`
        dispatches on: the continual summarizer is private at every stream
        point, so snapshotting at each epoch boundary costs no extra budget
        and exposes how the method tracks a drifting distribution.
        """
        epochs = [np.asarray(epoch) for epoch in epochs]
        total = int(sum(len(epoch) for epoch in epochs))
        stream_size = self._stream_size if self._stream_size is not None else total
        algorithm = self._build_continual(max(stream_size, total), rng)
        self._last = algorithm
        for epoch in epochs:
            if len(epoch):
                ingest_batches(algorithm, epoch, self.batch_size)
            yield algorithm.snapshot().generator
