"""Shared evaluation harness for synthetic data methods.

Every experiment in the paper reduces to the same loop: fit a method on a
dataset, sample synthetic data, measure the 1-Wasserstein distance to the
input's empirical measure, and record the memory the method used.  The
harness runs that loop over several random repetitions (the paper's bounds
are on the *expected* distance) and reports summary statistics.

A "method" is any object implementing the small protocol of
:class:`repro.baselines.base.SyntheticDataMethod`: a ``name``, a
``fit(data, rng)`` returning a sampler with ``sample(size)``, and a
``memory_words()`` accessor valid after fitting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.domain.base import Domain
from repro.metrics.wasserstein import empirical_wasserstein

__all__ = ["EvaluationResult", "evaluate_method", "evaluate_method_trajectory"]


@dataclass
class EvaluationResult:
    """Summary of one method evaluated on one dataset."""

    method: str
    wasserstein_mean: float
    wasserstein_std: float
    wasserstein_runs: list[float] = field(default_factory=list)
    memory_words: int = 0
    fit_seconds: float = 0.0
    sample_seconds: float = 0.0
    parameters: dict = field(default_factory=dict)
    #: Per-epoch error trajectory for time-varying (scenario) workloads:
    #: ``{"epoch_items": [...], "errors": [...], "errors_std": [...],
    #: "auc": float | None}``.  ``errors[e]`` is None at epochs the method was
    #: not evaluated at (one-shot methods only measure the horizon).
    trajectory: dict | None = None

    def as_row(self, include_timings: bool = True) -> dict:
        """Flat dictionary suitable for tabular reporting.

        With ``include_timings=False`` the wall-clock fields are dropped,
        leaving only values that are a deterministic function of the data and
        the RNG seeds -- the form the experiment-matrix result store persists
        so reruns are byte-identical.
        """
        row = {
            "method": self.method,
            "wasserstein": self.wasserstein_mean,
            "wasserstein_std": self.wasserstein_std,
            "memory_words": self.memory_words,
        }
        if include_timings:
            row["fit_seconds"] = self.fit_seconds
            row["sample_seconds"] = self.sample_seconds
        if self.trajectory is not None:
            row["num_epochs"] = len(self.trajectory["errors"])
            row["epoch_items"] = list(self.trajectory["epoch_items"])
            row["error_trajectory"] = list(self.trajectory["errors"])
            row["auc_error"] = self.trajectory["auc"]
        row.update(self.parameters)
        return row


def evaluate_method(
    method,
    data,
    domain: Domain,
    synthetic_size: int | None = None,
    repetitions: int = 3,
    rng: np.random.Generator | int | None = None,
    exact_size_limit: int = 400,
    wasserstein_depth: int = 12,
    parameters: dict | None = None,
) -> EvaluationResult:
    """Fit ``method`` on ``data`` ``repetitions`` times and measure its utility.

    Parameters
    ----------
    method:
        Object implementing the synthetic-data-method protocol.
    data:
        The input dataset (list or array of domain points).
    domain:
        The metric domain, used both for distance computation and for
        hierarchical approximations.
    synthetic_size:
        Number of synthetic points drawn per repetition; defaults to the
        dataset size.
    repetitions:
        Independent fit/sample repetitions whose distances are averaged
        (estimating the expectation in the paper's bounds).
    rng:
        Seed or generator controlling all repetition randomness.
    exact_size_limit, wasserstein_depth:
        Forwarded to :func:`repro.metrics.wasserstein.empirical_wasserstein`.
    parameters:
        Extra key/value pairs recorded in the result (e.g. the sweep value).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    data = list(data)
    if not data:
        raise ValueError("data must be non-empty")
    generator = np.random.default_rng(rng)
    if synthetic_size is None:
        synthetic_size = len(data)

    data_array = np.asarray(data)
    distances: list[float] = []
    memory_words = 0
    fit_seconds = 0.0
    sample_seconds = 0.0

    for _ in range(repetitions):
        run_rng = np.random.default_rng(generator.integers(0, 2**32 - 1))
        start = time.perf_counter()
        sampler = method.fit(data, rng=run_rng)
        fit_seconds += time.perf_counter() - start

        start = time.perf_counter()
        synthetic = sampler.sample(synthetic_size)
        sample_seconds += time.perf_counter() - start

        distances.append(
            empirical_wasserstein(
                data_array,
                np.asarray(synthetic),
                domain=domain,
                exact_size_limit=exact_size_limit,
                depth=wasserstein_depth,
                rng=run_rng,
            )
        )
        memory_words = max(memory_words, method.memory_words())

    distances_array = np.array(distances)
    return EvaluationResult(
        method=method.name,
        wasserstein_mean=float(distances_array.mean()),
        wasserstein_std=float(distances_array.std()),
        wasserstein_runs=[float(value) for value in distances],
        memory_words=int(memory_words),
        fit_seconds=fit_seconds / repetitions,
        sample_seconds=sample_seconds / repetitions,
        parameters=dict(parameters or {}),
    )


def evaluate_method_trajectory(
    method,
    epochs,
    domain: Domain,
    synthetic_size: int | None = None,
    repetitions: int = 3,
    rng: np.random.Generator | int | None = None,
    exact_size_limit: int = 400,
    wasserstein_depth: int = 12,
    parameters: dict | None = None,
) -> EvaluationResult:
    """Evaluate ``method`` on a time-varying stream split into epochs.

    Methods exposing ``fit_trajectory(epochs, rng)`` (the continual path) are
    snapshotted at every epoch boundary and measured against the *cumulative*
    stream so far, producing a full per-epoch error trajectory plus its
    item-weighted area-under-error-curve summary (``auc``).  One-shot methods
    are fitted on the whole stream and evaluated at the horizon only; their
    trajectory carries ``None`` at every interior epoch, so downstream
    aggregation and gating compare methods only at epochs both measured.

    The headline ``wasserstein_mean`` is the final-epoch (horizon) error for
    both kinds, keeping trajectory rows comparable with static rows.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    epochs = [np.asarray(epoch) for epoch in epochs]
    if not epochs:
        raise ValueError("epochs must be a non-empty list of arrays")
    counts = [len(epoch) for epoch in epochs]
    total = int(sum(counts))
    if total == 0:
        raise ValueError("epochs must contain at least one item in total")
    full = np.concatenate(epochs)
    cumulative = np.cumsum(counts)
    if synthetic_size is None:
        synthetic_size = total

    if not hasattr(method, "fit_trajectory"):
        result = evaluate_method(
            method,
            full,
            domain,
            synthetic_size=synthetic_size,
            repetitions=repetitions,
            rng=rng,
            exact_size_limit=exact_size_limit,
            wasserstein_depth=wasserstein_depth,
            parameters=parameters,
        )
        errors = [None] * (len(epochs) - 1) + [result.wasserstein_mean]
        stds = [None] * (len(epochs) - 1) + [result.wasserstein_std]
        result.trajectory = {
            "epoch_items": [int(value) for value in cumulative],
            "errors": errors,
            "errors_std": stds,
            "auc": None,
        }
        return result

    generator = np.random.default_rng(rng)
    per_rep: list[list[float | None]] = []
    memory_words = 0
    fit_seconds = 0.0
    sample_seconds = 0.0
    for _ in range(repetitions):
        run_rng = np.random.default_rng(generator.integers(0, 2**32 - 1))
        errors: list[float | None] = []
        iterator = method.fit_trajectory(epochs, rng=run_rng)
        for index in range(len(epochs)):
            start = time.perf_counter()
            sampler = next(iterator)
            fit_seconds += time.perf_counter() - start
            items = int(cumulative[index])
            if items == 0:
                # Nothing has arrived yet; there is no distribution to match.
                errors.append(None)
                continue
            start = time.perf_counter()
            synthetic = sampler.sample(synthetic_size)
            sample_seconds += time.perf_counter() - start
            errors.append(float(empirical_wasserstein(
                full[:items],
                np.asarray(synthetic),
                domain=domain,
                exact_size_limit=exact_size_limit,
                depth=wasserstein_depth,
                rng=run_rng,
            )))
        iterator.close()
        per_rep.append(errors)
        memory_words = max(memory_words, method.memory_words())

    mean_errors: list[float | None] = []
    std_errors: list[float | None] = []
    for index in range(len(epochs)):
        values = [rep[index] for rep in per_rep if rep[index] is not None]
        if values:
            mean_errors.append(float(np.mean(values)))
            std_errors.append(float(np.std(values)))
        else:
            mean_errors.append(None)
            std_errors.append(None)
    measured = [
        (count, error)
        for count, error in zip(counts, mean_errors)
        if error is not None and count > 0
    ]
    weight = sum(count for count, _error in measured)
    auc = (
        float(sum(count * error for count, error in measured) / weight)
        if weight
        else None
    )
    finals = [rep[-1] for rep in per_rep]
    finals_array = np.array(finals, dtype=float)
    return EvaluationResult(
        method=method.name,
        wasserstein_mean=float(finals_array.mean()),
        wasserstein_std=float(finals_array.std()),
        wasserstein_runs=[float(value) for value in finals],
        memory_words=int(memory_words),
        fit_seconds=fit_seconds / repetitions,
        sample_seconds=sample_seconds / repetitions,
        parameters=dict(parameters or {}),
        trajectory={
            "epoch_items": [int(value) for value in cumulative],
            "errors": mean_errors,
            "errors_std": std_errors,
            "auc": auc,
        },
    )
