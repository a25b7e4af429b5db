"""Random range-query workloads and their error evaluation.

Used by the range-query benchmark to quantify the paper's query-flexibility
claim: the same released structure answers arbitrary (not pre-registered)
range queries, and the error of each answer is compared against the ground
truth computed from the raw data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.domain.base import Domain
from repro.domain.discrete import DiscreteDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import ADDRESS_SPACE, IPv4Domain
from repro.queries.range_queries import RangeQueryEngine

__all__ = ["RangeQuery", "random_range_queries", "true_mass", "evaluate_range_workload"]


@dataclass(frozen=True)
class RangeQuery:
    """An axis-aligned range query with inclusive bounds.

    Example:
        >>> RangeQuery(lower=0.25, upper=0.5)
        RangeQuery(lower=0.25, upper=0.5)
    """

    lower: object
    upper: object

    def __post_init__(self) -> None:
        # Bounds are validated by the engine / domain at answer time; here we
        # only freeze them so queries are hashable workload elements.
        pass


def random_range_queries(
    domain: Domain,
    count: int,
    rng: np.random.Generator | int | None = None,
    min_width: float = 0.05,
    max_width: float = 0.5,
) -> list[RangeQuery]:
    """Draw ``count`` random range queries with widths in ``[min_width, max_width]``.

    Widths are expressed as a fraction of the domain extent per axis.

    Example:
        >>> from repro.domain.interval import UnitInterval
        >>> queries = random_range_queries(UnitInterval(), 3, rng=0)
        >>> len(queries)
        3
        >>> all(0.0 <= q.lower <= q.upper <= 1.0 for q in queries)
        True
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if not 0 < min_width <= max_width <= 1:
        raise ValueError("widths must satisfy 0 < min_width <= max_width <= 1")
    generator = np.random.default_rng(rng)

    queries: list[RangeQuery] = []
    for _ in range(count):
        if isinstance(domain, UnitInterval):
            width = generator.uniform(min_width, max_width)
            start = generator.uniform(0.0, 1.0 - width)
            queries.append(RangeQuery(lower=float(start), upper=float(start + width)))
        elif isinstance(domain, Hypercube):
            widths = generator.uniform(min_width, max_width, size=domain.dimension)
            starts = generator.uniform(0.0, 1.0 - widths)
            queries.append(RangeQuery(lower=tuple(starts), upper=tuple(starts + widths)))
        elif isinstance(domain, IPv4Domain):
            width = int(generator.uniform(min_width, max_width) * ADDRESS_SPACE)
            start = int(generator.integers(0, ADDRESS_SPACE - max(width, 1)))
            queries.append(RangeQuery(lower=start, upper=start + width))
        elif isinstance(domain, DiscreteDomain):
            width = max(1, int(generator.uniform(min_width, max_width) * domain.size))
            start = int(generator.integers(0, max(domain.size - width, 1)))
            queries.append(RangeQuery(lower=start, upper=min(start + width, domain.size - 1)))
        else:
            raise TypeError(f"random queries are not supported on {type(domain).__name__}")
    return queries


def true_mass(data, domain: Domain, query: RangeQuery) -> float:
    """The exact fraction of the raw data falling inside the query region.

    Example:
        >>> from repro.domain.interval import UnitInterval
        >>> true_mass([0.1, 0.3, 0.6, 0.9], UnitInterval(), RangeQuery(0.0, 0.5))
        0.5
    """
    data = np.asarray(data)
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    if isinstance(domain, UnitInterval):
        inside = (data >= float(query.lower)) & (data <= float(query.upper))
    elif isinstance(domain, Hypercube):
        lower = np.asarray(query.lower, dtype=float)
        upper = np.asarray(query.upper, dtype=float)
        inside = np.all((data >= lower) & (data <= upper), axis=1)
    elif isinstance(domain, (IPv4Domain, DiscreteDomain)):
        inside = (data >= int(query.lower)) & (data <= int(query.upper))
    else:
        raise TypeError(f"true_mass is not supported on {type(domain).__name__}")
    return float(np.mean(inside))


def evaluate_range_workload(
    engine: RangeQueryEngine,
    data,
    domain: Domain,
    queries: list[RangeQuery],
) -> dict:
    """Answer every query privately and report the error statistics.

    Returns a dictionary with per-query absolute errors plus their mean, max
    and the mean true/estimated masses (useful for sanity checks).

    Example:
        >>> from repro.baselines.pmm import build_exact_tree
        >>> from repro.domain.interval import UnitInterval
        >>> data = [0.1, 0.3, 0.6, 0.9]
        >>> engine = RangeQueryEngine(build_exact_tree(data, UnitInterval(), 2), UnitInterval())
        >>> report = evaluate_range_workload(engine, data, UnitInterval(), [RangeQuery(0.0, 0.5)])
        >>> report["num_queries"], report["max_abs_error"]
        (1, 0.0)
    """
    if not queries:
        raise ValueError("the workload must contain at least one query")
    errors = []
    true_values = []
    estimated_values = []
    for query in queries:
        truth = true_mass(data, domain, query)
        estimate = engine.mass(query.lower, query.upper)
        errors.append(abs(estimate - truth))
        true_values.append(truth)
        estimated_values.append(estimate)
    errors_array = np.asarray(errors)
    return {
        "num_queries": len(queries),
        "mean_abs_error": float(errors_array.mean()),
        "max_abs_error": float(errors_array.max()),
        "median_abs_error": float(np.median(errors_array)),
        "mean_true_mass": float(np.mean(true_values)),
        "mean_estimated_mass": float(np.mean(estimated_values)),
        "errors": [float(value) for value in errors],
    }
