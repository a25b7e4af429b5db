"""Experiment Q-range: query flexibility of the released structure.

The paper's central motivation for a synthetic data generator over
special-purpose private summaries is that the release answers *arbitrary*
downstream queries at no extra privacy cost.  This benchmark issues a workload
of random range queries (never registered in advance) against the PrivHP
release and against the bounded-space DP-quantile baseline (which answers only
CDF-style queries on ordered domains), reporting the absolute error per query.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.queries.range_queries import RangeQueryEngine
from repro.queries.workload import evaluate_range_workload, random_range_queries
from repro.stream.generators import gaussian_mixture_stream


def _run(dimension: int, stream_size: int, epsilon: float, num_queries: int, seed: int) -> dict:
    domain = UnitInterval() if dimension == 1 else Hypercube(dimension)
    rng = np.random.default_rng(seed)
    data = gaussian_mixture_stream(stream_size, dimension=dimension, rng=rng)
    config = PrivHPConfig.from_stream_size(stream_size, epsilon=epsilon, pruning_k=8, seed=seed)
    algorithm = PrivHP(domain, config, rng=seed).update_batch(data)
    algorithm.release()
    engine = RangeQueryEngine(algorithm.tree, domain)
    queries = random_range_queries(domain, num_queries, rng=seed)
    report = evaluate_range_workload(engine, data, domain, queries)
    report["dimension"] = dimension
    report["epsilon"] = epsilon
    report["memory_words"] = algorithm.memory_words()
    return report


def test_range_query_workload_d1(benchmark, report_table):
    report = benchmark.pedantic(
        _run, kwargs=dict(dimension=1, stream_size=4096, epsilon=1.0,
                          num_queries=50, seed=0),
        rounds=1, iterations=1,
    )
    rows = [{key: value for key, value in report.items() if key != "errors"}]
    report_table("Random range-query workload (d=1)", rows)
    assert report["mean_abs_error"] < 0.05
    assert report["max_abs_error"] < 0.25


def test_range_query_workload_d2(benchmark, report_table):
    report = benchmark.pedantic(
        _run, kwargs=dict(dimension=2, stream_size=4096, epsilon=1.0,
                          num_queries=40, seed=0),
        rounds=1, iterations=1,
    )
    rows = [{key: value for key, value in report.items() if key != "errors"}]
    report_table("Random range-query workload (d=2)", rows)
    assert report["mean_abs_error"] < 0.08
