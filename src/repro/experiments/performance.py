"""Experiment F-perf: update throughput and memory growth (Corollary 1).

Corollary 1 claims ``O(log(eps n))`` update time and ``M = O(k log^2 n)``
memory.  The experiment streams workloads of increasing length through PrivHP,
measuring (a) per-item update latency of the scalar loop, (b) the throughput
of the vectorised ``update_batch`` path on the same data, (c) the words of
state held, and (d) the time to grow the partition and draw synthetic data,
and reports the ``k log^2 n`` prediction next to the measured words so the
growth rates can be compared.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.summarizer import ingest_batches
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.memory.accounting import measure_privhp
from repro.stream.generators import gaussian_mixture_stream
from repro.stream.stream import DataStream
from repro.theory.bounds import memory_words_bound

__all__ = ["throughput_experiment", "batch_speedup_experiment"]


def throughput_experiment(
    stream_sizes=(1024, 2048, 4096, 8192),
    dimension: int = 1,
    epsilon: float = 1.0,
    pruning_k: int = 8,
    synthetic_size: int = 1024,
    seed: int = 0,
    batch_size: int = 8192,
) -> list[dict]:
    """Measure update latency, batch throughput, finalize latency and memory."""
    domain = UnitInterval() if dimension == 1 else Hypercube(dimension)

    rows = []
    for stream_size in stream_sizes:
        rng = np.random.default_rng(seed)
        data = gaussian_mixture_stream(int(stream_size), dimension=dimension, rng=rng)
        config = PrivHPConfig.from_stream_size(
            stream_size=int(stream_size), epsilon=epsilon, pruning_k=pruning_k, seed=seed
        )
        algorithm = PrivHP(domain, config, rng=np.random.default_rng(seed))

        stream = DataStream(data, name=f"n={stream_size}")
        stats = stream.feed(algorithm)

        batched = PrivHP(domain, config, rng=np.random.default_rng(seed))
        start = time.perf_counter()
        ingest_batches(batched, data, batch_size)
        batch_seconds = time.perf_counter() - start

        start = time.perf_counter()
        release = algorithm.release()
        finalize_seconds = time.perf_counter() - start

        start = time.perf_counter()
        release.sample(synthetic_size)
        sample_seconds = time.perf_counter() - start

        report = measure_privhp(algorithm)
        rows.append(
            {
                "n": int(stream_size),
                "updates_per_second": stats.items_per_second,
                "seconds_per_update": stats.seconds_per_item,
                "batch_items_per_second": (
                    int(stream_size) / batch_seconds if batch_seconds > 0 else 0.0
                ),
                "batch_speedup": (
                    stats.seconds_per_item * int(stream_size) / batch_seconds
                    if batch_seconds > 0
                    else 0.0
                ),
                "finalize_seconds": finalize_seconds,
                "sample_seconds": sample_seconds,
                "memory_words": report.total_words,
                "memory_bound_k_log2n": memory_words_bound(int(stream_size), pruning_k),
                "depth_L": config.depth,
                "cutoff_L_star": config.level_cutoff,
            }
        )
    return rows


def batch_speedup_experiment(
    stream_size: int = 100_000,
    dimension: int = 1,
    epsilon: float = 1.0,
    pruning_k: int = 8,
    seed: int = 0,
    batch_size: int = 16384,
) -> dict:
    """Head-to-head: per-item ``update`` loop vs vectorised ``update_batch``.

    Returns one row with both throughputs and their ratio, on the same data
    and configuration; this backs the ingestion-throughput acceptance gate in
    ``benchmarks/bench_performance.py``.
    """
    domain = UnitInterval() if dimension == 1 else Hypercube(dimension)
    rng = np.random.default_rng(seed)
    data = gaussian_mixture_stream(int(stream_size), dimension=dimension, rng=rng)
    config = PrivHPConfig.from_stream_size(
        stream_size=int(stream_size), epsilon=epsilon, pruning_k=pruning_k, seed=seed
    )

    loop_algorithm = PrivHP(domain, config, rng=np.random.default_rng(seed))
    start = time.perf_counter()
    for point in data:
        loop_algorithm.update(point)
    loop_seconds = time.perf_counter() - start

    batch_algorithm = PrivHP(domain, config, rng=np.random.default_rng(seed))
    start = time.perf_counter()
    ingest_batches(batch_algorithm, data, batch_size)
    batch_seconds = time.perf_counter() - start

    return {
        "n": int(stream_size),
        "loop_items_per_second": int(stream_size) / loop_seconds,
        "batch_items_per_second": int(stream_size) / batch_seconds,
        "speedup": loop_seconds / batch_seconds,
        "batch_size": int(batch_size),
        "depth_L": config.depth,
        "cutoff_L_star": config.level_cutoff,
    }
