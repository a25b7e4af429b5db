"""Experiment F-perf: update throughput and memory growth (Corollary 1).

Corollary 1 claims O(log(eps n)) update time and M = O(k log^2 n) memory; the
generator is produced in O(M log n) time.  The benchmark measures per-item
update latency, finalize latency and the words held across stream lengths, and
separately times single updates with pytest-benchmark's timer.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.domain.interval import UnitInterval
from repro.experiments.performance import batch_speedup_experiment, throughput_experiment

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_performance.json"


def merge_benchmark_result(update: dict, path: pathlib.Path = RESULT_PATH) -> dict:
    """Merge ``update`` into the tracked benchmark JSON, preserving other keys.

    ``BENCH_performance.json`` records several benchmark families, one
    top-level section each (``ingestion``, ``query_serving``, ``continual``);
    each smoke entry point updates only its own section so running one never
    erases the others.
    """
    document = {}
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError:
            document = {}
    if not isinstance(document, dict):
        document = {}
    document.update(update)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def run_batch_speedup_smoke(stream_size: int = 100_000) -> dict:
    """Run the loop-vs-batch ingestion comparison and record the result.

    The row (items/sec for both paths plus their ratio) is merged into
    ``BENCH_performance.json`` under the ``"ingestion"`` section so CI can
    track the ingestion-throughput trajectory across commits.
    """
    row = batch_speedup_experiment(stream_size=stream_size)
    merge_benchmark_result({"ingestion": row})
    return row


def test_batch_ingestion_speedup(report_table):
    """Acceptance gate: update_batch must beat the per-item loop >= 3x at n=100k.

    Measures only -- the tracked BENCH_performance.json is written by the CI
    smoke entry point (``python benchmarks/bench_performance.py``), not by
    pytest runs, so local benchmarking never dirties the working tree.
    """
    row = batch_speedup_experiment(stream_size=100_000)
    report_table("Batched vs per-item ingestion (n=100k)", [row])
    assert row["speedup"] >= 3.0


def test_throughput_and_memory_growth(benchmark, report_table):
    rows = benchmark.pedantic(
        throughput_experiment,
        kwargs=dict(
            stream_sizes=(1024, 2048, 4096, 8192),
            dimension=1,
            epsilon=1.0,
            pruning_k=8,
            synthetic_size=1024,
            seed=0,
        ),
        rounds=1,
        iterations=1,
    )
    report_table("Throughput and memory vs stream length", rows)

    # Memory stays within a constant factor of the k log^2 n prediction.
    for row in rows:
        assert row["memory_words"] <= 12 * row["memory_bound_k_log2n"]
    # Update latency grows slowly (roughly with L = log(eps n)), so the
    # largest stream is at most a few times slower per item than the smallest.
    assert rows[-1]["seconds_per_update"] <= 6 * rows[0]["seconds_per_update"] + 1e-4


def test_single_update_latency(benchmark):
    """Micro-benchmark of PrivHP.update (the O(log eps n) path)."""
    domain = UnitInterval()
    config = PrivHPConfig.from_stream_size(stream_size=8192, epsilon=1.0, pruning_k=8, seed=0)
    algorithm = PrivHP(domain, config, rng=0)
    values = iter(np.random.default_rng(1).random(1_000_000))

    benchmark(lambda: algorithm.update(next(values)))


def test_sampling_latency(benchmark):
    """Micro-benchmark of drawing one synthetic point from a finalized generator."""
    domain = UnitInterval()
    config = PrivHPConfig.from_stream_size(stream_size=4096, epsilon=1.0, pruning_k=8, seed=0)
    algorithm = PrivHP(domain, config, rng=0)
    algorithm.update_batch(np.random.default_rng(2).random(4096))
    generator = algorithm.release().generator

    benchmark(lambda: generator.sample_one())


if __name__ == "__main__":  # CI smoke entry: no pytest-benchmark machinery needed
    result = run_batch_speedup_smoke()
    print(json.dumps(result, indent=2, sort_keys=True))
    if result["speedup"] < 3.0:
        raise SystemExit(f"ingestion speedup {result['speedup']:.2f}x is below the 3x gate")
