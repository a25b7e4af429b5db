"""Continual-path throughput: batched vs item-loop ingestion, snapshot latency.

The continual summarizer (``repro.continual.PrivHPContinual``) used to be an
item-at-a-time dead end (~1.9k items/s while the one-shot batch path ran at
~700k items/s).  Its batch-native refactor advances every counter bank and
continual sketch once per ingestion *event* instead of once per item, so a
whole batch costs one vectorised locate pass plus a handful of numpy steps.

This benchmark pins that down with three numbers:

1. **loop** -- items/s of per-item :meth:`~repro.continual.privhp.PrivHPContinual.update`
   (measured on a bounded prefix; the loop rate is length-independent).
2. **batch** -- items/s of :func:`repro.api.summarizer.ingest_batches` over
   the full stream.
3. **snapshot** -- seconds to produce a full mid-stream
   :class:`~repro.api.release.Release` (the live-serving refresh cost).

The smoke entry point (``python benchmarks/bench_continual.py``) merges the
row into ``BENCH_performance.json`` under ``"continual"`` and enforces the
acceptance gate (batch >= 50x loop); ``--smoke`` runs a smaller stream with
the same gate and no JSON write, which is what CI uses to keep the continual
path from silently regressing to the item loop.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from bench_performance import merge_benchmark_result
from repro.api.builder import PrivHPBuilder
from repro.api.summarizer import ingest_batches

#: Acceptance gate: batched continual ingestion must beat the item loop by
#: at least this factor (the ISSUE 4 criterion at n=100k).
SPEEDUP_GATE = 50.0


def measure_continual_throughput(
    stream_size: int = 100_000,
    batch_size: int = 16384,
    loop_items: int = 2_000,
    snapshot_repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Measure loop vs batch continual ingestion and mid-stream snapshot cost.

    The loop path is timed on a ``loop_items`` prefix (per-item cost does not
    depend on position in the stream, and a full 100k-item loop would
    dominate CI time); the batch path ingests the full stream.
    """
    data = np.random.default_rng(seed).beta(2.0, 5.0, size=stream_size)
    builder = (
        PrivHPBuilder("interval")
        .epsilon(1.0)
        .pruning_k(8)
        .stream_size(stream_size)
        .seed(seed)
        .continual()
    )

    loop_items = min(int(loop_items), int(stream_size))
    loop_model = builder.build(rng=np.random.default_rng(seed))
    start = time.perf_counter()
    for point in data[:loop_items]:
        loop_model.update(point)
    loop_seconds = time.perf_counter() - start

    batch_model = builder.build(rng=np.random.default_rng(seed))
    start = time.perf_counter()
    ingest_batches(batch_model, data, batch_size)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(snapshot_repeats):
        release = batch_model.snapshot()
    snapshot_seconds = (time.perf_counter() - start) / snapshot_repeats

    loop_rate = loop_items / loop_seconds if loop_seconds > 0 else 0.0
    batch_rate = stream_size / batch_seconds if batch_seconds > 0 else 0.0
    return {
        "n": int(stream_size),
        "batch_size": int(batch_size),
        "loop_items_measured": loop_items,
        "loop_items_per_second": loop_rate,
        "batch_items_per_second": batch_rate,
        "speedup": batch_rate / loop_rate if loop_rate > 0 else 0.0,
        "snapshot_seconds": snapshot_seconds,
        "snapshot_leaves": len(release.tree.leaves()),
        "memory_words": batch_model.memory_words(),
    }


def run_continual_smoke(stream_size: int = 100_000) -> dict:
    """Measure the continual paths and merge the row into the tracked JSON.

    Only this entry point (``python benchmarks/bench_continual.py``) writes
    ``BENCH_performance.json``; pytest runs never dirty the working tree.
    """
    row = measure_continual_throughput(stream_size=stream_size)
    merge_benchmark_result({"continual": row})
    return row


def test_continual_batch_speedup(report_table):
    """Acceptance gate: batched continual ingestion >= 50x the item loop."""
    row = measure_continual_throughput(stream_size=20_000, loop_items=1_000)
    report_table("Batched vs per-item continual ingestion (n=20k)", [row])
    assert row["speedup"] >= SPEEDUP_GATE


def test_snapshot_latency_bounded(report_table):
    """Mid-stream snapshots (the live-serving refresh) stay sub-second."""
    row = measure_continual_throughput(
        stream_size=20_000, loop_items=1, snapshot_repeats=3
    )
    report_table("Continual snapshot latency (n=20k)", [row])
    assert row["snapshot_seconds"] < 1.0


if __name__ == "__main__":  # CI smoke entry
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small-stream gate for CI: same speedup check, no JSON write",
    )
    arguments = parser.parse_args()
    if arguments.smoke:
        result = measure_continual_throughput(stream_size=20_000, loop_items=1_000)
    else:
        result = run_continual_smoke()
    print(json.dumps(result, indent=2, sort_keys=True))
    if result["speedup"] < SPEEDUP_GATE:
        raise SystemExit(
            f"continual batch speedup {result['speedup']:.2f}x is below the "
            f"{SPEEDUP_GATE:.0f}x gate"
        )
