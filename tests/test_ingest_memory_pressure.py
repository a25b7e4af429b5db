"""What an ingest worker decides under memory pressure, pinned.

One worker owns a fleet of 40 one-shot and continual tenants under a word
budget far below their total, so hundreds of evictions and restores happen
while the tenants take appends and snapshots.  The test pins the order in
which the worker evicts tenants and its counters after every flush, and it
checks that the words the service reports are exactly the words its
resident summarizers hold, and within the budget.  A change to the worker's
memory accounting that keeps these pins keeps every eviction decision.
"""

from __future__ import annotations

import numpy as np

from repro.ingest import IngestService, TenantSpec
from repro.ingest import service as service_module
from repro.io.checkpoint_writer import CheckpointWriter

#: Tenant indices in the order the worker handed them to the checkpoint
#: writer, over the twelve rounds below.
EVICTION_ORDER = (
    "12 11 03 19 27 38 30 35 24 06 08 25 39 20 36 09 21 00 32 18 07 05 35 22 "
    "04 31 19 23 16 15 10 08 33 29 28 36 00 34 03 02 22 20 30 06 11 03 32 39 "
    "24 35 37 00 09 02 04 23 10 13 33 16 34 28 15 20 36 07 30 14 22 04 25 20 "
    "31 19 26 08 01 27 39 36 35 04 14 34 32 05 23 28 07 10 30 08 03 06 17 13 "
    "15 02 27 18 31 21 23 36 35 14 32 22 30 01 16 33 10 09 04 12 26 18 02 06 "
    "34 07 20 36 39 11 00 23 17 29 15 32 06 25 07 28 38 31 39 20 35 14 03 26 "
    "37 12 18 01 22 05 04 11 03 02 16 23 20 24 34 13 29 09 35 21 32 30 12 28 "
    "27 39 22 18 36 31 36 19 38 17 14 15 28 26 25 31 16 39 34 04 20 19 23 05 "
    "12 36 27 08 30 35 14 37 33 09 00 36 04 06 15 20 35 11 18 12 27 26 19 39 "
    "28 32 31 36 02 16 30 11 33 34 17 15 08 01 38 21 00 13 18 19 24 36 04 35 "
    "14 07 39 32 27 06 34 31 29 09 37 36 20 08 22 04 28 31 19 16 26 05 21 12 "
    "15 38 24 14 02 27 10 30 35 18 25 34 37 23 36 04 03 35 16 06 24 38 18 11 "
    "36 14 29 28 27 08 34 17 32 02 "
).split()

#: ``(evictions, restores, memory_words, resident)`` after each round's flush.
STATS_AFTER_EACH_FLUSH = [
    (14, 0, 33316, 16),
    (38, 16, 38978, 17),
    (65, 41, 35762, 16),
    (88, 66, 36704, 18),
    (116, 92, 39392, 16),
    (142, 120, 37806, 18),
    (174, 148, 35990, 14),
    (196, 173, 39152, 17),
    (219, 197, 37728, 18),
    (245, 221, 36946, 16),
    (273, 249, 38034, 16),
    (298, 273, 38274, 15),
]


def _fleet() -> list[TenantSpec]:
    """Every fourth tenant is continual (64 or 256 items); the others are
    one-shot tenants of 256, 1,024 or 4,096 items: 138,320 words in all."""
    return [
        TenantSpec(
            f"p{i:02d}",
            stream_size=(64, 256)[i // 4 % 2] if i % 4 == 0 else (256, 1024, 4096)[i % 4 - 1],
            seed=i,
            continual=(i % 4 == 0),
        )
        for i in range(40)
    ]


def test_eviction_decisions_under_a_tight_budget_are_pinned(tmp_path, monkeypatch):
    specs = _fleet()
    evicted: list[str] = []
    submit = CheckpointWriter.submit

    def recording_submit(self, stem, *args, **kwargs):
        evicted.append(stem)
        return submit(self, stem, *args, **kwargs)

    monkeypatch.setattr(CheckpointWriter, "submit", recording_submit)
    # An hour-long flush interval: the flusher never ships a round's appends.
    monkeypatch.setattr(service_module, "FLUSH_INTERVAL_S", 3600.0)
    rng = np.random.default_rng(2026)
    rows = []
    with IngestService(
        specs,
        workers=1,
        checkpoint_dir=tmp_path,
        memory_budget_words=40_000,
    ) as service:
        for _ in range(12):
            # All of a round's appends stay staged until the snapshot ships
            # them as one message, so the worker sees the same plan however
            # its thread is scheduled.
            for index in rng.permutation(len(specs))[:30]:
                service.append(specs[index].tenant_id, rng.random(int(rng.integers(1, 5))))
            service.snapshot(specs[4 * int(rng.integers(0, 10))].tenant_id)
            stats = service.flush()
            rows.append(
                (stats["evictions"], stats["restores"], stats["memory_words"], stats["resident"])
            )
            [worker] = service._workers
            resident_words = sum(
                state.summarizer.memory_words() for state in worker._residents.values()
            )
            assert stats["memory_words"] == resident_words
            # Appends and snapshots alike leave the worker within its budget.
            assert stats["memory_words"] <= 40_000
        order = [stem[1:] for stem in evicted]
    assert rows == STATS_AFTER_EACH_FLUSH
    assert order == EVICTION_ORDER
