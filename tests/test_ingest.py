"""Tests for the multi-tenant ingestion service (``repro.ingest``).

The load-bearing guarantees:

* **Determinism through the service** -- routing a tenant's stream through
  the worker pool produces a release byte-identical to running the same
  stream through a single in-process summarizer, even when the tenant was
  evicted to a checkpoint and restored along the way.
* **Isolation** -- tenants never share summarizer state; each worker
  exclusively owns its hash-partition of tenants.
* **Accounting** -- per-tenant/service-wide privacy budgets are enforced at
  admission; the word-level memory budget is enforced by LRU eviction.
* **Serving** -- a continual tenant is queryable over HTTP the moment it
  has data, and 404s once evicted, released, or the service is closed.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.continual.privhp import PrivHPContinual
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.domain.discrete import DiscreteDomain
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain
from repro.ingest import partition as partition_module
from repro.ingest import service as service_module
from repro.ingest import (
    AppendError,
    IngestService,
    LiveTenantHandle,
    MemoryLedger,
    RateLimiter,
    TenantBudgetRegistry,
    TenantSpec,
    ingest_file,
    iter_append_records,
    load_tenant_specs,
    partition_of,
    save_tenant_spec,
    watch_directory,
)
from repro.memory.accounting import measure_method
from repro.privacy.accountant import BudgetExceededError
from repro.serve.http import create_server
from repro.serve.service import QueryService
from repro.serve.store import ReleaseStore
from repro.sketch.hashing import HashFamily


#: A flush interval longer than any test: appends stay staged until a
#: synchronising call (or a full buffer) ships them.
HOUR_S = 3600.0


def _release_bytes(release) -> str:
    """Canonical byte-level identity of a release document."""
    return json.dumps(release.to_dict(), sort_keys=True)


def _control_release(spec: TenantSpec, batches) -> str:
    """The same stream through a single in-process summarizer."""
    summarizer = spec.build_summarizer()
    domain = spec.make_domain()
    for batch in batches:
        summarizer.update_batch(domain.coerce_stream(np.asarray(batch)))
    return _release_bytes(summarizer.release())


# --------------------------------------------------------------------------- #
# tenant specs
# --------------------------------------------------------------------------- #
class TestTenantSpec:
    def test_round_trip_through_dict(self):
        spec = TenantSpec(
            "acme", domain="discrete:256", epsilon=2.0, pruning_k=4,
            stream_size=1024, continual=True, horizon=2048, seed=9,
            max_epsilon=3.0,
        )
        assert TenantSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_through_directory(self, tmp_path):
        specs = [
            TenantSpec("alpha", stream_size=64, seed=1),
            TenantSpec("beta", continual=True, stream_size=128, seed=2),
        ]
        for spec in specs:
            save_tenant_spec(spec, tmp_path)
        loaded = load_tenant_specs(tmp_path)
        assert sorted(loaded) == ["alpha", "beta"]
        assert loaded["alpha"] == specs[0]
        assert loaded["beta"] == specs[1]

    def test_batch_file_with_tenants_list(self, tmp_path):
        document = {
            "tenants": [
                {"tenant_id": "a", "stream_size": 32},
                {"tenant_id": "b", "stream_size": 32, "continual": True},
            ]
        }
        (tmp_path / "fleet.json").write_text(json.dumps(document))
        assert sorted(load_tenant_specs(tmp_path)) == ["a", "b"]

    def test_duplicate_tenant_across_files_rejected(self, tmp_path):
        save_tenant_spec(TenantSpec("dup", stream_size=32), tmp_path)
        (tmp_path / "again.json").write_text(
            json.dumps({"tenants": [{"tenant_id": "dup", "stream_size": 32}]})
        )
        with pytest.raises(ValueError, match="dup"):
            load_tenant_specs(tmp_path)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"horizon": 100},  # horizon without continual
            {"max_epsilon": 0.5},  # below epsilon
            {"domain": "no-such-domain"},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec("t", **kwargs)

    @pytest.mark.parametrize("bad_id", ["", ".hidden", "a/b", "a b", "-lead"])
    def test_tenant_ids_must_be_file_safe(self, bad_id):
        # Tenant ids become checkpoint/release file stems, so anything that
        # could escape the directory or hide the file is rejected up front.
        with pytest.raises(ValueError):
            TenantSpec(bad_id)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TenantSpec.from_dict({"tenant_id": "a", "epsilonn": 1.0})


# --------------------------------------------------------------------------- #
# partitioning and accounting
# --------------------------------------------------------------------------- #
class TestPartitioning:
    def test_partition_is_stable_and_in_range(self):
        ids = [f"tenant-{i}" for i in range(500)]
        first = [partition_of(t, 8) for t in ids]
        assert first == [partition_of(t, 8) for t in ids]
        assert all(0 <= p < 8 for p in first)
        # A healthy hash spreads 500 tenants over all 8 partitions.
        assert len(set(first)) == 8

    def test_partition_documented_value(self):
        # Pinned: the partition must come from a stable (unsalted) hash so a
        # restarted service routes every tenant to the same worker.
        assert partition_of("acme", 8) == partition_of("acme", 8)
        with pytest.raises(ValueError):
            partition_of("acme", 0)


class TestTenantBudgetRegistry:
    def test_total_epsilon_sums_admitted_tenants(self):
        registry = TenantBudgetRegistry()
        registry.admit(TenantSpec("a", epsilon=1.0))
        registry.admit(TenantSpec("b", epsilon=2.5))
        assert registry.total_epsilon() == pytest.approx(3.5)
        assert sorted(registry.admitted()) == ["a", "b"]

    def test_duplicate_admission_rejected(self):
        registry = TenantBudgetRegistry()
        registry.admit(TenantSpec("a"))
        with pytest.raises(ValueError, match="already"):
            registry.admit(TenantSpec("a"))

    def test_epsilon_above_max_epsilon_rejected(self):
        with pytest.raises(ValueError):
            TenantSpec("greedy", epsilon=2.0, max_epsilon=1.0)

    def test_service_wide_budget_rejects_overflow(self):
        registry = TenantBudgetRegistry(service_budget=2.0)
        registry.admit(TenantSpec("a", epsilon=1.5))
        with pytest.raises(BudgetExceededError) as excinfo:
            registry.admit(TenantSpec("b", epsilon=1.0))
        assert "b" in str(excinfo.value)
        # The rejected tenant must not be half-admitted.
        assert registry.admitted() == ["a"]

    def test_remaining_epsilon_reflects_max(self):
        registry = TenantBudgetRegistry()
        registry.admit(TenantSpec("a", epsilon=1.0, max_epsilon=4.0))
        assert registry.remaining_epsilon("a") == pytest.approx(3.0)


class TestMemoryLedger:
    def test_record_drop_and_totals(self):
        ledger = MemoryLedger()
        ledger.record("a", 100)
        ledger.record("b", 50)
        ledger.record("a", 120)  # re-recording replaces, not adds
        assert ledger.total_words == 170
        assert ledger.drop("b") == 50
        assert ledger.total_words == 120
        assert ledger.eviction_order() == ["a"]
        for _ in range(5):  # touches move recency, never words
            ledger.touch("a")
        assert ledger.total_words == 120
        assert ledger.drop("a") == 120
        assert ledger.total_words == 0 and ledger.eviction_order() == []

    def test_eviction_order_is_coldest_first_when_sizes_match(self):
        # Equal sizes degenerate cost-aware ordering to exactly LRU.
        ledger = MemoryLedger()
        for tenant in ("old", "mid", "hot"):
            ledger.record(tenant, 10)
        assert ledger.eviction_order() == ["old", "mid", "hot"]
        ledger.touch("old")  # touching rewarms
        assert ledger.eviction_order() == ["mid", "hot", "old"]
        # The tenant being appended right now must never be evicted for its
        # own append.
        assert ledger.eviction_order(protect="mid") == ["hot", "old"]

    def test_eviction_order_prefers_big_cold_over_small_warm(self):
        # ISSUE tentpole (4): one big cold tenant frees the budget in one
        # eviction where pure LRU would churn through many small tenants.
        ledger = MemoryLedger()
        ledger.record("big-cold", 1000)
        for tenant in ("small-1", "small-2", "small-3"):
            ledger.record(tenant, 10)
        for _ in range(3):  # big-cold goes untouched while the others churn
            for tenant in ("small-1", "small-2", "small-3"):
                ledger.touch(tenant)
        order = ledger.eviction_order(protect="small-3")
        # Pure LRU would have put the oldest small tenant first instead.
        assert order[0] == "big-cold"


# --------------------------------------------------------------------------- #
# memory accounting satellite
# --------------------------------------------------------------------------- #
class TestMeasureMethodContinual:
    def test_continual_breakdown_reports_banks_and_sketches(self):
        spec = TenantSpec("m", continual=True, stream_size=4096, seed=3)
        summarizer = spec.build_summarizer()
        summarizer.update_batch(np.linspace(0.0, 1.0, 128))
        report = measure_method(summarizer)
        assert report.method == "PrivHPContinual"
        assert report.total_words == summarizer.memory_words()
        assert any(name.startswith("counter_bank_level_") for name in report.components)
        assert any(name.startswith("sketch_level_") for name in report.components)
        assert sum(report.components.values()) == report.total_words

    def test_one_shot_dispatch_unchanged(self):
        spec = TenantSpec("o", stream_size=256, seed=3)
        summarizer = spec.build_summarizer()
        summarizer.update_batch(np.linspace(0.0, 1.0, 128))
        report = measure_method(summarizer)
        assert report.method == "PrivHP"
        assert "tree" in report.components


# --------------------------------------------------------------------------- #
# the service: determinism, isolation, lifecycle
# --------------------------------------------------------------------------- #
class TestIngestService:
    def test_release_matches_in_process_summarizer(self):
        rng = np.random.default_rng(0)
        batches = [rng.random(64) for _ in range(4)]
        spec = TenantSpec("acme", stream_size=256, seed=7)
        with IngestService(workers=3) as service:
            service.register(spec)
            for batch in batches:
                service.append("acme", batch)
            release = service.release("acme")
        assert _release_bytes(release) == _control_release(spec, batches)

    def test_continual_release_matches_in_process(self):
        rng = np.random.default_rng(1)
        batches = [rng.random(32) for _ in range(3)]
        spec = TenantSpec("cont", stream_size=256, seed=5, continual=True)
        with IngestService(workers=2) as service:
            service.register(spec)
            for batch in batches:
                service.append("cont", batch)
            release = service.release("cont")
        assert _release_bytes(release) == _control_release(spec, batches)

    def test_tenants_are_isolated(self):
        specs = [TenantSpec(f"t{i}", stream_size=64, seed=i) for i in range(6)]
        rng = np.random.default_rng(2)
        streams = {spec.tenant_id: [rng.random(16)] for spec in specs}
        with IngestService(specs, workers=3) as service:
            for tenant_id, batches in streams.items():
                for batch in batches:
                    service.append(tenant_id, batch)
            releases = {t: _release_bytes(service.release(t)) for t in streams}
        for spec in specs:
            assert releases[spec.tenant_id] == _control_release(
                spec, streams[spec.tenant_id]
            )

    def test_append_to_unknown_tenant_raises(self):
        with IngestService(workers=1) as service:
            with pytest.raises(KeyError, match="nobody"):
                service.append("nobody", [0.5])

    def test_append_after_release_fails_at_flush(self):
        spec = TenantSpec("done", stream_size=64, seed=1)
        with IngestService(workers=1) as service:
            service.register(spec)
            service.append("done", [0.5])
            service.release("done")
            service.append("done", [0.5])
            with pytest.raises(AppendError) as excinfo:
                service.flush()
            assert excinfo.value.failures[0][0] == "done"

    def test_snapshot_requires_continual(self):
        with IngestService(workers=1) as service:
            service.register(TenantSpec("one", stream_size=64, seed=1))
            service.append("one", [0.5])
            with pytest.raises(ValueError, match="one-shot"):
                service.snapshot("one")

    def test_memory_budget_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint"):
            IngestService(workers=1, memory_budget_words=1000)

    def test_stats_row_shape(self):
        with IngestService(workers=2) as service:
            service.register(TenantSpec("s", stream_size=64, seed=1))
            service.append("s", [0.25, 0.75])
            stats = service.stats()
        assert stats["tenants"] == 1
        assert stats["items_ingested"] == 2
        assert stats["budget"]["total_epsilon"] == pytest.approx(1.0)

    def test_close_is_idempotent(self):
        service = IngestService(workers=1)
        service.close()
        service.close()

    @pytest.mark.parametrize("checkpoints", [False, True], ids=["memory", "checkpoint-dir"])
    @pytest.mark.parametrize("refusal", ["duplicate-id", "over-service-budget"])
    def test_refused_spec_stops_the_threads_the_constructor_started(
        self, refusal, checkpoints, tmp_path
    ):
        """A spec the constructor cannot register raises out of it, and the
        workers, the flusher and the checkpoint writer it started end."""
        if refusal == "duplicate-id":
            specs = [TenantSpec("a", stream_size=64), TenantSpec("a", stream_size=64)]
            options, error = {}, ValueError
        else:
            specs = [TenantSpec("a", stream_size=64), TenantSpec("b", stream_size=64)]
            options, error = {"service_epsilon_budget": 1.5}, BudgetExceededError
        if checkpoints:
            options["checkpoint_dir"] = tmp_path / "checkpoints"
        before = set(threading.enumerate())
        with pytest.raises(error):
            IngestService(specs, workers=2, **options)
        started = [
            thread
            for thread in threading.enumerate()
            if thread not in before
            and thread.name.startswith(("ingest-worker-", "ingest-flusher", "repro-checkpoint"))
        ]
        deadline = time.monotonic() + 10.0
        for thread in started:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert [thread.name for thread in started if thread.is_alive()] == []


class TestEvictionRoundTrip:
    def test_explicit_evict_restore_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        batches = [rng.random(32) for _ in range(4)]
        spec = TenantSpec("evictee", stream_size=256, seed=11, continual=True)
        with IngestService(workers=1, checkpoint_dir=tmp_path) as service:
            service.register(spec)
            service.append("evictee", batches[0])
            service.append("evictee", batches[1])
            assert service.evict("evictee") is True
            assert (tmp_path / "evictee.state.bin").exists()
            service.append("evictee", batches[2])  # transparently restored
            service.append("evictee", batches[3])
            release = service.release("evictee")
            stats = service.stats()
        assert stats["evictions"] == 1
        assert stats["restores"] == 1
        assert _release_bytes(release) == _control_release(spec, batches)

    def test_evict_without_checkpoint_dir_rejected(self):
        with IngestService(workers=1) as service:
            service.register(TenantSpec("t", stream_size=64, seed=1))
            service.append("t", [0.5])
            with pytest.raises(RuntimeError, match="checkpoint"):
                service.evict("t")

    def test_budget_pressure_evicts_cold_tenants(self, tmp_path):
        specs = [
            TenantSpec(f"b{i}", stream_size=64, seed=i, continual=True)
            for i in range(8)
        ]
        rng = np.random.default_rng(4)
        with IngestService(
            specs, workers=1, checkpoint_dir=tmp_path, memory_budget_words=4000
        ) as service:
            for _ in range(2):
                for spec in specs:
                    service.append(spec.tenant_id, rng.random(16))
            stats = service.stats()
            assert stats["evictions"] > 0
            assert stats["memory_words"] <= 4000
            # Evicted tenants live on disk, not in memory.
            assert any(tmp_path.glob("*.state.bin")) or stats["restores"] > 0

    def test_release_of_evicted_tenant_restores_first(self, tmp_path):
        spec = TenantSpec("sleeper", stream_size=64, seed=2)
        batches = [np.linspace(0.1, 0.9, 16)]
        with IngestService(workers=1, checkpoint_dir=tmp_path) as service:
            service.register(spec)
            service.append("sleeper", batches[0])
            service.evict("sleeper")
            release = service.release("sleeper")
            # The consumed checkpoint is removed on release.
            assert not (tmp_path / "sleeper.state.bin").exists()
        assert _release_bytes(release) == _control_release(spec, batches)

    def test_drain_on_close_checkpoints_residents(self, tmp_path):
        spec = TenantSpec("durable", stream_size=64, seed=6, continual=True)
        service = IngestService(workers=1, checkpoint_dir=tmp_path)
        service.register(spec)
        service.append("durable", np.linspace(0.0, 1.0, 16))
        service.close()
        assert (tmp_path / "durable.state.bin").exists()


class TestCheckpointFaults:
    """A checkpoint that cannot be written or read never costs a tenant its
    items silently: the fault surfaces at ``flush()``, and the tenant is
    never rebuilt empty behind it."""

    def test_failed_eviction_write_keeps_the_tenant(self, tmp_path, monkeypatch):
        import repro.io.checkpoint_writer as writer_module

        save = writer_module.save_checkpoint
        calls = []

        def full_disk_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return save(*args, **kwargs)

        monkeypatch.setattr(writer_module, "save_checkpoint", full_disk_once)
        rng = np.random.default_rng(19)
        batches = [rng.random(100), rng.random(10)]
        spec = TenantSpec("full", stream_size=256, seed=23)
        with IngestService(workers=1, checkpoint_dir=tmp_path) as service:
            service.register(spec)
            service.append("full", batches[0])
            assert service.evict("full") is True
            with pytest.raises(AppendError) as excinfo:
                service.flush()
            [(tenant, message)] = excinfo.value.failures
            assert tenant == "full"
            assert message.startswith("checkpoint write failed: OSError")
            assert f"[Errno {errno.ENOSPC}]" in message
            assert not (tmp_path / "full.state.bin").exists()
            service.append("full", batches[1])
            service.flush()
            release = service.release("full")
        assert len(calls) == 1
        assert _release_bytes(release) == _control_release(spec, batches)

    def test_worker_with_a_checkpoint_dir_needs_a_writer(self, tmp_path):
        """Evictions have one write path, the background writer: a worker
        that could evict but has no writer is refused at construction."""
        from repro.ingest.partition import IngestWorker

        with pytest.raises(ValueError, match="checkpoint_writer"):
            IngestWorker(index=0, checkpoint_dir=tmp_path)

    def test_truncated_checkpoint_fails_appends_and_is_never_rebuilt_empty(self, tmp_path):
        spec = TenantSpec("torn", stream_size=256, seed=29)
        path = tmp_path / "torn.state.bin"
        with IngestService(workers=1, checkpoint_dir=tmp_path) as service:
            service.register(spec)
            service.append("torn", np.linspace(0.1, 0.9, 32))
            service.evict("torn")
            service.flush()
            torn = path.read_bytes()[: path.stat().st_size // 2]
            path.write_bytes(torn)
            for _ in range(2):
                service.append("torn", [0.5])
                with pytest.raises(AppendError) as excinfo:
                    service.flush()
                [(tenant, message)] = excinfo.value.failures
                assert tenant == "torn" and message.startswith("ValueError")
            assert service.stats()["items_ingested"] == 32
            with pytest.raises(ValueError):
                service.release("torn")
        assert path.read_bytes() == torn


class TestThousandTenantFleet:
    def test_fleet_under_memory_budget_stays_deterministic(self, tmp_path):
        """ISSUE acceptance: >= 1,000 registered tenants under a bounded
        memory budget (cold tenants evicted to checkpoints) produce, for
        sampled tenants, releases byte-identical to a single in-process
        summarizer run."""
        tenants = 1000
        specs = [
            TenantSpec(
                f"fleet-{i:04d}", stream_size=16, seed=i, continual=(i % 7 == 0)
            )
            for i in range(tenants)
        ]
        rng = np.random.default_rng(5)
        streams = {
            spec.tenant_id: [rng.random(8), rng.random(8)] for spec in specs
        }
        sampled = ["fleet-0000", "fleet-0007", "fleet-0123", "fleet-0999"]
        with IngestService(
            specs,
            workers=4,
            checkpoint_dir=tmp_path,
            memory_budget_words=40_000,
        ) as service:
            assert len(service.tenants()) == tenants
            for round_index in range(2):
                for spec in specs:
                    service.append(
                        spec.tenant_id, streams[spec.tenant_id][round_index]
                    )
            stats = service.stats()
            assert stats["evictions"] > 0, "budget never bit; test is vacuous"
            assert stats["memory_words"] <= 40_000
            assert stats["items_ingested"] == tenants * 16
            releases = {t: _release_bytes(service.release(t)) for t in sampled}
        for tenant_id in sampled:
            spec = specs[int(tenant_id.split("-")[1])]
            assert releases[tenant_id] == _control_release(spec, streams[tenant_id])


# --------------------------------------------------------------------------- #
# append coalescing: staging buffers, drains, and the determinism contract
# --------------------------------------------------------------------------- #
#: ``(workers, STAGE_ITEMS, FLUSH_INTERVAL_S)`` of each coalescing shape.
COALESCING_SHAPES = pytest.mark.parametrize(
    ("workers", "stage_items", "flush_interval_s"),
    [
        (1, 1, HOUR_S),  # every append ships alone, the timer never fires
        (2, 2048, HOUR_S),  # everything stages until a sync point
        (4, 4, 0.001),  # aggressive timer races the appenders
        (3, 2048, 0.05),  # the defaults
    ],
)


def _patch_staging(monkeypatch, stage_items: int, flush_interval_s: float) -> None:
    """Set the service's staging constants for the services built after."""
    monkeypatch.setattr(service_module, "STAGE_ITEMS", stage_items)
    monkeypatch.setattr(service_module, "FLUSH_INTERVAL_S", flush_interval_s)


class TestCoalescedAppends:
    @COALESCING_SHAPES
    def test_releases_byte_identical_across_coalescing_shapes(
        self, monkeypatch, workers, stage_items, flush_interval_s
    ):
        """The determinism oracle must hold for every coalescing shape:
        whether appends ship one-by-one, as timer-shipped partials, or as
        one giant staged buffer, each tenant's release equals the
        in-process control byte for byte."""
        specs = [
            TenantSpec(f"c{i}", stream_size=256, seed=i, continual=(i % 2 == 0))
            for i in range(6)
        ]
        rng = np.random.default_rng(21)
        streams = {
            spec.tenant_id: [rng.random(n) for n in (16, 1, 33, 7)] for spec in specs
        }
        _patch_staging(monkeypatch, stage_items, flush_interval_s)
        with IngestService(specs, workers=workers) as service:
            for round_index in range(4):
                for spec in specs:
                    service.append(
                        spec.tenant_id, streams[spec.tenant_id][round_index]
                    )
            releases = {
                spec.tenant_id: _release_bytes(service.release(spec.tenant_id))
                for spec in specs
            }
        for spec in specs:
            assert releases[spec.tenant_id] == _control_release(
                spec, streams[spec.tenant_id]
            )

    @COALESCING_SHAPES
    def test_horizon_overrun_inside_a_run_drops_only_the_failing_append(
        self, monkeypatch, workers, stage_items, flush_interval_s
    ):
        """A continual tenant with ``horizon=64`` gets 50, 20 and 5 items.
        Only the 20-item append overruns the horizon, so every coalescing
        shape ends at 55 items with one failure, whether the three appends
        land one by one or as one run whose second segment fails."""
        spec = TenantSpec("h", stream_size=64, seed=4, continual=True, horizon=64)
        rng = np.random.default_rng(24)
        batches = [rng.random(n) for n in (50, 20, 5)]
        _patch_staging(monkeypatch, stage_items, flush_interval_s)
        with IngestService([spec], workers=workers) as service:
            for batch in batches:
                service.append("h", batch)
            stats = service.flush(raise_on_failure=False)
            assert [tenant for tenant, _ in stats["failures"]] == ["h"]
            assert "horizon" in stats["failures"][0][1]
            assert stats["items_ingested"] == 55
            assert service.items_processed("h") == 55
            assert service.snapshot("h").items_processed == 55
            release = _release_bytes(service.release("h"))
        assert release == _control_release(spec, [batches[0], batches[2]])

    def test_flush_observes_staged_but_unshipped_buffers(self, monkeypatch):
        """With a huge staging bound and an hour-long flush interval,
        appends sit in the staging buffers; ``flush`` must ship and settle
        every one of them."""
        spec = TenantSpec("staged", stream_size=64, seed=3)
        _patch_staging(monkeypatch, 10_000, HOUR_S)
        with IngestService([spec], workers=2) as service:
            for _ in range(5):
                service.append("staged", np.linspace(0.0, 1.0, 8))
            stats = service.flush()
            assert stats["items_ingested"] == 40
            assert service.items_processed("staged") == 40

    def test_background_flusher_ships_a_partial_buffer(self):
        """An append below ``STAGE_ITEMS`` reaches its worker with no
        synchronising call: the background flusher ships it.  Polling
        ``items_processed`` reads a counter and ships nothing."""
        spec = TenantSpec("trickle", stream_size=64, seed=6)
        with IngestService([spec], workers=1) as service:
            service.append("trickle", np.linspace(0.0, 1.0, 8))
            deadline = time.monotonic() + 10.0
            while service.items_processed("trickle") < 8 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.items_processed("trickle") == 8

    def test_appends_block_on_tiny_queue_without_loss_or_reorder(self, monkeypatch):
        """Backpressure contract: a one-message inbox with per-append
        shipping and many concurrent appenders may block, but must never
        drop or reorder a tenant's batches (the releases stay byte-identical
        to the in-process control)."""
        specs = [TenantSpec(f"q{i}", stream_size=256, seed=40 + i) for i in range(4)]
        rng = np.random.default_rng(22)
        streams = {
            spec.tenant_id: [rng.random(4) for _ in range(24)] for spec in specs
        }
        errors = []

        def appender(spec):
            try:
                for batch in streams[spec.tenant_id]:
                    service.append(spec.tenant_id, batch)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        monkeypatch.setattr(partition_module, "INBOX_SIZE", 1)
        monkeypatch.setattr(service_module, "STAGE_ITEMS", 1)
        with IngestService(specs, workers=2) as service:
            threads = [
                threading.Thread(target=appender, args=(spec,)) for spec in specs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            stats = service.flush()
            assert stats["items_ingested"] == 4 * 24 * 4
            releases = {
                spec.tenant_id: _release_bytes(service.release(spec.tenant_id))
                for spec in specs
            }
        for spec in specs:
            assert releases[spec.tenant_id] == _control_release(
                spec, streams[spec.tenant_id]
            )

    def test_rate_limiter_is_exact_under_concurrent_callers(self):
        """Concurrent throttle calls must never lose a consumed token: the
        total admitted without wait can exceed the burst by at most the
        refill that elapsed, and the final bucket reflects every item."""
        limiter = RateLimiter(rate=1e-6, burst=1000)  # effectively no refill
        free = []

        def consume():
            for _ in range(100):
                if limiter.throttle("shared", 1) == 0.0:
                    free.append(1)

        threads = [threading.Thread(target=consume) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # 800 items consumed against a burst of 1000 and ~zero refill:
        # every one was admitted free, and the bucket saw all of them.
        tokens, _ = limiter._buckets["shared"]
        assert len(free) == 800
        assert tokens == pytest.approx(200.0, abs=1e-3)

    def test_reply_timeout_is_validated_and_plumbed(self):
        with pytest.raises(ValueError, match="reply_timeout"):
            IngestService(workers=1, reply_timeout=0.0)
        with IngestService(workers=2, reply_timeout=5.0) as service:
            assert service.reply_timeout == 5.0
            assert all(worker.reply_timeout == 5.0 for worker in service._workers)


# --------------------------------------------------------------------------- #
# update_segments: the fused multi-batch application
# --------------------------------------------------------------------------- #
#: name -> (domain, draw(rng, n) -> n points, hierarchy depth)
SEGMENT_DOMAINS = {
    "interval": (UnitInterval(), lambda rng, n: rng.beta(2.0, 5.0, n), 14),
    "hypercube": (Hypercube(2), lambda rng, n: rng.random((n, 2)), 12),
    "ipv4": (IPv4Domain(), lambda rng, n: rng.integers(0, 2**32, n), 20),
    "discrete": (DiscreteDomain(97), lambda rng, n: rng.integers(0, 97, n), 7),
    "geo": (
        GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0),
        lambda rng, n: np.column_stack(
            [24.0 + 25.0 * rng.random(n), -125.0 + 59.0 * rng.random(n)]
        ),
        12,
    ),
}

#: Runs of segment lengths: empty and one-item segments, small ones, and
#: segments above 512 items.
segment_lengths = st.lists(
    st.one_of(st.sampled_from([0, 1]), st.integers(2, 64), st.integers(513, 700)),
    min_size=1,
    max_size=4,
)

SEGMENT_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _segment_config(depth: int, seed: int, cutoff: int = 4) -> PrivHPConfig:
    return PrivHPConfig(
        epsilon=1.0,
        pruning_k=4,
        depth=depth,
        level_cutoff=cutoff,
        sketch_width=8,
        sketch_depth=3,
        seed=seed,
    )


def _segment_cutoffs(name: str):
    """Cut-offs of the oracle tests: 0 and 4 everywhere, and the depth itself
    on the discrete domain, the one shallow enough to enumerate every cell."""
    depth = SEGMENT_DOMAINS[name][2]
    return st.sampled_from([0, 4, depth] if name == "discrete" else [0, 4])


def _prefix_counts(paths, level: int) -> np.ndarray:
    """The dense level-``level`` histogram of scalar ``locate`` paths."""
    expected = Counter(path[:level] for path in paths)
    return np.array(
        [expected[theta] for theta in itertools.product((0, 1), repeat=level)], dtype=float
    )


class TestUpdateSegments:
    #: Segment-length runs; the second has segments above 512 items.
    SEGMENTS = [[16, 0, 7, 33, 1, 0, 64], [600, 0, 1024, 13]]

    @pytest.mark.parametrize("continual", [False, True])
    def test_byte_identical_to_sequential_batches(self, continual):
        for index, sizes in enumerate(self.SEGMENTS):
            segments = [np.random.default_rng(31 + index).random(n) for n in sizes]
            spec = TenantSpec("seg", stream_size=2048, seed=9, continual=continual)
            fused = spec.build_summarizer()
            domain = spec.make_domain()
            stream = domain.coerce_stream(np.concatenate(segments))
            fused.update_segments(stream, sizes)
            assert _release_bytes(fused.release()) == _control_release(spec, segments), sizes

    @SEGMENT_SETTINGS
    @given(
        name=st.sampled_from(sorted(SEGMENT_DOMAINS)),
        lengths=segment_lengths,
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_raw_state_matches_scalar_oracles(self, name, lengths, seed, data):
        """Exact levels hold the prefix counts of scalar ``locate``; each
        sketch's table is the Python-int oracle's: each segment's cell
        counts, cells in ascending order, added at ``buckets(key)[row]`` of
        the level's hash family, key ``1 b_0 .. b_{l-1}`` for the cell
        ``b_0 .. b_{l-1}``.  The cut-off is 0, 4 or, on the discrete domain,
        its depth, where no sketch level exists."""
        domain, draw, depth = SEGMENT_DOMAINS[name]
        points = draw(np.random.default_rng(seed), sum(lengths))
        config = _segment_config(depth, seed, data.draw(_segment_cutoffs(name), label="cutoff"))
        summarizer = PrivHP(domain, config, add_noise=False)
        summarizer.update_segments(points, lengths)
        assert summarizer.items_processed == sum(lengths)

        paths = [domain.locate(point, depth) for point in points]
        for level in range(config.level_cutoff + 1):
            _, counts = summarizer.tree.level(level)
            assert np.array_equal(counts, _prefix_counts(paths, level)), level
        for level, sketch in summarizer.sketches.items():
            family = HashFamily(config.sketch_depth, config.sketch_width, seed=sketch.seed)
            oracle = np.zeros((config.sketch_depth, config.sketch_width))
            start = 0
            for length in lengths:
                cells = Counter(path[:level] for path in paths[start : start + length])
                for theta in sorted(cells):
                    key = int("".join(map(str, (1, *theta))), 2)
                    for row, bucket in enumerate(family.buckets(key)):
                        oracle[row, bucket] += float(cells[theta])
                start += length
            assert np.array_equal(sketch.table, oracle), level

    @SEGMENT_SETTINGS
    @given(
        name=st.sampled_from(sorted(SEGMENT_DOMAINS)),
        lengths=segment_lengths,
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_continual_banks_match_scalar_oracles(self, name, lengths, seed, data):
        """Each exact level's counter bank holds, as its exact running
        counts, the prefix counts of scalar ``locate``; each non-empty
        segment is one event."""
        domain, draw, depth = SEGMENT_DOMAINS[name]
        points = draw(np.random.default_rng(seed), sum(lengths))
        config = _segment_config(depth, seed, data.draw(_segment_cutoffs(name), label="cutoff"))
        summarizer = PrivHPContinual(domain, config, horizon=max(1, sum(lengths)))
        summarizer.update_segments(points, lengths)
        assert summarizer.items_processed == sum(lengths)
        assert summarizer.events == sum(1 for length in lengths if length)

        paths = [domain.locate(point, depth) for point in points]
        for level, bank in summarizer.banks.items():
            assert np.array_equal(bank.true_counts(), _prefix_counts(paths, level)), level

    @SEGMENT_SETTINGS
    @given(
        name=st.sampled_from(sorted(SEGMENT_DOMAINS)),
        lengths=segment_lengths,
        seed=st.integers(0, 2**16),
        continual=st.booleans(),
    )
    def test_noisy_releases_are_consistent_and_spend_epsilon(
        self, name, lengths, seed, continual
    ):
        domain, draw, depth = SEGMENT_DOMAINS[name]
        points = draw(np.random.default_rng(seed), sum(lengths))
        config = _segment_config(depth, seed)
        if continual:
            summarizer = PrivHPContinual(domain, config, horizon=max(1, sum(lengths)))
        else:
            summarizer = PrivHP(domain, config)
        release = summarizer.update_segments(points, lengths).release()
        assert release.tree.is_consistent()
        ledger = sum(epsilon for epsilon, _label in release.metadata["privacy_ledger"])
        assert ledger == pytest.approx(config.epsilon, abs=1e-9)

    @pytest.mark.parametrize("continual", [False, True])
    def test_segment_length_validation(self, continual):
        spec = TenantSpec("bad", stream_size=64, seed=1, continual=continual)
        summarizer = spec.build_summarizer()
        points = spec.make_domain().coerce_stream(np.linspace(0.0, 1.0, 8))
        with pytest.raises(ValueError, match="non-negative"):
            summarizer.update_segments(points, [9, -1])
        with pytest.raises(ValueError, match="sum to"):
            summarizer.update_segments(points, [4, 3])


# --------------------------------------------------------------------------- #
# asynchronous checkpoint writer
# --------------------------------------------------------------------------- #
class TestCheckpointWriter:
    @staticmethod
    def _summarizer(seed: int, items: int = 16):
        spec = TenantSpec("w", stream_size=64, seed=seed)
        summarizer = spec.build_summarizer()
        domain = spec.make_domain()
        summarizer.update_batch(domain.coerce_stream(np.linspace(0.0, 1.0, items)))
        return summarizer

    def test_write_lands_and_round_trips(self, tmp_path):
        from repro.io import CheckpointWriter
        from repro.io.serialization import load_checkpoint

        summarizer = self._summarizer(seed=1)
        expected = _release_bytes(self._summarizer(seed=1).release())
        writer = CheckpointWriter()
        try:
            path = tmp_path / "w.state.bin"
            writer.submit("w", summarizer, path)
            assert writer.wait_for("w", timeout=30.0)
            assert path.exists()
            assert _release_bytes(load_checkpoint(path).release()) == expected
            assert writer.pop_errors() == []
        finally:
            writer.close()

    def test_resubmits_coalesce_to_the_newest_state(self, tmp_path):
        """Rapid resubmits of one stem supersede in place: every ticket is
        accounted for as a write or a skip, and the file that lands is
        loadable (write coalescing, not write loss)."""
        from repro.io import CheckpointWriter
        from repro.io.serialization import load_checkpoint

        writer = CheckpointWriter()
        try:
            path = tmp_path / "w.state.bin"
            versions = 10
            for index in range(versions):
                writer.submit("w", self._summarizer(seed=2, items=8 + index), path)
            assert writer.drain(timeout=30.0)
            assert writer.writes + writer.skipped_writes == versions
            assert writer.writes >= 1
            restored = load_checkpoint(path)
            assert restored.items_processed in range(8, 8 + versions)
        finally:
            writer.close()

    def test_take_back_returns_pending_state_without_disk(self, tmp_path):
        from repro.io import CheckpointWriter

        writer = CheckpointWriter()
        try:
            summarizer = self._summarizer(seed=3)
            writer.submit("w", summarizer, tmp_path / "w.state.bin")
            reclaimed = writer.take_back("w", timeout=30.0)
            # Either reclaimed before the write started (identity preserved)
            # or the write already finished and take_back found nothing.
            assert reclaimed is summarizer or reclaimed is None
            assert writer.pop_errors() == []
        finally:
            writer.close()

    def test_errors_are_reported_not_raised(self, tmp_path):
        from repro.io import CheckpointWriter

        writer = CheckpointWriter()
        try:
            missing = tmp_path / "not" / "a" / "dir" / "w.state.bin"
            writer.submit("w", self._summarizer(seed=4), missing)
            writer.drain(timeout=30.0)
            errors = writer.pop_errors()
            assert len(errors) == 1 and errors[0][0] == "w"
        finally:
            writer.close()

    def test_close_is_idempotent(self):
        from repro.io import CheckpointWriter

        writer = CheckpointWriter()
        writer.close()
        writer.close()


# --------------------------------------------------------------------------- #
# live serving over HTTP
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def _running_server(store: ReleaseStore):
    server = create_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


def _post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


class TestLiveServing:
    def test_tenant_is_queryable_once_it_has_data(self):
        store = ReleaseStore()
        spec = TenantSpec("live", stream_size=512, seed=8, continual=True)
        with IngestService(workers=1, store=store) as service:
            service.register(spec)
            assert not store.is_live("live")  # no data yet
            service.append("live", np.linspace(0.0, 1.0, 64))
            service.flush()
            assert store.is_live("live")
            with _running_server(store) as url:
                answer = _post(
                    url + "/query",
                    {"release": "live", "query": {"type": "mass", "lower": 0.0, "upper": 1.0}},
                )
                assert answer["answer"] == pytest.approx(1.0)
                assert answer["items_processed"] == 64

    def test_unregister_live_yields_404(self):
        store = ReleaseStore()
        spec = TenantSpec("gone", stream_size=256, seed=9, continual=True)
        with IngestService(workers=1, store=store) as service:
            service.register(spec)
            service.append("gone", np.linspace(0.0, 1.0, 32))
            service.flush()
            with _running_server(store) as url:
                _post(
                    url + "/query",
                    {"release": "gone", "query": {"type": "mass", "lower": 0.0, "upper": 0.5}},
                )
                assert store.unregister_live("gone") is True
                assert store.unregister_live("gone") is False  # idempotent
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(
                        url + "/query",
                        {"release": "gone", "query": {"type": "mass", "lower": 0.0, "upper": 0.5}},
                    )
                assert excinfo.value.code == 404
                excinfo.value.close()

    def test_eviction_unregisters_release_republishes_static(self, tmp_path):
        store = ReleaseStore()
        spec = TenantSpec("cycle", stream_size=256, seed=10, continual=True)
        with IngestService(workers=1, checkpoint_dir=tmp_path, store=store) as service:
            service.register(spec)
            service.append("cycle", np.linspace(0.0, 1.0, 32))
            service.flush()
            assert store.is_live("cycle")
            service.evict("cycle")
            assert not store.is_live("cycle")  # dead summarizer must 404
            service.append("cycle", np.linspace(0.0, 1.0, 32))
            service.flush()
            assert store.is_live("cycle")  # restored and re-announced
            service.release("cycle")
            assert not store.is_live("cycle")
            assert "cycle" in store  # static release remains queryable
            assert store.get("cycle").items_processed == 64

    def test_close_unregisters_all_live_tenants(self):
        store = ReleaseStore()
        service = IngestService(workers=2, store=store)
        for i in range(4):
            service.register(
                TenantSpec(f"c{i}", stream_size=128, seed=i, continual=True)
            )
            service.append(f"c{i}", np.linspace(0.0, 1.0, 16))
        service.flush()
        assert sum(store.is_live(f"c{i}") for i in range(4)) == 4
        service.close()
        assert sum(store.is_live(f"c{i}") for i in range(4)) == 0


class TestReadYourWrites:
    """A live answer covers every append the service accepted before the
    query, flushed or not: a client that appended waits inside one request
    instead of polling until its data shows."""

    QUERY = {"type": "mass", "lower": 0.0, "upper": 0.5}

    @pytest.fixture(autouse=True)
    def _appends_stay_staged(self, monkeypatch):
        """An hour-long flush interval: a staged append reaches the worker
        only when a query, a flush or a full buffer ships it."""
        monkeypatch.setattr(service_module, "FLUSH_INTERVAL_S", HOUR_S)

    def test_unflushed_append_is_covered_by_the_next_answer(self):
        store = ReleaseStore()
        with IngestService(workers=1, store=store) as service:
            service.register(TenantSpec("mine", stream_size=1024, seed=11, continual=True))
            service.append("mine", np.linspace(0.0, 1.0, 64))
            service.flush()
            queries = QueryService(store)
            assert queries.answer(self.QUERY, release="mine")["items_processed"] == 64
            service.append("mine", np.linspace(0.0, 1.0, 32))
            assert service.items_processed("mine") == 64  # still staged
            answer = queries.answer(self.QUERY, release="mine")
            assert answer["items_processed"] == 96 and answer["cached"] is False
            assert service.items_processed("mine") == 96

    def test_failed_append_moves_the_version_once(self, monkeypatch):
        """An append past the horizon is accepted, then fails at the worker:
        the next read re-snapshots at most once and later reads reuse that
        snapshot, rather than re-snapshotting on every query."""
        store = ReleaseStore()
        with IngestService(workers=1, store=store) as service:
            service.register(TenantSpec("full", stream_size=64, seed=12, continual=True))
            service.append("full", np.linspace(0.0, 1.0, 60))
            service.flush()
            assert store.get("full").items_processed == 60
            calls = []
            snapshot = service.snapshot

            def counting_snapshot(*args, **kwargs):
                calls.append(args)
                return snapshot(*args, **kwargs)

            monkeypatch.setattr(service, "snapshot", counting_snapshot)
            service.append("full", np.linspace(0.0, 1.0, 32))
            reads = [store.get("full") for _ in range(3)]
            assert all(read is reads[0] for read in reads)
            assert reads[0].items_processed == 60 and len(calls) <= 1
            with pytest.raises(AppendError) as excinfo:
                service.flush()
            assert [tenant for tenant, _ in excinfo.value.failures] == ["full"]

    def test_appenders_read_their_writes_under_contention(self, monkeypatch):
        """Four appender threads, two per tenant, beside two workers on a
        short switch interval.  After each append a thread reads the
        tenant's accepted count, and its next answer covers at least that
        many items; a lost update to the count, or a snapshot that missed a
        counted batch, breaks it."""
        tenants, rounds, batch = ("a", "b"), 200, 8
        store = ReleaseStore()
        errors: list[BaseException] = []
        monkeypatch.setattr(service_module, "STAGE_ITEMS", 64)
        with IngestService(workers=2, store=store) as service:
            for index, tenant in enumerate(tenants):
                service.register(
                    TenantSpec(tenant, stream_size=1 << 14, seed=40 + index, continual=True)
                )
                service.append(tenant, np.linspace(0.0, 1.0, batch))
            service.flush()
            queries = QueryService(store)

            def append_and_read(tenant: str, seed: int) -> None:
                rng = np.random.default_rng(seed)
                try:
                    for step in range(rounds):
                        service.append(tenant, rng.random(batch))
                        accepted = service.items_accepted(tenant)
                        if step % 4 == 3:
                            seen = queries.answer(self.QUERY, release=tenant)["items_processed"]
                            assert seen >= accepted, (tenant, seen, accepted)
                except BaseException as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=append_and_read, args=(tenants[index % 2], 50 + index))
                for index in range(4)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            expected = batch * (1 + 2 * rounds)
            assert [service.items_accepted(tenant) for tenant in tenants] == [expected] * 2
            service.flush()
            assert [service.items_processed(tenant) for tenant in tenants] == [expected] * 2

    def test_query_racing_the_release_answers_from_the_final_release(self):
        """A query reads the tenant's live entry, then ``release()`` lands
        before its snapshot: the worker refuses to snapshot the sealed
        stream, and the query answers from the final release the service
        registered under the name, as if it had arrived a moment later."""
        store = ReleaseStore()
        with IngestService(workers=1, store=store) as service:
            service.register(TenantSpec("ends", stream_size=256, seed=13, continual=True))
            service.append("ends", np.linspace(0.0, 1.0, 64))
            service.flush()
            handle = LiveTenantHandle(service, "ends")
            armed, released = [], []

            class ReleasedAfterTheEntryWasRead:
                @property
                def items_processed(self) -> int:
                    return handle.items_processed

                @property
                def items_accepted(self) -> int:
                    if armed and not released:
                        released.append(service.release("ends"))
                    return handle.items_accepted

                def snapshot(self):
                    return handle.snapshot()

            store.register_live("ends", ReleasedAfterTheEntryWasRead())
            armed.append(True)
            answer = QueryService(store).answer(self.QUERY, release="ends")
            assert len(released) == 1 and not store.is_live("ends")
            assert answer["answer"] == released[0].mass(0.0, 0.5)
            assert "items_processed" not in answer and answer["cached"] is False


class TestConcurrentIngestAndServe:
    def test_threads_append_disjoint_tenants_while_http_queries_run(self):
        """ISSUE satellite: N threads appending to disjoint tenants while
        HTTP queries hit the live snapshots; every answer is well-formed
        and every tenant's final release is deterministic."""
        n_threads = 4
        batches_per_tenant = 6
        store = ReleaseStore()
        specs = [
            TenantSpec(f"conc-{i}", stream_size=1024, seed=20 + i, continual=True)
            for i in range(n_threads)
        ]
        streams = {
            spec.tenant_id: [
                np.random.default_rng(100 + 10 * i + j).random(32)
                for j in range(batches_per_tenant)
            ]
            for i, spec in enumerate(specs)
        }
        errors: list[BaseException] = []
        with IngestService(specs, workers=n_threads, store=store) as service:
            # Seed every tenant so all are live before queries start.
            for spec in specs:
                service.append(spec.tenant_id, streams[spec.tenant_id][0])
            service.flush()

            def ingest(tenant_id: str) -> None:
                try:
                    for batch in streams[tenant_id][1:]:
                        service.append(tenant_id, batch)
                except BaseException as error:  # pragma: no cover - fail loud
                    errors.append(error)

            with _running_server(store) as url:
                threads = [
                    threading.Thread(target=ingest, args=(spec.tenant_id,))
                    for spec in specs
                ]
                for thread in threads:
                    thread.start()
                answers = []
                for _ in range(20):
                    for spec in specs:
                        answers.append(
                            _post(
                                url + "/query",
                                {
                                    "release": spec.tenant_id,
                                    "query": {"type": "mass", "lower": 0.0, "upper": 1.0},
                                },
                            )
                        )
                for thread in threads:
                    thread.join()
            assert not errors
            for answer in answers:
                assert answer["answer"] == pytest.approx(1.0)
            releases = {
                spec.tenant_id: _release_bytes(service.release(spec.tenant_id))
                for spec in specs
            }
        for spec in specs:
            assert releases[spec.tenant_id] == _control_release(
                spec, streams[spec.tenant_id]
            )


# --------------------------------------------------------------------------- #
# intake: files, spool directory, rate limiting
# --------------------------------------------------------------------------- #
class TestIntake:
    def test_jsonl_records(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(
            '{"tenant": "a", "values": [0.1, 0.2]}\n'
            '{"tenant": "b", "value": 0.5}\n'
        )
        records = [(t, list(np.asarray(v))) for t, v in iter_append_records(path)]
        assert records == [("a", [0.1, 0.2]), ("b", [0.5])]

    def test_csv_coalesces_consecutive_tenant_rows(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a,0.1\na,0.2\nb,0.3\na,0.4\n")
        records = [(t, len(np.asarray(v))) for t, v in iter_append_records(path)]
        assert records == [("a", 2), ("b", 1), ("a", 1)]

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tenant": "a", "values": [0.1]}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            list(iter_append_records(path))

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "in.parquet"
        path.write_text("")
        with pytest.raises(ValueError, match="parquet"):
            list(iter_append_records(path))

    def test_ingest_file_counts(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"tenant": "a", "values": [0.1, 0.2, 0.3]}\n')
        with IngestService(workers=1) as service:
            service.register(TenantSpec("a", stream_size=64, seed=1))
            counts = ingest_file(service, path)
            assert counts == {"batches": 1, "items": 3}
            service.flush()  # appends are asynchronous until a flush barrier
            assert service.items_processed("a") == 3

    def test_watch_directory_once_renames_done(self, tmp_path):
        (tmp_path / "b.jsonl").write_text('{"tenant": "a", "values": [0.2]}\n')
        (tmp_path / "a.jsonl").write_text('{"tenant": "a", "values": [0.1]}\n')
        (tmp_path / "ignored.txt").write_text("not intake")
        seen = []
        with IngestService(workers=1) as service:
            service.register(TenantSpec("a", stream_size=64, seed=1))
            totals = watch_directory(
                service, tmp_path, once=True, on_file=lambda p, c: seen.append(p.name)
            )
        assert totals == {"files": 2, "batches": 2, "items": 2}
        assert seen == ["a.jsonl", "b.jsonl"]  # sorted order
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["a.jsonl.done", "b.jsonl.done", "ignored.txt"]

    def test_rate_limiter_with_fake_clock(self):
        now = [0.0]
        limiter = RateLimiter(rate=100.0, burst=50, clock=lambda: now[0])
        assert limiter.throttle("a", 50) == 0.0  # burst absorbs
        assert limiter.throttle("a", 25) == pytest.approx(0.25)
        assert limiter.throttle("b", 25) == 0.0  # independent bucket
        now[0] += 1.0  # refill clears the deficit and recaps at the burst
        assert limiter.throttle("a", 50) == 0.0
        assert limiter.throttle("a", 25) == pytest.approx(0.25)
        slept = []
        delay = limiter.wait("a", 100, sleep=slept.append)
        assert delay > 0 and slept == [delay]

    def test_rate_limiter_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0.0)
        with pytest.raises(ValueError):
            RateLimiter(rate=10.0, burst=0)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestIngestCLI:
    def _write_fleet(self, tmp_path, tenants=4):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        document = {
            "tenants": [
                {
                    "tenant_id": f"t{i}",
                    "stream_size": 64,
                    "seed": i,
                    "continual": i % 2 == 0,
                }
                for i in range(tenants)
            ]
        }
        (spec_dir / "fleet.json").write_text(json.dumps(document))
        intake = tmp_path / "day.jsonl"
        rng = np.random.default_rng(6)
        with intake.open("w") as handle:
            for i in range(tenants):
                handle.write(
                    json.dumps({"tenant": f"t{i}", "values": rng.random(8).tolist()})
                    + "\n"
                )
        return spec_dir, intake

    def test_ingest_release_dir(self, tmp_path, capsys):
        from repro.cli import main

        spec_dir, intake = self._write_fleet(tmp_path)
        out_dir = tmp_path / "releases"
        code = main(
            [
                "ingest",
                "--specs", str(spec_dir),
                "--append", str(intake),
                "--workers", "2",
                "--release-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert sorted(p.stem for p in out_dir.glob("*.json")) == [
            "t0", "t1", "t2", "t3",
        ]
        output = capsys.readouterr().out
        assert "released 4 tenant(s)" in output

    def test_ingest_accepts_coalescing_flags(self, tmp_path, capsys):
        """``--reply-timeout`` is the one coalescing flag left; the staging,
        flushing and checkpoint-format flags are gone and exit 2."""
        from repro.cli import main

        spec_dir, intake = self._write_fleet(tmp_path)
        out_dir = tmp_path / "releases"
        code = main(
            [
                "ingest",
                "--specs", str(spec_dir),
                "--append", str(intake),
                "--workers", "2",
                "--reply-timeout", "30",
                "--release-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert sorted(p.stem for p in out_dir.glob("*.json")) == [
            "t0", "t1", "t2", "t3",
        ]
        assert "released 4 tenant(s)" in capsys.readouterr().out
        for flag, value in (
            ("--flush-interval", "0"),
            ("--staging-items", "1"),
            ("--staging-bytes", "65536"),
            ("--checkpoint-format", "json"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(["ingest", "--specs", str(spec_dir), flag, value])
            assert excinfo.value.code == 2, flag

    def test_ingest_snapshot_single_tenant(self, tmp_path):
        from repro.api.release import Release
        from repro.cli import main

        spec_dir, intake = self._write_fleet(tmp_path)
        out = tmp_path / "snap.json"
        code = main(
            [
                "ingest",
                "--specs", str(spec_dir),
                "--append", str(intake),
                "--snapshot", "t0",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert Release.load(out).items_processed == 8

    def test_ingest_with_memory_budget_and_watch_once(self, tmp_path, capsys):
        from repro.cli import main

        spec_dir, intake = self._write_fleet(tmp_path)
        spool = tmp_path / "spool"
        spool.mkdir()
        intake.rename(spool / intake.name)
        code = main(
            [
                "ingest",
                "--specs", str(spec_dir),
                "--watch", str(spool),
                "--once",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--memory-budget-words", "2000",
            ]
        )
        assert code == 0
        assert (spool / "day.jsonl.done").exists()
        assert "ingested 32 item(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--specs", "{tmp}", "--burst", "5"],
            ["ingest", "--specs", "{tmp}", "--once"],
            ["ingest", "--specs", "{tmp}", "--snapshot", "t0"],
            ["ingest", "--specs", "{tmp}", "--snapshot", "t0", "--release", "t0",
             "--output", "x.json"],
        ],
    )
    def test_flag_conflicts_exit_2(self, tmp_path, argv):
        from repro.cli import main

        spec_dir, _intake = self._write_fleet(tmp_path)
        argv = [a.replace("{tmp}", str(spec_dir)) for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_empty_spec_dir_exits_2(self, tmp_path):
        from repro.cli import main

        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--specs", str(empty)])
        assert excinfo.value.code == 2
