"""Tests for the unified Summarizer/Release API (repro.api)."""

import json

import numpy as np
import pytest

from repro.api.builder import PrivHPBuilder
from repro.api.registry import (
    available_domains,
    available_methods,
    infer_domain,
    make_domain,
    make_method,
    register_domain,
)
from repro.api.release import Release
from repro.api.summarizer import StreamSummarizer, ingest_batches
from repro.baselines.base import PrivHPContinualMethod, PrivHPMethod
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.core.tree import PartitionTree
from repro.domain.discrete import DiscreteDomain
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain
from repro.io.serialization import load_checkpoint, save_checkpoint


def small_config(**overrides):
    defaults = dict(
        epsilon=1.0,
        pruning_k=4,
        depth=8,
        level_cutoff=4,
        sketch_width=8,
        sketch_depth=5,
        seed=0,
    )
    defaults.update(overrides)
    return PrivHPConfig(**defaults)


def domain_datasets(rng):
    """One (domain, data, config) triple per concrete domain."""
    geo = GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0)
    geo_points = np.column_stack(
        [24.0 + 25.0 * rng.random(300), -125.0 + 59.0 * rng.random(300)]
    )
    return [
        (UnitInterval(), rng.beta(2, 5, 400), small_config()),
        # The deepest config allowed: scalar and batch location must agree
        # past the 53 bits of a float's mantissa.
        (UnitInterval(), rng.beta(2, 5, 400), small_config(depth=62)),
        (Hypercube(2), rng.random((300, 2)), small_config()),
        (Hypercube(3), rng.random((200, 3)), small_config(depth=9, level_cutoff=3)),
        (geo, geo_points, small_config()),
        (IPv4Domain(), rng.integers(0, 2**32, 300), small_config(depth=12)),
        (DiscreteDomain(97), rng.integers(0, 97, 300), small_config(depth=6, level_cutoff=3)),
    ]


class TestBatchEquivalence:
    def test_batch_equals_sequential_on_every_domain(self, rng):
        """update_batch must produce identical raw state to per-item update."""
        for domain, data, config in domain_datasets(rng):
            sequential = PrivHP(domain, config, add_noise=False)
            for point in data:
                sequential.update(point)
            batched = PrivHP(domain, config, add_noise=False)
            batched.update_batch(data)

            assert batched.items_processed == sequential.items_processed
            assert batched.tree.as_dict() == sequential.tree.as_dict(), type(domain).__name__
            for level, sketch in sequential.sketches.items():
                assert np.array_equal(
                    batched.sketches[level].table, sketch.table
                ), f"{type(domain).__name__} level {level}"
                assert batched.sketches[level].updates == sketch.updates
                assert batched.sketches[level].total == pytest.approx(sketch.total)

    def test_batch_equals_sequential_with_noise(self, interval, rng):
        """In noisy mode the states agree up to float summation order."""
        data = rng.random(500)
        config = small_config()
        sequential = PrivHP(interval, config)
        for point in data:
            sequential.update(point)
        batched = PrivHP(interval, config)
        batched.update_batch(data)
        for theta, count in sequential.tree.as_dict().items():
            assert batched.tree.count(theta) == pytest.approx(count, abs=1e-9)

    def test_split_batches_equal_one_batch(self, interval, rng):
        data = rng.random(300)
        whole = PrivHP(interval, small_config(), add_noise=False).update_batch(data)
        parts = PrivHP(interval, small_config(), add_noise=False)
        for chunk in np.array_split(data, 7):
            parts.update_batch(chunk)
        assert whole.tree.as_dict() == parts.tree.as_dict()

    def test_empty_batch_is_a_no_op(self, interval):
        algorithm = PrivHP(interval, small_config(), add_noise=False)
        algorithm.update_batch(np.array([]))
        assert algorithm.items_processed == 0

    def test_update_batch_returns_self_and_rejects_after_release(self, interval, rng):
        algorithm = PrivHP(interval, small_config())
        assert algorithm.update_batch(rng.random(50)) is algorithm
        algorithm.release()
        with pytest.raises(RuntimeError):
            algorithm.update_batch(rng.random(10))


class TestShardMerge:
    def test_merge_equals_single_stream_released_tree(self, interval, rng):
        """N-way shard merge must release the same tree as one stream (same noise)."""
        data = rng.beta(2, 6, 1200)
        builder = (
            PrivHPBuilder(interval).epsilon(1.0).pruning_k(8).stream_size(len(data)).seed(3)
        )
        shards = builder.build_shards(4)
        for shard, part in zip(shards, np.array_split(data, 4)):
            shard.update_batch(part)
        merged_release = PrivHP.merge_all(shards).release()

        single = builder.build_shard()
        single.update_batch(data)
        single_release = single.release()

        merged_tree = merged_release.tree.as_dict()
        single_tree = single_release.tree.as_dict()
        assert set(merged_tree) == set(single_tree)
        for theta, count in single_tree.items():
            assert merged_tree[theta] == pytest.approx(count, abs=1e-9)

    def test_merged_release_passes_budget_accounting(self, interval, rng):
        data = rng.random(600)
        builder = (
            PrivHPBuilder(interval).epsilon(0.7).pruning_k(4).stream_size(len(data)).seed(0)
        )
        shards = builder.build_shards(3)
        for shard, part in zip(shards, np.array_split(data, 3)):
            shard.update_batch(part)
        merged = PrivHP.merge_all(shards)
        assert merged.accountant.spent == 0.0  # raw shards spent nothing yet
        release = merged.release()
        merged.accountant.assert_within_budget()
        assert merged.accountant.spent == pytest.approx(0.7)
        assert release.epsilon == pytest.approx(0.7)

    def test_merge_tracks_items_processed(self, interval, rng):
        builder = PrivHPBuilder(interval).stream_size(200).seed(0)
        first, second = builder.build_shards(2)
        first.update_batch(rng.random(120))
        second.update_batch(rng.random(80))
        assert first.merge(second).items_processed == 200

    def test_merging_noisy_summarizers_rejected(self, interval):
        noisy_a = PrivHP(interval, small_config())
        noisy_b = PrivHP(interval, small_config())
        with pytest.raises(ValueError):
            noisy_a.merge(noisy_b)

    def test_merging_different_configs_rejected(self, interval):
        shard_a = PrivHP(interval, small_config(), add_noise=False)
        shard_b = PrivHP(interval, small_config(pruning_k=8), add_noise=False)
        with pytest.raises(ValueError):
            shard_a.merge(shard_b)

    def test_merging_different_domains_rejected(self):
        shard_a = PrivHP(UnitInterval(), small_config(), add_noise=False)
        shard_b = PrivHP(Hypercube(1), small_config(), add_noise=False)
        with pytest.raises(ValueError):
            shard_a.merge(shard_b)

    def test_merge_all_requires_a_shard(self):
        with pytest.raises(ValueError):
            PrivHP.merge_all([])

    def test_partition_tree_merge_sums_counts(self):
        left = PartitionTree.from_cells({(): 3.0, (0,): 2.0, (1,): 1.0})
        right = PartitionTree.from_cells({(): 1.0, (0,): 0.0, (1,): 4.0})
        merged = left.merge(right)
        assert merged.as_dict() == {(): 4.0, (0,): 2.0, (1,): 5.0}


class TestCheckpointRestore:
    def test_round_trip_release_is_byte_for_byte(self, interval, rng, tmp_path):
        """checkpoint -> restore -> release must equal the uninterrupted run exactly."""
        data = rng.beta(2, 5, 800)
        builder = (
            PrivHPBuilder(interval).epsilon(1.0).pruning_k(4).stream_size(len(data)).seed(11)
        )
        original = builder.build()
        original.update_batch(data[:400])
        path = save_checkpoint(original, tmp_path / "state.json")

        restored = load_checkpoint(path)
        original.update_batch(data[400:])
        restored.update_batch(data[400:])

        original_doc = json.dumps(original.release().to_dict(), sort_keys=True)
        restored_doc = json.dumps(restored.release().to_dict(), sort_keys=True)
        assert original_doc == restored_doc

    def test_round_trip_of_raw_shard_defers_noise_identically(self, interval, rng, tmp_path):
        data = rng.random(500)
        builder = (
            PrivHPBuilder(interval).epsilon(1.0).pruning_k(4).stream_size(len(data)).seed(5)
        )
        shard = builder.build_shard()
        shard.update_batch(data)
        path = save_checkpoint(shard, tmp_path / "shard.json")
        restored = load_checkpoint(path)
        assert not restored.noise_applied
        assert shard.release().tree.as_dict() == restored.release().tree.as_dict()

    def test_restored_accountant_preserves_ledger(self, interval, rng, tmp_path):
        algorithm = PrivHP(interval, small_config(epsilon=0.5))
        algorithm.update_batch(rng.random(100))
        restored = load_checkpoint(save_checkpoint(algorithm, tmp_path / "s.json"))
        assert restored.accountant.spent == pytest.approx(algorithm.accountant.spent)
        assert restored.items_processed == 100
        restored.accountant.assert_within_budget()

    def test_checkpoint_after_release_rejected(self, interval, rng):
        algorithm = PrivHP(interval, small_config())
        algorithm.update_batch(rng.random(50))
        algorithm.release()
        with pytest.raises(RuntimeError):
            algorithm.checkpoint()

    def test_non_default_bit_generator_round_trips(self, interval, rng, tmp_path):
        """MT19937/Philox state carries ndarrays that must survive JSON."""
        data = rng.random(200)
        config = small_config()
        original = PrivHP(interval, config, rng=np.random.Generator(np.random.MT19937(3)))
        original.update_batch(data[:100])
        restored = load_checkpoint(save_checkpoint(original, tmp_path / "mt.json"))
        original.update_batch(data[100:])
        restored.update_batch(data[100:])
        assert original.release().tree.as_dict() == restored.release().tree.as_dict()

    def test_future_checkpoint_version_rejected(self, interval, rng, tmp_path):
        algorithm = PrivHP(interval, small_config())
        path = save_checkpoint(algorithm, tmp_path / "s.json")
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1, "state": {}}))
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestBuilder:
    def test_build_resolves_paper_defaults(self, interval):
        summarizer = (
            PrivHPBuilder(interval).epsilon(2.0).pruning_k(16).stream_size(4096).seed(1).build()
        )
        expected = PrivHPConfig.from_stream_size(4096, epsilon=2.0, pruning_k=16, seed=1)
        assert summarizer.config == expected

    def test_domain_accepts_registry_specs(self):
        summarizer = PrivHPBuilder("hypercube:3").stream_size(100).build()
        assert isinstance(summarizer.domain, Hypercube)
        assert summarizer.domain.dimension == 3

    def test_overrides_forwarded(self):
        summarizer = PrivHPBuilder("interval").stream_size(1000).override(depth=9).build()
        assert summarizer.config.depth == 9

    def test_explicit_config_bypasses_defaults(self, interval):
        config = small_config()
        summarizer = PrivHPBuilder(interval).config(config).build()
        assert summarizer.config is config

    def test_explicit_config_conflicting_settings_rejected(self, interval):
        """An explicit config must not silently win over disagreeing setters."""
        config = small_config()
        with pytest.raises(ValueError, match="epsilon"):
            PrivHPBuilder(interval).config(config).epsilon(config.epsilon / 2).build()
        with pytest.raises(ValueError, match="stream_size"):
            PrivHPBuilder(interval).config(config).stream_size(10**6).build()
        with pytest.raises(ValueError, match="pruning_k"):
            PrivHPBuilder(interval).config(config).pruning_k(config.pruning_k + 1).build()
        with pytest.raises(ValueError, match="depth"):
            PrivHPBuilder(interval).config(config).override(depth=config.depth + 1).build()
        # Agreeing setters are fine.
        agreed = (
            PrivHPBuilder(interval)
            .config(config)
            .epsilon(config.epsilon)
            .pruning_k(config.pruning_k)
            .build()
        )
        assert agreed.config is config

    def test_stream_size_required_without_config(self, interval):
        with pytest.raises(ValueError):
            PrivHPBuilder(interval).build()

    def test_domain_required(self):
        with pytest.raises(ValueError):
            PrivHPBuilder().stream_size(100).build()

    def test_build_shards_share_config_and_hashes(self, interval):
        shards = PrivHPBuilder(interval).stream_size(500).seed(2).build_shards(3)
        assert len(shards) == 3
        assert all(not shard.noise_applied for shard in shards)
        seeds = {
            tuple(sketch.seed for sketch in shard.sketches.values()) for shard in shards
        }
        assert len(seeds) == 1

    def test_privhp_satisfies_protocol(self, interval):
        summarizer = PrivHPBuilder(interval).stream_size(100).build()
        assert isinstance(summarizer, StreamSummarizer)


class TestRegistry:
    @pytest.mark.parametrize(
        "spec, expected_type",
        [
            ("interval", UnitInterval),
            ("unit_interval", UnitInterval),
            ("hypercube:4", Hypercube),
            ("ipv4", IPv4Domain),
            ("geo:24,49,-125,-66", GeoDomain),
            ("discrete:512", DiscreteDomain),
        ],
    )
    def test_make_domain_specs(self, spec, expected_type):
        assert isinstance(make_domain(spec), expected_type)

    def test_domain_passthrough(self, interval):
        assert make_domain(interval) is interval

    def test_auto_infers_from_shape(self, rng):
        assert isinstance(make_domain("auto", data=rng.random(10)), UnitInterval)
        cube = make_domain("auto", data=rng.random((10, 3)))
        assert isinstance(cube, Hypercube) and cube.dimension == 3
        assert isinstance(infer_domain(rng.random(5)), UnitInterval)

    def test_auto_without_data_rejected(self):
        with pytest.raises(ValueError):
            make_domain("auto")

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            make_domain("banach")

    def test_bad_spec_arguments_raise_value_error(self):
        """Factory arity/type mistakes surface as ValueError, not TypeError."""
        with pytest.raises(ValueError, match="discrete domain takes"):
            make_domain("discrete")
        with pytest.raises(ValueError, match="hypercube domain takes"):
            make_domain("hypercube:2,3")
        with pytest.raises(ValueError, match="bad arguments"):
            make_domain("interval:3")

    def test_registration_extends_the_registry(self):
        register_domain("unit_interval_alias_for_test", lambda: UnitInterval())
        assert "unit_interval_alias_for_test" in available_domains()
        assert isinstance(make_domain("unit_interval_alias_for_test"), UnitInterval)

    def test_builtin_methods_registered(self):
        assert {"privhp", "pmm", "privtree", "quantile", "smooth", "srrw"} <= set(
            available_methods()
        )

    def test_make_method_constructs_adapter(self, interval):
        method = make_method("privhp", interval, epsilon=1.0, pruning_k=4, seed=0)
        assert isinstance(method, PrivHPMethod)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            make_method("does-not-exist")

    def test_importing_api_does_not_import_baselines(self):
        """Baseline registration is deferred to the first method lookup."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        source_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [source_root] + [p for p in [environment.get("PYTHONPATH")] if p]
        )
        code = (
            "import sys; import repro.api; "
            "loaded = [m for m in sys.modules if m.startswith('repro.baselines')]; "
            "assert not loaded, loaded"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=environment
        )
        assert result.returncode == 0, result.stderr


class TestRelease:
    def fitted_release(self, interval, rng):
        data = rng.beta(2, 5, 600)
        return (
            PrivHPBuilder(interval)
            .epsilon(1.0)
            .pruning_k(4)
            .stream_size(len(data))
            .seed(0)
            .build()
            .update_batch(data)
            .release()
        )

    def test_release_carries_metadata(self, interval, rng):
        release = self.fitted_release(interval, rng)
        assert release.epsilon == 1.0
        assert release.items_processed == 600
        assert release.memory_words > 0
        assert release.metadata["config"]["pruning_k"] == 4

    def test_save_load_round_trip(self, interval, rng, tmp_path):
        release = self.fitted_release(interval, rng)
        path = release.save(tmp_path / "release.json")
        loaded = Release.load(path, sampling_seed=0)
        assert loaded.epsilon == release.epsilon
        assert loaded.items_processed == release.items_processed
        assert loaded.tree.as_dict() == release.tree.as_dict()
        samples = loaded.sample(50)
        assert np.all((samples >= 0) & (samples <= 1))

    def test_sampling_seed_never_touches_tree(self, interval, rng, tmp_path):
        release = self.fitted_release(interval, rng)
        path = release.save(tmp_path / "release.json")
        first = Release.load(path, sampling_seed=1)
        second = Release.load(path, sampling_seed=2)
        assert first.tree.as_dict() == second.tree.as_dict()
        assert not np.array_equal(first.sample(100), second.sample(100))

    def test_reseed_affects_sampling_only(self, interval, rng):
        release = self.fitted_release(interval, rng)
        before = release.tree.as_dict()
        draw_a = release.reseed(7).sample(50)
        draw_b = release.reseed(7).sample(50)
        assert np.array_equal(draw_a, draw_b)
        assert release.tree.as_dict() == before

    def test_loading_legacy_generator_document(self, interval, rng, tmp_path):
        """Documents written by plain save_generator (no release metadata) load."""
        from repro.io.serialization import save_generator

        data = rng.random(300)
        config = small_config()
        generator = PrivHP(interval, config, rng=0).update_batch(data).release().generator
        path = save_generator(generator, tmp_path / "legacy.json", metadata={"epsilon": 1.0})
        release = Release.load(path)
        assert release.epsilon == 1.0
        assert release.sample(10).shape == (10,)


class TestRngPrecedence:
    def test_conflicting_int_rng_and_seed_rejected(self, interval):
        with pytest.raises(ValueError):
            PrivHP(interval, small_config(seed=0), rng=1)

    def test_matching_int_rng_accepted(self, interval):
        PrivHP(interval, small_config(seed=3), rng=3)

    def test_generator_rng_always_accepted(self, interval):
        PrivHP(interval, small_config(seed=0), rng=np.random.default_rng(99))

    def test_int_rng_with_unset_seed_accepted(self, interval):
        PrivHP(interval, small_config(seed=None), rng=42)

    def test_sketch_hash_seeds_derive_from_one_seed_sequence(self, interval):
        first = PrivHP(interval, small_config(seed=0))
        second = PrivHP(interval, small_config(seed=0))
        assert [s.seed for s in first.sketches.values()] == [
            s.seed for s in second.sketches.values()
        ]
        different = PrivHP(interval, small_config(seed=1))
        assert [s.seed for s in first.sketches.values()] != [
            s.seed for s in different.sketches.values()
        ]


class TestPrivHPMethodStreaming:
    def test_unsized_iterable_without_stream_size_rejected(self, interval, rng):
        method = PrivHPMethod(interval, epsilon=1.0, pruning_k=4, seed=0)
        with pytest.raises(ValueError):
            method.fit(iter(rng.random(100)), rng=0)

    def test_unsized_iterable_with_stream_size_fits(self, interval, rng):
        method = PrivHPMethod(interval, epsilon=1.0, pruning_k=4, seed=0, stream_size=100)
        sampler = method.fit(iter(rng.random(100)), rng=0)
        assert sampler.sample(20).shape == (20,)
        assert method.last_run.items_processed == 100

    def test_sized_data_uses_batches(self, interval, rng):
        method = PrivHPMethod(interval, epsilon=1.0, pruning_k=4, seed=0)
        method.batch_size = 64
        method.fit(rng.random(300), rng=0)
        assert method.last_run.items_processed == 300


class TestIngestBatchesLazySources:
    """ingest_batches accepts unsized iterables by chunking lazily."""

    def build(self, interval, n=200):
        return PrivHPBuilder(interval).stream_size(n).seed(0).build()

    def test_generator_source_matches_array_source(self, interval, rng):
        data = rng.random(200)
        from_array = ingest_batches(self.build(interval), data, 64)
        from_generator = ingest_batches(
            self.build(interval), (point for point in data), 64
        )
        assert from_generator.items_processed == 200
        assert from_generator.tree.as_dict() == from_array.tree.as_dict()

    def test_generator_buffers_at_most_one_batch(self, interval):
        """The lazy path never materialises the stream: update_batch sees
        chunks bounded by batch_size."""
        sizes = []
        summarizer = self.build(interval, n=100)
        original = summarizer.update_batch

        def recording(points):
            sizes.append(len(points))
            return original(points)

        summarizer.update_batch = recording
        ingest_batches(summarizer, (value / 100 for value in range(100)), 32)
        assert sizes == [32, 32, 32, 4]

    def test_empty_generator_is_a_no_op(self, interval):
        summarizer = ingest_batches(self.build(interval), iter(()), 32)
        assert summarizer.items_processed == 0

    def test_bad_batch_size_rejected_for_lazy_sources_too(self, interval):
        with pytest.raises(ValueError):
            ingest_batches(self.build(interval), iter([0.5]), 0)

    def test_continual_summarizer_accepts_generator_source(self, interval, rng):
        summarizer = (
            PrivHPBuilder(interval).stream_size(200).seed(0).continual().build()
        )
        data = rng.random(200)
        ingest_batches(summarizer, (point for point in data), 64)
        assert summarizer.items_processed == 200
        assert summarizer.events == 4


class TestBuilderContinual:
    def test_build_returns_continual_summarizer(self, interval):
        from repro.continual.privhp import PrivHPContinual

        summarizer = PrivHPBuilder(interval).stream_size(100).seed(0).continual().build()
        assert isinstance(summarizer, PrivHPContinual)
        assert summarizer.horizon == 100

    def test_explicit_horizon_overrides_stream_size(self, interval):
        summarizer = (
            PrivHPBuilder(interval).stream_size(100).seed(0).continual(horizon=500).build()
        )
        assert summarizer.horizon == 500

    def test_horizon_required(self, interval):
        builder = PrivHPBuilder(interval).config(
            PrivHPConfig.from_stream_size(100, epsilon=1.0, pruning_k=4, seed=0)
        ).continual()
        with pytest.raises(ValueError, match="horizon"):
            builder.build()

    def test_continual_shards_have_independent_noise_but_shared_hashes(self, interval):
        shards = (
            PrivHPBuilder(interval).stream_size(200).seed(3).continual().build_shards(3)
        )
        hash_seeds = {
            tuple(sketch.seed for sketch in shard._sketches.values()) for shard in shards
        }
        assert len(hash_seeds) == 1
        for shard in shards:
            shard.update_batch(np.full(10, 0.25))
        roots = {float(shard._banks[0].query_all()[0]) for shard in shards}
        assert len(roots) == 3  # same data, different noise draws


class TestContinualMethodRegistry:
    def test_privhp_continual_registered(self):
        assert "privhp-continual" in available_methods()

    def test_make_method_constructs_continual_adapter(self, interval):
        method = make_method(
            "privhp-continual", interval, epsilon=1.0, pruning_k=4, seed=0
        )
        assert isinstance(method, PrivHPContinualMethod)

    def test_fit_returns_sampler_over_snapshot(self, interval, rng):
        method = PrivHPContinualMethod(interval, epsilon=5.0, pruning_k=4, seed=0)
        sampler = method.fit(rng.random(300), rng=0)
        assert sampler.sample(20).shape == (20,)
        assert method.last_run.items_processed == 300
        assert method.memory_words() > 0
