"""Tests for the continual-observation extension (batch-native path)."""

import json

import numpy as np
import pytest

from repro.api.builder import PrivHPBuilder
from repro.api.release import Release
from repro.api.summarizer import StreamSummarizer, ingest_batches
from repro.continual.counter import BinaryMechanismCounter, BinaryMechanismCounterBank
from repro.continual.privhp import PrivHPContinual
from repro.continual.sketch import ContinualPrivateCountMinSketch
from repro.core.base import cell_keys
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.metrics.wasserstein import wasserstein1_1d


class TestBinaryMechanismCounter:
    def test_tracks_true_count_with_large_budget(self, rng):
        counter = BinaryMechanismCounter(epsilon=200.0, horizon=256, rng=rng)
        for step in range(1, 101):
            estimate = counter.step(1.0)
            assert estimate == pytest.approx(step, abs=2.0)

    def test_true_count_exact(self, rng):
        counter = BinaryMechanismCounter(epsilon=1.0, horizon=64, rng=rng)
        for _ in range(37):
            counter.step(1.0)
        assert counter.true_count == pytest.approx(37.0)

    def test_weighted_steps(self, rng):
        counter = BinaryMechanismCounter(epsilon=500.0, horizon=32, rng=rng)
        counter.step(2.5)
        counter.step(1.5)
        assert counter.query() == pytest.approx(4.0, abs=1.0)

    def test_query_before_any_step_is_zero(self, rng):
        counter = BinaryMechanismCounter(epsilon=1.0, horizon=8, rng=rng)
        assert counter.query() == 0.0

    def test_horizon_enforced(self, rng):
        counter = BinaryMechanismCounter(epsilon=1.0, horizon=4, rng=rng)
        for _ in range(4):
            counter.step()
        with pytest.raises(RuntimeError):
            counter.step()

    def test_error_grows_with_smaller_epsilon(self, rng):
        def mean_error(epsilon):
            errors = []
            for seed in range(20):
                counter = BinaryMechanismCounter(epsilon=epsilon, horizon=128,
                                                 rng=np.random.default_rng(seed))
                for _ in range(100):
                    counter.step()
                errors.append(abs(counter.query() - 100))
            return float(np.mean(errors))

        assert mean_error(10.0) < mean_error(0.1)

    def test_memory_logarithmic_in_horizon(self):
        small = BinaryMechanismCounter(epsilon=1.0, horizon=2**6).memory_words()
        large = BinaryMechanismCounter(epsilon=1.0, horizon=2**16).memory_words()
        assert large < 4 * small

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BinaryMechanismCounter(epsilon=0.0, horizon=8)
        with pytest.raises(ValueError):
            BinaryMechanismCounter(epsilon=1.0, horizon=0)


class TestExpectedErrorAndMemoryBounds:
    """Property-style checks of the paper's O(log n) continual factors."""

    HORIZONS = [2**e for e in range(1, 21)] + [3, 100, 999, 12_345, 700_001]

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_memory_words_is_theta_log_horizon(self, horizon):
        counter = BinaryMechanismCounter(epsilon=1.0, horizon=horizon)
        log_n = max(1.0, np.log2(horizon))
        # memory = 2 * levels with levels in [log2(n), log2(n) + 2].
        assert 2 * log_n <= counter.memory_words() <= 2 * (log_n + 2)

    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 8.0])
    def test_expected_error_is_levels_squared_over_epsilon(self, horizon, epsilon):
        counter = BinaryMechanismCounter(epsilon=epsilon, horizon=horizon)
        assert counter.expected_error() == pytest.approx(
            counter.levels**2 / epsilon
        )

    def test_memory_and_error_monotone_in_horizon(self):
        counters = [
            BinaryMechanismCounter(epsilon=1.0, horizon=horizon)
            for horizon in sorted(self.HORIZONS)
        ]
        words = [counter.memory_words() for counter in counters]
        errors = [counter.expected_error() for counter in counters]
        assert words == sorted(words)
        assert errors == sorted(errors)

    def test_expected_error_dominates_empirical_error(self):
        """The bound actually bounds: mean |release - true| <= expected_error."""
        horizon = 512
        errors = []
        for seed in range(30):
            counter = BinaryMechanismCounter(
                epsilon=1.0, horizon=horizon, rng=np.random.default_rng(seed)
            )
            for _ in range(horizon):
                counter.step(1.0)
            errors.append(abs(counter.query() - horizon))
        assert float(np.mean(errors)) <= counter.expected_error()


class TestCounterBank:
    def test_tracks_per_cell_counts_with_large_budget(self):
        bank = BinaryMechanismCounterBank(
            epsilon=300.0, horizon=64, size=4, rng=np.random.default_rng(0)
        )
        for _ in range(10):
            bank.step([1.0, 2.0, 0.0, 5.0])
        np.testing.assert_allclose(bank.true_counts(), [10.0, 20.0, 0.0, 50.0])
        np.testing.assert_allclose(bank.query_all(), [10.0, 20.0, 0.0, 50.0], atol=2.0)

    def test_matches_scalar_counters_exactly_in_expectation_structure(self):
        """A size-1 bank and a scalar counter walk the same dyadic structure."""
        bank = BinaryMechanismCounterBank(
            epsilon=1.0, horizon=100, size=1, rng=np.random.default_rng(0)
        )
        counter = BinaryMechanismCounter(1.0, 100, rng=np.random.default_rng(0))
        for value in np.random.default_rng(1).random(77):
            bank.step([value])
            counter.step(value)
        assert bank.true_counts()[0] == pytest.approx(counter.true_count)
        np.testing.assert_allclose(bank._alpha[0], counter._alpha)

    @pytest.mark.parametrize("steps", [0, 1, 100, 255, 256, 511])
    def test_each_cell_matches_its_own_scalar_counter(self, steps):
        """Every cell walks a scalar counter's dyadic state, across block merges."""
        weights = np.random.default_rng(9).random((steps, 3))
        bank = BinaryMechanismCounterBank(1.0, 1024, 3, rng=np.random.default_rng(0))
        counters = [
            BinaryMechanismCounter(1.0, 1024, rng=np.random.default_rng(cell))
            for cell in range(3)
        ]
        for row in weights:
            bank.step(row)
            for counter, value in zip(counters, row):
                counter.step(value)
        assert bank.steps == steps
        np.testing.assert_allclose(bank.true_counts(), weights.sum(axis=0))
        for cell, counter in enumerate(counters):
            assert counter.steps == steps
            np.testing.assert_allclose(bank._alpha[cell], counter._alpha)
            # Noise sits on exactly the scalar counter's live blocks.
            np.testing.assert_array_equal(
                bank._noisy_alpha[cell] != 0.0, counter._noisy_alpha != 0.0
            )
        if steps == 0:
            np.testing.assert_array_equal(bank.query_all(), np.zeros(3))

    def test_horizon_and_shape_enforced_before_mutation(self):
        bank = BinaryMechanismCounterBank(1.0, 4, 2, rng=np.random.default_rng(0))
        refusals = [(3, ValueError, "shape", [1.0]), (4, RuntimeError, "horizon", [1.0, 2.0])]
        for steps, error, match, weights in refusals:
            while bank.steps < steps:
                bank.step([1.0, 2.0])
            alpha, noisy = bank._alpha.copy(), bank._noisy_alpha.copy()
            with pytest.raises(error, match=match):
                bank.step(weights)
            assert bank.steps == steps  # the refused event left the state untouched
            np.testing.assert_array_equal(bank._alpha, alpha)
            np.testing.assert_array_equal(bank._noisy_alpha, noisy)

    def test_every_cell_draws_noise_on_every_event(self):
        """Untouched cells are noised too, so the noise shows no hit pattern."""
        bank = BinaryMechanismCounterBank(1.0, 64, 4, rng=np.random.default_rng(0))
        draws = []
        original = bank._rng.laplace
        bank._rng = type(
            "R", (), {"laplace": lambda self, loc, scale, size=None: (
                draws.append(size), original(loc, scale, size=size))[1]}
        )()
        for step in range(10):
            bank.step([float(step), 0.0, 0.0, 0.0] if step % 2 else np.zeros(4))
        assert draws == [4] * 10
        np.testing.assert_array_equal(bank.true_counts()[1:], np.zeros(3))
        assert np.all(bank.query_all()[1:] != 0.0)

    def test_pad_to_current_step_is_a_no_op_and_beyond_horizon_refused(self):
        bank = BinaryMechanismCounterBank(1.0, 8, 2, rng=np.random.default_rng(0))
        bank.step([1.0, 2.0])
        bank.step([3.0, 4.0])
        before = bank.query_all()
        bank.pad_to(2)
        bank.pad_to(1)
        assert bank.steps == 2
        np.testing.assert_array_equal(bank.query_all(), before)
        with pytest.raises(ValueError, match="beyond horizon"):
            bank.pad_to(9)
        assert bank.steps == 2
        np.testing.assert_array_equal(bank.query_all(), before)

    def test_merged_shards_hold_the_exact_state_of_one_bank(self):
        """Padded shards merge into the partial sums of one bank fed both streams."""
        rows = np.random.default_rng(3).random((37, 3))
        left = BinaryMechanismCounterBank(1.0, 64, 3, rng=np.random.default_rng(0))
        right = BinaryMechanismCounterBank(1.0, 64, 3, rng=np.random.default_rng(1))
        whole = BinaryMechanismCounterBank(1.0, 64, 3, rng=np.random.default_rng(2))
        for row in rows[:23]:
            left.step(row)
        for row in rows[23:]:
            right.step(row)
        right.pad_to(23)
        whole_rows = rows[:23].copy()
        whole_rows[: 37 - 23] += rows[23:]
        for row in whole_rows:
            whole.step(row)
        merged = left.merged_with(right)
        assert merged.steps == whole.steps == 23
        np.testing.assert_allclose(merged._alpha, whole._alpha)
        np.testing.assert_allclose(merged.true_counts(), rows.sum(axis=0))

    def test_pad_to_adds_data_free_events(self):
        bank = BinaryMechanismCounterBank(
            epsilon=100.0, horizon=32, size=2, rng=np.random.default_rng(0)
        )
        bank.step([3.0, 4.0])
        bank.pad_to(8)
        assert bank.steps == 8
        np.testing.assert_allclose(bank.true_counts(), [3.0, 4.0])

    def test_merged_with_sums_counts(self):
        left = BinaryMechanismCounterBank(
            epsilon=200.0, horizon=16, size=3, rng=np.random.default_rng(0)
        )
        right = BinaryMechanismCounterBank(
            epsilon=200.0, horizon=16, size=3, rng=np.random.default_rng(1)
        )
        left.step([1.0, 0.0, 2.0])
        right.step([0.0, 5.0, 1.0])
        merged = left.merged_with(right)
        np.testing.assert_allclose(merged.true_counts(), [1.0, 5.0, 3.0])

    def test_merge_requires_aligned_steps(self):
        left = BinaryMechanismCounterBank(1.0, 16, 2, rng=np.random.default_rng(0))
        right = BinaryMechanismCounterBank(1.0, 16, 2, rng=np.random.default_rng(1))
        left.step([1.0, 1.0])
        with pytest.raises(ValueError, match="aligned"):
            left.merged_with(right)

    def test_state_roundtrip(self):
        bank = BinaryMechanismCounterBank(2.0, 64, 4, rng=np.random.default_rng(0))
        for _ in range(5):
            bank.step(np.arange(4.0))
        restored = BinaryMechanismCounterBank.from_state(
            json.loads(json.dumps(bank.state_dict())), rng=np.random.default_rng(9)
        )
        assert restored.steps == bank.steps
        np.testing.assert_allclose(restored.query_all(), bank.query_all())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BinaryMechanismCounterBank(0.0, 8, 2)
        with pytest.raises(ValueError):
            BinaryMechanismCounterBank(1.0, 0, 2)
        with pytest.raises(ValueError):
            BinaryMechanismCounterBank(1.0, 8, 0)
        bank = BinaryMechanismCounterBank(1.0, 8, 2)
        with pytest.raises(ValueError, match="shape"):
            bank.step([1.0, 2.0, 3.0])


class TestContinualSketch:
    HOT = int(cell_keys(3, np.array([5]))[0])

    def _one_key_event(self, sketch, key, count=1.0):
        sketch.update_batch(np.array([key], dtype=np.uint64), np.array([count]))

    def test_estimates_track_counts_with_large_budget(self, rng):
        sketch = ContinualPrivateCountMinSketch(width=64, depth=3, epsilon=300.0,
                                                horizon=512, seed=0, rng=rng)
        for _ in range(50):
            self._one_key_event(sketch, self.HOT)
        assert sketch.events == 50
        assert sketch.query(self.HOT) == pytest.approx(50, abs=8)

    def test_queries_available_mid_stream(self, rng):
        sketch = ContinualPrivateCountMinSketch(width=32, depth=2, epsilon=100.0,
                                                horizon=256, seed=1, rng=rng)
        estimates = []
        for step in range(1, 41):
            self._one_key_event(sketch, self.HOT)
            estimates.append(sketch.query(self.HOT))
        # Estimates should grow roughly linearly with the updates.
        assert estimates[-1] > estimates[9]

    def test_update_batch_is_one_event_carrying_every_count(self):
        """One aggregated batch is one event that carries every key's mass,
        and ``query`` reads what ``query_many`` reads."""
        sketch = ContinualPrivateCountMinSketch(
            width=32, depth=3, epsilon=500.0, horizon=64, seed=0,
            rng=np.random.default_rng(0),
        )
        keys = cell_keys(2, np.array([0b01, 0b10, 0b11]))
        sketch.update_batch(keys, np.array([3.0, 1.0, 1.0]))
        assert (sketch.events, sketch.updates) == (1, 3)
        estimates = sketch.query_many(keys)
        np.testing.assert_allclose(estimates, [3.0, 1.0, 1.0], atol=1.0)
        assert estimates.tolist() == [sketch.query(key) for key in keys.tolist()]

    def test_memory_words_positive(self, rng):
        sketch = ContinualPrivateCountMinSketch(width=8, depth=2, epsilon=1.0,
                                                horizon=64, rng=rng)
        assert sketch.memory_words() >= 8 * 2 * 2

    def test_merge_sums_estimates(self):
        left = ContinualPrivateCountMinSketch(
            width=32, depth=2, epsilon=400.0, horizon=64, seed=3,
            rng=np.random.default_rng(0),
        )
        right = ContinualPrivateCountMinSketch(
            width=32, depth=2, epsilon=400.0, horizon=64, seed=3,
            rng=np.random.default_rng(1),
        )
        a, b = cell_keys(1, np.array([0, 1])).tolist()
        left.update_batch(np.array([a]), np.array([10.0]))
        right.update_batch(np.array([a]), np.array([7.0]))
        right.update_batch(np.array([b]), np.array([2.0]))
        right.pad_events_to(2)
        left.pad_events_to(2)
        merged = left.merge(right)
        assert merged.query(a) == pytest.approx(17.0, abs=2.0)
        assert merged.updates == 3

    def test_state_roundtrip(self):
        sketch = ContinualPrivateCountMinSketch(
            width=16, depth=2, epsilon=5.0, horizon=32, seed=4,
            rng=np.random.default_rng(0),
        )
        key = int(cell_keys(4, np.array([9]))[0])
        sketch.update_batch(np.array([key]), np.array([3.0]))
        restored = ContinualPrivateCountMinSketch.from_state(
            json.loads(json.dumps(sketch.state_dict())), rng=np.random.default_rng(1)
        )
        assert restored.query(key) == pytest.approx(sketch.query(key))
        assert restored.updates == sketch.updates

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ContinualPrivateCountMinSketch(width=0, depth=2, epsilon=1.0, horizon=8)
        with pytest.raises(ValueError):
            ContinualPrivateCountMinSketch(width=2, depth=2, epsilon=0.0, horizon=8)


class TestPrivHPContinual:
    def make_config(self, n, epsilon=50.0, seed=0):
        return PrivHPConfig.from_stream_size(n, epsilon=epsilon, pruning_k=4, seed=seed,
                                             depth=8, level_cutoff=4, sketch_depth=4)

    def test_snapshot_mid_stream_and_at_end(self, interval, rng):
        data = rng.beta(2, 6, size=600)
        model = PrivHPContinual(interval, self.make_config(600), horizon=600, rng=0)
        model.update_batch(data[:300])
        mid_release = model.snapshot()
        assert isinstance(mid_release, Release)
        assert mid_release.items_processed == 300
        mid_samples = mid_release.sample(200)
        assert np.all((mid_samples >= 0) & (mid_samples <= 1))

        model.update_batch(data[300:])
        end_release = model.snapshot()
        assert end_release.items_processed == 600
        error = wasserstein1_1d(data, end_release.sample(600))
        assert error < 0.15

    def test_multiple_snapshots_allowed_and_identical(self, interval, rng):
        model = PrivHPContinual(interval, self.make_config(200), horizon=200, rng=0)
        model.update_batch(rng.random(100))
        first = model.snapshot()
        second = model.snapshot()
        assert first.generator.total_mass == pytest.approx(second.generator.total_mass)
        # Snapshots of unchanged state are byte-identical documents.
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_snapshot_does_not_perturb_ingestion(self, interval, rng):
        """Taking snapshots leaves the subsequent stream byte-for-byte alone."""
        data = rng.random(400)
        config = self.make_config(400)
        quiet = PrivHPContinual(interval, config, horizon=400, rng=0)
        noisy = PrivHPContinual(interval, config, horizon=400, rng=0)
        quiet.update_batch(data[:200])
        noisy.update_batch(data[:200])
        noisy.snapshot().sample(50)
        noisy.snapshot()
        quiet.update_batch(data[200:])
        noisy.update_batch(data[200:])
        assert json.dumps(quiet.snapshot().to_dict(), sort_keys=True) == json.dumps(
            noisy.snapshot().to_dict(), sort_keys=True
        )

    def test_update_batch_matches_loop_exact_counts(self, interval, rng):
        """Batch and loop paths accumulate identical exact counts."""
        data = rng.beta(2, 6, size=256)
        config = self.make_config(256)
        loop = PrivHPContinual(interval, config, horizon=256, rng=0)
        batch = PrivHPContinual(interval, config, horizon=256, rng=0)
        for point in data:
            loop.update(point)
        batch.update_batch(data)
        for level, bank in batch._banks.items():
            np.testing.assert_allclose(
                bank.true_counts(), loop._banks[level].true_counts()
            )

    def test_snapshot_release_metadata(self, interval, rng):
        model = PrivHPContinual(interval, self.make_config(100), horizon=150, rng=0)
        model.update_batch(rng.random(80))
        release = model.snapshot()
        assert release.epsilon == pytest.approx(50.0)
        assert release.metadata["continual"]["horizon"] == 150
        assert release.metadata["continual"]["events"] == 1
        assert release.memory_words == model.memory_words()

    def test_budget_ledger_sums_to_epsilon(self, interval):
        config = self.make_config(100, epsilon=2.0)
        model = PrivHPContinual(interval, config, horizon=100, rng=0)
        assert model.accountant.spent == pytest.approx(2.0)

    def test_horizon_enforced(self, interval, rng):
        model = PrivHPContinual(interval, self.make_config(50), horizon=10, rng=0)
        model.update_batch(rng.random(10))
        with pytest.raises(RuntimeError):
            model.update(0.5)
        with pytest.raises(RuntimeError):
            model.update_batch(rng.random(5))

    def test_memory_reported(self, interval, rng):
        model = PrivHPContinual(interval, self.make_config(100), horizon=100, rng=0)
        model.update_batch(rng.random(50))
        assert model.memory_words() > 0

    def test_invalid_horizon(self, interval):
        with pytest.raises(ValueError):
            PrivHPContinual(interval, self.make_config(10), horizon=0)

    def test_release_seals_the_summarizer(self, interval, rng):
        model = PrivHPContinual(interval, self.make_config(100), horizon=100, rng=0)
        model.update_batch(rng.random(60))
        release = model.release()
        assert isinstance(release, Release) and release.items_processed == 60
        with pytest.raises(RuntimeError):
            model.release()
        with pytest.raises(RuntimeError):
            model.update_batch(rng.random(10))
        with pytest.raises(RuntimeError):
            model.checkpoint()

    def test_rng_seed_conflict_rejected(self, interval):
        with pytest.raises(ValueError, match="disagrees"):
            PrivHPContinual(interval, self.make_config(100, seed=3), horizon=100, rng=4)


class TestContinualProtocolConformance:
    """PrivHPContinual passes the same ingest/merge/checkpoint/release
    conformance checks as PrivHP (the StreamSummarizer contract)."""

    def build(self, variant, interval, n=400, seed=0):
        builder = (
            PrivHPBuilder(interval).epsilon(5.0).pruning_k(4).stream_size(n).seed(seed)
        )
        if variant == "continual":
            builder = builder.continual()
        return builder

    @pytest.mark.parametrize("variant", ["one-shot", "continual"])
    def test_satisfies_protocol(self, variant, interval):
        summarizer = self.build(variant, interval).build()
        assert isinstance(summarizer, StreamSummarizer)
        expected = PrivHPContinual if variant == "continual" else PrivHP
        assert isinstance(summarizer, expected)

    @pytest.mark.parametrize("variant", ["one-shot", "continual"])
    def test_ingest_and_release(self, variant, interval, rng):
        data = rng.beta(2, 5, 400)
        summarizer = ingest_batches(self.build(variant, interval).build(), data, 128)
        assert summarizer.items_processed == 400
        assert summarizer.memory_words() > 0
        release = summarizer.release()
        assert isinstance(release, Release)
        assert release.items_processed == 400
        assert 0.0 <= release.mass(0.0, 0.5) <= 1.0

    @pytest.mark.parametrize("variant", ["one-shot", "continual"])
    def test_shard_merge_accumulates_all_items(self, variant, interval, rng):
        data = rng.beta(2, 5, 400)
        builder = self.build(variant, interval)
        shards = builder.build_shards(4)
        for shard, part in zip(shards, np.array_split(data, 4)):
            ingest_batches(shard, part, 64)
        merged = type(shards[0]).merge_all(shards)
        assert merged.items_processed == 400
        release = merged.release()
        assert release.items_processed == 400

    @pytest.mark.parametrize("variant", ["one-shot", "continual"])
    def test_checkpoint_resume_is_byte_identical(self, variant, interval, rng):
        data = rng.beta(2, 5, 400)
        original = ingest_batches(self.build(variant, interval).build(), data[:200], 64)
        state = json.loads(json.dumps(original.checkpoint()))
        restored = type(original).restore(state)
        ingest_batches(original, data[200:], 64)
        ingest_batches(restored, data[200:], 64)
        assert json.dumps(original.release().to_dict(), sort_keys=True) == json.dumps(
            restored.release().to_dict(), sort_keys=True
        )

    def test_continual_merge_validates_operands(self, interval, rng):
        builder = self.build("continual", interval)
        left, right = builder.build_shards(2)
        other_config = self.build("continual", interval, n=800).build()
        with pytest.raises(ValueError, match="configurations"):
            left.merge(other_config)
        with pytest.raises(TypeError):
            left.merge(object())
        released = builder.build_shards(1)[0]
        released.update_batch(rng.random(10))
        released.release()
        with pytest.raises(RuntimeError):
            left.merge(released)

    def test_continual_has_no_raw_shard_mode(self, interval):
        with pytest.raises(ValueError, match="raw shard"):
            self.build("continual", interval).build_shard()
