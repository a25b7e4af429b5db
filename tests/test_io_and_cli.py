"""Tests for serialisation and the command-line interface."""

import json

import numpy as np
import pytest

from repro.api.release import Release
from repro.cli import main as cli_main
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.core.tree import PartitionTree
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.io.serialization import (
    domain_from_dict,
    domain_to_dict,
    generator_from_dict,
    generator_to_dict,
    save_generator,
    tree_from_dict,
    tree_to_dict,
)


def fitted_generator(domain, data, seed=0):
    config = PrivHPConfig.from_stream_size(len(data), epsilon=1.0, pruning_k=4, seed=seed)
    algorithm = PrivHP(domain, config, rng=seed)
    return algorithm.update_batch(data).release().generator


class TestTreeSerialization:
    def test_round_trip_preserves_counts(self):
        tree = PartitionTree.from_cells({(): 10.0, (0,): 4.0, (1,): 6.0})
        restored = tree_from_dict(tree_to_dict(tree))
        assert restored.as_dict() == tree.as_dict()

    def test_root_key_is_empty_string(self):
        assert tree_to_dict(PartitionTree(1.0)) == {"": 1.0}

    def test_invalid_keys_rejected(self):
        with pytest.raises(ValueError):
            tree_from_dict({"01x": 1.0})

    def test_missing_root_rejected(self):
        with pytest.raises(ValueError):
            tree_from_dict({"0": 1.0})


class TestDomainSerialization:
    @pytest.mark.parametrize(
        "domain",
        [
            UnitInterval(),
            Hypercube(3),
            GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0),
        ],
    )
    def test_round_trip(self, domain):
        restored = domain_from_dict(domain_to_dict(domain))
        assert type(restored) is type(domain)
        assert restored.diameter() == domain.diameter()

    def test_hypercube_dimension_preserved(self):
        assert domain_from_dict(domain_to_dict(Hypercube(5))).dimension == 5

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            domain_from_dict({"type": "Banach"})


class TestGeneratorSerialization:
    def test_round_trip_preserves_distribution(self, interval, rng):
        generator = fitted_generator(interval, rng.beta(2, 5, 1500))
        restored = generator_from_dict(generator_to_dict(generator), seed=0)
        original = generator.leaf_probabilities()
        recovered = restored.leaf_probabilities()
        assert set(original) == set(recovered)
        for theta, probability in original.items():
            assert recovered[theta] == pytest.approx(probability)

    def test_save_and_load_file(self, tmp_path, interval, rng):
        generator = fitted_generator(interval, rng.random(800))
        path = save_generator(generator, tmp_path / "release.json", metadata={"epsilon": 1.0})
        document = json.loads(path.read_text())
        assert document["format"] == "privhp-generator"
        assert document["metadata"]["epsilon"] == 1.0
        restored = Release.load(path, sampling_seed=1)
        samples = restored.sample(100)
        assert np.all((samples >= 0) & (samples <= 1))

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            generator_from_dict({"format": "something-else", "version": 1})

    def test_future_version_rejected(self, interval, rng):
        generator = fitted_generator(interval, rng.random(200))
        document = generator_to_dict(generator)
        document["version"] = 99
        with pytest.raises(ValueError):
            generator_from_dict(document)

    def test_two_dimensional_round_trip(self, square, rng):
        generator = fitted_generator(square, rng.random((600, 2)))
        restored = generator_from_dict(generator_to_dict(generator), seed=0)
        assert restored.sample(20).shape == (20, 2)


class TestReleaseLoadValidation:
    """Release.load routes through repro.io, so malformed input fails the
    same way everywhere (regression tests for the former inline JSON read)."""

    def test_malformed_json_is_valueerror_naming_the_path(self, tmp_path):
        from repro.api.release import Release

        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        with pytest.raises(ValueError, match="not valid JSON") as excinfo:
            Release.load(path)
        assert "broken.json" in str(excinfo.value)

    def test_wrong_format_is_valueerror(self, tmp_path):
        from repro.api.release import Release

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ValueError, match="not a privhp-generator document"):
            Release.load(path)

    def test_future_version_is_valueerror(self, tmp_path, interval, rng):
        from repro.api.release import Release

        generator = fitted_generator(interval, rng.random(200))
        document = generator_to_dict(generator)
        document["version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="newer than supported"):
            Release.load(path)

    def test_non_object_document_is_valueerror(self, tmp_path):
        from repro.api.release import Release

        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="must be a JSON object"):
            Release.load(path)

    def test_missing_tree_is_valueerror(self, tmp_path):
        from repro.api.release import Release

        path = tmp_path / "treeless.json"
        path.write_text(
            json.dumps(
                {"format": "privhp-generator", "version": 1, "domain": {"type": "UnitInterval"}}
            )
        )
        with pytest.raises(ValueError, match="requires a 'tree' object"):
            Release.load(path)

    def test_valid_release_round_trip_still_works(self, tmp_path, interval, rng):
        from repro.api.release import Release

        generator = fitted_generator(interval, rng.random(300))
        release = Release(generator, epsilon=1.0, items_processed=300, memory_words=123)
        release.save(tmp_path / "release.json")
        loaded = Release.load(tmp_path / "release.json", sampling_seed=5)
        assert loaded.epsilon == 1.0
        assert loaded.items_processed == 300
        assert loaded.memory_words == 123


class TestCLI:
    def test_summarize_generate_evaluate_pipeline(self, tmp_path, rng, capsys):
        data = rng.beta(2, 6, size=1500)
        input_path = tmp_path / "values.csv"
        np.savetxt(input_path, data, delimiter=",")
        release_path = tmp_path / "release.json"
        output_path = tmp_path / "synthetic.csv"

        assert cli_main([
            "summarize", "--input", str(input_path), "--output", str(release_path),
            "--epsilon", "1.0", "--k", "8", "--seed", "0",
        ]) == 0
        assert release_path.exists()

        assert cli_main([
            "generate", "--release", str(release_path), "--output", str(output_path),
            "--size", "500", "--seed", "1",
        ]) == 0
        synthetic = np.loadtxt(output_path, delimiter=",")
        assert synthetic.shape == (500,)
        assert np.all((synthetic >= 0) & (synthetic <= 1))

        assert cli_main([
            "evaluate", "--input", str(input_path), "--epsilon", "1.0", "--k", "8",
        ]) == 0
        captured = capsys.readouterr()
        assert "W1(data, synth)" in captured.out

    def test_cli_two_dimensional_input(self, tmp_path, rng):
        data = rng.random((400, 2))
        input_path = tmp_path / "points.csv"
        np.savetxt(input_path, data, delimiter=",")
        release_path = tmp_path / "release2d.json"
        output_path = tmp_path / "synthetic2d.csv"

        assert cli_main([
            "summarize", "--input", str(input_path), "--output", str(release_path),
        ]) == 0
        assert cli_main([
            "generate", "--release", str(release_path), "--output", str(output_path),
            "--size", "100",
        ]) == 0
        synthetic = np.loadtxt(output_path, delimiter=",")
        assert synthetic.shape == (100, 2)

    def test_cli_requires_command(self):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_generate_seed_reseeds_sampling_never_tree_counts(self, tmp_path, rng):
        """Regression: reloading a release under a different --seed must leave
        the persisted tree counts untouched and only change the draws."""
        data = rng.beta(2, 6, size=1200)
        input_path = tmp_path / "values.csv"
        np.savetxt(input_path, data, delimiter=",")
        release_path = tmp_path / "release.json"
        assert cli_main([
            "summarize", "--input", str(input_path), "--output", str(release_path),
        ]) == 0
        document_before = release_path.read_text()

        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        out_a2 = tmp_path / "a2.csv"
        for seed, out in ((1, out_a), (2, out_b), (1, out_a2)):
            assert cli_main([
                "generate", "--release", str(release_path), "--output", str(out),
                "--size", "300", "--seed", str(seed),
            ]) == 0

        # The release file (the persisted tree counts) is bit-for-bit unchanged.
        assert release_path.read_text() == document_before
        first = np.loadtxt(out_a, delimiter=",")
        second = np.loadtxt(out_b, delimiter=",")
        repeat = np.loadtxt(out_a2, delimiter=",")
        assert not np.array_equal(first, second)  # different seeds, different draws
        assert np.array_equal(first, repeat)  # same seed reproduces exactly
        # And the decoded trees agree regardless of the sampling seed.
        tree_a = Release.load(release_path, sampling_seed=1).tree.as_dict()
        tree_b = Release.load(release_path, sampling_seed=2).tree.as_dict()
        assert tree_a == tree_b

    def test_cli_sharded_summarize_matches_unsharded(self, tmp_path, rng):
        data = rng.beta(2, 6, size=900)
        input_path = tmp_path / "values.csv"
        np.savetxt(input_path, data, delimiter=",")
        single_path = tmp_path / "single.json"
        sharded_path = tmp_path / "sharded.json"
        assert cli_main([
            "summarize", "--input", str(input_path), "--output", str(single_path),
            "--seed", "0",
        ]) == 0
        assert cli_main([
            "summarize", "--input", str(input_path), "--output", str(sharded_path),
            "--seed", "0", "--shards", "3",
        ]) == 0
        single_tree = json.loads(single_path.read_text())["tree"]
        sharded_tree = json.loads(sharded_path.read_text())["tree"]
        assert set(single_tree) == set(sharded_tree)
        for key, count in single_tree.items():
            assert sharded_tree[key] == pytest.approx(count, abs=1e-6)

    def test_cli_checkpoint_resume_pipeline(self, tmp_path, rng):
        day1 = rng.beta(2, 6, size=700)
        day2 = rng.beta(2, 6, size=500)
        day1_path = tmp_path / "day1.csv"
        day2_path = tmp_path / "day2.csv"
        np.savetxt(day1_path, day1, delimiter=",")
        np.savetxt(day2_path, day2, delimiter=",")
        state_path = tmp_path / "state.json"
        release_path = tmp_path / "release.json"

        assert cli_main([
            "checkpoint", "--input", str(day1_path), "--state", str(state_path),
            "--stream-size", "1200", "--seed", "0",
        ]) == 0
        assert state_path.exists()
        assert cli_main([
            "checkpoint", "--input", str(day2_path), "--state", str(state_path),
        ]) == 0
        assert cli_main([
            "resume", "--state", str(state_path), "--output", str(release_path),
        ]) == 0

        document = json.loads(release_path.read_text())
        assert document["metadata"]["items_processed"] == 1200

        # The resumed release matches one uninterrupted run over both days.
        combined_path = tmp_path / "combined.csv"
        np.savetxt(combined_path, np.concatenate([day1, day2]), delimiter=",")
        combined_release = tmp_path / "combined.json"
        assert cli_main([
            "summarize", "--input", str(combined_path), "--output", str(combined_release),
            "--seed", "0",
        ]) == 0
        combined_doc = json.loads(combined_release.read_text())
        assert set(document["tree"]) == set(combined_doc["tree"])
        for key, count in combined_doc["tree"].items():
            assert document["tree"][key] == pytest.approx(count, abs=1e-9)

    def test_cli_checkpoint_rejects_fit_flags_on_existing_state(self, tmp_path, rng, capsys):
        """Flags that only apply at state creation must not be silently dropped."""
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, rng.beta(2, 6, size=500), delimiter=",")
        state_path = tmp_path / "state.json"
        assert cli_main([
            "checkpoint", "--input", str(data_path), "--state", str(state_path),
            "--epsilon", "1.0",
        ]) == 0
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "checkpoint", "--input", str(data_path), "--state", str(state_path),
                "--epsilon", "0.1",
            ])
        assert excinfo.value.code == 2
        assert "--epsilon" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli_main([
                "checkpoint", "--input", str(data_path), "--state", str(state_path),
                "--stream-size", "9000",
            ])
        assert "--stream-size" in capsys.readouterr().err

    def test_cli_bad_input_exits_cleanly(self, tmp_path, rng, capsys):
        """User errors surface as argparse usage errors, not tracebacks."""
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, rng.beta(2, 6, size=100), delimiter=",")
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "summarize", "--input", str(data_path),
                "--output", str(tmp_path / "r.json"), "--domain", "banach",
            ])
        assert excinfo.value.code == 2
        assert "unknown domain" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli_main([
                "summarize", "--input", str(data_path),
                "--output", str(tmp_path / "r.json"), "--shards", "0",
            ])
        assert "--shards" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "resume", "--state", str(tmp_path / "missing.json"),
                "--output", str(tmp_path / "r.json"),
            ])
        assert excinfo.value.code == 2  # missing file is a usage error, not a traceback

    def test_cli_preserves_large_integer_values(self, tmp_path, rng):
        """Integer domains must not lose precision to the float CSV format."""
        universe = 10**13
        data = rng.integers(universe - 1000, universe, size=300)
        input_path = tmp_path / "items.csv"
        np.savetxt(input_path, data, delimiter=",", fmt="%d")
        release_path = tmp_path / "release.json"
        output_path = tmp_path / "synthetic.csv"
        assert cli_main([
            "summarize", "--input", str(input_path), "--output", str(release_path),
            "--domain", f"discrete:{universe}",
        ]) == 0
        assert cli_main([
            "generate", "--release", str(release_path), "--output", str(output_path),
            "--size", "50",
        ]) == 0
        for line in output_path.read_text().splitlines():
            assert "." not in line and "e" not in line  # exact integers, no float notation
            assert 0 <= int(line) < universe

    def test_cli_domain_flag(self, tmp_path, rng):
        data = rng.integers(0, 2**32, size=400)
        input_path = tmp_path / "addresses.csv"
        np.savetxt(input_path, data, delimiter=",", fmt="%d")
        release_path = tmp_path / "release.json"
        output_path = tmp_path / "synthetic.csv"
        assert cli_main([
            "summarize", "--input", str(input_path), "--output", str(release_path),
            "--domain", "ipv4",
        ]) == 0
        assert json.loads(release_path.read_text())["domain"]["type"] == "IPv4Domain"
        assert cli_main([
            "generate", "--release", str(release_path), "--output", str(output_path),
            "--size", "100",
        ]) == 0
        synthetic = np.loadtxt(output_path, delimiter=",")
        assert np.all((synthetic >= 0) & (synthetic < 2**32))


class TestContinualCheckpointEnvelope:
    """Continual summarizers round-trip through the shared repro.io envelope."""

    def build(self, n=300, seed=0):
        from repro.api.builder import PrivHPBuilder

        return (
            PrivHPBuilder("interval")
            .epsilon(5.0)
            .pruning_k(4)
            .stream_size(n)
            .seed(seed)
            .continual()
            .build()
        )

    def test_save_load_dispatches_to_continual_restore(self, tmp_path, rng):
        from repro.continual.privhp import PrivHPContinual
        from repro.io.serialization import load_checkpoint, save_checkpoint

        summarizer = self.build()
        summarizer.update_batch(rng.beta(2, 5, 150))
        path = save_checkpoint(summarizer, tmp_path / "state.json")
        restored = load_checkpoint(path)
        assert isinstance(restored, PrivHPContinual)
        assert restored.items_processed == 150
        assert restored.horizon == summarizer.horizon

    def test_resume_from_disk_is_byte_identical(self, tmp_path, rng):
        from repro.io.serialization import load_checkpoint, save_checkpoint

        data = rng.beta(2, 5, 300)
        original = self.build()
        original.update_batch(data[:150])
        path = save_checkpoint(original, tmp_path / "state.json")
        restored = load_checkpoint(path)
        original.update_batch(data[150:])
        restored.update_batch(data[150:])
        assert json.dumps(original.snapshot().to_dict(), sort_keys=True) == json.dumps(
            restored.snapshot().to_dict(), sort_keys=True
        )

    def test_unknown_summarizer_kind_rejected(self, tmp_path, rng):
        from repro.io.serialization import load_checkpoint, save_checkpoint

        summarizer = self.build()
        summarizer.update_batch(rng.beta(2, 5, 100))
        path = save_checkpoint(summarizer, tmp_path / "state.json")
        document = json.loads(path.read_text())
        document["state"]["summarizer"] = "privhp-quantum"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unknown summarizer kind"):
            load_checkpoint(path)


class TestContinualCLI:
    def _write_csv(self, path, data):
        np.savetxt(path, data, delimiter=",")

    def test_summarize_continual_writes_tagged_release(self, tmp_path, rng):
        input_path = tmp_path / "data.csv"
        self._write_csv(input_path, rng.beta(2, 5, 2000))
        release_path = tmp_path / "release.json"
        assert cli_main([
            "summarize", "--input", str(input_path), "--output", str(release_path),
            "--continual", "--horizon", "5000",
        ]) == 0
        document = json.loads(release_path.read_text())
        assert document["metadata"]["continual"]["horizon"] == 5000
        assert document["metadata"]["items_processed"] == 2000

    def test_summarize_continual_sharded(self, tmp_path, rng):
        input_path = tmp_path / "data.csv"
        self._write_csv(input_path, rng.beta(2, 5, 1800))
        release_path = tmp_path / "release.json"
        assert cli_main([
            "summarize", "--input", str(input_path), "--output", str(release_path),
            "--continual", "--shards", "3",
        ]) == 0
        document = json.loads(release_path.read_text())
        assert document["metadata"]["items_processed"] == 1800

    def test_horizon_without_continual_rejected(self, tmp_path, rng, capsys):
        input_path = tmp_path / "data.csv"
        self._write_csv(input_path, rng.beta(2, 5, 100))
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "summarize", "--input", str(input_path),
                "--output", str(tmp_path / "r.json"), "--horizon", "500",
            ])
        assert excinfo.value.code == 2
        assert "--continual" in capsys.readouterr().err

    def test_checkpoint_snapshot_resume_pipeline(self, tmp_path, rng):
        day1, day2 = tmp_path / "day1.csv", tmp_path / "day2.csv"
        self._write_csv(day1, rng.beta(2, 5, 1000))
        self._write_csv(day2, rng.beta(2, 5, 1000))
        state = tmp_path / "state.json"
        assert cli_main([
            "checkpoint", "--input", str(day1), "--state", str(state),
            "--continual", "--stream-size", "2000",
        ]) == 0
        state_before = state.read_bytes()

        snap = tmp_path / "snap.json"
        assert cli_main(["snapshot", "--state", str(state), "--output", str(snap)]) == 0
        snapshot_doc = json.loads(snap.read_text())
        assert snapshot_doc["metadata"]["items_processed"] == 1000
        assert state.read_bytes() == state_before  # snapshot never consumes state

        assert cli_main(["checkpoint", "--input", str(day2), "--state", str(state)]) == 0
        final = tmp_path / "final.json"
        assert cli_main(["resume", "--state", str(state), "--output", str(final)]) == 0
        assert json.loads(final.read_text())["metadata"]["items_processed"] == 2000

    def test_continual_flags_rejected_on_existing_state(self, tmp_path, rng, capsys):
        data_path = tmp_path / "data.csv"
        self._write_csv(data_path, rng.beta(2, 5, 200))
        state = tmp_path / "state.json"
        assert cli_main([
            "checkpoint", "--input", str(data_path), "--state", str(state),
            "--continual", "--horizon", "800",
        ]) == 0
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "checkpoint", "--input", str(data_path), "--state", str(state),
                "--continual", "--horizon", "900",
            ])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "--continual" in error and "--horizon" in error

    def test_snapshot_of_one_shot_state_rejected(self, tmp_path, rng, capsys):
        data_path = tmp_path / "data.csv"
        self._write_csv(data_path, rng.beta(2, 5, 200))
        state = tmp_path / "state.json"
        assert cli_main(["checkpoint", "--input", str(data_path), "--state", str(state)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["snapshot", "--state", str(state), "--output", str(tmp_path / "s.json")])
        assert excinfo.value.code == 2
        assert "one-shot" in capsys.readouterr().err

    def test_snapshot_release_is_queryable(self, tmp_path, rng):
        data_path = tmp_path / "data.csv"
        self._write_csv(data_path, rng.beta(2, 5, 1000))
        state = tmp_path / "state.json"
        snap = tmp_path / "snap.json"
        workload = tmp_path / "workload.json"
        answers = tmp_path / "answers.json"
        workload.write_text(json.dumps([{"type": "mass", "lower": 0.0, "upper": 0.5}]))
        assert cli_main([
            "checkpoint", "--input", str(data_path), "--state", str(state),
            "--continual", "--horizon", "1000",
        ]) == 0
        assert cli_main(["snapshot", "--state", str(state), "--output", str(snap)]) == 0
        assert cli_main([
            "query", str(snap), "--workload", str(workload), "--output", str(answers),
        ]) == 0
        result = json.loads(answers.read_text())["results"][0]["answer"]
        assert 0.0 <= result <= 1.0

    def test_fresh_continual_state_requires_a_total_horizon(self, tmp_path, rng, capsys):
        """Without --horizon/--stream-size the day1/day2 workflow would
        exhaust the counters on day 2, so creation is rejected up front."""
        data_path = tmp_path / "data.csv"
        self._write_csv(data_path, rng.beta(2, 5, 100))
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "checkpoint", "--input", str(data_path),
                "--state", str(tmp_path / "state.json"), "--continual",
            ])
        assert excinfo.value.code == 2
        assert "--horizon" in capsys.readouterr().err

    def test_exhausted_horizon_is_a_clean_usage_error(self, tmp_path, rng, capsys):
        """Overrunning a continual horizon via the CLI exits 2, no traceback."""
        data_path = tmp_path / "data.csv"
        self._write_csv(data_path, rng.beta(2, 5, 200))
        state = tmp_path / "state.json"
        assert cli_main([
            "checkpoint", "--input", str(data_path), "--state", str(state),
            "--continual", "--horizon", "300",
        ]) == 0
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["checkpoint", "--input", str(data_path), "--state", str(state)])
        assert excinfo.value.code == 2
        assert "horizon" in capsys.readouterr().err
