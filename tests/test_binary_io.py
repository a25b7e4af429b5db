"""Serialization test battery for the binary envelope format (repro.io.binary).

The acceptance property pinned here: the binary format is *exactly* the JSON
format in different bytes.  save -> load -> save is a byte-level fixed point,
JSON <-> binary conversion is lossless in both directions, query answers
through a binary-loaded Release equal the JSON path bit for bit on all five
domains (one-shot and continual snapshots), and every malformed input --
truncation, magic/version/manifest/dtype tampering -- fails with a clean
``ValueError`` naming the offending path.
"""

from __future__ import annotations

import json
import pathlib
import struct
import threading

import numpy as np
import pytest

from repro.api.builder import PrivHPBuilder
from repro.api.release import Release
from repro.cli import main as cli_main
from repro.io.binary import (
    BINARY_FORMAT_VERSION,
    MAGIC,
    convert_file,
    detect_format,
    load_binary,
    save_binary,
)
from repro.io.serialization import (
    load_checkpoint,
    save_checkpoint,
    summarizer_to_dict,
)
from repro.serve.store import ReleaseStore

DOMAINS = ("interval", "hypercube", "ipv4", "geo", "discrete")

#: One representative query batch per domain (exercises every engine kind).
DOMAIN_QUERIES = {
    "interval": [
        ("mass", 0.2, 0.6),
        ("range_count", 0.0, 0.5),
        ("cdf", 0.3),
        ("quantile", 0.5),
        ("quantiles", [0.1, 0.25, 0.5, 0.75, 0.9]),
    ],
    "hypercube": [
        ("mass", [0.1, 0.2], [0.6, 0.9]),
        ("range_count", [0.0, 0.0], [0.5, 0.5]),
        ("marginal", 0, 8),
    ],
    "ipv4": [
        ("mass", 0, 2**31),
        ("range_count", 2**20, 2**30),
        ("cdf", 2**31),
        ("quantile", 0.5),
        ("quantiles", [0.25, 0.5, 0.75]),
    ],
    "geo": [
        ("mass", [30.0, -120.0], [45.0, -80.0]),
        ("range_count", [24.0, -125.0], [49.0, -66.0]),
        ("marginal", 1, 4),
    ],
    "discrete": [
        ("mass", 100, 2000),
        ("range_count", 0, 4095),
        ("cdf", 2048),
        ("quantile", 0.9),
        ("quantiles", [0.1, 0.5, 0.9]),
    ],
}


def _fit(domain_spec: str, data) -> Release:
    summarizer = (
        PrivHPBuilder(domain_spec)
        .epsilon(1.0)
        .pruning_k(4)
        .stream_size(len(data))
        .seed(3)
        .build()
    )
    summarizer.update_batch(data)
    return summarizer.release()


@pytest.fixture(scope="module")
def releases() -> dict[str, Release]:
    rng = np.random.default_rng(7)
    size = 1200
    geo_points = np.column_stack(
        [rng.uniform(24.0, 49.0, size), rng.uniform(-125.0, -66.0, size)]
    )
    return {
        "interval": _fit("interval", rng.beta(2.0, 5.0, size)),
        "hypercube": _fit("hypercube:2", rng.random((size, 2))),
        "ipv4": _fit("ipv4", rng.integers(0, 2**32, size)),
        "geo": _fit("geo:24,49,-125,-66", geo_points),
        "discrete": _fit("discrete:4096", rng.integers(0, 4096, size)),
    }


def _answers(release: Release, domain: str) -> list:
    """Raw bytes of every representative answer (exact comparison material)."""
    out = []
    for query in DOMAIN_QUERIES[domain]:
        kind = query[0]
        if kind == "mass":
            out.append(release.mass(query[1], query[2]))
        elif kind == "range_count":
            out.append(release.range_count(query[1], query[2]))
        elif kind == "cdf":
            out.append(release.cdf(query[1]))
        elif kind == "quantile":
            out.append(release.quantile(query[1]))
        elif kind == "quantiles":
            out.append(release.quantiles(query[1]).tobytes())
        elif kind == "marginal":
            out.append(release.marginal(query[1], bins=query[2]).tobytes())
    return out


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


# --------------------------------------------------------------------------- #
# round trips: fixed point, losslessness, identical answers
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("domain", DOMAINS)
class TestReleaseRoundTrip:
    def test_save_load_is_lossless(self, releases, domain, tmp_path):
        document = releases[domain].to_dict()
        path = save_binary(document, tmp_path / "release.bin", verify=True)
        assert detect_format(path) == "binary"
        assert _canonical(load_binary(path)) == _canonical(document)

    def test_save_load_save_is_a_byte_fixed_point(self, releases, domain, tmp_path):
        document = releases[domain].to_dict()
        first = save_binary(document, tmp_path / "first.bin")
        second = save_binary(load_binary(first), tmp_path / "second.bin")
        assert first.read_bytes() == second.read_bytes()

    def test_json_binary_json_conversion_is_byte_identical(self, releases, domain, tmp_path):
        json_path = releases[domain].save(tmp_path / "release.json")
        converted = convert_file(json_path, tmp_path / "release.bin", "binary")
        # The converter writes the identical envelope a direct save produces...
        assert converted.read_bytes() == save_binary(
            releases[domain].to_dict(), tmp_path / "direct.bin"
        ).read_bytes()
        # ...and converting back reproduces the original JSON file exactly.
        back = convert_file(converted, tmp_path / "back.json", "json")
        assert back.read_bytes() == json_path.read_bytes()

    def test_binary_release_answers_equal_json_path_exactly(self, releases, domain, tmp_path):
        json_path = releases[domain].save(tmp_path / "release.json", format="json")
        bin_path = releases[domain].save(tmp_path / "release.bin", format="binary")
        from_json = Release.load(json_path)
        from_binary = Release.load(bin_path)
        assert _answers(from_binary, domain) == _answers(from_json, domain)
        assert from_binary.epsilon == from_json.epsilon
        assert from_binary.items_processed == from_json.items_processed
        assert from_binary.memory_words == from_json.memory_words
        assert from_binary.metadata == from_json.metadata

    def test_binary_release_samples_equal_json_path_exactly(self, releases, domain, tmp_path):
        bin_path = releases[domain].save(tmp_path / "release.bin")
        from_json = Release.load(releases[domain].save(tmp_path / "r.json"), sampling_seed=11)
        from_binary = Release.load(bin_path, sampling_seed=11)
        assert np.asarray(from_binary.sample(64)).tobytes() == np.asarray(
            from_json.sample(64)
        ).tobytes()

    def test_roundtrip_through_release_object_preserves_document(
        self, releases, domain, tmp_path
    ):
        # Loading a binary release and re-saving it (both formats) must
        # reproduce the original artefacts byte for byte -- the lazy tree and
        # pre-seeded engines are invisible to persistence.
        bin_path = releases[domain].save(tmp_path / "release.bin")
        json_path = releases[domain].save(tmp_path / "release.json")
        loaded = Release.load(bin_path)
        assert loaded.save(tmp_path / "again.bin").read_bytes() == bin_path.read_bytes()
        assert loaded.save(tmp_path / "again.json").read_bytes() == json_path.read_bytes()


class TestContinualSnapshotRoundTrip:
    @pytest.fixture(scope="class")
    def continual(self):
        rng = np.random.default_rng(13)
        summarizer = (
            PrivHPBuilder("interval")
            .epsilon(1.0)
            .pruning_k(4)
            .stream_size(600)
            .seed(5)
            .continual()
            .build()
        )
        summarizer.update_batch(rng.beta(2.0, 5.0, 400))
        return summarizer

    def test_snapshot_binary_answers_equal_json(self, continual, tmp_path):
        snapshot = continual.snapshot()
        json_path = snapshot.save(tmp_path / "snap.json")
        bin_path = snapshot.save(tmp_path / "snap.bin")
        assert _answers(Release.load(bin_path), "interval") == _answers(
            Release.load(json_path), "interval"
        )

    def test_snapshot_document_is_lossless(self, continual, tmp_path):
        document = continual.snapshot().to_dict()
        path = save_binary(document, tmp_path / "snap.bin", verify=True)
        assert _canonical(load_binary(path)) == _canonical(document)


class TestCheckpointRoundTrip:
    def _build(self, continual: bool):
        builder = (
            PrivHPBuilder("interval").epsilon(1.0).pruning_k(4).stream_size(400).seed(9)
        )
        if continual:
            builder = builder.continual()
        return builder.build()

    @pytest.mark.parametrize("continual", [False, True], ids=["oneshot", "continual"])
    def test_binary_checkpoint_restores_identically_to_json(self, continual, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.beta(2.0, 5.0, 400)
        summarizer = self._build(continual)
        summarizer.update_batch(data[:200])
        json_path = save_checkpoint(summarizer, tmp_path / "state.json", format="json")
        bin_path = save_checkpoint(summarizer, tmp_path / "state.bin", format="binary")
        assert detect_format(json_path) == "json"
        assert detect_format(bin_path) == "binary"
        from_json = load_checkpoint(json_path)
        from_binary = load_checkpoint(bin_path)
        from_json.update_batch(data[200:])
        from_binary.update_batch(data[200:])
        assert _canonical(from_binary.release().to_dict()) == _canonical(
            from_json.release().to_dict()
        )

    @pytest.mark.parametrize("continual", [False, True], ids=["oneshot", "continual"])
    def test_checkpoint_save_load_save_fixed_point(self, continual, tmp_path):
        summarizer = self._build(continual)
        summarizer.update_batch(np.random.default_rng(3).beta(2.0, 5.0, 300))
        document = summarizer_to_dict(summarizer)
        first = save_binary(document, tmp_path / "first.bin", verify=True)
        second = save_binary(load_binary(first), tmp_path / "second.bin")
        assert first.read_bytes() == second.read_bytes()

    def test_checkpoint_json_binary_json_is_byte_identical(self, tmp_path):
        summarizer = self._build(False)
        summarizer.update_batch(np.random.default_rng(3).beta(2.0, 5.0, 300))
        json_path = save_checkpoint(summarizer, tmp_path / "state.json")
        bin_path = convert_file(json_path, tmp_path / "state.bin", "binary")
        back = convert_file(bin_path, tmp_path / "back.json", "json")
        assert back.read_bytes() == json_path.read_bytes()

    def test_mt19937_rng_state_survives_binary_roundtrip(self, tmp_path):
        # The PCG64 default keeps its 128-bit state ints in the JSON header;
        # MT19937's 624-word key is exactly the kind of state that lands in a
        # raw integer section, so pin that both formats restore it bit-for-bit.
        rng = np.random.default_rng(3)
        data = rng.beta(2.0, 5.0, 300)
        summarizer = self._build(False)
        summarizer._rng = np.random.Generator(np.random.MT19937(17))
        summarizer.update_batch(data[:150])
        json_path = save_checkpoint(summarizer, tmp_path / "state.json", format="json")
        bin_path = save_checkpoint(summarizer, tmp_path / "state.bin", format="binary")
        from_json = load_checkpoint(json_path)
        from_binary = load_checkpoint(bin_path)
        assert (
            from_binary._rng.bit_generator.state["bit_generator"] == "MT19937"
        )
        from_json.update_batch(data[150:])
        from_binary.update_batch(data[150:])
        assert _canonical(from_binary.release().to_dict()) == _canonical(
            from_json.release().to_dict()
        )

    def test_cli_checkpoint_defaults_to_binary_with_json_optout(self, tmp_path):
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, np.random.default_rng(1).beta(2, 5, 300), delimiter=",")
        binary_state = tmp_path / "state.bin"
        json_state = tmp_path / "state.json"
        assert cli_main(
            ["checkpoint", "--input", str(data_path), "--state", str(binary_state)]
        ) == 0
        assert binary_state.read_bytes()[: len(MAGIC)] == MAGIC
        assert cli_main(
            [
                "checkpoint",
                "--input",
                str(data_path),
                "--state",
                str(json_state),
                "--format",
                "json",
            ]
        ) == 0
        assert json.loads(json_state.read_text())["format"] == "privhp-checkpoint"
        # Both resume through autodetection to the same release.
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["resume", "--state", str(binary_state), "--output", str(out_a)]) == 0
        assert cli_main(["resume", "--state", str(json_state), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestConvertCLI:
    def test_convert_infers_target_from_suffix_and_roundtrips(self, releases, tmp_path):
        json_path = releases["interval"].save(tmp_path / "release.json")
        assert cli_main(["convert", str(json_path), str(tmp_path / "release.bin")]) == 0
        assert detect_format(tmp_path / "release.bin") == "binary"
        assert cli_main(
            ["convert", str(tmp_path / "release.bin"), str(tmp_path / "back.json")]
        ) == 0
        assert (tmp_path / "back.json").read_bytes() == json_path.read_bytes()

    def test_convert_explicit_target_overrides_suffix(self, releases, tmp_path):
        json_path = releases["interval"].save(tmp_path / "release.json")
        assert cli_main(
            ["convert", str(json_path), str(tmp_path / "release.dat"), "--to", "binary"]
        ) == 0
        assert detect_format(tmp_path / "release.dat") == "binary"

    def test_convert_rejects_non_state_files(self, tmp_path, capsys):
        stray = tmp_path / "stray.json"
        stray.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["convert", str(stray), str(tmp_path / "out.bin")])
        assert excinfo.value.code == 2
        assert "unknown document format" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# corrupt / adversarial inputs
# --------------------------------------------------------------------------- #
_PREFIX = struct.Struct("<8sIQ")


def _read_envelope_parts(path: pathlib.Path):
    blob = path.read_bytes()
    magic, version, header_length = _PREFIX.unpack_from(blob, 0)
    header = json.loads(blob[_PREFIX.size : _PREFIX.size + header_length])
    data_start = (_PREFIX.size + header_length + 63) // 64 * 64
    return header, blob[data_start:]


def _write_envelope(path: pathlib.Path, header: dict, data: bytes) -> pathlib.Path:
    """Reassemble an envelope from a (possibly doctored) header + data region.

    Section offsets are relative to the aligned data start, so the data
    region can be reattached verbatim under any header size.
    """
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix = _PREFIX.pack(MAGIC, BINARY_FORMAT_VERSION, len(header_bytes))
    padding = b"\x00" * ((-(len(prefix) + len(header_bytes))) % 64)
    path.write_bytes(prefix + header_bytes + padding + data)
    return path


@pytest.fixture()
def envelope_path(releases, tmp_path) -> pathlib.Path:
    return save_binary(releases["interval"].to_dict(), tmp_path / "release.bin")


class TestCorruptInputs:
    def _assert_clean_failure(self, path, match: str):
        with pytest.raises(ValueError, match=match) as excinfo:
            Release.load(path)
        assert str(path) in str(excinfo.value)
        with pytest.raises(ValueError):
            load_binary(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        # Zero bytes has no magic: autodetected as JSON and rejected as such.
        with pytest.raises(ValueError):
            Release.load(path)

    def test_truncated_prefix(self, envelope_path):
        envelope_path.write_bytes(envelope_path.read_bytes()[:12])
        self._assert_clean_failure(envelope_path, "truncated")

    def test_truncated_section_region(self, envelope_path):
        blob = envelope_path.read_bytes()
        envelope_path.write_bytes(blob[: len(blob) - 256])
        self._assert_clean_failure(envelope_path, "past the end of the file")

    def test_wrong_magic_is_treated_as_json(self, envelope_path):
        blob = envelope_path.read_bytes()
        envelope_path.write_bytes(b"NOTMAGIC" + blob[8:])
        # No magic -> the JSON loader gets it and rejects it cleanly.
        with pytest.raises(ValueError, match="not valid JSON"):
            Release.load(envelope_path)

    def test_newer_version_rejected(self, envelope_path):
        blob = bytearray(envelope_path.read_bytes())
        blob[8:12] = struct.pack("<I", BINARY_FORMAT_VERSION + 1)
        envelope_path.write_bytes(bytes(blob))
        self._assert_clean_failure(envelope_path, "newer than supported")

    def test_header_length_past_eof(self, envelope_path):
        blob = bytearray(envelope_path.read_bytes())
        blob[12:20] = struct.pack("<Q", 2**40)
        envelope_path.write_bytes(bytes(blob))
        self._assert_clean_failure(envelope_path, "truncated")

    def test_header_not_json(self, envelope_path):
        blob = bytearray(envelope_path.read_bytes())
        blob[_PREFIX.size : _PREFIX.size + 4] = b"\xff\xfe\xfd\xfc"
        envelope_path.write_bytes(bytes(blob))
        self._assert_clean_failure(envelope_path, "not valid JSON")

    def test_manifest_length_mismatch(self, envelope_path):
        header, data = _read_envelope_parts(envelope_path)
        header["sections"][0]["nbytes"] += 8
        _write_envelope(envelope_path, header, data)
        self._assert_clean_failure(envelope_path, "disagrees")

    def test_dtype_spoof_to_disallowed_dtype(self, envelope_path):
        header, data = _read_envelope_parts(envelope_path)
        header["sections"][0]["dtype"] = "<U8"
        _write_envelope(envelope_path, header, data)
        self._assert_clean_failure(envelope_path, "disallowed dtype")

    def test_dtype_spoof_to_wrong_width_caught_by_manifest(self, envelope_path):
        header, data = _read_envelope_parts(envelope_path)
        entry = next(e for e in header["sections"] if e["dtype"] == "<f8")
        entry["dtype"] = "<i4"
        _write_envelope(envelope_path, header, data)
        self._assert_clean_failure(envelope_path, "disagrees")

    def test_duplicate_section_names(self, envelope_path):
        header, data = _read_envelope_parts(envelope_path)
        header["sections"].append(dict(header["sections"][0]))
        _write_envelope(envelope_path, header, data)
        self._assert_clean_failure(envelope_path, "duplicate or invalid section name")

    def test_negative_shape(self, envelope_path):
        header, data = _read_envelope_parts(envelope_path)
        header["sections"][0]["shape"] = [-1]
        _write_envelope(envelope_path, header, data)
        self._assert_clean_failure(envelope_path, "invalid shape")

    def test_marker_referencing_unknown_section(self, envelope_path):
        header, data = _read_envelope_parts(envelope_path)
        header["document"]["tree"]["__tree__"]["counts"] = "s999"
        _write_envelope(envelope_path, header, data)
        with pytest.raises(ValueError, match="unknown section"):
            load_binary(envelope_path)
        with pytest.raises(ValueError, match="unknown section"):
            Release.load(envelope_path).tree.leaves()

    def test_section_offset_past_eof(self, envelope_path):
        header, data = _read_envelope_parts(envelope_path)
        header["sections"][0]["offset"] = 2**40
        _write_envelope(envelope_path, header, data)
        self._assert_clean_failure(envelope_path, "past the end of the file")

    def test_missing_document(self, envelope_path):
        header, data = _read_envelope_parts(envelope_path)
        del header["document"]
        _write_envelope(envelope_path, header, data)
        self._assert_clean_failure(envelope_path, "no document")

    def _doctor_section(self, path, name, change):
        """Rewrite section ``name`` in place with ``change(array)``."""
        header, data = _read_envelope_parts(path)
        if name in header["document"]["tree"]["__tree__"]:
            name = header["document"]["tree"]["__tree__"][name]
        entry = next(e for e in header["sections"] if e["name"] == name)
        start, stop = entry["offset"], entry["offset"] + entry["nbytes"]
        array = np.frombuffer(data[start:stop], dtype=entry["dtype"]).reshape(entry["shape"])
        array = change(array.copy())
        _write_envelope(path, header, data[:start] + array.tobytes() + data[stop:])

    def test_tree_codes_must_ascend_within_a_level(self, envelope_path):
        # Row 1 is the cell "0" and the last row the cell "1...1": swap their paths.
        def swap(paths):
            paths[[1, -1]] = paths[[-1, 1]]
            return paths

        self._doctor_section(envelope_path, "paths", swap)
        self._assert_clean_failure(envelope_path, "ascend|sibling|parent")

    def test_tree_needs_a_root(self, envelope_path):
        def drop_root(depths):
            depths[0] = 1
            return depths

        self._doctor_section(envelope_path, "depths", drop_root)
        self._assert_clean_failure(envelope_path, "root")

    def test_tree_children_come_in_pairs_under_a_parent(self, envelope_path):
        def deepen(depths):
            depths[-1] += 1
            return depths

        self._doctor_section(envelope_path, "depths", deepen)
        self._assert_clean_failure(envelope_path, "sibling pairs|parent")

    def test_descent_table_children_must_follow_their_parent(self, envelope_path):
        def loop_back(left_index):
            left_index[0] = 0
            return left_index

        self._doctor_section(envelope_path, "compiled.descent.left_index", loop_back)
        with pytest.raises(ValueError, match="not a valid tree"):
            Release.load(envelope_path)

    def test_load_binary_rejects_unknown_mode(self, envelope_path):
        with pytest.raises(ValueError, match="mode"):
            load_binary(envelope_path, mode="zero-copy")

    def test_checkpoint_envelope_rejected_by_release_loader(self, tmp_path):
        summarizer = PrivHPBuilder("interval").epsilon(1.0).stream_size(50).seed(1).build()
        summarizer.update_batch(np.linspace(0.05, 0.95, 50))
        path = save_checkpoint(summarizer, tmp_path / "state.bin", format="binary")
        with pytest.raises(ValueError, match="privhp-generator"):
            Release.load(path)

    def test_document_with_marker_keys_rejected_at_save(self, tmp_path):
        with pytest.raises(ValueError, match="marker"):
            save_binary(
                {"format": "privhp-checkpoint", "state": {"__section__": "s0"}},
                tmp_path / "bad.bin",
            )


# --------------------------------------------------------------------------- #
# stores and ingestion under concurrency
# --------------------------------------------------------------------------- #
class TestStoreAndConcurrency:
    def test_store_lists_and_loads_binary_releases(self, releases, tmp_path):
        for domain in DOMAINS:
            releases[domain].save(tmp_path / f"{domain}.bin")
        store = ReleaseStore(tmp_path)
        assert store.names() == sorted(DOMAINS)
        for domain in DOMAINS:
            assert _answers(store.get(domain), domain) == _answers(releases[domain], domain)

    def test_binary_preferred_over_json_for_same_stem(self, releases, tmp_path):
        release = releases["interval"]
        release.save(tmp_path / "demo.json")
        binary_copy = Release.load(release.save(tmp_path / "scratch.bin"))
        binary_copy.epsilon = 2.5  # distinguishable marker
        binary_copy.save(tmp_path / "demo.bin")
        (tmp_path / "scratch.bin").unlink()
        store = ReleaseStore(tmp_path)
        assert store.names() == ["demo"]
        assert store.get("demo").epsilon == 2.5

    def test_concurrent_cold_loads_share_one_release_and_engines(self, releases, tmp_path):
        releases["interval"].save(tmp_path / "shared.bin")
        store = ReleaseStore(tmp_path)
        workers = 8
        barrier = threading.Barrier(workers)
        loaded: list[Release] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def hammer():
            try:
                barrier.wait()
                release = store.get("shared")
                answer = release.quantile(0.5)
                with lock:
                    loaded.append((release, answer))
            except BaseException as error:  # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(loaded) == workers
        first_release, first_answer = loaded[0]
        # One canonical Release object -> one mmap, one set of compiled
        # tables; every thread answered from the same engines.
        assert all(release is first_release for release, _ in loaded)
        assert all(answer == first_answer for _, answer in loaded)
        engines = first_release._engines
        assert set(engines) == {"range", "quantile"}

    def test_ingest_evict_binary_restore_is_byte_identical(self, tmp_path):
        from repro.ingest import IngestService, TenantSpec

        spec = TenantSpec("tenant", stream_size=128, seed=4, continual=False)
        rng = np.random.default_rng(21)
        batches = [rng.beta(2.0, 5.0, 32) for _ in range(4)]

        control = spec.build_summarizer()
        for batch in batches:
            control.update_batch(spec.make_domain().coerce_stream(batch))
        control_bytes = _canonical(control.release().to_dict())

        checkpoint_dir = tmp_path / "ckpt"
        with IngestService(workers=2, checkpoint_dir=checkpoint_dir) as service:
            service.register(spec)
            service.append("tenant", batches[0])
            service.append("tenant", batches[1])
            assert service.evict("tenant") is True
            assert (checkpoint_dir / "tenant.state.bin").exists()
            assert detect_format(checkpoint_dir / "tenant.state.bin") == "binary"
            service.append("tenant", batches[2])  # transparently restored
            service.append("tenant", batches[3])
            release = service.release("tenant")
            assert service.stats()["restores"] >= 1
        assert _canonical(release.to_dict()) == control_bytes

    def test_ingest_json_checkpoint_format_still_supported(self, tmp_path):
        """A ``<tenant>.state.json`` checkpoint, as services once wrote with
        ``checkpoint_format="json"``, restores on the tenant's first touch,
        and the release removes it."""
        from repro.ingest import IngestService, TenantSpec

        spec = TenantSpec("tenant", stream_size=64, seed=4)
        rng = np.random.default_rng(22)
        batches = [rng.beta(2.0, 5.0, 32) for _ in range(2)]
        control = spec.build_summarizer()
        for batch in batches:
            control.update_batch(spec.make_domain().coerce_stream(batch))
        control_bytes = _canonical(control.release().to_dict())

        checkpoint_dir = tmp_path / "ckpt"
        checkpoint_dir.mkdir()
        evicted = spec.build_summarizer()
        evicted.update_batch(spec.make_domain().coerce_stream(batches[0]))
        path = save_checkpoint(evicted, checkpoint_dir / "tenant.state.json", format="json")
        assert json.loads(path.read_text())["format"] == "privhp-checkpoint"
        with IngestService(workers=1, checkpoint_dir=checkpoint_dir) as service:
            service.register(spec)
            service.append("tenant", batches[1])
            assert service.flush()["restores"] == 1
            assert service.items_processed("tenant") == 64
            release = service.release("tenant")
            assert not path.exists()
            assert not (checkpoint_dir / "tenant.state.bin").exists()
        assert _canonical(release.to_dict()) == control_bytes


# --------------------------------------------------------------------------- #
# frozen v1 fixture: future schema changes must keep reading old bytes
# --------------------------------------------------------------------------- #
GOLDEN_FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_release_v1.bin"


class TestGoldenFixture:
    """Pin the committed version-1 envelope (tools/make_golden_fixture.py).

    If a schema change breaks these answers, every binary checkpoint already
    on disk breaks with it: bump the version and keep reading v1 instead.
    """

    def test_golden_v1_envelope_answers(self):
        release = Release.load(GOLDEN_FIXTURE)
        assert release.items_processed == 512
        assert release.epsilon == 1.0
        assert release.mass(0.1, 0.5) == 0.7537717587931612
        assert release.cdf(0.25) == 0.4533572127669593
        assert release.quantile(0.5) == 0.25484385000120435
        assert release.quantiles([0.1, 0.9]).tolist() == [
            0.091456220758332,
            0.5571482140354804,
        ]
        assert release.range_count(0.0, 0.3) == 297.235509204325

    def test_golden_v1_envelope_is_still_the_current_fixed_point(self, tmp_path):
        document = load_binary(GOLDEN_FIXTURE)
        resaved = save_binary(document, tmp_path / "resaved.bin")
        assert resaved.read_bytes() == GOLDEN_FIXTURE.read_bytes()
