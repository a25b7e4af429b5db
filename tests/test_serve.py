"""Tests for the query-serving subsystem (repro.serve) and the Release
query surface.

The acceptance property pinned here: HTTP and batch answers are
byte-identical to in-process engine answers on the same release, across all
five domains -- every transport funnels through one evaluation path.
"""

from __future__ import annotations

import collections
import contextlib
import email.utils
import http.client
import io
import itertools
import json
import re
import socket
import statistics
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.builder import PrivHPBuilder
from repro.api.release import Release
from repro.cli import main as cli_main
from repro.queries.quantiles import QuantileEngine
from repro.queries.range_queries import RangeQueryEngine
from repro.queries.support import QUERY_TYPES, supported_queries
from repro.serve import http as serve_http
from repro.serve.batch import load_workload, run_workload, run_workload_file
from repro.serve.cache import QueryCache
from repro.serve.http import create_server, start_worker_pool
from repro.serve.service import QueryService, answer_query, normalize_query, query_key
from repro.serve.store import ReleaseStore


# --------------------------------------------------------------------------- #
# fitted releases for every domain (small streams keep this fast)
# --------------------------------------------------------------------------- #
def _fit(domain_spec: str, data) -> Release:
    return (
        PrivHPBuilder(domain_spec)
        .epsilon(1.0)
        .pruning_k(4)
        .stream_size(len(data))
        .seed(3)
        .build()
        .update_batch(data)
        .release()
    )


@pytest.fixture(scope="module")
def releases() -> dict[str, Release]:
    rng = np.random.default_rng(7)
    size = 2000
    geo_points = np.column_stack(
        [rng.uniform(24.0, 49.0, size), rng.uniform(-125.0, -66.0, size)]
    )
    return {
        "interval": _fit("interval", rng.beta(2.0, 5.0, size)),
        "hypercube": _fit("hypercube:2", rng.random((size, 2))),
        "ipv4": _fit("ipv4", rng.integers(0, 2**32, size)),
        "geo": _fit("geo:24,49,-125,-66", geo_points),
        # 4096 keeps the universe deeper than the paper-default hierarchy
        # depth at n=2000 (a 1024 universe has zero-diameter levels there).
        "discrete": _fit("discrete:4096", rng.integers(0, 4096, size)),
    }


#: One representative query per supported type, per domain.
DOMAIN_QUERIES = {
    "interval": [
        {"type": "mass", "lower": 0.2, "upper": 0.6},
        {"type": "range_count", "lower": 0.0, "upper": 0.5},
        {"type": "cdf", "point": 0.3},
        {"type": "quantile", "q": 0.5},
        {"type": "quantile", "q": [0.25, 0.5, 0.75]},
    ],
    "hypercube": [
        {"type": "mass", "lower": [0.1, 0.2], "upper": [0.6, 0.9]},
        {"type": "range_count", "lower": [0.0, 0.0], "upper": [0.5, 0.5]},
        {"type": "marginal", "axis": 0, "bins": 8},
    ],
    "ipv4": [
        {"type": "mass", "lower": 0, "upper": 2**31},
        {"type": "range_count", "lower": 2**20, "upper": 2**30},
        {"type": "cdf", "point": 2**31},
        {"type": "quantile", "q": 0.5},
    ],
    "geo": [
        {"type": "mass", "lower": [30.0, -120.0], "upper": [45.0, -80.0]},
        {"type": "range_count", "lower": [24.0, -125.0], "upper": [49.0, -66.0]},
        {"type": "marginal", "axis": 1, "bins": 4},
    ],
    "discrete": [
        {"type": "mass", "lower": 100, "upper": 2000},
        {"type": "range_count", "lower": 0, "upper": 4095},
        {"type": "cdf", "point": 2048},
        {"type": "quantile", "q": 0.9},
    ],
}


def _engine_answer(release: Release, query: dict):
    """The ground-truth answer straight from the repro.queries engines."""
    engine = RangeQueryEngine(release.tree, release.domain)
    if query["type"] == "mass":
        return engine.mass(query["lower"], query["upper"])
    if query["type"] == "range_count":
        return engine.count(query["lower"], query["upper"])
    if query["type"] == "cdf":
        return engine.cdf(query["point"])
    if query["type"] == "quantile":
        quantile_engine = QuantileEngine(release.tree, release.domain)
        q = query["q"]
        if isinstance(q, list):
            return [value.item() if hasattr(value, "item") else value
                    for value in quantile_engine.quantiles(q)]
        value = quantile_engine.quantile(q)
        return value.item() if hasattr(value, "item") else value
    return [float(v) for v in engine.marginal(query["axis"], bins=query["bins"])]


# --------------------------------------------------------------------------- #
# QueryCache
# --------------------------------------------------------------------------- #
class TestQueryCache:
    def test_lookup_computes_once(self):
        cache = QueryCache(maxsize=4)
        calls = []
        assert cache.lookup("k", lambda: calls.append(1) or 42) == 42
        assert cache.lookup("k", lambda: calls.append(1) or 43) == 42
        assert len(calls) == 1

    def test_stats_track_hits_and_misses(self):
        cache = QueryCache(maxsize=4)
        cache.lookup("a", lambda: 1)
        cache.lookup("a", lambda: 1)
        cache.lookup("b", lambda: 2)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 2, 2)
        assert stats["hit_rate"] == pytest.approx(1 / 3)

    def test_lru_eviction(self):
        cache = QueryCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_clear_resets_everything(self):
        cache = QueryCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            QueryCache(maxsize=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_reads_and_writes_match_the_per_key_loop(self, seed):
        """``get_many`` and ``put_many`` leave the values, hits, misses,
        entries and LRU order of a per-key LRU loop, through evictions and
        repeated keys."""
        rng = np.random.default_rng(seed)
        cache = QueryCache(maxsize=5)
        entries: collections.OrderedDict = collections.OrderedDict()
        hits = misses = 0
        for _ in range(40):
            keys = [f"k{key}" for key in rng.integers(0, 9, rng.integers(1, 8))]
            expected = []
            for key in keys:  # one read per key
                if key in entries:
                    entries.move_to_end(key)
                    hits += 1
                    expected.append(entries[key])
                else:
                    misses += 1
                    expected.append("miss")
            assert cache.get_many(keys, "miss") == expected
            items = [(f"k{key}", int(key)) for key in rng.integers(0, 9, rng.integers(0, 8))]
            for key, value in items:  # one store per pair
                entries[key] = value
                entries.move_to_end(key)
                while len(entries) > 5:
                    entries.popitem(last=False)
            cache.put_many(items)
            assert list(cache._entries.items()) == list(entries.items())
            stats = cache.stats()
            assert (stats["hits"], stats["misses"], stats["size"]) == (hits, misses, len(entries))


# --------------------------------------------------------------------------- #
# query normalisation and the Release query surface
# --------------------------------------------------------------------------- #
class TestNormalizeQuery:
    def test_unknown_type_rejected(self, releases):
        with pytest.raises(ValueError, match="unknown query type"):
            normalize_query(releases["interval"], {"type": "median"})

    def test_unsupported_type_for_domain_rejected(self, releases):
        with pytest.raises(ValueError, match="not supported on GeoDomain"):
            normalize_query(releases["geo"], {"type": "quantile", "q": 0.5})
        with pytest.raises(ValueError, match="not supported on UnitInterval"):
            normalize_query(releases["interval"], {"type": "marginal", "axis": 0})

    def test_missing_parameters_rejected(self, releases):
        with pytest.raises(ValueError, match="lower"):
            normalize_query(releases["interval"], {"type": "mass", "upper": 1.0})
        with pytest.raises(ValueError, match="requires q"):
            normalize_query(releases["interval"], {"type": "quantile"})
        with pytest.raises(ValueError, match="requires point"):
            normalize_query(releases["interval"], {"type": "cdf"})
        with pytest.raises(ValueError, match="requires axis"):
            normalize_query(releases["hypercube"], {"type": "marginal"})

    def test_non_dict_rejected(self, releases):
        with pytest.raises(ValueError, match="JSON object"):
            normalize_query(releases["interval"], [1, 2])

    def test_canonical_form_is_spelling_independent(self, releases):
        release = releases["hypercube"]
        a = normalize_query(release, {"type": "mass", "lower": (0.1, 0.2), "upper": [0.5, 0.5]})
        b = normalize_query(release, {"type": "mass", "lower": [0.1, 0.2], "upper": (0.5, 0.5)})
        assert query_key("r", a) == query_key("r", b)

    def test_marginal_default_bins(self, releases):
        canonical = normalize_query(releases["hypercube"], {"type": "marginal", "axis": 1})
        assert canonical["bins"] == 32


class TestQueryKeys:
    """Two canonical queries share a cache key exactly when their JSON texts
    are equal, though the key encodes no JSON."""

    #: Each pair spells two queries that Python's ``==`` would confuse (or a
    #: key that parsed the string would): each makes its own cache entry.
    PAIRS = [
        ('{"type": "mass", "lower": -0.0, "upper": 0.5}',
         '{"type": "mass", "lower": 0.0, "upper": 0.5}'),
        ('{"type": "cdf", "point": -0.0}', '{"type": "cdf", "point": 0.0}'),
        ('{"type": "quantile", "q": -0.0}', '{"type": "quantile", "q": 0.0}'),
        ('{"type": "mass", "lower": true, "upper": 1.0}',
         '{"type": "mass", "lower": 1.0, "upper": 1.0}'),
        ('{"type": "mass", "lower": "0.25", "upper": 0.75}',
         '{"type": "mass", "lower": 0.25, "upper": 0.75}'),
        ('{"type": "cdf", "point": "0.25"}', '{"type": "cdf", "point": 0.25}'),
    ]

    @pytest.mark.parametrize("method", ["answer", "answer_many"])
    def test_confusable_pairs_make_separate_entries(self, releases, method):
        release = releases["interval"]
        store = ReleaseStore()
        store.add("only", release)
        service = QueryService(store)
        queries = [json.loads(text) for pair in self.PAIRS for text in pair]
        if method == "answer":
            results = [service.answer(query) for query in queries]
        else:
            results = service.answer_many(queries)
        assert [result["cached"] for result in results] == [False] * 12
        assert service.stats()["cache"]["size"] == 12
        for query, result in zip(queries, results):
            assert result["answer"] == answer_query(release, query)

    def test_keys_are_equal_exactly_when_json_texts_are(self):
        values = [
            0.0, -0.0, 0.25, -0.25, 1.0, float("inf"), -float("inf"), float("nan"),
            float("nan"), True, False, 1, 0, "0.25", "1.0", "", None,
            [0.0], [-0.0], [0.0, 0.25], [0.25, 0.0], [float("nan")], {"a": 1.0},
        ]
        texts = [json.dumps(value, sort_keys=True) for value in values]
        keys = [query_key("r", {"type": "cdf", "point": value}) for value in values]
        assert len({hash(key) for key in keys}) > 1
        for i, j in itertools.product(range(len(values)), repeat=2):
            assert (keys[i] == keys[j]) == (texts[i] == texts[j]), (values[i], values[j])

    def test_release_and_version_are_part_of_the_key(self):
        query = {"type": "cdf", "point": 0.5}
        keys = {
            query_key("a", query),
            query_key("b", query),
            query_key("a", query, version=0),
            query_key("a", query, version=1),
        }
        assert len(keys) == 4


class TestReleaseQuerySurface:
    def test_engines_are_lazy_and_cached(self, releases):
        release = releases["interval"]
        assert release.range_engine() is release.range_engine()
        assert release.quantile_engine() is release.quantile_engine()

    def test_supported_queries_match_support_table(self, releases):
        for release in releases.values():
            assert release.supported_queries() == supported_queries(release.domain)
            for query_type in release.supported_queries():
                assert query_type in QUERY_TYPES

    @pytest.mark.parametrize("name", sorted(DOMAIN_QUERIES))
    def test_release_methods_match_engines(self, releases, name):
        release = releases[name]
        for query in DOMAIN_QUERIES[name]:
            assert answer_query(release, query) == _engine_answer(release, query)

    def test_quantile_engine_rejected_on_vector_domains(self, releases):
        with pytest.raises(TypeError, match="ordered domain"):
            releases["hypercube"].quantile(0.5)

    def test_ipv4_accepts_dotted_quad_bounds(self, releases):
        release = releases["ipv4"]
        by_string = release.mass("0.0.0.0", "128.0.0.0")
        by_int = release.mass(0, 2**31)
        assert by_string == by_int


# --------------------------------------------------------------------------- #
# ReleaseStore
# --------------------------------------------------------------------------- #
class TestReleaseStore:
    def test_scans_directory_and_loads_lazily(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "alpha.json")
        releases["ipv4"].save(tmp_path / "beta.json")
        store = ReleaseStore(tmp_path)
        assert store.names() == ["alpha", "beta"]
        assert store._loaded == {}  # nothing loaded yet
        assert store.get("alpha").mass(0.0, 1.0) == pytest.approx(1.0)
        assert "alpha" in store._loaded and "beta" not in store._loaded
        assert store.get("alpha") is store.get("alpha")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            ReleaseStore(tmp_path / "nope")

    def test_unknown_name_is_keyerror(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "only.json")
        store = ReleaseStore(tmp_path)
        with pytest.raises(KeyError, match="unknown release"):
            store.get("other")

    def test_invalid_file_is_valueerror_and_listed_with_error(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "good.json")
        (tmp_path / "bad.json").write_text("{not json")
        store = ReleaseStore(tmp_path)
        with pytest.raises(ValueError, match="not valid JSON"):
            store.get("bad")
        rows = {row["name"]: row for row in store.describe()}
        assert "error" in rows["bad"] and rows["good"]["domain"] == "UnitInterval"
        assert rows["good"]["queries"] == list(supported_queries(releases["interval"].domain))

    def test_refresh_picks_up_new_and_dropped_files(self, tmp_path, releases):
        store = ReleaseStore(tmp_path)
        assert store.names() == []
        releases["interval"].save(tmp_path / "late.json")
        assert store.refresh() == ["late"]
        store.get("late")
        (tmp_path / "late.json").unlink()
        assert store.refresh() == []
        with pytest.raises(KeyError):
            store.get("late")

    def test_domain_routing(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "scalar.json")
        releases["ipv4"].save(tmp_path / "addresses.json")
        store = ReleaseStore(tmp_path)
        assert store.names_for_domain("IPv4Domain") == ["addresses"]
        name = store.route(domain="unitinterval")
        assert name == "scalar" and isinstance(store.get(name), Release)
        with pytest.raises(KeyError, match="matches no release"):
            store.route(domain="Hypercube")

    def test_domain_routing_skips_invalid_files(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "good.json")
        (tmp_path / "workload.json").write_text("[1, 2, 3]")  # legit non-release JSON
        store = ReleaseStore(tmp_path)
        assert store.names_for_domain("UnitInterval") == ["good"]
        assert store.route(domain="UnitInterval") == "good"

    def test_ambiguous_domain_routing_rejected(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "one.json")
        releases["interval"].save(tmp_path / "two.json")
        store = ReleaseStore(tmp_path)
        with pytest.raises(ValueError, match="ambiguous"):
            store.route(domain="UnitInterval")

    def test_in_memory_add(self, releases):
        store = ReleaseStore()
        store.add("mem", releases["interval"])
        assert "mem" in store and len(store) == 1
        assert store.get("mem") is releases["interval"]

    def test_refresh_keeps_in_memory_releases(self, tmp_path, releases):
        store = ReleaseStore(tmp_path)
        store.add("mem", releases["interval"])
        assert store.refresh() == ["mem"]
        assert store.get("mem") is releases["interval"]


# --------------------------------------------------------------------------- #
# QueryService
# --------------------------------------------------------------------------- #
class TestQueryService:
    def _service(self, releases, names=("interval",)):
        store = ReleaseStore()
        for name in names:
            store.add(name, releases[name])
        return QueryService(store)

    def test_answers_match_engines_and_cache(self, releases):
        service = self._service(releases)
        query = {"type": "mass", "lower": 0.2, "upper": 0.6}
        first = service.answer(query, release="interval")
        second = service.answer(query, release="interval")
        assert first["answer"] == _engine_answer(releases["interval"], query)
        assert (first["cached"], second["cached"]) == (False, True)
        assert second["answer"] == first["answer"]

    def test_single_release_store_needs_no_routing(self, releases):
        service = self._service(releases)
        result = service.answer({"type": "cdf", "point": 0.5})
        assert result["release"] == "interval"

    def test_multi_release_store_requires_routing(self, releases):
        service = self._service(releases, names=("interval", "ipv4"))
        with pytest.raises(ValueError, match="by 'release' name or 'domain'"):
            service.answer({"type": "cdf", "point": 0.5})
        result = service.answer({"type": "cdf", "point": 2**31}, domain="IPv4Domain")
        assert result["release"] == "ipv4"

    def test_int_and_float_spellings_share_a_cache_entry(self, releases):
        service = self._service(releases)
        first = service.answer({"type": "mass", "lower": 0, "upper": 1})
        second = service.answer({"type": "mass", "lower": 0.0, "upper": 1.0})
        assert second["cached"] is True
        assert second["answer"] == first["answer"]

    def test_stats_counts_releases_and_cache(self, releases):
        service = self._service(releases)
        service.answer({"type": "quantile", "q": 0.5})
        stats = service.stats()
        assert stats["releases"] == 1 and stats["cache"]["misses"] == 1

    def test_batch_cache_flags_stats_and_lru_order(self, releases):
        """A batch with earlier hits and in-batch duplicates: every
        duplicate of a cold query misses, and the batch leaves the counts
        and LRU order of one read per query, then one store per miss."""
        store = ReleaseStore()
        store.add("interval", releases["interval"])
        service = QueryService(store, cache_size=4)
        a, b, c, d, e = (
            {"type": "mass", "lower": 0.1, "upper": 0.2},
            {"type": "cdf", "point": 0.3},
            {"type": "quantile", "q": 0.5},
            {"type": "mass", "lower": 0.4, "upper": 0.9},
            {"type": "cdf", "point": 0.7},
        )
        service.answer(a)
        service.answer(b)
        results = service.answer_many([a, c, c, b, d, a, c])
        assert [row["cached"] for row in results] == [True, False, False, True, False, True, False]
        cache = service.stats()["cache"]
        assert (cache["hits"], cache["misses"], cache["size"]) == (3, 6, 4)
        # Least recent first: b, a, d, c.  One more entry evicts b only.
        service.answer(e)
        assert [row["cached"] for row in service.answer_many([a, d, c, e, b])] == [
            True, True, True, True, False
        ]
        cache = service.stats()["cache"]
        assert (cache["hits"], cache["misses"], cache["size"]) == (7, 8, 4)
        for query, row in zip([a, c, c, b, d, a, c], results):
            assert row["answer"] == answer_query(releases["interval"], query)


# --------------------------------------------------------------------------- #
# transports: batch and HTTP are byte-identical to in-process engines
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
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


class TestTransportsAreByteIdentical:
    @pytest.mark.parametrize("name", sorted(DOMAIN_QUERIES))
    def test_batch_matches_engines(self, tmp_path, releases, name):
        release = releases[name]
        release_path = tmp_path / f"{name}.json"
        release.save(release_path)
        workload_path = tmp_path / "workload.json"
        workload_path.write_text(json.dumps(DOMAIN_QUERIES[name]))

        document = run_workload_file(release_path, workload_path)
        loaded = Release.load(release_path)
        assert document["num_queries"] == len(DOMAIN_QUERIES[name])
        for query, row in zip(DOMAIN_QUERIES[name], document["results"]):
            expected = _engine_answer(loaded, query)
            assert row["answer"] == expected
            # byte-identical once serialised, too
            assert json.dumps(row["answer"]) == json.dumps(expected)

    def test_http_matches_engines_across_all_domains(self, tmp_path, releases):
        for name, release in releases.items():
            release.save(tmp_path / f"{name}.json")
        store = ReleaseStore(tmp_path)
        with _running_server(store) as base:
            for name, queries in sorted(DOMAIN_QUERIES.items()):
                loaded = store.get(name)
                for query in queries:
                    result = _post(base + "/query", {"release": name, "query": query})
                    expected = _engine_answer(loaded, query)
                    assert result["answer"] == expected, (name, query)
                    assert json.dumps(result["answer"]) == json.dumps(expected)

    def test_http_batch_route_and_cache_flag(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "only.json")
        with _running_server(ReleaseStore(tmp_path)) as base:
            payload = {"release": "only", "queries": DOMAIN_QUERIES["interval"]}
            first = _post(base + "/query", payload)
            second = _post(base + "/query", payload)
            assert [row["cached"] for row in first["results"]] == [False] * 5
            assert [row["cached"] for row in second["results"]] == [True] * 5
            assert [row["answer"] for row in first["results"]] == [
                row["answer"] for row in second["results"]
            ]

    def test_http_sampling_is_never_exposed(self, tmp_path, releases):
        # Serving is read-only post-processing: the only POST route is /query.
        releases["interval"].save(tmp_path / "only.json")
        with _running_server(ReleaseStore(tmp_path)) as base:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base + "/sample", {"size": 10})
            assert excinfo.value.code == 404
            excinfo.value.close()


class TestHTTPEndpoints:
    @pytest.fixture()
    def served(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "scalar.json")
        releases["hypercube"].save(tmp_path / "plane.json")
        with _running_server(ReleaseStore(tmp_path)) as base:
            yield base

    def test_healthz(self, served):
        payload = json.loads(urllib.request.urlopen(served + "/healthz").read())
        assert payload == {"status": "ok", "releases": 2}

    def test_releases_listing(self, served, releases):
        payload = json.loads(urllib.request.urlopen(served + "/releases").read())
        rows = {row["name"]: row for row in payload["releases"]}
        assert rows["scalar"]["domain"] == "UnitInterval"
        assert rows["plane"]["queries"] == ["mass", "range_count", "marginal"]
        assert rows["scalar"]["leaves"] == len(releases["interval"].tree.leaves())
        assert rows["plane"]["leaves"] == len(releases["hypercube"].tree.leaves())

    def test_stats_reports_cache(self, served):
        _post(served + "/query", {"release": "scalar", "query": {"type": "cdf", "point": 0.5}})
        payload = json.loads(urllib.request.urlopen(served + "/stats").read())
        assert payload["cache"]["misses"] == 1

    @pytest.mark.parametrize(
        "payload, code, message",
        [
            ({"release": "missing", "query": {"type": "cdf", "point": 0.5}}, 404, "unknown release"),
            ({"release": "scalar", "query": {"type": "nope"}}, 400, "unknown query type"),
            ({"release": "scalar"}, 400, "'query' object or a 'queries' list"),
            ({"release": "scalar", "queries": {"type": "cdf"}}, 400, "must be a list"),
            ({"release": "scalar", "query": {"type": "marginal", "axis": 0}}, 400, "not supported"),
            # two releases served, so omitting the routing is a client error
            ({"query": {"type": "cdf", "point": 0.5}}, 400, "must address a release"),
        ],
    )
    def test_error_statuses(self, served, payload, code, message):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(served + "/query", payload)
        assert excinfo.value.code == code
        body = json.loads(excinfo.value.read())
        excinfo.value.close()
        assert message in body["error"]

    def test_unknown_get_path_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(served + "/nope")
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_invalid_json_body_is_400(self, served):
        request = urllib.request.Request(served + "/query", data=b"{oops")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        excinfo.value.close()


class TestNaNBounds:
    """A NaN range bound is rejected like an inverted one: ``ValueError`` in
    process and through ``answer_many``, 400 over HTTP, never a cached
    ``NaN`` answer.  Infinite bounds still answer."""

    NAN = float("nan")

    def test_in_process_interval(self, releases):
        release = releases["interval"]
        for call in (
            lambda: release.mass(self.NAN, 0.5),
            lambda: release.mass(0.1, self.NAN),
            lambda: release.range_count(self.NAN, self.NAN),
            lambda: release.cdf(self.NAN),
            lambda: release.mass_many([0.0, self.NAN], [0.5, 0.5]),
        ):
            with pytest.raises(ValueError, match="NaN"):
                call()
        assert release.mass(0.2, float("inf")) == release.mass(0.2, 1.0)
        assert release.mass(float("-inf"), 0.3) == release.cdf(0.3)

    @pytest.mark.parametrize("name", ["hypercube", "geo"])
    def test_in_process_boxes(self, releases, name):
        release = releases[name]
        lower, upper = DOMAIN_QUERIES[name][0]["lower"], DOMAIN_QUERIES[name][0]["upper"]
        with pytest.raises(ValueError, match="NaN"):
            release.mass([self.NAN, lower[1]], upper)
        with pytest.raises(ValueError, match="NaN"):
            release.mass(lower, [upper[0], self.NAN])
        assert release.mass(lower, [float("inf")] * 2) == release.mass(
            lower, [1.0, 1.0] if name == "hypercube" else [49.0, -66.0]
        )

    def test_answer_many_fails_the_batch(self, releases):
        store = ReleaseStore()
        store.add("interval", releases["interval"])
        service = QueryService(store)
        batch = [
            {"type": "mass", "lower": 0.0, "upper": 0.5},
            {"type": "mass", "lower": "NaN", "upper": 0.5},
        ]
        with pytest.raises(ValueError, match="NaN"):
            service.answer_many(batch)
        with pytest.raises(ValueError, match="NaN"):
            service.answer({"type": "cdf", "point": self.NAN})
        assert service.cache.stats()["size"] == 0

    def test_http_answers_400_and_caches_nothing(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "scalar.json")
        query = {"type": "mass", "lower": "NaN", "upper": 0.5}
        with _running_server(ReleaseStore(tmp_path)) as base:
            for payload in (
                {"release": "scalar", "query": query},
                {"release": "scalar", "query": query},
                {"release": "scalar", "queries": [{"type": "cdf", "point": 0.5}, query]},
            ):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(base + "/query", payload)
                assert excinfo.value.code == 400
                assert "NaN" in json.loads(excinfo.value.read())["error"]
                excinfo.value.close()
            infinite = _post(
                base + "/query",
                {"release": "scalar", "query": {"type": "mass", "lower": 0.2, "upper": "inf"}},
            )
            assert infinite["answer"] == releases["interval"].mass(0.2, 1.0)
            stats = json.loads(urllib.request.urlopen(base + "/stats").read())
            assert stats["cache"]["size"] == 1


class TestNumpyBounds:
    """In-process callers may pass numpy numbers and one-dimensional arrays
    as bounds: each query answers like its Python spelling and shares its
    cache entry."""

    CASES = [
        (
            "discrete",
            {"type": "mass", "lower": np.int64(100), "upper": np.int64(2000)},
            {"type": "mass", "lower": 100, "upper": 2000},
        ),
        (
            "interval",
            {"type": "mass", "lower": np.float32(0.25), "upper": np.float32(0.75)},
            {"type": "mass", "lower": 0.25, "upper": 0.75},
        ),
        (
            "hypercube",
            {"type": "mass", "lower": np.array([0.1, 0.2]), "upper": np.array([0.6, 0.9])},
            {"type": "mass", "lower": [0.1, 0.2], "upper": [0.6, 0.9]},
        ),
        (
            "interval",
            {"type": "mass", "lower": np.bool_(False), "upper": 0.5},
            {"type": "mass", "lower": False, "upper": 0.5},
        ),
        (
            "interval",
            {"type": "cdf", "point": np.bool_(True)},
            {"type": "cdf", "point": True},
        ),
    ]

    @pytest.mark.parametrize("method", ["answer", "answer_many"])
    @pytest.mark.parametrize(
        "name, numpy_query, python_query",
        CASES,
        ids=["int64", "float32", "ndarray", "bool-bound", "bool-point"],
    )
    def test_answers_and_keys_match_the_python_spelling(
        self, releases, method, name, numpy_query, python_query
    ):
        store = ReleaseStore()
        store.add("only", releases[name])
        service = QueryService(store)
        if method == "answer":
            first, second = service.answer(numpy_query), service.answer(python_query)
        else:
            [first], [second] = service.answer_many([numpy_query]), service.answer_many([python_query])
        assert first["answer"] == answer_query(releases[name], python_query)
        assert first["query"] == second["query"]
        assert json.dumps(first["query"]) == json.dumps(second["query"])
        assert (first["cached"], second["cached"]) == (False, True)


class TestIntegerBoundsOutsideInt64:
    """An infinite bound on an integer domain has no integer value: a
    ``ValueError`` in process and a JSON 400 over HTTP, after which the
    keep-alive connection still answers.  A finite bound past the domain,
    however large, answers like the domain's end."""

    BAD_QUERIES = (
        '{"type": "mass", "lower": 0, "upper": 1e400}',
        '{"type": "range_count", "lower": -1e400, "upper": 5}',
        '{"type": "cdf", "point": Infinity}',
    )

    @pytest.mark.parametrize("name", ["ipv4", "discrete"])
    def test_in_process(self, releases, name):
        release = releases[name]
        service = QueryService(ReleaseStore())
        service.store.add(name, release)
        inf = float("inf")
        for call in (
            lambda: release.mass(0, inf),
            lambda: release.range_count(-inf, 5),
            lambda: release.cdf(inf),
            lambda: service.answer({"type": "mass", "lower": 0, "upper": inf}),
            lambda: service.answer({"type": "cdf", "point": inf}),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()
        last = 2**32 - 1 if name == "ipv4" else 4095
        assert release.mass(0, 1e30) == release.mass(0, last)
        assert release.mass(-(2**70), 2**70) == release.mass(0, last)
        assert release.mass(-(2**63), -(2**63)) == 0.0
        assert release.mass(2**63, 2**70) == 0.0

    @pytest.mark.parametrize("name", ["ipv4", "discrete"])
    def test_http_answers_400_and_keeps_the_connection(self, releases, name):
        store = ReleaseStore()
        store.add(name, releases[name])
        valid = {"type": "mass", "lower": 0, "upper": 1000}
        with _running_server(store) as base:
            port = int(base.rsplit(":", 1)[1])
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                for query in self.BAD_QUERIES:
                    for body in (
                        f'{{"release": "{name}", "query": {query}}}',
                        f'{{"release": "{name}", "queries": [{json.dumps(valid)}, {query}]}}',
                    ):
                        connection.request("POST", "/query", body=body)
                        response = connection.getresponse()
                        error = json.loads(response.read())["error"]
                        assert response.status == 400 and not response.will_close
                        assert "finite" in error
                        connection.request(
                            "POST", "/query", body=json.dumps({"release": name, "query": valid})
                        )
                        response = connection.getresponse()
                        assert response.status == 200
                        assert json.loads(response.read())["answer"] == releases[name].mass(0, 1000)
            finally:
                connection.close()


# --------------------------------------------------------------------------- #
# batch workload files and the CLI
# --------------------------------------------------------------------------- #
class TestBatchWorkloads:
    def test_load_workload_accepts_list_and_object(self, tmp_path):
        queries = [{"type": "cdf", "point": 0.5}]
        (tmp_path / "list.json").write_text(json.dumps(queries))
        (tmp_path / "object.json").write_text(json.dumps({"queries": queries}))
        assert load_workload(tmp_path / "list.json") == queries
        assert load_workload(tmp_path / "object.json") == queries

    def test_load_workload_rejects_garbage(self, tmp_path):
        (tmp_path / "bad.json").write_text("{broken")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_workload(tmp_path / "bad.json")
        (tmp_path / "scalar.json").write_text("42")
        with pytest.raises(ValueError, match="must be a JSON list"):
            load_workload(tmp_path / "scalar.json")

    def test_run_workload_validates_each_query(self, releases):
        with pytest.raises(ValueError, match="unknown query type"):
            run_workload(releases["interval"], [{"type": "wat"}])

    def test_cli_query_prints_and_writes(self, tmp_path, releases, capsys):
        release_path = tmp_path / "release.json"
        releases["interval"].save(release_path)
        workload = tmp_path / "queries.json"
        workload.write_text(json.dumps(DOMAIN_QUERIES["interval"]))

        assert cli_main(["query", str(release_path), "--workload", str(workload)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["num_queries"] == 5

        output = tmp_path / "answers.json"
        assert cli_main(
            ["query", str(release_path), "--workload", str(workload), "--output", str(output)]
        ) == 0
        written = json.loads(output.read_text())
        assert written["results"] == printed["results"]

    def test_cli_query_bad_workload_exits_cleanly(self, tmp_path, releases, capsys):
        release_path = tmp_path / "release.json"
        releases["interval"].save(release_path)
        workload = tmp_path / "queries.json"
        workload.write_text("{broken")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["query", str(release_path), "--workload", str(workload)])
        assert excinfo.value.code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_cli_serve_missing_store_exits_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--store", str(tmp_path / "nope"), "--port", "0"])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# live snapshot serving (continual summarizers registered in a store)
# --------------------------------------------------------------------------- #
def _live_summarizer(n=3000, epsilon=5.0, seed=0):
    return (
        PrivHPBuilder("interval")
        .epsilon(epsilon)
        .pruning_k(4)
        .stream_size(n)
        .seed(seed)
        .continual()
        .build()
    )


class TestLiveServing:
    def test_register_live_requires_a_snapshot_source(self, releases):
        store = ReleaseStore()
        with pytest.raises(TypeError, match="snapshot"):
            store.register_live("bad", releases["interval"])
        with pytest.raises(ValueError):
            store.register_live("", _live_summarizer())

    def test_live_names_are_addressable_and_flagged(self):
        summarizer = _live_summarizer()
        summarizer.update_batch(np.random.default_rng(1).beta(2, 5, 1000))
        store = ReleaseStore()
        store.register_live("stream", summarizer)
        assert "stream" in store and store.names() == ["stream"]
        assert store.is_live("stream")
        info = store.info("stream")
        assert info["live"] is True and info["items_processed"] == 1000

    def test_snapshot_refreshes_only_when_stream_advances(self):
        summarizer = _live_summarizer()
        summarizer.update_batch(np.random.default_rng(1).beta(2, 5, 1000))
        store = ReleaseStore()
        store.register_live("stream", summarizer)
        first = store.get("stream")
        assert store.get("stream") is first  # unchanged stream: same snapshot
        summarizer.update_batch(np.random.default_rng(2).beta(2, 5, 500))
        second = store.get("stream")
        assert second is not first
        assert (first.items_processed, second.items_processed) == (1000, 1500)

    def test_cache_invalidated_when_stream_advances(self):
        summarizer = _live_summarizer()
        data = np.random.default_rng(3).beta(2, 5, 3000)
        summarizer.update_batch(data[:1500])
        store = ReleaseStore()
        store.register_live("stream", summarizer)
        service = QueryService(store)
        query = {"type": "mass", "lower": 0.0, "upper": 0.25}
        first = service.answer(query)
        repeat = service.answer(query)
        assert (first["cached"], repeat["cached"]) == (False, True)
        assert repeat["items_processed"] == 1500
        summarizer.update_batch(data[1500:])
        fresh = service.answer(query)
        assert fresh["cached"] is False  # the old memoized answer is dead
        assert fresh["items_processed"] == 3000
        assert service.answer(query)["cached"] is True

    def test_mid_stream_http_answers_match_in_process_snapshot(self):
        """Acceptance: an HTTP answer against a live stream is byte-identical
        to answering an in-process snapshot() of the same state."""
        summarizer = _live_summarizer()
        data = np.random.default_rng(4).beta(2, 5, 3000)
        summarizer.update_batch(data[:2000])
        store = ReleaseStore()
        store.register_live("stream", summarizer)
        queries = [
            {"type": "mass", "lower": 0.1, "upper": 0.6},
            {"type": "cdf", "point": 0.5},
            {"type": "quantile", "q": [0.25, 0.5, 0.75]},
            {"type": "range_count", "lower": 0.0, "upper": 1.0},
        ]
        with _running_server(store) as base:
            local = summarizer.snapshot()
            for query in queries:
                served = _post(base + "/query", {"release": "stream", "query": query})
                expected = answer_query(local, query)
                assert served["answer"] == expected, query
                assert served["items_processed"] == 2000
            # ingest more mid-serving; answers follow the new state
            summarizer.update_batch(data[2000:])
            local = summarizer.snapshot()
            for query in queries:
                served = _post(base + "/query", {"release": "stream", "query": query})
                assert served["answer"] == answer_query(local, query), query
                assert served["items_processed"] == 3000

    def test_answer_many_reports_one_version_per_batch(self):
        """A batch against a live release resolves the snapshot once: every
        row carries the same ``items_processed``, even while an ingesting
        thread advances the stream mid-batch (the per-query loop this
        replaced could mix versions inside one response)."""
        summarizer = _live_summarizer(n=20_000)
        data = np.random.default_rng(8).beta(2, 5, 20_000)
        summarizer.update_batch(data[:100])  # non-degenerate starting state
        store = ReleaseStore()
        store.register_live("stream", summarizer)
        service = QueryService(store)
        stop = threading.Event()
        errors = []

        def ingest():
            try:
                for chunk in np.array_split(data[100:], 200):
                    summarizer.update_batch(chunk)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)
            finally:
                stop.set()

        thread = threading.Thread(target=ingest)
        thread.start()
        rng = np.random.default_rng(9)
        batches = 0
        while not stop.is_set():
            bounds = np.sort(rng.random((32, 2)), axis=1)
            batch = [
                {"type": "mass", "lower": float(low), "upper": float(high)}
                for low, high in bounds
            ]
            results = service.answer_many(batch)
            versions = {row["items_processed"] for row in results}
            assert len(versions) == 1, f"batch mixed snapshot versions: {versions}"
            batches += 1
        thread.join()
        assert not errors and batches > 0
        final = service.answer_many([{"type": "mass", "lower": 0.0, "upper": 1.0}])
        assert final[0]["items_processed"] == 20_000

    def test_serving_while_ingesting_is_race_free(self):
        """Concurrent ingestion and querying never observe torn state: every
        served answer equals the answer of a consistent snapshot."""
        summarizer = _live_summarizer(n=20_000)
        data = np.random.default_rng(5).beta(2, 5, 20_000)
        store = ReleaseStore()
        store.register_live("stream", summarizer)
        service = QueryService(store)
        errors = []

        def ingest():
            try:
                for chunk in np.array_split(data, 40):
                    summarizer.update_batch(chunk)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        thread = threading.Thread(target=ingest)
        thread.start()
        query = {"type": "mass", "lower": 0.0, "upper": 0.5}
        answers = []
        while thread.is_alive():
            answers.append(service.answer(query)["answer"])
        thread.join()
        assert not errors
        final = service.answer(query)
        assert final["items_processed"] == 20_000
        for answer in answers:
            assert 0.0 <= answer <= 1.0


class TestLiveAnswersAreNeverCachedAsStatic:
    """A live name can be unregistered while its snapshot is taken (an
    ingest service releasing the tenant unregisters it, then adds the final
    release under the same name; eviction unregisters too).  The snapshot's
    answer must stay keyed as a live answer, not become the memoized answer
    of the static release added next."""

    @pytest.mark.parametrize("method", ["answer", "answer_many"])
    def test_snapshot_of_a_name_unregistered_meanwhile(self, method):
        summarizer = _live_summarizer()
        summarizer.update_batch(np.random.default_rng(31).beta(2, 5, 1000))
        store = ReleaseStore()

        class UnregisteredWhileSnapshotting:
            @property
            def items_processed(self):
                return summarizer.items_processed

            def snapshot(self):
                store.unregister_live("stream")
                return summarizer.snapshot()

        store.register_live("stream", UnregisteredWhileSnapshotting())
        service = QueryService(store)
        query = {"type": "mass", "lower": 0.0, "upper": 0.25}

        def ask() -> dict:
            if method == "answer":
                return service.answer(query, release="stream")
            return service.answer_many([query], release="stream")[0]

        live = ask()
        assert live["answer"] == answer_query(summarizer.snapshot(), query)
        assert live["items_processed"] == 1000 and not store.is_live("stream")
        final = _fit("interval", np.random.default_rng(32).beta(5, 2, 1000))
        store.add("stream", final)
        static = ask()
        assert static["answer"] == final.mass(0.0, 0.25) != live["answer"]
        assert static["cached"] is False and "items_processed" not in static
        assert ask()["cached"] is True


class TestKeepAliveResponsesDoNotStall:
    """A keep-alive round trip takes milliseconds.  A response sent in more
    than one piece with Nagle's algorithm on would wait ~40 ms for the
    client's delayed ACK of the first."""

    def test_keep_alive_round_trips_take_milliseconds(self, releases):
        store = ReleaseStore()
        store.add("only", releases["interval"])
        body = json.dumps(
            {"release": "only", "query": {"type": "mass", "lower": 0.1, "upper": 0.9}}
        )
        seconds = []
        with _running_server(store) as base:
            port = int(base.rsplit(":", 1)[1])
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                for _ in range(20):
                    began = time.perf_counter()
                    connection.request("POST", "/query", body=body)
                    response = connection.getresponse()
                    assert response.status == 200 and not response.will_close
                    response.read()
                    seconds.append(time.perf_counter() - began)
            finally:
                connection.close()
        # The median, so that a few slow round trips on a busy host do not
        # fail the test; a stalled response takes ~40 ms.
        assert statistics.median(seconds) < 0.020


# --------------------------------------------------------------------------- #
# serving-layer concurrency: the races fixed in the serve/queries layers
# --------------------------------------------------------------------------- #
class _CountingSummarizer:
    """Wraps a continual summarizer, counting (and optionally slowing down)
    ``snapshot()`` calls to make snapshot races observable."""

    def __init__(self, inner, delay: float = 0.0):
        self._inner = inner
        self._delay = delay
        self._count_lock = threading.Lock()
        self.snapshot_calls = 0

    @property
    def items_processed(self):
        return self._inner.items_processed

    def update_batch(self, data):
        return self._inner.update_batch(data)

    def snapshot(self):
        with self._count_lock:
            self.snapshot_calls += 1
        if self._delay:
            time.sleep(self._delay)
        return self._inner.snapshot()


def _run_concurrently(worker, count: int) -> list:
    """Run ``worker()`` in ``count`` threads released together by a barrier;
    returns the collected results, re-raising the first failure."""
    barrier = threading.Barrier(count)
    results: list = [None] * count
    errors: list[BaseException] = []

    def target(index: int) -> None:
        try:
            barrier.wait()
            results[index] = worker()
        except BaseException as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [threading.Thread(target=target, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class TestConcurrentColdStart:
    def test_concurrent_engine_construction_builds_once(self, monkeypatch):
        """N threads hitting a cold release compile one leaf table, not N:
        the per-release lock makes lazy engine construction single-flight."""
        import repro.api.release as release_module

        rng = np.random.default_rng(21)
        release = _fit("interval", rng.beta(2.0, 5.0, 2000))
        calls = []
        real_engine = release_module.RangeQueryEngine

        def slow_factory(tree, domain):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return real_engine(tree, domain)

        monkeypatch.setattr(release_module, "RangeQueryEngine", slow_factory)
        engines = _run_concurrently(release.range_engine, 12)
        assert len(calls) == 1
        assert all(engine is engines[0] for engine in engines)
        # and the warm path never calls the factory again
        assert release.range_engine() is engines[0] and len(calls) == 1

    def test_concurrent_disk_loads_share_one_release(self, tmp_path, releases):
        """Concurrent first reads of a release file end up with one canonical
        object (so its compiled engines are shared), not one copy per racer."""
        releases["interval"].save(tmp_path / "cold.json")
        store = ReleaseStore(tmp_path)
        loaded = _run_concurrently(lambda: store.get("cold"), 8)
        assert all(release is loaded[0] for release in loaded)


class TestLiveSnapshotSingleFlight:
    def test_concurrent_readers_share_one_snapshot(self):
        """The check-then-act race in ``ReleaseStore.get``: concurrent cold
        readers of one live version take exactly one ``snapshot()``."""
        summarizer = _CountingSummarizer(_live_summarizer(), delay=0.05)
        summarizer.update_batch(np.random.default_rng(22).beta(2, 5, 1000))
        store = ReleaseStore()
        store.register_live("stream", summarizer)
        snapshots = _run_concurrently(lambda: store.get("stream"), 12)
        assert summarizer.snapshot_calls == 1
        assert all(snapshot is snapshots[0] for snapshot in snapshots)
        assert snapshots[0].items_processed == 1000

    def test_readers_racing_ingestion_snapshot_once_per_version(self):
        """Many readers hammering a live name while an ingesting thread
        advances it never take more snapshots than there are versions."""
        chunks = 20
        summarizer = _CountingSummarizer(_live_summarizer(n=10_000))
        data = np.random.default_rng(23).beta(2, 5, 10_000)
        summarizer.update_batch(data[:100])
        store = ReleaseStore()
        store.register_live("stream", summarizer)
        stop = threading.Event()

        def read_until_done() -> int:
            reads = 0
            while not stop.is_set():
                release = store.get("stream")
                assert 100 <= release.items_processed <= 10_000
                reads += 1
            return reads

        readers = [
            threading.Thread(target=read_until_done)
            for _ in range(8)
        ]
        for thread in readers:
            thread.start()
        try:
            for chunk in np.array_split(data[100:], chunks):
                summarizer.update_batch(chunk)
        finally:
            stop.set()
        for thread in readers:
            thread.join()
        assert store.get("stream").items_processed == 10_000
        # one initial version + one per ingested chunk is the ceiling; the
        # pre-fix store would re-snapshot per racing reader instead.
        assert summarizer.snapshot_calls <= chunks + 1


class TestWaitingReadersShareTheNextSnapshot:
    def test_appends_during_a_snapshot_cost_one_more_snapshot(self):
        """Readers that queue behind an in-flight snapshot while appends
        keep moving the version share the next snapshot: it was requested
        after each of them arrived, so it covers what they must see.
        Re-reading the version under the lock instead would take one
        snapshot per waiting reader."""
        summarizer = _live_summarizer()
        summarizer.update_batch(np.random.default_rng(24).beta(2, 5, 1000))
        gate = threading.Event()

        class AppendedDuringEverySnapshot:
            items_processed = 0

            def __init__(self) -> None:
                self.accepted, self.reads, self.snapshots = 1, [], []

            @property
            def items_accepted(self) -> int:
                self.reads.append(self.accepted)
                return self.accepted

            def snapshot(self):
                self.snapshots.append(self.accepted)
                gate.wait(timeout=10)
                self.accepted += 1  # an append lands while the worker snapshots
                return summarizer.snapshot()

        source = AppendedDuringEverySnapshot()
        store = ReleaseStore()
        store.register_live("hot", source)

        def wait_until(condition) -> None:
            deadline = time.monotonic() + 10
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.001)

        first: list = []
        leader = threading.Thread(target=lambda: first.append(store.get("hot")))
        leader.start()
        wait_until(lambda: source.snapshots == [1])
        source.accepted = 2  # appended after the first snapshot was requested
        reads = len(source.reads)
        later: list = []
        waiting = [
            threading.Thread(target=lambda: later.append(store.get("hot")))
            for _ in range(3)
        ]
        for thread in waiting:
            thread.start()
        wait_until(lambda: len(source.reads) >= reads + 3)  # each read version 2
        gate.set()
        for thread in [leader, *waiting]:
            thread.join(timeout=10)
        assert source.snapshots == [1, 3]
        assert len(first) == 1 and len(later) == 3
        assert first[0] is not later[0]
        assert all(result is later[0] for result in later)


class TestCacheSingleFlight:
    def test_cold_key_computes_once_under_contention(self):
        """A thundering herd on one cold key costs one evaluation; the herd
        parks on the in-flight event and is counted in ``inflight_waits``."""
        cache = QueryCache(maxsize=8)
        computing = threading.Event()
        release_compute = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            computing.set()
            assert release_compute.wait(10)
            return 42

        results: list = []
        computer = threading.Thread(target=lambda: results.append(cache.lookup("k", compute)))
        computer.start()
        assert computing.wait(10)
        waiters = [
            threading.Thread(target=lambda: results.append(cache.lookup("k", compute)))
            for _ in range(4)
        ]
        for thread in waiters:
            thread.start()
        deadline = time.time() + 10
        while cache.stats()["inflight_waits"] < 4:  # all four parked
            assert time.time() < deadline
            time.sleep(0.001)
        release_compute.set()
        computer.join()
        for thread in waiters:
            thread.join()
        assert results == [42] * 5
        assert len(calls) == 1
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 4
        assert stats["inflight_waits"] == 4

    def test_failed_computation_releases_the_key(self):
        """A computer that raises must not wedge the key: its waiters (or the
        next caller) elect a new computer instead of waiting forever."""
        cache = QueryCache(maxsize=8)
        with pytest.raises(RuntimeError, match="boom"):
            cache.lookup("k", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert cache.lookup("k", lambda: 7) == 7

    def test_clear_resets_inflight_waits(self):
        cache = QueryCache(maxsize=8)
        assert cache.stats()["inflight_waits"] == 0
        cache.clear()
        assert cache.stats()["inflight_waits"] == 0


class TestClientDisconnect:
    def test_mid_response_disconnect_is_counted_not_raised(self, releases):
        """A client that resets the connection while its answer is being
        computed must not unwind the handler thread: the failed write is
        swallowed and counted, and the server keeps serving."""
        summarizer = _CountingSummarizer(_live_summarizer(), delay=0.3)
        summarizer.update_batch(np.random.default_rng(24).beta(2, 5, 1000))
        store = ReleaseStore()
        store.register_live("stream", summarizer)
        with _running_server(store) as base:
            port = int(base.rsplit(":", 1)[1])
            body = json.dumps(
                {"release": "stream", "query": {"type": "mass", "lower": 0.1, "upper": 0.9}}
            ).encode()
            client = socket.create_connection(("127.0.0.1", port), timeout=10)
            client.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            time.sleep(0.05)  # let the server read the request and start the
            # (deliberately slow) snapshot; the RST below lands mid-compute.
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client.close()

            deadline = time.time() + 10
            while True:
                stats = json.loads(urllib.request.urlopen(base + "/stats").read())
                if stats["write_failures"] >= 1:
                    break
                assert time.time() < deadline, "write failure never counted"
                time.sleep(0.02)
            # the server is still healthy and answers normally
            result = _post(
                base + "/query",
                {"release": "stream", "query": {"type": "mass", "lower": 0.1, "upper": 0.9}},
            )
            assert 0.0 <= result["answer"] <= 1.0


class TestIdleConnectionsAreClosed:
    """An open connection pins a handler thread, so one that idles past the
    handler's timeout is closed, whether it never sent a request or went
    quiet after a keep-alive answer; new connections are still served."""

    def test_idle_connections_are_closed(self, monkeypatch, releases):
        assert serve_http._QueryRequestHandler.timeout == serve_http.IDLE_TIMEOUT_S
        monkeypatch.setattr(serve_http._QueryRequestHandler, "timeout", 0.2)
        store = ReleaseStore()
        store.add("only", releases["interval"])
        with _running_server(store) as base:
            port = int(base.rsplit(":", 1)[1])
            body = {"release": "only", "query": {"type": "mass", "lower": 0.1, "upper": 0.9}}
            raw = socket.create_connection(("127.0.0.1", port), timeout=5)
            kept = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                kept.request("POST", "/query", body=json.dumps(body))
                response = kept.getresponse()
                assert response.status == 200 and not response.will_close
                answer = json.loads(response.read())["answer"]
                # The server closes both: each reads end of stream instead of
                # timing out on the client's own 5 s limit.
                assert raw.recv(1) == b""
                assert kept.sock.recv(1) == b""
            finally:
                raw.close()
                kept.close()
            assert _post(base + "/query", body)["answer"] == answer


def _read_until_closed(client: socket.socket) -> bytes:
    """Everything the server sends until it closes the connection (a server
    that keeps the connection open fails the read with ``TimeoutError``)."""
    chunks = []
    while chunk := client.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


#: A whole request, sent as the body of a request the server rejects.
_SMUGGLED = b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
#: A valid query body.
_QUERY = b'{"release": "only", "query": {"type": "mass", "lower": 0.1, "upper": 0.9}}'


class TestRejectedBodiesCloseTheConnection:
    """A request rejected before its body is read gets one response with
    ``Connection: close``, and the connection ends: the unread body, here a
    whole request, is never parsed as the next request.  A GET that carries
    a body is answered the same way, since GET bodies are never read."""

    @staticmethod
    def _exchange(releases, head: bytes) -> tuple[bytes, bytes]:
        """Send ``head`` with a whole request as its body on a raw
        connection; the one response's head and body, after checking that it
        is the only one before the close."""
        store = ReleaseStore()
        store.add("only", releases["interval"])
        with _running_server(store) as base:
            port = int(base.rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10) as client:
                client.sendall(head + b"\r\n" + _SMUGGLED)
                received = _read_until_closed(client)
        assert received.count(b"HTTP/1.1 ") == 1
        response_head, _, body = received.partition(b"\r\n\r\n")
        assert b"\r\nConnection: close" in response_head
        return response_head, body

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n" % len(_SMUGGLED),
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n",
        ],
        ids=["content-length", "transfer-encoding"],
    )
    def test_a_get_with_a_body_is_answered_then_closed(self, releases, head):
        response_head, body = self._exchange(releases, head)
        assert response_head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body) == {"status": "ok", "releases": 1}

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /query HTTP/1.1\r\nHost: x\r\n", 400),
            (b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n", 400),
            (b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n", 400),
            (b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n", 400),
            (b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 1048577\r\n", 400),
            (
                b"POST /sample HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n" % len(_SMUGGLED),
                404,
            ),
            # The first length covers a valid query and the blank line after
            # it; the second also covers the request after them.
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
                b"Content-Length: %d\r\n\r\n%s"
                % (len(_QUERY) + 2, len(_QUERY) + 2 + len(_SMUGGLED), _QUERY),
                400,
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
                b"Content-Length: 5\r\n",
                400,
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length : %d\r\n" % len(_SMUGGLED),
                400,
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\nX-Folded: a\r\n b\r\n"
                b"Content-Length: %d\r\n" % len(_SMUGGLED),
                400,
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\nX-A: 1\rContent-Length: %d\r\n"
                % len(_SMUGGLED),
                400,
            ),
            # int() reads both lengths as covering a valid query and the
            # blank line after it; RFC 9110 allows only digits.
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: +%d\r\n\r\n%s"
                % (len(_QUERY) + 2, _QUERY),
                400,
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n%s"
                % (b"%d_%d" % divmod(len(_QUERY) + 2, 10), _QUERY),
                400,
            ),
        ],
        ids=[
            "missing",
            "invalid",
            "zero",
            "negative",
            "too-large",
            "unknown-path",
            "differing-content-length",
            "transfer-encoding-and-content-length",
            "space-before-colon",
            "folded-line",
            "bare-cr",
            "plus-sign",
            "digit-separator",
        ],
    )
    def test_one_response_then_close(self, releases, head, status):
        response_head, body = self._exchange(releases, head)
        assert response_head.startswith(f"HTTP/1.1 {status} ".encode())
        assert "error" in json.loads(body)


class TestUndecodableBodies:
    """A body that is not valid JSON -- bytes that are not text, or nesting
    too deep to decode -- gets a JSON 400 and the keep-alive connection
    answers the next query."""

    @pytest.mark.parametrize(
        "body", [b"\xff\xfe\x00", b'"\xff"', b"[" * 10_000], ids=["utf16-bom", "0xff", "deep"]
    )
    def test_400_then_the_connection_answers(self, releases, body):
        store = ReleaseStore()
        store.add("only", releases["interval"])
        valid = {"release": "only", "query": {"type": "mass", "lower": 0.1, "upper": 0.9}}
        with _running_server(store) as base:
            port = int(base.rsplit(":", 1)[1])
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                connection.request("POST", "/query", body=body)
                response = connection.getresponse()
                error = json.loads(response.read())["error"]
                assert response.status == 400 and not response.will_close
                assert "not valid JSON" in error
                connection.request("POST", "/query", body=json.dumps(valid))
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["answer"] == releases["interval"].mass(0.1, 0.9)
            finally:
                connection.close()


class TestExpectContinue:
    """``Expect: 100-continue``: the interim ``100 Continue`` reaches the
    client before it sends the body; the answer follows the body."""

    def test_continue_arrives_before_the_body_is_sent(self, releases):
        store = ReleaseStore()
        store.add("only", releases["interval"])
        body = json.dumps(
            {"release": "only", "query": {"type": "mass", "lower": 0.1, "upper": 0.9}}
        ).encode()
        with _running_server(store) as base:
            port = int(base.rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10) as client:
                client.sendall(
                    b"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                )
                interim = b""
                while not interim.endswith(b"\r\n\r\n"):
                    chunk = client.recv(1)
                    assert chunk, "connection closed before 100 Continue"
                    interim += chunk
                assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
                client.sendall(body)
                response = http.client.HTTPResponse(client)
                response.begin()
                try:
                    assert response.status == 200 and not response.will_close
                    answer = json.loads(response.read())["answer"]
                finally:
                    response.close()
        assert answer == releases["interval"].mass(0.1, 0.9)


# --------------------------------------------------------------------------- #
# request and response framing on the wire
# --------------------------------------------------------------------------- #
#: The ``Server`` text of every response (``http.server``'s own).
_SERVER_TEXT = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}"
#: RFC 9110's IMF-fixdate, the form ``Date`` takes.
_IMF_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d (Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)"
    r" \d{4} \d\d:\d\d:\d\d GMT"
)
#: A last request that asks the server to close the connection after it.
_CLOSE = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
_HEALTHZ = b'{"releases": 1, "status": "ok"}'


def _read_response(stream) -> tuple[list[str], bytes] | None:
    """The next response on a socket's binary file: its head lines, status
    line first and without line endings, and its body; ``None`` once the
    server has closed the connection."""
    line = stream.readline()
    if not line:
        return None
    head = []
    while line not in (b"\r\n", b""):
        head.append(line.decode("latin-1").rstrip("\r\n"))
        line = stream.readline()
    length = next(
        int(field.split(":", 1)[1]) for field in head if field.lower().startswith("content-length:")
    )
    return head, stream.read(length)


def _post_bytes(path: bytes, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" % (
        path, len(body), body
    )


class TestFraming:
    """One exchange each on a raw socket.  Each response head carries the
    same fields in the same order with the same text, and only ``Date``
    varies; header names match in any case; the head limits are
    ``http.server``'s; and the request's version and ``Connection`` field
    decide whether the connection stays open."""

    QUERY = {"release": "only", "query": {"type": "mass", "lower": 0.1, "upper": 0.9}}

    @pytest.fixture
    def port(self, releases):
        store = ReleaseStore()
        store.add("only", releases["interval"])
        with _running_server(store) as base:
            yield int(base.rsplit(":", 1)[1])

    @staticmethod
    def _exchange(port: int, data: bytes) -> list[tuple[list[str], bytes]]:
        """Send ``data`` on a new connection; every response the server sends
        before it closes the connection (one that stays open fails the read
        with ``TimeoutError``)."""
        with socket.create_connection(("127.0.0.1", port), timeout=10) as client:
            client.sendall(data)
            with client.makefile("rb") as stream:
                responses = []
                while (response := _read_response(stream)) is not None:
                    responses.append(response)
        return responses

    @staticmethod
    def _assert_date(field: str) -> None:
        name, _, value = field.partition(": ")
        assert name == "Date" and _IMF_FIXDATE.fullmatch(value)
        assert abs(email.utils.parsedate_to_datetime(value).timestamp() - time.time()) < 5

    @pytest.mark.parametrize(
        "data, status, close",
        [
            (_post_bytes(b"/query", QUERY), "200 OK", False),
            (
                _post_bytes(b"/query", {"release": "only", "query": {"type": "no"}}),
                "400 Bad Request",
                False,
            ),
            (
                _post_bytes(b"/query", {"release": "nope", "query": QUERY["query"]}),
                "404 Not Found",
                False,
            ),
            (_post_bytes(b"/sample", QUERY), "404 Not Found", True),
            (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", "200 OK", False),
        ],
        ids=["answer", "bad-query", "unknown-release", "unknown-path", "get"],
    )
    def test_response_head(self, port, data, status, close):
        responses = self._exchange(port, data if close else data + _CLOSE)
        assert len(responses) == (1 if close else 2)
        head, body = responses[0]
        self._assert_date(head[2])
        assert head[:2] + head[3:] == [
            f"HTTP/1.1 {status}",
            f"Server: {_SERVER_TEXT}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ] + (["Connection: close"] if close else [])
        assert body == json.dumps(json.loads(body), sort_keys=True).encode()

    def test_header_names_in_any_case(self, port, releases):
        body = json.dumps(self.QUERY).encode()
        lower = b"POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: %d\r\n\r\n" % len(body)
        upper = (
            b"POST /query HTTP/1.1\r\nHOST: x\r\nCONTENT-LENGTH: %d\r\nCONNECTION: close\r\n\r\n"
            % len(body)
        )
        responses = self._exchange(port, lower + body + upper + body)
        assert [head[0] for head, _ in responses] == ["HTTP/1.1 200 OK"] * 2
        answer = releases["interval"].mass(0.1, 0.9)
        assert [json.loads(body)["answer"] for _, body in responses] == [answer] * 2

    @staticmethod
    def _assert_431(response, reason: str, explain: str) -> None:
        """``http.server``'s error page: the reason phrase names the limit."""
        head, body = response
        TestFraming._assert_date(head[2])
        assert head[:2] + head[3:] == [
            f"HTTP/1.1 431 {reason}",
            f"Server: {_SERVER_TEXT}",
            "Connection: close",
            "Content-Type: text/html;charset=utf-8",
            f"Content-Length: {len(body)}",
        ]
        assert f"<p>Message: {reason}.</p>" in body.decode()
        assert f"<p>Error code explanation: 431 - {explain}.</p>" in body.decode()

    @pytest.mark.parametrize("fields", [99, 100])
    def test_at_most_99_header_fields(self, port, fields):
        head = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n" + b"".join(
            b"X-Field-%d: %d\r\n" % (index, index) for index in range(fields - 2)
        )
        [response] = self._exchange(port, head + b"\r\n")
        if fields == 99:
            assert response[0][0] == "HTTP/1.1 200 OK" and response[1] == _HEALTHZ
        else:
            self._assert_431(response, "Too many headers", "got more than 100 headers")

    def test_header_lines_up_to_65536_bytes(self, port):
        def line(size: int) -> bytes:
            return b"X-Long: " + b"a" * (size - 10) + b"\r\n"

        get = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        [(head, body)] = self._exchange(port, get + line(65536) + b"\r\n")
        assert head[0] == "HTTP/1.1 200 OK" and body == _HEALTHZ
        # Refused as soon as the line is read.  The head's blank line is not
        # sent, so nothing is left unread when the server closes.
        [response] = self._exchange(port, get + line(65537))
        self._assert_431(
            response, "Line too long", "got more than 65536 bytes when reading header line"
        )

    @pytest.mark.parametrize(
        "data, stays_open",
        [
            (b"GET /healthz HTTP/1.0\r\n\r\n", False),
            (b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", True),
            (_CLOSE, False),
            (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", True),
        ],
        ids=["http/1.0", "http/1.0-keep-alive", "http/1.1-close", "http/1.1"],
    )
    def test_version_and_connection_decide_persistence(self, port, data, stays_open):
        responses = self._exchange(port, data + _CLOSE)
        assert len(responses) == 1 + stays_open
        for head, body in responses:
            self._assert_date(head[2])
            assert head[:2] + head[3:] == [
                "HTTP/1.1 200 OK",
                f"Server: {_SERVER_TEXT}",
                "Content-Type: application/json",
                f"Content-Length: {len(_HEALTHZ)}",
            ]
            assert body == _HEALTHZ


    def test_date_is_formatted_once_a_second(self, monkeypatch):
        server = create_server(ReleaseStore(), port=0)
        try:
            now = 1_800_000_000.25
            monkeypatch.setattr(serve_http.time, "time", lambda: now)
            first = server.date_header()
            assert first == "Fri, 15 Jan 2027 08:00:00 GMT"
            now += 0.5
            assert server.date_header() is first
            now += 0.5
            assert server.date_header() == "Fri, 15 Jan 2027 08:00:01 GMT"
        finally:
            server.server_close()

    def test_threads_get_the_text_of_the_second_they_read(self, monkeypatch):
        """Handler threads share the cached ``Date``: each gets the text of
        the second its own clock read gave, even when another thread swaps
        the cache between that read and its return."""
        ticks = itertools.count()
        seen = threading.local()

        def clock() -> float:
            seen.second = 1_800_000_000 + next(ticks) // 3
            return seen.second + 0.5

        mismatches = []

        def worker() -> None:
            for _ in range(3000):
                text = server.date_header()
                if text != email.utils.formatdate(seen.second, usegmt=True):
                    mismatches.append((seen.second, text))

        server = create_server(ReleaseStore(), port=0)
        monkeypatch.setattr(serve_http.time, "time", clock)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            server.server_close()
        assert mismatches == []


#: The header fields the handler, and the benchmark's traced server, read.
_HANDLER_FIELDS = ("Connection", "Content-Length", "Expect", "Transfer-Encoding", "X-Bench-Id")
_TOKEN_CHARS = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyz"
#: Field-value characters: visible ASCII and obs-text, with SP and HTAB inside.
_VALUE_CHARS = "".join(map(chr, [9, *range(0x20, 0x7F), *range(0x80, 0x100)]))


@st.composite
def _header_blocks(draw) -> tuple[bytes, list[str]]:
    """A well-formed header block, its blank line included, and the names
    of its fields.  Names repeat, in mixed case; values carry optional
    whitespace; lines end in CRLF or a bare LF."""
    names, lines = [], []
    for _ in range(draw(st.integers(0, 12))):
        name = draw(
            st.sampled_from(_HANDLER_FIELDS + ("Host", "Content-Type"))
            | st.text(_TOKEN_CHARS, min_size=1, max_size=10)
        )
        name = "".join(draw(st.sampled_from((char.lower(), char.upper()))) for char in name)
        value = draw(
            st.sampled_from(["5", "close", "keep-alive", "100-continue", "chunked"])
            | st.text(_VALUE_CHARS, max_size=12).map(lambda text: text.strip(" \t"))
        )
        before, after = draw(st.text(" \t", max_size=2)), draw(st.text(" \t", max_size=2))
        names.append(name)
        lines.append(f"{name}:{before}{value}{after}")
    endings = st.sampled_from(["\r\n", "\n"])
    text = "".join(line + draw(endings) for line in lines) + draw(endings)
    return text.encode("iso-8859-1"), names


class TestHeaderReader:
    """The handler's header reader against ``http.client.parse_headers``,
    the stdlib parser it replaces: on well-formed header blocks both give
    every field the same value once optional whitespace is removed, take
    the first of a repeated name, and stop at the blank line.  Two
    ``Content-Length`` fields that differ are refused instead."""

    @settings(max_examples=300, deadline=None)
    @given(_header_blocks(), st.binary(max_size=8))
    def test_agrees_with_the_stdlib_parser(self, block, body):
        block, names = block
        reference = http.client.parse_headers(io.BytesIO(block + body))
        stream = io.BytesIO(block + body)
        lengths = {
            value.strip(" \t")
            for name, value in reference.items()
            if name.lower() == "content-length"
        }
        if len(lengths) > 1:
            with pytest.raises(ValueError, match="conflicting Content-Length values"):
                serve_http._read_fields(stream)
            return
        fields = serve_http._read_fields(stream)
        assert stream.read() == body
        for name in set(names) | set(_HANDLER_FIELDS):
            for spelling in (name, name.lower(), name.upper()):
                expected = reference.get(spelling)
                assert fields.get(spelling) == (expected and expected.strip(" \t"))
                assert (spelling in fields) == (spelling in reference)


@pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"), reason="platform lacks SO_REUSEPORT"
)
class TestWorkerPool:
    def test_pool_workers_share_a_port_and_answer_identically(self, tmp_path, releases):
        releases["interval"].save(tmp_path / "only.json")
        # Bind the parent server with SO_REUSEPORT on an ephemeral port; the
        # pool workers then join it on the now-fixed port (the CLI's
        # --workers path uses a user-chosen fixed port instead).
        server = create_server(ReleaseStore(tmp_path), port=0, reuse_port=True)
        port = server.server_port
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        pool = start_worker_pool(tmp_path, port=port, workers=2)
        try:
            deadline = time.time() + 30
            while True:
                try:
                    urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=5).read()
                    break
                except OSError:
                    assert time.time() < deadline
                    time.sleep(0.05)
            query = {"type": "mass", "lower": 0.2, "upper": 0.6}
            expected = releases["interval"].mass(0.2, 0.6)
            # separate connections spread across the pool by the kernel;
            # every worker must produce the identical answer
            for _ in range(12):
                result = _post(
                    f"http://127.0.0.1:{port}/query", {"release": "only", "query": query}
                )
                assert result["answer"] == expected
        finally:
            server.shutdown()
            server.server_close()
            for process in pool:
                process.terminate()
            for process in pool:
                process.join()

    def test_pool_rejects_ephemeral_port_and_zero_workers(self, tmp_path):
        with pytest.raises(ValueError, match="explicit --port"):
            start_worker_pool(tmp_path, port=0, workers=2)
        with pytest.raises(ValueError, match="at least 1"):
            start_worker_pool(tmp_path, port=8080, workers=0)

    def test_cli_rejects_bad_worker_flags(self, tmp_path, capsys):
        for argv in (
            ["serve", "--store", str(tmp_path), "--workers", "0"],
            ["serve", "--store", str(tmp_path), "--workers", "2", "--port", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(argv)
            assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err
