"""``serve_http``: request -> response against ``repro serve`` in its own process.

``repro serve --workers 1`` serves a store of two ``.bin`` releases: a
~4.1k-leaf interval release (2^18 items) and a 2-D hypercube release.  A
closed loop of 2 keep-alive connections (one thread each) sends single-query
POSTs -- mass 60%, quantile 15%, cdf 15%, hypercube mass 10%; 25% repeat one
of 64 pooled queries, the rest are distinct -- and every 16th request is a
256-query batch POST instead.

All the work is normalize -> cache -> evaluate -> encode -> socket: no
ingest and no grow.  Answers are checked against an exact leaf-sum oracle
computed here from ``release.tree``, never by the server.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    Failures,
    HttpClient,
    Outcome,
    median,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
)

INTERVAL_ITEMS = 1 << 18
CUBE_ITEMS = 1 << 16
CONNECTIONS = 2
BATCH_EVERY = 16
BATCH_SIZE = 256
POOL_SIZE = 64
REPEAT_SHARE = 0.25
SETUP_REPEATS = 3
#: Answers checked against the oracle per connection (all statuses are checked).
CHECK_SINGLES = 1500
CHECK_BATCHES = 12
MASS_TOLERANCE = 1e-9
QUANTILE_TOLERANCE = 1e-6
#: One query per release during set-up: the server loads a release on first use.
COLD_QUERIES = {
    "interval": {"type": "mass", "lower": 0.0, "upper": 1.0},
    "cube": {"type": "mass", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
}


# --------------------------------------------------------------------- #
# releases and their oracle
# --------------------------------------------------------------------- #
def fit_releases(seed: int):
    from repro.api.builder import PrivHPBuilder

    rng = np.random.default_rng(seed)
    interval = PrivHPBuilder("interval").epsilon(1.0).pruning_k(8)
    interval = interval.stream_size(INTERVAL_ITEMS).seed(seed).build()
    interval.update_batch(rng.beta(2.0, 5.0, INTERVAL_ITEMS))
    cube = PrivHPBuilder("hypercube:2").epsilon(1.0).pruning_k(8)
    cube = cube.stream_size(CUBE_ITEMS).seed(seed + 1).build()
    cube.update_batch(rng.beta(2.0, 5.0, (CUBE_ITEMS, 2)))
    return {"interval": interval.release(), "cube": cube.release()}


class LeafOracle:
    """Exact leaf sums over a release's leaves (independent of the engines)."""

    def __init__(self, release) -> None:
        tree = release.tree
        leaves = tree.leaves()
        weights = np.array([max(tree.count(theta), 0.0) for theta in leaves])
        self.probabilities = weights / weights.sum()
        bounds = [release.domain.cell_bounds(theta) for theta in leaves]
        self.low = np.array([np.atleast_1d(b[0]) for b in bounds], dtype=float)
        self.high = np.array([np.atleast_1d(b[1]) for b in bounds], dtype=float)

    def mass(self, lowers, uppers) -> np.ndarray:
        """Probability of each box ``[lowers[i], uppers[i]]`` (scalars for intervals)."""
        lowers = np.asarray(lowers, dtype=float).reshape(len(lowers), -1)
        uppers = np.asarray(uppers, dtype=float).reshape(len(uppers), -1)
        width = (self.high - self.low)[None]
        results = [np.empty(0)]
        for start in range(0, len(lowers), 256):
            low = lowers[start : start + 256, None, :]
            high = uppers[start : start + 256, None, :]
            overlap = np.maximum(np.minimum(self.high[None], high) - np.maximum(self.low[None], low), 0.0)
            fraction = np.prod(overlap / width, axis=2)
            results.append(np.clip((fraction * self.probabilities[None]).sum(axis=1), 0.0, 1.0))
        return np.concatenate(results)


def check_answers(oracle: LeafOracle, queries, answers, failures: Failures) -> None:
    """Compare served answers with the oracle: mass and cdf within 1e-9,
    quantiles by a cdf round trip."""
    for kind in ("mass", "cdf", "quantile"):
        indices = []
        for index, query in enumerate(queries):
            if query["type"] == kind and failures.check(
                isinstance(answers[index], float), f"{query} answered {answers[index]!r}"
            ):
                indices.append(index)
        if not indices:
            continue
        if kind == "mass":
            expected = oracle.mass([queries[i]["lower"] for i in indices],
                                   [queries[i]["upper"] for i in indices])
        elif kind == "cdf":
            expected = oracle.mass([0.0] * len(indices), [queries[i]["point"] for i in indices])
        else:
            expected = oracle.mass([0.0] * len(indices), [answers[i] for i in indices])
        for index, value in zip(indices, expected):
            query = queries[index]
            if kind == "quantile":
                ok = abs(value - query["q"]) <= QUANTILE_TOLERANCE
            else:
                ok = abs(answers[index] - value) <= MASS_TOLERANCE
            failures.check(ok, f"{query} answered {answers[index]!r}, oracle gives {value!r}")


# --------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------- #
def _draw(rng: random.Random) -> tuple[str, dict]:
    roll = rng.random()
    if roll < 0.60:
        lower = rng.random()
        return "interval", {"type": "mass", "lower": lower, "upper": min(1.0, lower + rng.random() / 2)}
    if roll < 0.75:
        return "interval", {"type": "quantile", "q": rng.random()}
    if roll < 0.90:
        return "interval", {"type": "cdf", "point": rng.random()}
    lower = [rng.random() * 0.6, rng.random() * 0.6]
    upper = [value + 0.05 + rng.random() * 0.35 for value in lower]
    return "cube", {"type": "mass", "lower": lower, "upper": upper}


class Traffic:
    """The deterministic request sequence of one connection.

    Connection ``c`` sends its batches ``c / CONNECTIONS`` of a batch period
    after connection 0 does, so the two connections' batches (each with
    megabytes of evaluation temporaries) do not start in lockstep; peak
    memory and batch latency would otherwise depend on whether they happened
    to overlap.
    """

    def __init__(self, seed: int, connection: int) -> None:
        pool_rng = random.Random(seed)
        self.pool = [_draw(pool_rng) for _ in range(POOL_SIZE)]
        self.rng = random.Random(seed * 1009 + connection + 1)
        self.offset = connection * BATCH_EVERY // CONNECTIONS
        self.count = 0

    def next(self) -> tuple[str, str, list[dict]]:
        """``(kind, release, queries)`` of the next request."""
        self.count += 1
        rng = self.rng
        if (self.count + self.offset) % BATCH_EVERY == 0:
            release = "cube" if (self.count // BATCH_EVERY) % 10 == 0 else "interval"
            queries = []
            while len(queries) < BATCH_SIZE:
                target, query = _draw(rng)
                if target == release:
                    queries.append(query)
            return "batch", release, queries
        if rng.random() < REPEAT_SHARE:
            release, query = self.pool[rng.randrange(POOL_SIZE)]
        else:
            release, query = _draw(rng)
        return "single", release, [query]


# --------------------------------------------------------------------- #
# server process
# --------------------------------------------------------------------- #
class Server:
    """``repro serve --workers 1`` in its own process (optionally traced)."""

    def __init__(self, root, store, spans_path=None) -> None:
        serve_args = ["serve", "--store", str(store), "--port", "0", "--quiet", "--workers", "1"]
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro.cli", *serve_args]
        else:
            wrapper = os.path.join(os.path.dirname(__file__), "serve_traced.py")
            command = [sys.executable, "-u", wrapper, str(spans_path), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_path = store.parent / f"{store.name}.stderr"
        with open(self.stderr_path, "w") as stderr:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, text=True, env=env
            )
        line = self.process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} {self.stderr_path.read_text()!r}")
        self.port = int(match.group(1))
        self.pid = self.process.pid

    def signal(self, signum) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        """Interrupt the server (it exits cleanly on SIGINT) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _post(client: HttpClient, release: str, queries: list[dict], headers=None):
    if len(queries) == 1:
        payload = {"release": release, "query": queries[0]}
    else:
        payload = {"release": release, "queries": queries}
    return client.post(json.dumps(payload).encode("utf-8"), headers)


def set_up(root, work, seed: int, index: int, spans_path=None):
    """Fit, write the store, start the server and cold-load both releases."""
    from repro.io.binary import save_binary

    releases = fit_releases(seed)
    store = work / f"store-{index}"
    store.mkdir()
    for name, release in releases.items():
        save_binary(release.to_dict(), store / f"{name}.bin")
    server = Server(root, store, spans_path)
    client = HttpClient(server.port)
    try:
        for name, query in COLD_QUERIES.items():
            _, status, _ = _post(client, name, [query])
            if status != 200:
                raise RuntimeError(f"cold load of {name} failed with HTTP {status}")
    except BaseException:
        server.stop()
        raise
    finally:
        client.close()
    return releases, server


class Connection(threading.Thread):
    """One keep-alive client connection in the closed loop."""

    def __init__(self, port, seed, index, stop_at, traced, failures: Failures) -> None:
        super().__init__(name=f"serve-http-client-{index}")
        self.port = port
        self.traffic = Traffic(seed, index)
        self.index = index
        self.stop_at = stop_at
        self.traced = traced
        self.failures = failures
        self.latency = {"single": [], "batch": []}
        #: Client latency of each single-query request, by request id.
        self.single_latency: dict[str, float] = {}
        self.answers = 0
        #: ``(release, queries, answers)`` of the requests checked after the run.
        self.to_check: list = []
        self.end = 0.0

    def run(self) -> None:
        client = HttpClient(self.port)
        checks = {"single": CHECK_SINGLES, "batch": CHECK_BATCHES}
        try:
            while time.perf_counter() < self.stop_at:
                kind, release, queries = self.traffic.next()
                request_id = f"{self.index}-{self.traffic.count}"
                headers = {"X-Bench-Id": request_id} if self.traced else None
                seconds, status, body = _post(client, release, queries, headers)
                self.end = time.perf_counter()
                if not self.failures.check(status == 200, f"HTTP {status}: {body[:200]!r}"):
                    continue
                self.latency[kind].append(seconds)
                self.answers += len(queries)
                if kind == "single":
                    self.single_latency[request_id] = seconds
                if checks[kind]:
                    checks[kind] -= 1
                    document = json.loads(body)
                    if kind == "single":
                        answers = [document["answer"]]
                    else:
                        answers = [result["answer"] for result in document["results"]]
                    self.to_check.append((release, queries, answers))
        except (OSError, http.client.HTTPException) as error:
            self.failures.fail(f"connection {self.index}: {type(error).__name__}: {error}")
        finally:
            client.close()


def run(root, work, seed: int, seconds: float, traced: bool = False) -> Outcome:
    failures = Failures()
    setups = []
    spans_path = work / "server-spans.json" if traced else None
    server = None
    for index in range(SETUP_REPEATS if not traced else 1):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        releases, server = set_up(root, work, seed, index, spans_path)
        setups.append(time.perf_counter() - start)
    try:
        oracles = {name: LeafOracle(release) for name, release in releases.items()}
        stats_client = HttpClient(server.port)
        _, before = stats_client.get("/stats")
        if traced:
            server.signal(signal.SIGUSR1)
            time.sleep(0.05)
        cpu_start = proc_cpu_s(server.pid)
        window_start = time.perf_counter()
        connections = [
            Connection(server.port, seed, index, window_start + seconds, traced, failures)
            for index in range(CONNECTIONS)
        ]
        for connection in connections:
            connection.start()
        for connection in connections:
            connection.join()
        window_end = max(connection.end for connection in connections)
        cpu_s = proc_cpu_s(server.pid) - cpu_start
        if traced:
            server.signal(signal.SIGUSR2)
        _, after = stats_client.get("/stats")
        stats_client.close()
        peak_rss = proc_peak_rss_mb(server.pid)
    finally:
        server.stop()

    singles = [s for connection in connections for s in connection.latency["single"]]
    batches = [s for connection in connections for s in connection.latency["batch"]]
    answers = sum(connection.answers for connection in connections)
    for connection in connections:
        for release, queries, got in connection.to_check:
            check_answers(oracles[release], queries, got, failures)

    window = window_end - window_start
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    lookups = hits + after["cache"]["misses"] - before["cache"]["misses"]
    layers = {
        "serve.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "server.cpu_util": cpu_s / window,
    }
    spans = None
    if traced:
        spans = json.loads(spans_path.read_text())
        handler = spans["handler"]
        wire = [
            1e3 * (latency - handler[key])
            for connection in connections
            for key, latency in connection.single_latency.items()
            if key in handler
        ]
        layers["serve.http.wire_ms"] = median(wire) if wire else 0.0
    return Outcome(
        metrics={
            "setup_s": (median(setups), "s", len(setups)),
            "queries_per_s": (answers / window, "answers/s", answers),
            "query_p50_ms": (1e3 * median(singles), "ms", len(singles)),
            "query_p99_ms": (1e3 * percentile(singles, 99), "ms", len(singles)),
            "batch_p50_ms": (1e3 * median(batches), "ms", len(batches)),
            # The Nagle stall hits about half the batch responses, so their
            # latency is bimodal and the median flips between the modes from
            # run to run; the mean stays put.
            "batch_mean_ms": (1e3 * statistics.fmean(batches), "ms", len(batches)),
            "cpu_us_per_answer": (1e6 * cpu_s / answers, "us", answers),
            "peak_rss_mb": (peak_rss, "MB", 1),
        },
        failures=failures,
        layers=layers,
        notes=[
            f"{len(singles)} single and {len(batches)} batch requests on "
            f"{CONNECTIONS} connections; cache hit ratio {layers['serve.cache.hit_ratio']:.3f}"
        ],
        spans=spans,
    )
