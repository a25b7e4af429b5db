"""``fleet_live``: writes beside reads, append -> visible in a live answer.

Wired the way ``repro ingest --serve`` wires it: an in-process
``IngestService(workers=2, store=...)`` with ``create_server(store)`` serving
on a thread.  One benchmark thread drives it in a closed loop of *rounds*:

* it appends one 64-item batch to each of the next ``ROUND_APPENDS``
  background tenants (1,000, round-robin, every 4th continual) and one
  2,048-item batch to the continual *hot* tenant, whose snapshots have ~4k
  leaves;
* it polls the hot tenant over one keep-alive HTTP connection until an
  answer's ``items_processed`` covers that batch: the round's append ->
  visible latency, timed from the start of the round;
* it flushes the service, so that the next round starts with every worker
  idle.

The hot tenant's worker applies its share of the background batches and
the hot batch, then takes the snapshot the probe asked for (grow and
compile), while the other worker applies its share, so a change trading
ingest speed against snapshot speed shows here and not in ``fit_release``.
The loop is closed, not open at a fixed rate: on the shared machines this
runs on, an open loop's latencies swung by a third from run to run, and
the host's speed can only be measured while the program is idle (see
``common.HostMeter``), which in a closed loop is between rounds.

There is no memory budget: eviction would unregister live tenants in the
middle of a probe, which is a failure mode rather than a steady workload.
"""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time

import numpy as np

from common import (
    REFERENCE_SLICE_S,
    Failures,
    HostMeter,
    HttpClient,
    Outcome,
    canonical_digest,
    median,
    percentile,
    self_peak_rss_mb,
)

WORKERS = 2
BACKGROUND_TENANTS = 1000
CONTINUAL_EVERY = 4
BACKGROUND_BATCH = 64
BACKGROUND_STREAM = 4096
#: Background appends per round, beside one hot append.
ROUND_APPENDS = 100
HOT = "hot"
HOT_BATCH = 2048
#: Also the hot tenant's horizon: it covers the warm-up plus a hot append
#: per round for far longer than the longest window a run may measure.
HOT_STREAM = 1 << 20
HOT_WARMUP_APPENDS = 16
SETUP_REPEATS = 3
VISIBLE_TIMEOUT_S = 30.0
PROBE_QUERY = json.dumps(
    {"release": HOT, "query": {"type": "mass", "lower": 0.2, "upper": 0.6}}
).encode("utf-8")


def _specs(seed: int):
    from repro.ingest.spec import TenantSpec

    specs = [
        TenantSpec(
            f"t{index:04d}",
            stream_size=BACKGROUND_STREAM,
            continual=index % CONTINUAL_EVERY == 0,
            seed=seed + index,
        )
        for index in range(BACKGROUND_TENANTS)
    ]
    hot = TenantSpec(HOT, stream_size=HOT_STREAM, continual=True, seed=seed)
    return specs, hot


class Inputs:
    """The deterministic append payloads for one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._round: tuple[int, np.ndarray | None] = (-1, None)

    def background(self, index: int) -> tuple[str, np.ndarray]:
        """Tenant and batch of the ``index``-th background append."""
        round_, tenant = divmod(index, BACKGROUND_TENANTS)
        if self._round[0] != round_:
            rng = np.random.default_rng([self.seed, round_])
            self._round = (round_, rng.beta(2.0, 5.0, (BACKGROUND_TENANTS, BACKGROUND_BATCH)))
        return f"t{tenant:04d}", self._round[1][tenant]

    def hot(self, index: int) -> np.ndarray:
        return np.random.default_rng([self.seed, 1 << 30, index]).beta(2.0, 5.0, HOT_BATCH)


class Fleet:
    """One set-up instance: service, store, HTTP server and probe connection."""

    def __init__(self, seed: int) -> None:
        from repro.ingest import IngestService
        from repro.serve.http import create_server
        from repro.serve.store import ReleaseStore

        specs, self.hot_spec = _specs(seed)
        self.inputs = Inputs(seed)
        self.appended = {spec.tenant_id: 0 for spec in specs}
        self.appended[HOT] = 0
        self.hot_batches: list[np.ndarray] = []
        self.background_index = 0
        self.store = ReleaseStore()
        self.service = IngestService(workers=WORKERS, store=self.store)
        for spec in specs:
            self.service.register(spec)
        self.service.register(self.hot_spec)
        for _ in range(BACKGROUND_TENANTS):
            self.append_background()
        for _ in range(HOT_WARMUP_APPENDS):
            self.append_hot()
        self.service.flush()
        self.server = create_server(self.store, port=0)
        self.server_thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.server_thread.start()
        self.probe = HttpClient(self.server.server_port)
        _, status, body = self.probe.post(PROBE_QUERY)
        if status != 200:
            raise RuntimeError(f"first live query failed with HTTP {status}: {body[:200]!r}")

    def append_background(self) -> None:
        tenant, batch = self.inputs.background(self.background_index)
        self.background_index += 1
        self.service.append(tenant, batch)
        self.appended[tenant] += len(batch)

    def append_hot(self) -> int:
        batch = self.inputs.hot(len(self.hot_batches))
        self.service.append(HOT, batch)
        self.hot_batches.append(batch)
        self.appended[HOT] += len(batch)
        return self.appended[HOT]

    def close(self) -> None:
        self.probe.close()
        self.server.shutdown()
        self.server.server_close()
        self.server_thread.join(timeout=30)
        self.service.close()


def _append(append, record: dict, failures: Failures) -> None:
    """One timed append; every failed append is counted."""
    began = time.perf_counter()
    try:
        append()
        failures.check(True, "")
    except Exception as error:  # noqa: BLE001 - every failed append is counted
        failures.fail(f"append failed: {type(error).__name__}: {error}")
    record["append"].append((began, time.perf_counter()))


def _wait_visible(fleet: Fleet, covered: int, record: dict, failures: Failures) -> float | None:
    """Poll the hot tenant until an answer covers ``covered`` items; returns
    when that answer was received, or None if it never came."""
    deadline = time.perf_counter() + VISIBLE_TIMEOUT_S
    while time.perf_counter() < deadline:
        try:
            seconds, status, body = fleet.probe.post(PROBE_QUERY)
        except (OSError, http.client.HTTPException) as error:
            failures.fail(f"probe connection failed: {type(error).__name__}: {error}")
            return None
        received = time.perf_counter()
        if not failures.check(status == 200, f"probe got HTTP {status}: {body[:200]!r}"):
            continue
        record["query"].append(seconds)
        if json.loads(body)["items_processed"] >= covered:
            return received
    failures.fail(f"hot append covering {covered} items never became visible")
    return None


def _round(fleet: Fleet, host: HostMeter, record: dict, failures: Failures) -> None:
    """One round: appends, wait until the hot append is visible, flush."""
    host.mark()
    items_before = sum(fleet.appended.values())
    cpu_start = time.process_time()
    start = time.perf_counter()
    for _ in range(ROUND_APPENDS):
        _append(fleet.append_background, record, failures)
    _append(fleet.append_hot, record, failures)
    seen = _wait_visible(fleet, fleet.appended[HOT], record, failures)
    if seen is not None:
        record["visible"].append((start, seen))
    for tenant, message in fleet.service.flush(raise_on_failure=False)["failures"]:
        failures.fail(f"{tenant}: {message}")
    record["rounds"].append(
        (start, time.perf_counter(), time.process_time() - cpu_start,
         sum(fleet.appended.values()) - items_before)
    )


def _check_final(fleet: Fleet, failures: Failures) -> None:
    from repro.ingest.partition import AppendError

    try:
        fleet.service.flush()
    except AppendError as error:
        for tenant, message in error.failures:
            failures.fail(f"{tenant}: {message}")
    for tenant, count in fleet.appended.items():
        processed = fleet.service.items_processed(tenant)
        failures.check(processed == count, f"{tenant} processed {processed} of {count} items")
    control = fleet.hot_spec.build_summarizer()
    for batch in fleet.hot_batches:
        control.update_batch(batch)
    failures.check(
        canonical_digest(fleet.service.snapshot(HOT)) == canonical_digest(control.snapshot()),
        "hot tenant snapshot differs from an in-process control fed the same batches",
    )


def _measure(seed: int, seconds: float, tracer, host: HostMeter, failures: Failures) -> dict:
    """Set up (several times), run rounds for the window, check the final state."""
    record = {"setups": [], "rounds": [], "visible": [], "append": [], "query": []}
    fleet = None
    for _ in range(SETUP_REPEATS if tracer is None else 1):
        if fleet is not None:
            fleet.close()
            fleet = None
        gc.collect()
        start = time.perf_counter()
        fleet = Fleet(seed)
        record["setups"].append((start, time.perf_counter()))
    try:
        before = fleet.service.stats()
        if tracer is not None:
            tracer.phase = "window"
        window_start = time.perf_counter()
        while not record["rounds"] or time.perf_counter() - window_start < seconds:
            _round(fleet, host, record, failures)
        host.mark()
        if tracer is not None:
            tracer.phase = "after"
        after = fleet.service.stats()
        record["appends"] = after["appends"] - before["appends"]
        record["exact_measures"] = after["exact_measures"] - before["exact_measures"]
        _check_final(fleet, failures)
    finally:
        fleet.close()
    return record


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    failures = Failures()
    host = HostMeter()
    record = _measure(seed, seconds, tracer, host, failures)
    rounds = record["rounds"]
    items = sum(count for *_, count in rounds)
    failures.check(bool(record["visible"]), "no hot append became visible")
    visible = record["visible"] or [(0.0, float("nan"))]

    # Times are rescaled to reference time by the host marks taken between
    # rounds (see common.HostMeter); set-up time and the probe's query
    # latency are not.  The raw figures are printed alongside.
    figures = {}
    for kind, length in (("", host.scaled), ("raw", lambda start, end: end - start)):
        visible_s = [length(start, seen) for start, seen in visible]
        append_s = [length(start, end) for start, end in record["append"]]
        busy_s = sum(length(start, end) for start, end, _, _ in rounds)
        cpu_s = sum(cpu * length(start, end) / (end - start) for start, end, cpu, _ in rounds)
        figures[kind] = {
            "items_per_s": items / busy_s,
            "visible_p50_ms": 1e3 * median(visible_s),
            "visible_p90_ms": 1e3 * percentile(visible_s, 90),
            "append_p90_ms": 1e3 * percentile(append_s, 90),
            "append_p99_ms": 1e3 * percentile(append_s, 99),
            "cpu_us_per_item": 1e6 * cpu_s / items,
        }
    scaled = figures[""]
    window_start, window_end = rounds[0][0], rounds[-1][1]
    slice_us = host.slice_us(window_start, window_end)
    return Outcome(
        metrics={
            "setup_s": (median([end - start for start, end in record["setups"]]), "s",
                        len(record["setups"])),
            "items_per_s": (scaled["items_per_s"], "items/s", items),
            "visible_p50_ms": (scaled["visible_p50_ms"], "ms", len(visible)),
            "visible_p90_ms": (scaled["visible_p90_ms"], "ms", len(visible)),
            "append_p90_ms": (scaled["append_p90_ms"], "ms", len(record["append"])),
            "append_p99_ms": (scaled["append_p99_ms"], "ms", len(record["append"])),
            "query_p50_ms": (1e3 * median(record["query"]), "ms", len(record["query"])),
            "cpu_us_per_item": (scaled["cpu_us_per_item"], "us", items),
            "peak_rss_mb": (self_peak_rss_mb(), "MB", 1),
        },
        failures=failures,
        layers={
            "ingest.appends": float(record["appends"]),
            "ingest.exact_measures": float(record["exact_measures"]),
            "host.slice_us": slice_us,
        },
        notes=[
            f"{len(rounds)} rounds of {ROUND_APPENDS} background appends of "
            f"{BACKGROUND_BATCH} items and one {HOT_BATCH}-item hot append; "
            f"{len(record['query'])} probe answers",
            f"host ran the reference slice in {slice_us:.0f} us (reference "
            f"{1e6 * REFERENCE_SLICE_S:.0f} us); raw: "
            + " ".join(f"{name}={value:.6g}" for name, value in figures["raw"].items()),
        ],
    )
