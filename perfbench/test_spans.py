"""Span arithmetic of the benchmark tracer on synthetic nested and concurrent
spans, and the metric list ``BENCHMARK.json`` declares.

Run with ``python -m pytest perfbench``.  Times come from a fake clock, so
every expected value is exact.
"""

from __future__ import annotations

import json
import sys
import threading
import types

import pytest

import layers
from spans import Patcher, Totals, Tracer


class FakeClock:
    """A clock each thread sets by hand (``clock.at(t)``)."""

    def __init__(self) -> None:
        self._local = threading.local()

    def at(self, now: float) -> None:
        self._local.now = now

    def __call__(self) -> float:
        return self._local.now


@pytest.fixture
def clock():
    clock = FakeClock()
    clock.at(0.0)
    return clock


def test_self_time_subtracts_only_direct_children(clock):
    tracer = Tracer(clock)
    with tracer.span("outer"):                 # 0 .. 10
        clock.at(1.0)
        with tracer.span("middle", work=7):    # 1 .. 9
            clock.at(2.0)
            with tracer.span("leaf"):          # 2 .. 5
                clock.at(5.0)
            clock.at(9.0)
        clock.at(10.0)
    totals = tracer.totals("setup")
    assert totals["outer"] == Totals(calls=1, total_s=10.0, self_s=2.0, work=0.0)
    assert totals["middle"] == Totals(calls=1, total_s=8.0, self_s=5.0, work=7.0)
    assert totals["leaf"] == Totals(calls=1, total_s=3.0, self_s=3.0, work=0.0)


def test_sibling_children_add_up(clock):
    tracer = Tracer(clock)
    with tracer.span("parent"):                # 0 .. 6
        for start, end in ((1.0, 2.0), (3.0, 4.5)):
            clock.at(start)
            with tracer.span("child"):
                clock.at(end)
        clock.at(6.0)
    totals = tracer.totals("setup")
    assert totals["parent"].self_s == 6.0 - 2.5
    assert totals["child"] == Totals(calls=2, total_s=2.5, self_s=2.5, work=0.0)


def test_concurrent_threads_keep_separate_stacks(clock):
    """A span open on one thread is never the parent of another thread's span."""
    tracer = Tracer(clock)
    opened = threading.Barrier(2)
    closed = threading.Barrier(2)

    def worker(name: str, start: float, end: float) -> None:
        clock.at(start)
        with tracer.span(name):
            opened.wait(timeout=10)            # both spans are open now
            clock.at(end)
            closed.wait(timeout=10)

    threads = [
        threading.Thread(target=worker, args=("a", 0.0, 4.0)),
        threading.Thread(target=worker, args=("b", 1.0, 2.0)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    totals = tracer.totals("setup")
    assert totals["a"] == Totals(calls=1, total_s=4.0, self_s=4.0, work=0.0)
    assert totals["b"] == Totals(calls=1, total_s=1.0, self_s=1.0, work=0.0)


def test_phases_are_kept_apart(clock):
    tracer = Tracer(clock)
    with tracer.span("step"):
        clock.at(1.0)
    tracer.phase = "window"
    clock.at(5.0)
    with tracer.span("step"):
        clock.at(8.0)
    assert tracer.totals("setup")["step"].total_s == 1.0
    assert tracer.totals("window")["step"].total_s == 3.0


def test_out_of_order_close_is_rejected(clock):
    tracer = Tracer(clock)
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_instrument_folds_recursion_and_skipped_parents(clock):
    tracer = Tracer(clock)

    def countdown(n):
        clock.at(clock() + 1.0)
        return countdown(n - 1) if n else "done"

    countdown = tracer.instrument(countdown, "countdown", work=lambda a, k, r: 1.0)
    inner = tracer.instrument(lambda: None, "inner", skip_under=("outer",))
    outer = tracer.instrument(lambda: inner(), "outer")
    assert countdown(3) == "done"
    outer()
    inner()
    totals = tracer.totals("setup")
    assert totals["countdown"] == Totals(calls=1, total_s=4.0, self_s=4.0, work=1.0)
    assert totals["inner"].calls == 1          # the call under "outer" is folded in
    assert totals["outer"].calls == 1


def test_patcher_reaches_imported_names_and_restores_them():
    source = types.ModuleType("repro.perfbench_test_source")
    user = types.ModuleType("repro.perfbench_test_user")

    def helper():
        return "original"

    class Thing:
        def method(self):
            return "original"

    source.helper = user.helper = helper      # ``from source import helper``
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    try:
        patcher = Patcher()
        patcher.function(source.__name__, "helper", lambda fn: lambda: "wrapped")
        patcher.method(Thing, "method", lambda fn: lambda self: "wrapped")
        assert source.helper() == user.helper() == Thing().method() == "wrapped"
        patcher.restore()
        assert source.helper() == user.helper() == Thing().method() == "original"
    finally:
        del sys.modules[source.__name__]
        del sys.modules[user.__name__]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert all(len(run.SLOTS[w]) == len(run.E2E) for w in run.WORKLOADS)


def test_layer_metrics_derive_rates_and_the_snapshot_wait():
    window = {
        "queries.mass": Totals(calls=4, total_s=0.002, self_s=0.002, work=0.0),
        "queries.mass_many": Totals(calls=2, total_s=0.01, self_s=0.01, work=100.0),
        "ingest.snapshot": Totals(calls=2, total_s=3.0, self_s=3.0, work=0.0),
        "continual.snapshot": Totals(calls=2, total_s=1.25, self_s=1.0, work=8320.0),
        "core.grow_partition": Totals(calls=2, total_s=1.0, self_s=0.25, work=0.0),
    }
    setup = {"io.load_release_binary": Totals(calls=2, total_s=0.5, self_s=0.5, work=0.0)}
    values = layers.layer_metrics(window, setup)
    assert values["queries.mass.us"] == pytest.approx(500.0)
    assert values["queries.mass_many.us_per_query"] == pytest.approx(100.0)
    assert values["ingest.snapshot.wait_s"] == pytest.approx(1.75)
    assert values["core.release.leaves"] == 8320.0
    assert values["core.grow_partition.self_s"] == 0.25
    assert values["io.load_release_binary.s"] == 0.5
    assert values["sketch.query.calls"] == 0.0
