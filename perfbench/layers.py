"""Which public functions the traced run wraps, and what each span is called.

Span names are the per-layer metric stems of ``BENCHMARK.json``: a span
``core.grow_partition`` yields ``core.grow_partition.self_s`` and so on (see
:func:`layer_metrics`).  Every layer is named by its module; the wrapped
functions are the seams between layers along locate -> level aggregation ->
tree/sketch update -> grow -> compile -> normalize -> evaluate -> encode ->
socket, plus the ingest and live-snapshot seams.
"""

from __future__ import annotations

import importlib

from spans import Patcher, Tracer

__all__ = ["SPAN_METRICS", "WORKLOAD_METRICS", "install", "layer_metrics"]

#: Modules imported before patching, so that every ``from x import f``
#: binding already exists when :meth:`Patcher.function` scans for it.
_MODULES = (
    "repro.api.release",
    "repro.continual.counter",
    "repro.continual.privhp",
    "repro.continual.sketch",
    "repro.core.consistency",
    "repro.core.partition",
    "repro.core.privhp",
    "repro.core.tree",
    "repro.domain.hypercube",
    "repro.domain.interval",
    "repro.ingest.partition",
    "repro.ingest.service",
    "repro.ingest.spec",
    "repro.io.binary",
    "repro.memory.accounting",
    "repro.queries.compiled",
    "repro.queries.quantiles",
    "repro.queries.range_queries",
    "repro.serve.batch",
    "repro.serve.http",
    "repro.serve.service",
    "repro.serve.store",
)


def _length(position: int):
    """Work = ``len`` of the call's positional argument ``position`` (self is 0)."""

    def work(args, kwargs, result):
        try:
            return float(len(args[position]))
        except (IndexError, TypeError):
            return 0.0

    return work


def _released_leaves(args, kwargs, result) -> float:
    # Children are always stored in pairs, so a tree of N nodes has (N+1)/2
    # leaves; counting them this way keeps the span's own cost O(1).
    tree = getattr(result, "tree", None)
    return float((len(tree) + 1) // 2) if tree is not None else 0.0


def _compiled_leaves(args, kwargs, result) -> float:
    return float(getattr(args[0], "size", 0))


def _mass_name(args) -> str:
    table = getattr(args[0], "_table", None)
    return "queries.mass_box" if getattr(table, "kind", None) == "box" else "queries.mass"


def install(tracer: Tracer, *, on_handler_exit=None) -> Patcher:
    """Wrap every traced seam with spans recorded into ``tracer``.

    ``on_handler_exit(handler, duration)`` is called after each HTTP
    ``do_POST`` span, so the caller can pair handler time with the client's
    latency of the same request.  Returns the :class:`Patcher`; call its
    ``restore()`` to take the spans out again.
    """
    for name in _MODULES:
        importlib.import_module(name)
    from repro.continual.counter import BinaryMechanismCounterBank
    from repro.continual.privhp import PrivHPContinual
    from repro.continual.sketch import ContinualPrivateCountMinSketch
    from repro.core.privhp import PrivHP
    from repro.core.tree import PartitionTree
    from repro.domain.base import Domain
    from repro.domain.hypercube import Hypercube
    from repro.domain.interval import UnitInterval
    from repro.ingest.service import IngestService
    from repro.ingest.spec import TenantSpec
    from repro.queries.compiled import CompiledDescentTable, CompiledLeafTable
    from repro.queries.quantiles import QuantileEngine
    from repro.queries.range_queries import RangeQueryEngine
    from repro.serve.http import _QueryRequestHandler
    from repro.serve.service import QueryService
    from repro.serve.store import ReleaseStore
    from repro.sketch.countmin import CountMinSketch

    patcher = Patcher()
    single_queries = ("queries.mass", "queries.mass_box", "queries.cdf")

    def method(cls, attr, name, **options):
        patcher.method(cls, attr, lambda fn: tracer.instrument(fn, name, **options))

    def function(module, attr, name, **options):
        patcher.function(module, attr, lambda fn: tracer.instrument(fn, name, **options))

    # locate
    for cls in (Domain, UnitInterval, Hypercube):
        method(cls, "locate_batch", "domain.locate_batch", work=_length(1))
    # level aggregation and tree/sketch update
    method(PrivHP, "update_batch", "core.update_batch", work=_length(1))
    method(PrivHP, "update_segments", "core.update_segments", work=_length(1))
    method(PrivHPContinual, "update_batch", "continual.update_batch", work=_length(1))
    method(PrivHPContinual, "update_segments", "continual.update_segments", work=_length(1))
    method(PartitionTree, "increment_many", "core.tree.increment_many", work=_length(1))
    method(CountMinSketch, "update_batch", "sketch.update_batch", work=_length(1))
    method(ContinualPrivateCountMinSketch, "update_batch", "sketch.update_batch", work=_length(1))
    # grow and release
    method(PrivHP, "release", "core.release", work=_released_leaves)
    method(PrivHPContinual, "snapshot", "continual.snapshot", work=_released_leaves)
    function("repro.core.partition", "grow_partition", "core.grow_partition")
    function("repro.core.partition", "select_top_k", "core.select_top_k")
    function("repro.core.consistency", "enforce_consistency", "core.enforce_consistency")
    method(CountMinSketch, "query", "sketch.query")
    method(ContinualPrivateCountMinSketch, "query", "sketch.query")
    method(BinaryMechanismCounterBank, "query_all", "continual.bank.query_all")
    # compile
    method(CompiledLeafTable, "__init__", "queries.compile", work=_compiled_leaves)
    method(CompiledDescentTable, "__init__", "queries.compile")
    # evaluate
    method(RangeQueryEngine, "mass", _mass_name)
    method(RangeQueryEngine, "cdf", "queries.cdf")
    method(QuantileEngine, "quantile", "queries.quantile")
    method(
        RangeQueryEngine, "mass_many", "queries.mass_many",
        work=_length(1), skip_under=single_queries,
    )
    # normalize / cache / serve
    function("repro.serve.service", "normalize_query", "serve.normalize_query")
    function("repro.serve.service", "evaluate_many", "serve.evaluate_many")
    method(QueryService, "answer", "serve.answer")
    method(QueryService, "answer_many", "serve.answer_many")
    method(ReleaseStore, "get", "serve.store.get")
    method(
        _QueryRequestHandler, "do_POST", "serve.http.handler",
        on_exit=(lambda args, duration: on_handler_exit(args[0], duration))
        if on_handler_exit is not None else None,
    )
    function("repro.io.binary", "load_release_binary", "io.load_release_binary")
    # ingest
    method(IngestService, "append", "ingest.append")
    method(IngestService, "snapshot", "ingest.snapshot")
    method(TenantSpec, "build_summarizer", "ingest.build_summarizer")
    function("repro.memory.accounting", "measure_method", "memory.measure_method")
    return patcher


#: (metric, unit) of the per-layer metrics read from span totals.  The
#: suffix says which total: ``s`` inclusive seconds, ``self_s`` self seconds,
#: ``calls``, a work count (items, cells, keys, leaves), ``us`` mean
#: microseconds per call, ``us_per_query`` seconds per unit of work.
SPAN_METRICS: list[tuple[str, str]] = [
    ("domain.locate_batch.s", "s"),
    ("domain.locate_batch.items", "count"),
    ("core.update_batch.self_s", "s"),
    ("core.update_batch.calls", "count"),
    ("core.tree.increment_many.s", "s"),
    ("core.tree.increment_many.cells", "count"),
    ("sketch.update_batch.s", "s"),
    ("sketch.update_batch.keys", "count"),
    ("core.update_segments.s", "s"),
    ("continual.update_segments.s", "s"),
    ("continual.update_batch.s", "s"),
    ("core.grow_partition.self_s", "s"),
    ("core.release.leaves", "count"),
    ("sketch.query.s", "s"),
    ("sketch.query.calls", "count"),
    ("core.enforce_consistency.s", "s"),
    ("core.enforce_consistency.calls", "count"),
    ("core.select_top_k.s", "s"),
    ("queries.compile.s", "s"),
    ("queries.compile.leaves", "count"),
    ("queries.mass.us", "us"),
    ("queries.mass_box.us", "us"),
    ("queries.cdf.us", "us"),
    ("queries.quantile.us", "us"),
    ("queries.mass_many.us_per_query", "us"),
    ("serve.normalize_query.s", "s"),
    ("serve.answer.s", "s"),
    ("serve.answer_many.s", "s"),
    ("serve.evaluate_many.s", "s"),
    ("serve.store.get.s", "s"),
    ("serve.http.handler.self_s", "s"),
    ("io.load_release_binary.s", "s"),
    ("ingest.append.s", "s"),
    ("ingest.append.calls", "count"),
    ("ingest.snapshot.s", "s"),
    ("ingest.snapshot.wait_s", "s"),
    ("continual.snapshot.s", "s"),
    ("continual.snapshot.calls", "count"),
    ("continual.bank.query_all.s", "s"),
    ("memory.measure_method.s", "s"),
    ("memory.measure_method.calls", "count"),
    ("ingest.build_summarizer.s", "s"),
    ("ingest.build_summarizer.calls", "count"),
]

#: Per-layer metrics a workload measures itself (0 on workloads that never
#: reach the layer).
WORKLOAD_METRICS: list[tuple[str, str]] = [
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.http.wire_ms", "ms"),
    ("server.cpu_util", "ratio"),
    ("ingest.appends", "count"),
    ("ingest.exact_measures", "count"),
    ("host.slice_us", "us"),
]

#: Spans whose totals come from the set-up phase rather than the window:
#: a cold load and first-touch construction happen before timing starts.
SETUP_SPANS = ("io.load_release_binary", "ingest.build_summarizer")

_WORK_SUFFIXES = ("items", "cells", "keys", "leaves")


def layer_metrics(window: dict, setup: dict) -> dict[str, float]:
    """Span-derived metric values from span totals (``name -> Totals``)."""
    values: dict[str, float] = {}
    for metric, _unit in SPAN_METRICS:
        stem, _, suffix = metric.rpartition(".")
        source = setup if stem in SETUP_SPANS else window
        totals = source.get(stem)
        if totals is None:
            values[metric] = 0.0
        elif suffix == "s":
            values[metric] = totals.total_s
        elif suffix == "self_s":
            values[metric] = totals.self_s
        elif suffix == "calls":
            values[metric] = float(totals.calls)
        elif suffix in _WORK_SUFFIXES:
            values[metric] = totals.work
        elif suffix == "us":
            values[metric] = 1e6 * totals.total_s / totals.calls if totals.calls else 0.0
        elif suffix == "us_per_query":
            values[metric] = 1e6 * totals.total_s / totals.work if totals.work else 0.0
    # A continual snapshot is a release of the stream so far: its leaves count.
    inner = window.get("continual.snapshot")
    if inner is not None:
        values["core.release.leaves"] += inner.work
    # Time a snapshot request spent queued behind the worker's other work.
    snapshot = window.get("ingest.snapshot")
    if snapshot is not None:
        values["ingest.snapshot.wait_s"] = snapshot.total_s - (inner.total_s if inner else 0.0)
    return values
