"""``fit_release``: the paper's one-shot path, closed loop on one thread.

One ``PrivHP`` on the unit interval (epsilon = 1, k = 8) takes 2^20
Beta(2, 5) items through ``update_batch`` in 16,384-item batches, then runs
``release()`` (about 4.1k leaves) and answers its first ``mass`` query, which
compiles the query engine.  The whole fit repeats until the window is over.
Each fit is one sample of the ingest timings; ``release()`` and the first
answer are also timed on copies restored from a checkpoint of the fitted
summarizer, because one release per 3 s fit gives too few samples to be
steady.  Every time is rescaled to reference time by a
:class:`~common.HostMeter`; the raw medians are printed alongside.

It never touches ``repro.ingest``, ``repro.serve`` or a socket, so a change to
those layers should read "no change" here.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from common import (
    REFERENCE_SLICE_S,
    Failures,
    HostMeter,
    Outcome,
    canonical_digest,
    median,
    percentile,
    self_peak_rss_mb,
)

ITEMS = 1 << 20
BATCH = 1 << 14
EPSILON = 1.0
PRUNING_K = 8
SETUP_REPEATS = 5
#: Releases timed per fit: the fitted summarizer's own, then copies restored
#: from its checkpoint, so ``release_ms`` rests on more than a few samples.
RELEASES_PER_FIT = 4
#: A host mark (see ``common.HostMeter``) every this many batches: ~0.4 s.
MARK_EVERY = 8
#: The release for this data/noise seed is a fixed behaviour; its digest is
#: pinned in ``pinned.json`` and checked once per run, after the window.
REFERENCE_SEED = 0
PINNED = pathlib.Path(__file__).with_name("pinned.json")


def make_data(seed: int) -> np.ndarray:
    """The workload's input stream for ``seed``."""
    return np.random.default_rng(seed).beta(2.0, 5.0, ITEMS)


def fit(data: np.ndarray, seed: int, host: HostMeter, releases: int = 1) -> dict:
    """One fit -> release -> first answer; returns its timings and releases.

    Timings are ``(start, end)`` ``perf_counter`` intervals, and each
    ``update_batch`` call also carries the fitting thread's CPU seconds, so
    that they can be rescaled by the marks taken on ``host`` between the
    operations (every ``MARK_EVERY`` batches and around each release and
    first answer).  ``releases > 1`` also
    releases copies restored from a checkpoint taken just before the first
    release (untimed); each is another sample of ``release()`` and of the
    first answer, and must release the same bytes.
    """
    from repro.api.builder import PrivHPBuilder
    from repro.core.privhp import PrivHP

    summarizer = (
        PrivHPBuilder("interval")
        .epsilon(EPSILON)
        .pruning_k(PRUNING_K)
        .stream_size(ITEMS)
        .seed(seed)
        .build()
    )
    outcome = {"batches": [], "release": [], "first_answer": [], "answers": [], "releases": []}
    host.mark()
    for index, offset in enumerate(range(0, ITEMS, BATCH), start=1):
        cpu_start = time.thread_time()
        start = time.perf_counter()
        summarizer.update_batch(data[offset : offset + BATCH])
        outcome["batches"].append((start, time.perf_counter(), time.thread_time() - cpu_start))
        if index % MARK_EVERY == 0:
            host.mark()
    state = summarizer.checkpoint(arrays=True) if releases > 1 else None
    for copy in range(releases):
        if copy:
            summarizer = PrivHP.restore(state)
        host.mark()
        start = time.perf_counter()
        release = summarizer.release()
        released = time.perf_counter()
        outcome["answers"].append(release.mass(0.25, 0.75))
        outcome["release"].append((start, released))
        outcome["first_answer"].append((released, time.perf_counter()))
        outcome["releases"].append(release)
    host.mark()
    return outcome


def check_release(release, failures: Failures) -> None:
    """Cheap invariants every release must satisfy."""
    ledger = sum(epsilon for epsilon, _label in release.metadata["privacy_ledger"])
    failures.check(abs(ledger - EPSILON) <= 1e-9, f"privacy ledger sums to {ledger}, not {EPSILON}")
    failures.check(release.tree.is_consistent(), "released tree is not consistent")
    failures.check(release.items_processed == ITEMS, "release lost items")


def _figures(fits: list, setups: list, length) -> dict[str, float]:
    """The workload's timings, each interval measured by ``length(start, end)``."""

    def lengths(key):
        return [length(start, end) for f in fits for start, end, *_ in f[key]]

    ingest_s = [sum(length(start, end) for start, end, _ in f["batches"]) for f in fits]
    # CPU seconds scale like the wall time of the same interval.
    cpu_s = [
        sum(cpu * length(start, end) / (end - start) for start, end, cpu in f["batches"])
        for f in fits
    ]
    return {
        "setup_s": median([length(start, end) for start, end in setups]),
        "items_per_s": median([ITEMS / s for s in ingest_s]),
        "release_ms": 1e3 * median(lengths("release")),
        "first_answer_ms": 1e3 * median(lengths("first_answer")),
        "update_batch_p90_ms": 1e3 * percentile(lengths("batches"), 90),
        "cpu_us_per_item": median([1e6 * s / ITEMS for s in cpu_s]),
    }


def run(seed: int, seconds: float, tracer=None, verify_reference: bool = True) -> Outcome:
    failures = Failures()
    host = HostMeter()
    setups = []
    for _ in range(SETUP_REPEATS):
        host.mark()
        start = time.perf_counter()
        data = make_data(seed)
        setups.append((start, time.perf_counter()))

    if tracer is not None:
        tracer.phase = "window"
    fits = []
    window_start = time.perf_counter()
    while not fits or time.perf_counter() - window_start < seconds:
        fits.append(fit(data, seed, host, RELEASES_PER_FIT))
    window_end = time.perf_counter()
    if tracer is not None:
        tracer.phase = "after"

    digests = set()
    for outcome in fits:
        for release, answer in zip(outcome["releases"], outcome["answers"]):
            check_release(release, failures)
            failures.check(0.0 <= answer <= 1.0, f"mass answer {answer} outside [0, 1]")
            digests.add(canonical_digest(release))
    failures.check(len(digests) == 1, "releases of the same input differ in their bytes")

    if verify_reference:
        pinned = json.loads(PINNED.read_text())["fit_release_sha256"]
        reference = fit(make_data(REFERENCE_SEED), REFERENCE_SEED, HostMeter())["releases"][0]
        check_release(reference, failures)
        failures.check(
            canonical_digest(reference) == pinned,
            "release bytes for the reference seed differ from the pinned digest",
        )

    scaled = _figures(fits, setups, host.scaled)
    raw = _figures(fits, setups, lambda start, end: end - start)
    samples = {
        "setup_s": len(setups),
        "items_per_s": len(fits),
        "release_ms": len(fits) * RELEASES_PER_FIT,
        "first_answer_ms": len(fits) * RELEASES_PER_FIT,
        "update_batch_p90_ms": sum(len(f["batches"]) for f in fits),
        "cpu_us_per_item": len(fits),
    }
    units = {"setup_s": "s", "items_per_s": "items/s", "cpu_us_per_item": "us"}
    release = fits[-1]["releases"][-1]
    slice_us = host.slice_us(window_start, window_end)
    metrics = {name: (value, units.get(name, "ms"), samples[name]) for name, value in scaled.items()}
    metrics["memory_words"] = (float(release.memory_words), "words", samples["release_ms"])
    metrics["peak_rss_mb"] = (self_peak_rss_mb(), "MB", 1)
    return Outcome(
        metrics=metrics,
        failures=failures,
        layers={"host.slice_us": slice_us},
        notes=[
            f"{len(fits)} fit(s) of {ITEMS} items, {samples['release_ms']} releases of "
            f"{(len(release.tree) + 1) // 2} leaves",
            f"host ran the reference slice in {slice_us:.0f} us (reference "
            f"{1e6 * REFERENCE_SLICE_S:.0f} us); raw: "
            + " ".join(f"{name}={value:.6g}" for name, value in raw.items()),
        ],
    )
