"""Helpers shared by the workloads: statistics, process probes, digests, HTTP."""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Failures",
    "HostMeter",
    "HttpClient",
    "Outcome",
    "canonical_digest",
    "fingerprint",
    "median",
    "percentile",
    "proc_cpu_s",
    "proc_peak_rss_mb",
    "self_peak_rss_mb",
]


def fingerprint() -> dict:
    """The machine a result was measured on; compare absolute numbers only
    between results whose fingerprints are equal."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 0
    return {
        "cores": cores,
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


#: CPU seconds one :func:`reference_slice` takes on an uncontended core of
#: the machine the benchmark was written on.  Only the ratio of the slices
#: measured in a run to this constant matters, and it never changes.
REFERENCE_SLICE_S = 0.00095

_SLICE_KEYS = np.arange(1 << 16, dtype=np.uint64)


def reference_slice() -> float:
    """CPU seconds the calling thread spends on one fixed slice of work.

    The slice mixes interpreted Python (dict and float updates) with a numpy
    hash-and-count pass, like the summarizers' own code, and never calls the
    program, so no change to the program can move it.
    """
    start = time.thread_time()
    cells: dict[int, float] = {}
    for key in range(4000):
        cells[key & 255] = cells.get(key & 255, 0.0) + key * 0.5
    hashed = (_SLICE_KEYS * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(52)
    np.bincount(hashed.astype(np.intp), minlength=4096)
    return time.thread_time() - start


def _mark_time(mark: tuple[float, float]) -> float:
    return mark[0]


class HostMeter:
    """How fast the host runs, measured between the workload's operations.

    The machines this benchmark runs on are shared: the same code runs up to
    half again slower from one second to the next, and the CPU clock slows
    with it (the time goes to contention, it is not stolen), so neither the
    wall nor the CPU time of the program is steady on its own.  The workload
    calls :meth:`mark` at points where none of its own threads is busy;
    :meth:`factor` then turns a time measured over ``[start, end]`` into
    *reference time*: the time the same work takes on a host that runs
    :func:`reference_slice` in ``REFERENCE_SLICE_S``.  A change to the
    program moves a rescaled figure as much as the raw one, and a change of
    the host's speed does not.  Marks are taken only while the program is
    idle, so that nothing the program does can slow the slices.
    """

    def __init__(self) -> None:
        #: ``(perf_counter, median slice CPU seconds)`` of each mark, in time order.
        self._marks: list[tuple[float, float]] = []
        reference_slice()  # the first slice after start-up runs cold

    def mark(self, slices: int = 3) -> None:
        """Time ``slices`` reference slices now and record their median."""
        seconds = statistics.median(reference_slice() for _ in range(slices))
        self._marks.append((time.perf_counter(), seconds))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over ``[start, end]``.

        Uses the median of the marks inside the interval plus the last one
        before it and the first one after it.
        """
        marks = self._marks
        low = max(bisect.bisect_left(marks, start, key=_mark_time) - 1, 0)
        high = bisect.bisect_right(marks, end, key=_mark_time) + 1
        return REFERENCE_SLICE_S / statistics.median(s for _, s in marks[low:high])

    def scaled(self, start: float, end: float) -> float:
        """The interval's length in reference seconds."""
        return (end - start) * self.factor(start, end)

    def slice_us(self, start: float, end: float) -> float:
        """Median slice time over ``[start, end]``, in microseconds."""
        return 1e6 * REFERENCE_SLICE_S / self.factor(start, end)


def median(values) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) of a non-empty sample, interpolated."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def canonical_digest(release) -> str:
    """sha256 of a release's canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(release.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def self_peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds another live process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


@dataclass
class Outcome:
    """What one pass of a workload measured.

    ``metrics`` maps a named end-to-end metric to ``(value, unit, samples)``;
    ``layers`` holds the per-layer values the workload measures itself
    (span-derived ones come from the tracer); ``notes`` are printed.
    ``spans`` carries span totals recorded in another process (the traced
    server), as ``{phase: {name: [calls, total_s, self_s, work]}}``.
    """

    metrics: dict[str, tuple[float, str, int]]
    failures: "Failures"
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    spans: dict | None = None


class Failures:
    """Counts attempted and failed operations, keeping the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, reason: str) -> bool:
        """Count one attempted operation; a false ``ok`` also counts a failure."""
        with self._lock:
            self.attempted += 1
        if not ok:
            self.fail(reason, attempted=False)
        return ok

    def fail(self, reason: str, attempted: bool = True) -> None:
        """Count one failed operation (and, by default, its attempt)."""
        with self._lock:
            self.attempted += attempted
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


class HttpClient:
    """One keep-alive connection; each call returns ``(seconds, status, body)``."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def post(self, payload: bytes, headers: dict | None = None):
        send = {"Content-Type": "application/json"}
        if headers:
            send.update(headers)
        start = time.perf_counter()
        self._connection.request("POST", "/query", payload, send)
        response = self._connection.getresponse()
        body = response.read()
        return time.perf_counter() - start, response.status, body

    def get(self, path: str):
        self._connection.request("GET", path)
        response = self._connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self._connection.close()
