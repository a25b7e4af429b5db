"""The repository benchmark: ``fit_release``, ``serve_http`` and ``fleet_live``.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload fit_release --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` first repeats that untraced run in a child process, then runs
the workload again with spans around every layer's public functions and
reports the per-layer metrics, the untraced end-to-end values by their
workload names (``e2e.*``) and the tracing overhead on each end-to-end
metric (``overhead.*`` = traced minus untraced).  ``--workload all`` runs
every workload in turn.

Every metric is printed with its unit and sample count, followed by the
machine fingerprint; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the
workload -> metric -> layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fit_release", "serve_http", "fleet_live")

#: End-to-end metrics every workload reports, with the workload metric that
#: fills each one.  Each workload has its own throughput, median latency,
#: tail latency and secondary latency; see README.md.
E2E = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("latency_aux_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
]
SLOTS = {
    "fit_release": [
        "setup_s", "items_per_s", "release_ms", "update_batch_p90_ms",
        "first_answer_ms", "cpu_us_per_item", "peak_rss_mb",
    ],
    "serve_http": [
        "setup_s", "queries_per_s", "query_p50_ms", "query_p99_ms",
        "batch_mean_ms", "cpu_us_per_answer", "peak_rss_mb",
    ],
    "fleet_live": [
        "setup_s", "items_per_s", "visible_p50_ms", "visible_p90_ms",
        "append_p90_ms", "cpu_us_per_item", "peak_rss_mb",
    ],
}
#: Workload metrics reported by name in traced runs (0 where a workload
#: does not measure one).
NAMED = [
    ("items_per_s", "items/s"),
    ("release_ms", "ms"),
    ("first_answer_ms", "ms"),
    ("memory_words", "words"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("queries_per_s", "answers/s"),
    ("visible_p50_ms", "ms"),
    ("visible_p90_ms", "ms"),
    ("append_p90_ms", "ms"),
    ("append_p99_ms", "ms"),
    ("cpu_us_per_item", "us"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "ratio"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, in report order."""
    import layers

    return (
        layers.SPAN_METRICS
        + layers.WORKLOAD_METRICS
        + [(f"e2e.{name}", unit) for name, unit in NAMED]
        + [(f"overhead.{name}", unit) for name, unit in E2E]
    )


def run_workload(name: str, seed: int, seconds: float, work: pathlib.Path, tracer=None):
    if name == "fit_release":
        import fit_release

        return fit_release.run(seed, seconds, tracer, verify_reference=tracer is None)
    if name == "serve_http":
        import serve_http

        return serve_http.run(ROOT, work, seed, seconds, traced=tracer is not None)
    import fleet_live

    return fleet_live.run(seed, seconds, tracer)


def named_values(outcome) -> dict[str, tuple[float, str, int]]:
    """The workload's metrics plus its error rate."""
    values = dict(outcome.metrics)
    failures = outcome.failures
    values["error_rate"] = (failures.failed / max(failures.attempted, 1), "ratio", failures.attempted)
    return values


def print_report(workload: str, args, outcome, values: dict) -> None:
    from common import fingerprint

    print(f"# perfbench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine " + " ".join(f"{key}={value}" for key, value in fingerprint().items()))
    for note in outcome.notes:
        print(f"# {note}")
    slots = dict(zip(SLOTS[workload], (name for name, _ in E2E)))
    print(f"# {'metric':<22} {'value':>16} {'unit':<10} {'samples':>8}  end-to-end slot")
    for name, (value, unit, samples) in values.items():
        print(f"  {name:<22} {value:>16.6g} {unit:<10} {samples:>8}  {slots.get(name, '')}")
    for reason in outcome.failures.reasons:
        print(f"# FAILED: {reason}")
    print(f"# checks attempted={outcome.failures.attempted} failed={outcome.failures.failed}")


def _number(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def untraced_child(args) -> tuple[dict, int, int]:
    """Run the untraced pass in a child process; returns its named metrics."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    child = subprocess.run(command, capture_output=True, text=True, check=False)
    report = None
    for line in child.stdout.splitlines():
        print(f"# untraced| {line}")
        if line.startswith("# report "):
            report = json.loads(line[len("# report "):])
    if child.returncode != 0 or report is None:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"untraced pass exited with {child.returncode}")
    return report["values"], report["attempted"], report["failed"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            result = subprocess.run(command, capture_output=True, text=True, check=False)
            print(result.stdout, end="", flush=True)
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                sys.stderr.write(result.stderr)
                status = 1
        return status

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace == 0:
            outcome = run_workload(args.workload, args.seed, args.seconds, work)
            values = named_values(outcome)
            print_report(args.workload, args, outcome, values)
            metrics = {
                slot: {"value": _number(values[name][0]), "unit": unit}
                for (slot, unit), name in zip(E2E, SLOTS[args.workload])
            }
            report = {
                "values": {name: value for name, (value, _, _) in values.items()},
                "attempted": outcome.failures.attempted,
                "failed": outcome.failures.failed,
            }
            print("# report " + json.dumps(report))
            attempted, failed = outcome.failures.attempted, outcome.failures.failed
        else:
            metrics, attempted, failed = traced(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def traced(args, work: pathlib.Path):
    """Untraced child pass, then the traced pass here; per-layer metrics."""
    import layers
    from spans import Totals, Tracer

    untraced, attempted, failed = untraced_child(args)
    tracer = Tracer()
    patcher = layers.install(tracer) if args.workload != "serve_http" else None
    start = time.perf_counter()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, work, tracer)
    finally:
        if patcher is not None:
            patcher.restore()
    values = named_values(outcome)
    print_report(args.workload, args, outcome, values)
    print(f"# traced pass took {time.perf_counter() - start:.1f} s")

    if outcome.spans is not None:
        totals = {
            phase: {name: Totals(*row) for name, row in outcome.spans[phase].items()}
            for phase in ("setup", "window")
        }
    else:
        totals = {phase: tracer.totals(phase) for phase in ("setup", "window")}
    found = layers.layer_metrics(totals["window"], totals["setup"])
    found.update(outcome.layers)
    for name, _unit in NAMED:
        found[f"e2e.{name}"] = untraced.get(name, 0.0)
    for (slot, _unit), name in zip(E2E, SLOTS[args.workload]):
        found[f"overhead.{slot}"] = values[name][0] - untraced[name]
    metrics = {
        name: {"value": _number(found.get(name, 0.0)), "unit": unit}
        for name, unit in per_layer_metrics()
    }
    print(f"# {'per-layer metric':<40} {'value':>16} unit")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    return metrics, attempted + outcome.failures.attempted, failed + outcome.failures.failed


if __name__ == "__main__":
    sys.exit(main())
