"""Command-line interface for PrivHP, built on the unified ``repro.api`` surface.

Twelve sub-commands cover the workflow:

* ``summarize`` -- stream a CSV of sensitive values through PrivHP (batched,
  optionally sharded) and write the released (epsilon-DP) generator to JSON.
  With ``--continual`` (and an optional ``--horizon``) the fit runs the
  continual-observation variant, whose state is private at every point of
  the stream.
* ``generate`` -- load a released generator and emit synthetic data as CSV.
  ``--seed`` reseeds *sampling only*; the persisted tree counts are never
  re-noised.
* ``evaluate`` -- fit, generate and report the Wasserstein error and memory
  footprint in one go (no artefacts written).
* ``checkpoint`` -- ingest a CSV into a durable mid-stream state file (new or
  existing), without releasing.  States are written in the binary envelope
  format by default (``--format json`` for the text form); every consumer
  autodetects either.
* ``convert`` -- convert a release or checkpoint file between the JSON
  interchange format and the mmap-loadable binary envelope (lossless both
  ways).
* ``resume`` -- restore a state file, optionally ingest more data, and
  release.
* ``snapshot`` -- write a mid-stream release from a *continual* checkpoint
  without consuming it (the state file stays resumable).
* ``serve`` -- expose a directory of releases as a JSON-over-HTTP query
  endpoint (``repro.serve``); pure post-processing, no privacy cost.
* ``query`` -- answer a JSON workload file against one release, no server
  needed.
* ``matrix`` -- run a declarative experiment grid (methods x domains x
  generators x epsilon x n x trials) through the parallel, resumable matrix
  runner; ``--smoke`` runs the built-in CI grid and gates the accuracy
  ordering; ``--gate`` applies the same gate (plus its per-epoch variant for
  scenario cells) to any grid.
* ``scenario`` -- materialise a time-varying scenario spec
  (``repro.stream.scenarios``) into a CSV stream, or with ``--tenants`` into
  tenant-tagged JSONL ready for ``repro ingest --append``; prints the
  per-epoch schedule table.
* ``ingest`` -- run the multi-tenant ingestion service (``repro.ingest``)
  over a directory of tenant specs: append tenant-tagged JSONL/CSV files
  (one-off via ``--append`` or continuously via ``--watch``), optionally
  serving live snapshots over HTTP while ingesting, then snapshot or
  release tenants.

Example::

    python -m repro.cli matrix spec.json --out results/ --workers 4 --resume
    python -m repro.cli matrix --smoke --out smoke-results/
    python -m repro.cli scenario drift.json --size 10000 --out stream.csv
    python -m repro.cli scenario drift.json --size 5000 --tenants 4 \
        --out appends.jsonl

    python -m repro.cli summarize --input values.csv --epsilon 1.0 --k 8 \
        --domain auto --shards 4 --output release.json
    python -m repro.cli generate --release release.json --size 10000 \
        --output synthetic.csv
    python -m repro.cli checkpoint --input day1.csv --state state.json \
        --continual --stream-size 2000000
    python -m repro.cli snapshot --state state.json --output day1_release.json
    python -m repro.cli checkpoint --input day2.csv --state state.json
    python -m repro.cli resume --state state.json --output release.json
    python -m repro.cli serve --store releases/ --port 8080
    python -m repro.cli query release.json --workload queries.json
    python -m repro.cli ingest --specs tenants/ --append day1.jsonl \
        --checkpoint-dir ckpt/ --memory-budget-words 200000 \
        --release-dir releases/
    python -m repro.cli ingest --specs tenants/ --watch spool/ --serve --port 8080
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from repro.api.builder import PrivHPBuilder
from repro.api.registry import available_domains, make_domain
from repro.api.release import Release
from repro.api.summarizer import DEFAULT_BATCH_SIZE, ingest_batches
from repro.ingest.partition import DEFAULT_REPLY_TIMEOUT
from repro.io.serialization import load_checkpoint, save_checkpoint
from repro.metrics.wasserstein import empirical_wasserstein

__all__ = ["main", "build_parser"]


def _load_csv(path: str | pathlib.Path) -> np.ndarray:
    """Load a headerless CSV of floats (one row per record)."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] == 1:
        return data.ravel()
    return data


def _write_csv(path: str | pathlib.Path, data: np.ndarray) -> None:
    array = np.asarray(data)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    # Integer domains (discrete, ipv4) must not lose precision to a float
    # significant-digit format.
    fmt = "%d" if np.issubdtype(array.dtype, np.integer) else "%.10g"
    np.savetxt(path, array, delimiter=",", fmt=fmt)


#: (flag, attribute, default, type, help) fit parameters; ``checkpoint``
#: declares them with a None default so flags that only apply to a fresh
#: state can be detected (and rejected) when the state file already exists.
_FIT_ARGUMENTS = (
    ("--epsilon", "epsilon", 1.0, float, "privacy budget"),
    ("--k", "k", 8, int, "pruning parameter"),
    ("--seed", "seed", 0, int, "random seed"),
    (
        "--domain",
        "domain",
        "auto",
        str,
        "domain spec: 'auto' (infer from data shape) or one of "
        f"{', '.join(available_domains())} with optional ':args' "
        "(e.g. hypercube:3, discrete:4096, geo:24,49,-125,-66)",
    ),
)


def _add_fit_arguments(parser: argparse.ArgumentParser, deferred_defaults: bool = False) -> None:
    for flag, _attribute, default, value_type, help_text in _FIT_ARGUMENTS:
        parser.add_argument(
            flag,
            type=value_type,
            default=None if deferred_defaults else default,
            help=help_text,
        )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help="items per vectorised ingestion batch",
    )
    parser.add_argument(
        "--continual",
        action="store_true",
        default=None if deferred_defaults else False,
        help="fit the continual-observation variant (state private at every "
        "point of the stream; snapshot-able mid-stream)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="maximum stream length the continual counters must survive "
        "(default: the expected stream size)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command-line tool."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PrivHP: private synthetic data generation in bounded memory",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summarize = subparsers.add_parser(
        "summarize", help="stream a CSV through PrivHP and save the private release"
    )
    summarize.add_argument("--input", required=True, help="CSV of sensitive values (no header)")
    summarize.add_argument("--output", required=True, help="path for the release JSON")
    _add_fit_arguments(summarize)
    summarize.add_argument(
        "--shards",
        type=int,
        default=1,
        help="ingest through N raw shard summaries merged before the single "
        "noise injection (noise is never double-counted)",
    )

    generate = subparsers.add_parser(
        "generate", help="sample synthetic data from a saved release"
    )
    generate.add_argument("--release", required=True, help="release JSON from 'summarize'")
    generate.add_argument("--output", required=True, help="CSV path for the synthetic data")
    generate.add_argument("--size", type=int, required=True, help="number of synthetic points")
    generate.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for sampling only; the persisted tree counts are never re-noised",
    )

    evaluate = subparsers.add_parser(
        "evaluate", help="fit, generate and report utility/memory in one step"
    )
    evaluate.add_argument("--input", required=True, help="CSV of sensitive values (no header)")
    _add_fit_arguments(evaluate)

    checkpoint = subparsers.add_parser(
        "checkpoint",
        help="ingest a CSV into a durable mid-stream state file (create or extend)",
    )
    checkpoint.add_argument("--input", required=True, help="CSV of sensitive values (no header)")
    checkpoint.add_argument(
        "--state", required=True, help="checkpoint JSON (resumed when it already exists)"
    )
    _add_fit_arguments(checkpoint, deferred_defaults=True)
    checkpoint.add_argument(
        "--stream-size",
        type=int,
        default=None,
        help="expected total stream length for the paper defaults "
        "(defaults to the first input's length)",
    )
    checkpoint.add_argument(
        "--format",
        choices=("binary", "json"),
        default="binary",
        help="state file format: 'binary' (default; raw-array envelope, "
        "fastest to write and reload) or 'json' (interchange text); "
        "resuming autodetects either",
    )

    snapshot = subparsers.add_parser(
        "snapshot",
        help="write a mid-stream release from a continual checkpoint "
        "(the state file is left untouched and stays resumable)",
    )
    snapshot.add_argument(
        "--state", required=True, help="continual checkpoint JSON from 'checkpoint --continual'"
    )
    snapshot.add_argument("--output", required=True, help="path for the release JSON")
    snapshot.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for sampling from the snapshot only; the private state is never re-noised",
    )

    resume = subparsers.add_parser(
        "resume", help="restore a checkpoint, optionally ingest more data, and release"
    )
    resume.add_argument("--state", required=True, help="checkpoint JSON from 'checkpoint'")
    resume.add_argument("--output", required=True, help="path for the release JSON")
    resume.add_argument("--input", default=None, help="optional extra CSV to ingest first")
    resume.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
        help="items per vectorised ingestion batch",
    )

    serve = subparsers.add_parser(
        "serve", help="serve a directory of releases over JSON/HTTP"
    )
    serve.add_argument(
        "--store", required=True, help="directory of release JSON files to serve"
    )
    serve.add_argument("--port", type=int, default=8080, help="TCP port to listen on")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument(
        "--cache-size", type=int, default=4096, help="memoized answers kept (LRU)"
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharing the port via SO_REUSEPORT "
        "(default 1: a single in-process threaded server)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logging"
    )

    query = subparsers.add_parser(
        "query", help="answer a JSON workload file against one release"
    )
    query.add_argument("release", help="release JSON from 'summarize'")
    query.add_argument(
        "--workload", required=True,
        help="JSON file: a list of query objects (or {'queries': [...]})",
    )
    query.add_argument(
        "--output", default=None,
        help="path for the answers JSON (default: print to stdout)",
    )

    matrix = subparsers.add_parser(
        "matrix",
        help="run a declarative experiment grid (parallel, resumable)",
    )
    matrix.add_argument(
        "spec", nargs="?", default=None,
        help="MatrixSpec JSON file (omit with --smoke)",
    )
    matrix.add_argument(
        "--out", default="matrix-results",
        help="result directory (results.jsonl, aggregate.json/.csv, spec.json)",
    )
    matrix.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; results are byte-identical for any value",
    )
    matrix.add_argument(
        "--resume", action="store_true",
        help="skip cells already recorded in the result store",
    )
    matrix.add_argument(
        "--smoke", action="store_true",
        help="run the built-in smoke grid and fail on the accuracy-ordering gate",
    )
    matrix.add_argument(
        "--gate", action="store_true",
        help="fail on accuracy-ordering violations (floor <= private, PrivHP "
        "<= Smooth) -- applied per epoch for scenario cells",
    )
    matrix.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    scenario = subparsers.add_parser(
        "scenario",
        help="materialise a time-varying scenario spec into a stream file",
    )
    scenario.add_argument("spec", help="scenario spec JSON (repro.stream.scenarios)")
    scenario.add_argument(
        "--out", required=True,
        help="output path: CSV stream, or tenant-tagged JSONL with --tenants",
    )
    scenario.add_argument(
        "--size", type=int, default=None,
        help="total items (per tenant with --tenants); defaults to the "
        "spec's 'size' field",
    )
    scenario.add_argument(
        "--dimension", type=int, default=1, help="point dimensionality (default 1)"
    )
    scenario.add_argument(
        "--seed", type=int, default=0,
        help="root seed; the same seed materialises byte-identical streams "
        "for any batch size or worker count",
    )
    scenario.add_argument(
        "--tenants", type=int, default=None, metavar="N",
        help="write correlated multi-tenant JSONL append records for N "
        "tenants (tenant-0..tenant-N-1) instead of a single CSV stream; "
        "feed the file to 'repro ingest --append'",
    )
    scenario.add_argument(
        "--quiet", action="store_true", help="suppress the per-epoch schedule table"
    )

    ingest = subparsers.add_parser(
        "ingest",
        help="run the multi-tenant ingestion service over a directory of tenant specs",
    )
    ingest.add_argument(
        "--specs", required=True,
        help="directory of tenant spec JSON files (one per tenant, or batch "
        "files with a 'tenants' list)",
    )
    ingest.add_argument(
        "--append", action="append", default=[], metavar="FILE",
        help="tenant-tagged append file (.jsonl or .csv); repeatable, "
        "ingested in the order given",
    )
    ingest.add_argument(
        "--watch", default=None, metavar="DIR",
        help="spool directory to poll for append files (each renamed to "
        "*.done after ingestion); runs until Ctrl-C unless --once",
    )
    ingest.add_argument(
        "--poll-interval", type=float, default=1.0,
        help="seconds between --watch directory scans",
    )
    ingest.add_argument(
        "--once", action="store_true",
        help="drain the --watch directory in a single pass and exit",
    )
    ingest.add_argument(
        "--workers", type=int, default=4,
        help="worker threads; each exclusively owns a hash-partition of tenants",
    )
    ingest.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for evicted-tenant checkpoints (required with "
        "--memory-budget-words; created if missing)",
    )
    ingest.add_argument(
        "--memory-budget-words", type=int, default=None,
        help="service-wide resident-summarizer budget in words; cold tenants "
        "are evicted to --checkpoint-dir and restored on their next append",
    )
    ingest.add_argument(
        "--rate-limit", type=float, default=None,
        help="per-tenant intake rate limit in items/second (token bucket)",
    )
    ingest.add_argument(
        "--burst", type=float, default=None,
        help="token-bucket burst size in items (default: one second of rate)",
    )
    ingest.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
        help="items per append batch when reading CSV intake files",
    )
    ingest.add_argument(
        "--serve", action="store_true",
        help="serve live snapshots of continual tenants over JSON/HTTP "
        "while ingesting (repro.serve; pure post-processing)",
    )
    ingest.add_argument("--port", type=int, default=8080, help="TCP port for --serve")
    ingest.add_argument("--host", default="127.0.0.1", help="interface for --serve")
    ingest.add_argument(
        "--snapshot", default=None, metavar="TENANT",
        help="after ingesting, write a mid-stream release of this continual "
        "tenant to --output (the tenant keeps ingesting state)",
    )
    ingest.add_argument(
        "--release", default=None, metavar="TENANT",
        help="after ingesting, release this tenant to --output (final; the "
        "tenant stops accepting appends)",
    )
    ingest.add_argument(
        "--output", default=None,
        help="release JSON path for --snapshot/--release",
    )
    ingest.add_argument(
        "--release-dir", default=None, metavar="DIR",
        help="release every (still-unreleased) tenant into DIR as "
        "<tenant>.json before exiting",
    )
    ingest.add_argument(
        "--reply-timeout", type=float, default=DEFAULT_REPLY_TIMEOUT,
        help="seconds to wait for a worker reply (register/snapshot/"
        f"release/stats) before failing (default {DEFAULT_REPLY_TIMEOUT:.0f})",
    )

    convert = subparsers.add_parser(
        "convert",
        help="convert a release or checkpoint file between JSON and binary",
    )
    convert.add_argument("source", help="release or checkpoint file (JSON or binary)")
    convert.add_argument("output", help="path for the converted file")
    convert.add_argument(
        "--to",
        choices=("binary", "json"),
        default=None,
        help="target format (default: inferred from the output suffix -- "
        "'.bin' means binary, anything else JSON)",
    )

    return parser


def _build_summarizer(args: argparse.Namespace, data: np.ndarray, stream_size: int):
    domain = make_domain(args.domain, data=data)
    builder = (
        PrivHPBuilder(domain)
        .epsilon(args.epsilon)
        .pruning_k(args.k)
        .stream_size(stream_size)
        .seed(args.seed)
    )
    if getattr(args, "continual", False):
        builder = builder.continual(horizon=args.horizon)
    elif getattr(args, "horizon", None) is not None:
        raise ValueError("--horizon only applies together with --continual")
    return builder, domain


def _command_summarize(args: argparse.Namespace) -> int:
    if args.shards < 1:
        raise ValueError(f"--shards must be at least 1, got {args.shards}")
    data = _load_csv(args.input)
    builder, domain = _build_summarizer(args, data, len(data))
    data = domain.coerce_stream(data)
    if args.shards > 1:
        shards = builder.build_shards(args.shards)
        for shard, part in zip(shards, np.array_split(data, args.shards)):
            ingest_batches(shard, part, args.batch_size)
        # PrivHP shards merge raw (one noise injection at release); continual
        # shards merge their already-private states.  Both expose merge_all.
        summarizer = type(shards[0]).merge_all(shards)
    else:
        summarizer = builder.build()
        ingest_batches(summarizer, data, args.batch_size)
    release = summarizer.release()
    release.metadata.update({"pruning_k": args.k, "stream_size": int(len(data))})
    release.save(args.output)
    variant = "continual " if args.continual else ""
    print(
        f"wrote {variant}release to {args.output} (epsilon={args.epsilon}, "
        f"shards={args.shards}, memory={release.memory_words} words)"
    )
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    release = Release.load(args.release, sampling_seed=args.seed)
    synthetic = release.sample(args.size)
    _write_csv(args.output, synthetic)
    print(f"wrote {args.size} synthetic records to {args.output}")
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    data = _load_csv(args.input)
    builder, domain = _build_summarizer(args, data, len(data))
    data = domain.coerce_stream(data)
    summarizer = builder.build()
    ingest_batches(summarizer, data, args.batch_size)
    release = summarizer.release()
    synthetic = release.sample(len(data))
    error = empirical_wasserstein(np.asarray(data), np.asarray(synthetic), domain=domain)
    print(f"stream size      : {len(data)}")
    print(f"epsilon          : {args.epsilon}")
    print(f"pruning k        : {args.k}")
    print(f"memory (words)   : {release.memory_words}")
    print(f"W1(data, synth)  : {error:.6f}")
    return 0


def _command_checkpoint(args: argparse.Namespace) -> int:
    data = _load_csv(args.input)
    state_path = pathlib.Path(args.state)
    if state_path.exists():
        ignored = [
            flag
            for flag, attribute, _default, _type, _help in _FIT_ARGUMENTS
            if getattr(args, attribute) is not None
        ]
        if args.stream_size is not None:
            ignored.append("--stream-size")
        if args.continual:
            ignored.append("--continual")
        if args.horizon is not None:
            ignored.append("--horizon")
        if ignored:
            raise ValueError(
                f"{', '.join(ignored)} only apply when creating a new state "
                f"file, but {state_path} already exists and carries its own "
                "configuration; drop the flag(s) or start a fresh state"
            )
        summarizer = load_checkpoint(state_path)
        data = summarizer.domain.coerce_stream(data)
    else:
        for _flag, attribute, default, _type, _help in _FIT_ARGUMENTS:
            if getattr(args, attribute) is None:
                setattr(args, attribute, default)
        if args.continual is None:
            args.continual = False
        if args.continual and args.horizon is None and args.stream_size is None:
            # A continual state that will be extended across runs needs its
            # counters sized for the *total* stream; defaulting to the first
            # slice's length would exhaust the horizon on the second run.
            raise ValueError(
                "creating a continual state requires --horizon (or "
                "--stream-size) covering the total stream across all future "
                "checkpoint runs, not just this input"
            )
        stream_size = args.stream_size if args.stream_size is not None else len(data)
        builder, domain = _build_summarizer(args, data, stream_size)
        data = domain.coerce_stream(data)
        summarizer = builder.build()
    ingest_batches(summarizer, data, args.batch_size)
    save_checkpoint(summarizer, state_path, format=args.format)
    print(
        f"checkpointed {summarizer.items_processed} items to {state_path} "
        f"(memory={summarizer.memory_words()} words)"
    )
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    summarizer = load_checkpoint(args.state)
    if not hasattr(summarizer, "snapshot"):
        raise ValueError(
            f"{args.state} holds a one-shot checkpoint; only continual states "
            "(created with 'checkpoint --continual') support mid-stream "
            "snapshots -- use 'resume' to finish and release it instead"
        )
    release = summarizer.snapshot(sampling_seed=args.seed)
    release.save(args.output)
    print(
        f"wrote snapshot of {release.items_processed} items to {args.output} "
        f"(epsilon={release.epsilon}, memory={release.memory_words} words); "
        f"{args.state} is unchanged and stays resumable"
    )
    return 0


def _command_resume(args: argparse.Namespace) -> int:
    summarizer = load_checkpoint(args.state)
    if args.input is not None:
        data = summarizer.domain.coerce_stream(_load_csv(args.input))
        ingest_batches(summarizer, data, args.batch_size)
    release = summarizer.release()
    release.save(args.output)
    print(
        f"wrote release to {args.output} ({release.items_processed} items, "
        f"epsilon={release.epsilon}, memory={release.memory_words} words)"
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.http import create_server, start_worker_pool
    from repro.serve.store import ReleaseStore

    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    if args.workers > 1:
        if args.port == 0:
            raise ValueError("--workers needs an explicit --port (port 0 would bind "
                             "a different ephemeral port per worker)")
        names = ReleaseStore(args.store).names()
        processes = start_worker_pool(
            args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_size=args.cache_size,
            verbose=not args.quiet,
        )
        print(
            f"serving {len(names)} release(s) from {args.store} on "
            f"http://{args.host}:{args.port} with {args.workers} workers "
            f"(SO_REUSEPORT; GET /releases, /stats, /healthz; POST /query) -- Ctrl-C to stop"
        )
        try:
            for process in processes:
                process.join()
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join()
        return 0

    server = create_server(
        args.store,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        verbose=not args.quiet,
    )
    names = server.service.store.names()
    print(
        f"serving {len(names)} release(s) from {args.store} on "
        f"http://{args.host}:{server.server_port} "
        f"(GET /releases, /stats, /healthz; POST /query) -- Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
    return 0


def _command_query(args: argparse.Namespace) -> int:
    import json

    from repro.serve.batch import run_workload_file

    document = run_workload_file(args.release, args.workload)
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.output is None:
        print(text)
    else:
        pathlib.Path(args.output).write_text(text + "\n")
        print(f"wrote {document['num_queries']} answers to {args.output}")
    return 0


def _command_matrix(args: argparse.Namespace) -> int:
    from repro.experiments.harness import format_table
    from repro.experiments.runner import (
        check_epoch_ordering,
        check_smoke_ordering,
        load_spec,
        run_matrix,
        smoke_spec,
    )

    if args.smoke and args.spec is not None:
        raise ValueError("--smoke runs the built-in grid; drop the SPEC argument")
    if not args.smoke and args.spec is None:
        raise ValueError("pass a MatrixSpec JSON file or --smoke")
    spec = smoke_spec() if args.smoke else load_spec(args.spec)

    def progress(completed: int, total: int, key: str) -> None:
        if not args.quiet:
            print(f"[{completed}/{total}] {key}")

    outcome = run_matrix(
        spec,
        out_dir=args.out,
        workers=args.workers,
        resume=args.resume,
        progress=progress,
    )
    # The table keeps the scalar columns; per-epoch trajectories live in the
    # aggregate artifacts.
    print(format_table([
        {k: v for k, v in row.items() if not isinstance(v, list)}
        for row in outcome["aggregate"]
    ]))
    print(
        f"grid {spec.name!r}: {outcome['executed']} cell(s) executed, "
        f"{outcome['skipped']} resumed; artifacts in {args.out}/ "
        "(results.jsonl, aggregate.json, aggregate.csv)"
    )
    if args.smoke or args.gate:
        violations = check_smoke_ordering(outcome["aggregate"])
        violations += check_epoch_ordering(outcome["aggregate"])
        if violations:
            for violation in violations:
                print(f"ACCURACY GATE VIOLATION: {violation}", file=sys.stderr)
            return 1
        print("accuracy ordering gate passed (floor <= private, PrivHP <= Smooth)")
    return 0


def _command_scenario(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.harness import format_table
    from repro.stream.scenarios import load_scenario

    scenario = load_scenario(args.spec)
    size = args.size if args.size is not None else scenario.default_size
    if size is None:
        raise ValueError(
            "pass --size (the spec has no top-level 'size' field to default to)"
        )
    if size < 0:
        raise ValueError(f"--size must be non-negative, got {size}")
    if args.dimension < 1:
        raise ValueError(f"--dimension must be at least 1, got {args.dimension}")
    if not args.quiet:
        print(f"scenario {scenario.label!r}: {scenario.num_epochs} epoch(s)")
        print(format_table(scenario.describe(size)))
    if args.tenants is not None:
        if args.tenants < 1:
            raise ValueError(f"--tenants must be at least 1, got {args.tenants}")
        from repro.stream.scenarios import multi_tenant_records

        tenants = [f"tenant-{index}" for index in range(args.tenants)]
        records = 0
        with open(args.out, "w") as handle:
            for record in multi_tenant_records(
                scenario, tenants, size, dimension=args.dimension, rng=args.seed
            ):
                handle.write(json.dumps(record) + "\n")
                records += 1
        print(
            f"wrote {records} append record(s) ({args.tenants} tenant(s) x "
            f"{scenario.num_epochs} epoch(s), {size} items/tenant) to {args.out}"
        )
        return 0
    stream = scenario.sample(size, dimension=args.dimension, rng=args.seed)
    _write_csv(args.out, stream)
    print(f"wrote {len(stream)} items across {scenario.num_epochs} epoch(s) to {args.out}")
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    import threading

    from repro.ingest import (
        IngestService,
        RateLimiter,
        ingest_file,
        load_tenant_specs,
        watch_directory,
    )
    from repro.serve.store import ReleaseStore

    if args.burst is not None and args.rate_limit is None:
        raise ValueError("--burst only applies together with --rate-limit")
    if args.once and args.watch is None:
        raise ValueError("--once only applies together with --watch")
    if (args.snapshot or args.release) and args.output is None:
        raise ValueError("--snapshot/--release need --output for the release JSON")
    if args.snapshot is not None and args.release is not None:
        raise ValueError("pass --snapshot or --release, not both")
    specs = load_tenant_specs(args.specs)
    if not specs:
        raise ValueError(f"no tenant spec files (*.json) found in {args.specs}")
    limiter = (
        RateLimiter(args.rate_limit, burst=args.burst)
        if args.rate_limit is not None
        else None
    )
    store = ReleaseStore() if args.serve else None
    server = None
    totals = {"files": 0, "batches": 0, "items": 0}

    def report(path, counts) -> None:
        # Totals accumulate per file (not from the intake loops' return
        # values) so an interrupted --watch still reports what it ingested.
        print(f"ingested {counts['items']} item(s) from {path}")
        totals["files"] += 1
        totals["batches"] += counts["batches"]
        totals["items"] += counts["items"]

    with IngestService(
        specs,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        memory_budget_words=args.memory_budget_words,
        store=store,
        reply_timeout=args.reply_timeout,
    ) as service:
        print(
            f"ingestion service: {len(service.tenants())} tenant(s) across "
            f"{args.workers} worker(s)"
        )
        if args.serve:
            from repro.serve.http import create_server

            server = create_server(store, host=args.host, port=args.port)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            print(
                f"serving live snapshots on http://{args.host}:{server.server_port} "
                "(GET /releases, /stats, /healthz; POST /query)"
            )
        try:
            for path in args.append:
                counts = ingest_file(
                    service, path, batch_size=args.batch_size, limiter=limiter
                )
                report(path, counts)
            if args.watch is not None:
                watch_directory(
                    service,
                    args.watch,
                    batch_size=args.batch_size,
                    limiter=limiter,
                    poll_interval=args.poll_interval,
                    once=args.once,
                    on_file=report,
                )
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            print("stopping (keyboard interrupt)")
        service.flush()
        if args.snapshot is not None:
            release = service.snapshot(args.snapshot)
            release.save(args.output)
            print(
                f"wrote snapshot of tenant {args.snapshot!r} "
                f"({release.items_processed} items) to {args.output}"
            )
        if args.release is not None:
            release = service.release(args.release)
            release.save(args.output)
            print(
                f"wrote release of tenant {args.release!r} "
                f"({release.items_processed} items) to {args.output}"
            )
        if args.release_dir is not None:
            out_dir = pathlib.Path(args.release_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            released = 0
            for tenant_id in service.tenants():
                if tenant_id == args.release:
                    continue  # already released above
                service.release(tenant_id).save(out_dir / f"{tenant_id}.json")
                released += 1
            print(f"released {released} tenant(s) into {out_dir}/")
        stats = service.stats()
        print(
            f"ingested {totals['items']} item(s) in {totals['batches']} "
            f"batch(es) from {totals['files']} file(s); "
            f"evictions={stats['evictions']}, restores={stats['restores']}, "
            f"resident_words={stats['memory_words']}, "
            f"total_epsilon={stats['budget']['total_epsilon']}"
        )
    if server is not None:
        server.shutdown()
        server.server_close()
    return 0


def _command_convert(args: argparse.Namespace) -> int:
    from repro.io.binary import convert_file

    output = pathlib.Path(args.output)
    target = args.to if args.to is not None else ("binary" if output.suffix == ".bin" else "json")
    convert_file(args.source, output, target)
    print(f"converted {args.source} to {target} at {output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m repro.cli`` and the tests."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "summarize": _command_summarize,
        "generate": _command_generate,
        "evaluate": _command_evaluate,
        "checkpoint": _command_checkpoint,
        "snapshot": _command_snapshot,
        "resume": _command_resume,
        "serve": _command_serve,
        "query": _command_query,
        "matrix": _command_matrix,
        "scenario": _command_scenario,
        "ingest": _command_ingest,
        "convert": _command_convert,
    }
    handler = commands.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return handler(args)
    except (ValueError, OSError, RuntimeError) as error:
        # Bad user input (unknown domain, flag conflicts, malformed or
        # missing files, a continual horizon exhausted by extra input)
        # surfaces as a clean usage error with exit code 2, not a traceback.
        parser.error(str(error))
        return 2  # pragma: no cover - parser.error raises SystemExit


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
