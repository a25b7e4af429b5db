"""Run ``repro serve`` with the benchmark's spans installed.

Usage: ``python serve_traced.py SPANS.json serve --store DIR ...`` (the
arguments after the spans path go to ``repro.cli``).  ``SIGUSR1`` starts the
measured window and ``SIGUSR2`` ends it; on exit (``SIGINT``) the span
totals of each phase, plus each window request's ``do_POST`` duration keyed
by its ``X-Bench-Id`` header, are written to SPANS.json.
"""

from __future__ import annotations

import json
import signal
import sys

import layers
from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    handler: dict[str, float] = {}

    def on_handler_exit(request_handler, duration: float) -> None:
        request_id = request_handler.headers.get("X-Bench-Id")
        if request_id is not None and tracer.phase == "window":
            handler[request_id] = duration

    patcher = layers.install(tracer, on_handler_exit=on_handler_exit)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "phase", "window"))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "phase", "after"))
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        patcher.restore()
        document = {
            phase: {
                name: [t.calls, t.total_s, t.self_s, t.work]
                for name, t in tracer.totals(phase).items()
            }
            for phase in ("setup", "window")
        }
        document["handler"] = handler
        with open(spans_path, "w") as out:
            json.dump(document, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
