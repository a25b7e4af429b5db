"""Shared configuration for the benchmark suite.

Each ``bench_*.py`` check regenerates one of the paper's tables or trade-off
analyses through :mod:`repro.experiments` and asserts its shape.  The checks
print their result tables to stdout, so ``pytest benchmarks/ --benchmark-only
-s`` shows the numbers; the timed quantity is the full experiment run.  CI
runs the checks with ``--benchmark-disable``, which runs each experiment once
without timing it.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

# Allow running from a source checkout without installation.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def print_section(title: str, body: str) -> None:
    """Print a titled result block (visible with pytest -s or -rA)."""
    print(f"\n=== {title} ===")
    print(body)


@pytest.fixture
def report_table():
    """Fixture returning a helper that formats and prints experiment rows."""
    from repro.experiments.harness import format_table

    def _report(title: str, rows):
        print_section(title, format_table(rows))
        return rows

    return _report
