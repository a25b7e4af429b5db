"""Shared plumbing for the experiment modules.

Provides the shared measured-row schema and plain-text table formatting so
every experiment prints results in the same shape the paper's tables use.
"""

from __future__ import annotations

__all__ = [
    "format_table",
    "domain_spec_for_dimension",
    "measured_row",
]


def domain_spec_for_dimension(dimension: int) -> str:
    """The registry spec string for the unit domain of a given dimension."""
    return "interval" if dimension == 1 else f"hypercube:{int(dimension)}"


def measured_row(aggregate_row: dict) -> dict:
    """Map a matrix-runner aggregate row to the legacy measured-row columns.

    The experiment modules (table1, tradeoffs, ablations, skew) all report
    this same 6-column core, extended with their sweep parameter; sharing
    the mapping keeps their row schemas in lockstep.
    """
    return {
        "method": aggregate_row["method_name"],
        "wasserstein": aggregate_row["wasserstein"],
        "wasserstein_std": aggregate_row["wasserstein_std"],
        "memory_words": aggregate_row["memory_words"],
        "fit_seconds": aggregate_row.get("fit_seconds", 0.0),
        "sample_seconds": aggregate_row.get("sample_seconds", 0.0),
    }


def format_table(rows: list[dict], float_format: str = "{:.5g}") -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def render(value) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(line[index].ljust(widths[index]) for index in range(len(columns)))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])
