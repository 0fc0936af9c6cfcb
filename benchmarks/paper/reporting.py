"""Rendering of benchmark results as plain-text and Markdown tables.

The paper reports its experiments either as a table (Figure 10) or as
time-versus-ws-set-size series on log-log axes (Figures 11-13).  The helpers
here turn :class:`~paper.runner.SweepResult` objects into the same
rows/series in textual form, which is what :mod:`paper.figures` and
``benchmarks/bench_session_batching.py`` print.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

from paper.runner import SweepResult


def format_table(rows: Sequence[Sequence[object]], headers: Sequence[str]) -> str:
    """Align a list of rows under the given headers (plain text)."""
    columns = len(headers)
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index in range(columns):
            widths[index] = max(widths[index], len(row[index]))
    lines = [
        "  ".join(str(header).ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(columns)),
    ]
    for row in rendered_rows:
        lines.append("  ".join(row[index].ljust(widths[index]) for index in range(columns)))
    return "\n".join(lines)


def to_markdown(rows: Sequence[Sequence[object]], headers: Sequence[str]) -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    header_line = "| " + " | ".join(str(h) for h in headers) + " |"
    separator = "| " + " | ".join("---" for _ in headers) + " |"
    body = [
        "| " + " | ".join(_render(cell) for cell in row) + " |"
        for row in rows
    ]
    return "\n".join([header_line, separator, *body])


def format_sweep_result(result: SweepResult, *, markdown: bool = False) -> str:
    """Render a sweep as a table: one row per x value, one column per method."""
    methods = result.methods()
    headers = [result.x_label, *[f"{method} (s)" for method in methods]]
    xs = sorted({point.x for series in result.series for point in series.points})
    rows = []
    for x in xs:
        row: list[object] = [x]
        for method in methods:
            series = result.series_by_method(method)
            matching = [p for p in series.points if p.x == x]
            if not matching:
                row.append("-")
            else:
                point = matching[0]
                row.append("timeout" if point.timed_out else point.seconds)
        rows.append(row)
    table = to_markdown(rows, headers) if markdown else format_table(rows, headers)
    pieces = [result.title, table]
    if result.notes:
        pieces.extend(f"note: {note}" for note in result.notes)
    return "\n".join(pieces)


def summarize_shape(result: SweepResult) -> str:
    """A one-paragraph qualitative summary: which method wins where.

    Used to compare the measured behaviour with the paper's findings without
    relying on absolute numbers.
    """
    lines = []
    xs = sorted({point.x for series in result.series for point in series.points})
    if not xs:
        return "no measurements"
    for x in (xs[0], xs[-1]):
        best_method = None
        best_seconds = float("inf")
        for series in result.series:
            for point in series.points:
                if (
                    point.x == x
                    and not point.timed_out
                    and point.seconds < best_seconds
                ):
                    best_seconds = point.seconds
                    best_method = series.method
        if best_method is not None:
            lines.append(
                f"at {result.x_label}={x:g} the fastest method is {best_method} "
                f"({best_seconds:.4g}s)"
            )
    return "; ".join(lines)


def sweep_to_dict(result: SweepResult) -> dict:
    """A JSON-serialisable dictionary for a :class:`SweepResult`.

    The shape mirrors the dataclasses: ``series[*].points[*]`` with ``x``,
    ``seconds``, ``value``, ``repeats`` and ``timed_out`` per measurement.
    """
    return {
        "title": result.title,
        "x_label": result.x_label,
        "series": [
            {
                "method": series.method,
                "points": [
                    {
                        "x": point.x,
                        "seconds": point.seconds,
                        "value": point.value,
                        "repeats": point.repeats,
                        "timed_out": point.timed_out,
                        **({"extra": point.extra} if point.extra else {}),
                    }
                    for point in series.points
                ],
            }
            for series in result.series
        ],
        "notes": list(result.notes),
    }


def write_sweep_json(
    result: SweepResult, path: "str | Path", *, extra: dict | None = None
) -> Path:
    """Write a sweep (plus optional extra top-level keys) as a JSON report.

    Used by the benchmark scripts to persist machine-readable results (e.g.
    ``BENCH_session_batching.json``) next to the human-readable tables.
    Returns the path written.
    """
    payload = sweep_to_dict(result)
    if extra:
        payload.update(extra)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _render(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "-"
        if cell >= 100:
            return f"{cell:.1f}"
        return f"{cell:.4g}"
    return str(cell)
