"""Result-table rendering for the benchmark harness.

Each benchmark regenerates one of the paper's figures as a text table
(rows = x-axis points, columns = measured series), so runs are comparable
against the published plots without a plotting stack.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

__all__ = ["format_table", "series_shape"]


def _render(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: Optional[str] = None) -> str:
    """Align a list of rows under headers; returns a printable block."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [
        max(len(header), *(len(row[index]) for row in rendered_rows))
        if rendered_rows else len(header)
        for index, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(
        header.rjust(width) for header, width in zip(headers, widths)
    ))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(
            cell.rjust(width) for cell, width in zip(row, widths)
        ))
    return "\n".join(lines)


def series_shape(values: Sequence[float]) -> str:
    """Classify a measured series: 'increasing', 'decreasing', 'u-shaped',
    'flat' (no change at all) or 'mixed' — the *shape* comparisons the
    reproduction checks."""
    deltas = [b - a for a, b in zip(values, values[1:])]
    if not any(deltas):
        return "flat"
    rising = [d > 0 for d in deltas]
    if all(rising):
        return "increasing"
    if not any(rising):
        return "decreasing"
    pivot = rising.index(True)
    if not any(rising[:pivot]) and all(rising[pivot:]):
        return "u-shaped"
    return "mixed"
