"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["render_table", "render_grid", "format_value"]


def format_value(value: object) -> str:
    """Render one cell: floats to 3 decimals, everything else via str."""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table(headers: "Sequence[str]",
                 rows: "Iterable[Sequence[object]]",
                 title: str | None = None) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_grid(rows: "Sequence[Sequence[str]]") -> str:
    """Render pre-formatted rows (header first) as an aligned table.

    The first column is left-justified, the others right-justified, and
    a dashed rule separates the header from the body.
    """
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                       for i, cell in enumerate(row)) for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
