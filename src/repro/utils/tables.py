"""Plain-text table rendering for experiment reports.

The benchmark harness prints each reproduced figure as rows (one per sweep
point) so the output can be compared side-by-side with the paper. This
module renders aligned ASCII tables with no third-party dependency.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


def _render_cell(value: Any, float_format: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    float_format: str = ".4f",
    title: Optional[str] = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    >>> print(format_table(["x", "y"], [[1, 2.0]], float_format=".1f"))
    x | y
    --+----
    1 | 2.0
    """
    if not headers:
        raise ValueError("headers must be non-empty")
    rendered: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        rendered.append([_render_cell(cell, float_format) for cell in row])

    widths = [len(h) for h in headers]
    for row in rendered:
        for col, cell in enumerate(row):
            widths[col] = max(widths[col], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in rendered)
    return "\n".join(lines)
