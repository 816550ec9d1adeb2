"""Plain-text table rendering for benches and examples.

Benchmarks print the same rows/series the paper reports; this renderer
keeps them readable in pytest output without any plotting dependency.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table.

    ``columns`` fixes order and selection; by default the first row's
    keys are used.  Missing cells render empty.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    cells = [[_format_cell(row.get(col, "")) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(cols)
    ]
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    rule = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(line[i].ljust(widths[i]) for i in range(len(cols)))
        for line in cells
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, rule, body])
    return "\n".join(parts)

