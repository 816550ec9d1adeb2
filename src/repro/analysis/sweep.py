"""Parameter-sweep helper producing flat table rows.

Experiments are cartesian sweeps (``r × q × m``, ``n × scheme``, ...);
:func:`sweep` runs a row function over the grid and collects dict rows
ready for :func:`repro.analysis.tables.format_table`.

Grid points are independent, so sweeps can fan out through the
execution engine: ``engine="threads"`` works with any row function,
while ``engine="processes"`` requires the row function to be a
picklable module-level callable (the usual multiprocessing rule).
``engine="cluster"`` is refused with a
:class:`~repro.exceptions.CodecError` at submit: a grid point is not a
registered job.  Row order always matches serial iteration order.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Mapping, Sequence

from repro.engine import Executor, resolved_executor


def _eval_point(
    args: tuple[Callable[..., Mapping[str, Any] | None], dict[str, Any]],
) -> Mapping[str, Any] | None:
    """Worker-side cell evaluation (module-level for pickling)."""
    row_fn, point = args
    return row_fn(**point)


def sweep(
    grid: Mapping[str, Sequence[Any]],
    row_fn: Callable[..., Mapping[str, Any] | None],
    engine: str | Executor = "serial",
    workers: int | None = None,
) -> list[dict[str, Any]]:
    """Run ``row_fn(**point)`` over the cartesian grid.

    Each grid point's parameters are merged into the returned row (the
    row function's keys win on collision).  A row function may return
    ``None`` to skip a point (e.g. infeasible parameter combinations).
    """
    if not grid:
        raise ValueError("empty sweep grid")
    names = list(grid)
    points = [
        dict(zip(names, values))
        for values in itertools.product(*(grid[name] for name in names))
    ]
    with resolved_executor(engine, workers) as executor:
        produced = executor.map(
            _eval_point, [(row_fn, point) for point in points]
        )
    rows: list[dict[str, Any]] = []
    for point, cell in zip(points, produced):
        if cell is None:
            continue
        row = dict(point)
        row.update(cell)
        rows.append(row)
    return rows
