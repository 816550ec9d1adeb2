"""Compare two result sets: ``compare.py A_DIR B_DIR``.

A result set is a directory holding the untraced records of any number
of ledger runs (``**/<workload>.json``, e.g. one sub-directory per
seed).  For each (workload, end-to-end metric) the two medians are
printed with their ratio *and its base*, the metric's bound, and a
status:

* ``worse``       B's median is worse than A's by more than the bound
                  (for ``failed_share``: any rise at all);
* ``unresolved``  the run-to-run spread (interquartile range over the
                  median, the wider of the two sets) exceeds the bound,
                  so "no regression" cannot be claimed either way;
* ``ok``          otherwise.

Exit status 1 if any row is ``worse``.  A is the base: run the parent
commit into A and the change into B.
"""

from __future__ import annotations

import collections
import json
import pathlib
import statistics
import sys

import declared

BOUNDS = {name: (better, bound) for name, _u, better, bound in declared.END_TO_END}


def load(directory: pathlib.Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per run found under ``directory``."""
    runs: dict = collections.defaultdict(lambda: collections.defaultdict(list))
    for path in sorted(directory.rglob("*.json")):
        if path.name.endswith((".traced.json", ".spans.json")):
            continue
        record = json.loads(path.read_text())
        if record.get("trace") is not False or record.get("smoke"):
            continue
        for name, value in record["metrics"].items():
            runs[record["workload"]][name].append(value)
        runs[record["workload"]]["failed_share"].append(record["failed_share"])
    return runs


def spread(values: list[float]) -> float | None:
    """IQR / median, or ``None`` with too few runs to have quartiles."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(name: str, a: list[float], b: list[float]) -> tuple[str, str]:
    """(status, printable row tail) for one metric on one workload."""
    base, new = statistics.median(a), statistics.median(b)
    if name == "failed_share":
        status = "worse" if new > base else "ok"
        return status, f"{base:14.6g} {new:14.6g}   any rise is worse"
    better, bound = BOUNDS[name]
    worsening = (new - base) / base if better == "lower" else (base - new) / base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    widest = max(spreads) if spreads else None
    if worsening > bound:
        status = "worse"
    elif widest is not None and widest > bound:
        status = "unresolved"
    else:
        status = "ok"
    spread_text = "n<4" if widest is None else f"{100 * widest:5.1f}%"
    return status, (
        f"{base:14.6g} {new:14.6g}   B/A = {new / base:6.3f} "
        f"(base A = {base:.6g} {declared.UNITS[name]})   "
        f"bound {100 * bound:4.1f}%  spread {spread_text}"
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a_runs, b_runs = (load(pathlib.Path(arg)) for arg in argv)
    worse = 0
    for w in declared.WORKLOADS:
        if w.name not in a_runs or w.name not in b_runs:
            continue
        runs = (len(a_runs[w.name]["setup_s"]), len(b_runs[w.name]["setup_s"]))
        print(f"{w.name}   runs: A={runs[0]} B={runs[1]}")
        for name in [*BOUNDS, "failed_share"]:
            status, tail = judge(name, a_runs[w.name][name], b_runs[w.name][name])
            worse += status == "worse"
            print(f"  {name:36s} {tail}   {status}")
    if worse:
        print(f"{worse} row(s) worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
