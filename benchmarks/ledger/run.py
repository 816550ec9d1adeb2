"""The performance ledger: one command, six workloads, every metric by name.

Contract form (what the benchmark driver runs, one workload per call)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Ledger form (every workload, untraced then traced, one record each)::

    python3 benchmarks/ledger/run.py [--workload NAME ...] [--seed N] [--out DIR]

Both print each metric as ``name value unit``; the contract form ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import signal
import subprocess
import sys
import time

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
SRC_DIR = LEDGER_DIR.parent.parent / "src"
if not (SRC_DIR / "repro").is_dir():
    sys.exit(f"run.py: no program to measure at {SRC_DIR / 'repro'}")
sys.path.insert(0, str(SRC_DIR))

import declared  # noqa: E402
import procs  # noqa: E402


def run_one(w: declared.Workload, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """One run of one workload; the unit both forms are built from."""
    import popbench
    import svcbench

    bench = popbench if w.kind == "pop" else svcbench
    if smoke:
        w = w.smoke()
    started = time.perf_counter()
    result = (bench.run_traced if trace else bench.run_untraced)(
        w, seed, seconds, smoke
    )
    declared_names = [
        row[0] for row in (declared.PER_LAYER if trace else declared.END_TO_END)
    ]
    unknown = set(result["metrics"]) - set(declared_names)
    if unknown:
        raise RuntimeError(f"undeclared metrics emitted: {sorted(unknown)}")
    # A per-layer metric the workload never crosses reads 0; an
    # end-to-end metric is defined on every workload.
    metrics = {
        name: float(result["metrics"].get(name, 0.0)) for name in declared_names
    }
    broken = [n for n, v in metrics.items() if not math.isfinite(v)]
    if broken or (not trace and set(declared_names) - set(result["metrics"])):
        raise RuntimeError(f"metrics missing or not finite: {broken}")
    return {
        "workload": w.name,
        "trace": trace,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_share": result["failed"] / result["attempted"],
        "metrics": metrics,
        "applicable": sorted(result["metrics"]),
        "run_wall_s": time.perf_counter() - started,
        "detail": result["detail"],
        "spans": result.get("spans"),
    }


def print_metrics(record: dict) -> None:
    label = "per-layer (traced run)" if record["trace"] else "end-to-end"
    print(f"# {record['workload']}  seed={record['seed']}  {label}")
    for name, value in record["metrics"].items():
        if name in record["applicable"]:
            print(f"{name:48s} {value:16.6f} {declared.UNITS[name]}")
    print(f"{'failed_share':48s} {record['failed_share']:16.6f} ratio"
          f"   ({record['failed']} of {record['attempted']})")


def contract_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": declared.UNITS[name]}
            for name, value in record["metrics"].items()
        },
    })


def write_record(out_dir: pathlib.Path, record: dict) -> None:
    """``<workload>.json`` (or ``.traced.json``) and, traced, ``spans.json``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    record = dict(record, machine=procs.fingerprint(), claim=None)
    spans = record.pop("spans")
    suffix = ".traced.json" if record["trace"] else ".json"
    path = out_dir / f"{record['workload']}{suffix}"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (out_dir / f"{record['workload']}.spans.json").write_text(
            json.dumps(spans) + "\n"
        )


def ledger(names: list[str], traces: tuple[bool, ...], seed: int,
           seconds: float, smoke: bool, out_dir: pathlib.Path) -> int:
    """Every named workload, untraced then traced.

    Real runs get a process each, as the driver gives them, so one
    workload's peak RSS and warm caches cannot leak into the next; the
    smoke run stays in this process to fit the tier-1 time budget.
    """
    failed = 0
    for name in names:
        for trace in traces:
            if smoke:
                record = run_one(declared.workload(name), seed, seconds, trace, True)
                write_record(out_dir, record)
            else:
                done = subprocess.run(
                    [
                        sys.executable, __file__, "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(int(trace)), "--out", str(out_dir),
                    ],
                    stdout=subprocess.PIPE, text=True,
                )
                if done.returncode not in (0, 1) or not done.stdout.strip():
                    print(done.stdout, end="")
                    return done.returncode or 2
                suffix = ".traced.json" if trace else ".json"
                record = json.loads((out_dir / f"{name}{suffix}").read_text())
                record["spans"] = None
            print_metrics(record)
            print()
            failed += record["failed"]
    print(f"records in {out_dir}; failed participants: {failed}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None,
                        choices=[w.name for w in declared.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end only, 1 per-layer only; with "
                        "exactly one --workload this is the contract form")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one epoch; no timing is meaningful")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write records here (default for the ledger "
                        "form: results/ beside this file)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate the root BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    manifest_path = procs.REPO_ROOT / "BENCHMARK.json"
    if args.write_manifest:
        manifest_path.write_text(json.dumps(declared.manifest(), indent=2) + "\n")
        return 0

    if args.trace is None or len(args.workload or ()) != 1:
        names = args.workload or [w.name for w in declared.WORKLOADS]
        traces = (False, True) if args.trace is None else (bool(args.trace),)
        return ledger(names, traces, args.seed, args.seconds, args.smoke,
                      args.out or procs.RESULTS_DIR)

    record = run_one(declared.workload(args.workload[0]), args.seed,
                     args.seconds, bool(args.trace), args.smoke)
    if args.out is not None:
        write_record(args.out, record)
    print_metrics(record)
    print(contract_line(record))
    return 0 if record["correct"] else 1


def _terminated(signum: int, _frame: object) -> None:
    # Unwind through every ``finally`` that reaps a child.
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        leaked = procs.sweep_children()
    if leaked:
        print(f"run.py: killed children their owners left: {leaked}",
              file=sys.stderr)
    sys.exit(code)
