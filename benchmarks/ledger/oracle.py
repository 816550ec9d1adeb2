"""The correctness oracle: every timed output against a reference.

Population epochs are compared, participant by participant
(accepted / reason / both ledgers), with a *serial* ``run_population``
of the same seed; service verdicts with the in-process ``scheme.run``
of the same slot.  Never with ``detection_rate == 1.0``: a legitimate
2^-16 escape would flake that.  References are computed after the
timed window in two child interpreters so they cost neither the measured
CPU nor half a minute of wall.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import inputs
import procs
from declared import Workload


def report_rows(report) -> list[bytes]:
    """One digest per participant plus one for the merged ledger."""
    rows = [
        [
            p.participant, p.behavior, p.honesty_ratio, p.accepted,
            p.reason.value, p.participant_ledger.as_dict(),
            p.supervisor_ledger_delta.as_dict(),
        ]
        for p in report.participants
    ]
    rows.append(["supervisor", report.supervisor_ledger.as_dict()])
    return [
        hashlib.sha256(json.dumps(row, sort_keys=True).encode()).digest()
        for row in rows
    ]


def reference_rows(w: Workload, seed: int) -> list[bytes]:
    return report_rows(inputs.simulation(w, seed, "serial").run())


def reference_verdicts(
    w: Workload, seed: int, indices: list[int]
) -> list[tuple[bool, str]]:
    scheme = inputs.scheme_for(w)
    verdicts = []
    for index in indices:
        assignment, behavior, slot_seed = inputs.session_inputs(w, seed, index)
        outcome = scheme.run(assignment, behavior, seed=slot_seed).outcome
        verdicts.append((outcome.accepted, outcome.reason.value))
    return verdicts


def count_mismatches(got: list, want: list) -> int:
    return abs(len(got) - len(want)) + sum(
        1 for a, b in zip(got, want) if a != b
    )


def _child_main() -> int:
    """``python3 oracle.py``: one JSON job on stdin, its results on stdout."""
    job = json.load(sys.stdin)
    w = Workload(**job["workload"])
    if job["kind"] == "rows":
        results = [
            [row.hex() for row in reference_rows(w, seed)]
            for (seed,) in job["argsets"]
        ]
    else:
        results = [
            reference_verdicts(w, seed, indices)
            for seed, indices in job["argsets"]
        ]
    json.dump(results, sys.stdout)
    return 0


CHILDREN = 2


def _reference(kind: str, w: Workload, argsets: list[tuple],
               in_process: bool) -> list:
    """Reference results for ``argsets``, from two child interpreters
    (or, for the smoke run, from this one).

    The children are plain ``subprocess`` children of this process, fed
    over stdin and waited for before this returns: nothing of the
    oracle outlives the call, let alone the run.
    """
    if in_process:
        fn = reference_rows if kind == "rows" else reference_verdicts
        return [fn(w, *args) for args in argsets]
    shares = [argsets[k::CHILDREN] for k in range(CHILDREN) if argsets[k::CHILDREN]]
    children = [
        subprocess.Popen(
            [sys.executable, __file__], env=procs.child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for _ in shares
    ]
    try:
        def finish(child, share) -> list:
            job = {"kind": kind, "workload": asdict(w), "argsets": share}
            stdout, _ = child.communicate(json.dumps(job))
            if child.returncode != 0:
                raise RuntimeError(f"oracle child exited {child.returncode}")
            return json.loads(stdout)

        with ThreadPoolExecutor(len(children)) as threads:
            answers = list(threads.map(finish, children, shares))
    finally:
        for child in children:
            procs.reap(child)
    results: list = [None] * len(argsets)
    for k, answer in enumerate(answers):
        results[k::CHILDREN] = answer
    if kind == "rows":
        return [[bytes.fromhex(row) for row in rows] for rows in results]
    return [[tuple(verdict) for verdict in verdicts] for verdicts in results]


def failed_populations(
    w: Workload, epochs: list[tuple[int, list[bytes]]], in_process: bool = False
) -> int:
    """Participants whose row differs from the serial reference."""
    wanted = _reference("rows", w, [(seed,) for seed, _ in epochs], in_process)
    failed = 0
    for (_seed, rows), want in zip(epochs, wanted):
        # The last row is the merged supervisor ledger; a mismatch
        # there with every participant row equal still fails one.
        failed += min(count_mismatches(rows, want), len(want) - 1)
    return failed


def failed_sessions(
    w: Workload, seed: int, verdicts: dict[int, tuple[bool, str]],
    in_process: bool = False,
) -> int:
    """Sessions whose verdict differs from ``scheme.run`` in-process."""
    indices = sorted(verdicts)
    slices = [indices[k::4] for k in range(4) if indices[k::4]]
    wanted = _reference("verdicts", w, [(seed, s) for s in slices], in_process)
    return sum(
        count_mismatches([verdicts[i] for i in s], want)
        for s, want in zip(slices, wanted)
    )


if __name__ == "__main__":
    sys.exit(_child_main())
