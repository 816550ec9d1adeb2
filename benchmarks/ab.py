"""Is this checkout slower than BASE_REF?  One command, answered by the ledger.

    python3 benchmarks/ab.py BASE_REF [--pairs N] [--seconds S] [--workload NAME]...

Checks BASE_REF out beside this tree (a detached ``git worktree`` in a
temp dir, removed on the way out), runs the performance ledger's
contract form on both sides — pair *i* uses seed *i* on both, even
pairs run the base first and odd pairs the change first, so slow drift
of the machine lands on both sides alike — and finishes with
``ledger/compare.py base change``, whose exit status (1 on any
``worse`` row) is this command's.  Each side runs its *own*
``benchmarks/ledger/run.py`` against its own ``src/``.  Records land in
``benchmarks/results/ab/{base,change}/seed-<i>/`` (git-ignored, wiped
at the start of every run).
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
LEDGER = pathlib.Path("benchmarks") / "ledger"
OUT_DIR = REPO / "benchmarks" / "results" / "ab"
sys.path.insert(0, str(REPO / LEDGER))

import declared  # noqa: E402

SIDES = ("base", "change")


def plan(workloads: list[str], pairs: int) -> list[tuple[str, str, int]]:
    """Every run as ``(side, workload, seed)``, in the order it is made.

    ``workloads`` is taken in declared order whatever order it came in;
    the two sides of a pair are adjacent in time.
    """
    names = [w.name for w in declared.WORKLOADS if w.name in workloads]
    return [
        (side, name, seed)
        for seed in range(pairs)
        for name in names
        for side in (SIDES if seed % 2 == 0 else SIDES[::-1])
    ]


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], capture_output=True, text=True
    )


def main(argv: list[str] | None = None, out: pathlib.Path = OUT_DIR) -> int:
    names = [w.name for w in declared.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref", metavar="BASE_REF")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=declared.RUN_SECONDS)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    resolved = git("rev-parse", "--verify", "--quiet", f"{args.base_ref}^{{commit}}")
    if resolved.returncode != 0:
        print(f"ab.py: {args.base_ref!r} does not name a commit", file=sys.stderr)
        return 2
    runs = plan(args.workload or names, args.pairs)

    shutil.rmtree(out, ignore_errors=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="ledger-ab-"))
    trees = {"base": scratch / "base", "change": REPO}
    try:
        added = git("worktree", "add", "--detach", str(trees["base"]),
                    resolved.stdout.strip())
        if added.returncode != 0:
            print(added.stderr, file=sys.stderr, end="")
            return 2
        for n, (side, name, seed) in enumerate(runs, 1):
            print(f"[{n}/{len(runs)}] {side:6s} {name} seed={seed}", flush=True)
            done = subprocess.run(
                [
                    sys.executable, str(trees[side] / LEDGER / "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                    "--out", str(out / side / f"seed-{seed}"),
                ],
                stdout=subprocess.DEVNULL,
            )
            # 1 is a failed participant: recorded, and compare.py's to judge.
            if done.returncode not in (0, 1):
                print(f"ab.py: that run exited {done.returncode}", file=sys.stderr)
                return 2
    finally:
        # Pruning after the directory is gone drops the worktree's entry.
        shutil.rmtree(scratch, ignore_errors=True)
        git("worktree", "prune")
    return subprocess.run(
        [sys.executable, str(REPO / LEDGER / "compare.py"),
         str(out / "base"), str(out / "change")]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
