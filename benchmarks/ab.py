"""Is this checkout slower than BASE_REF?  One command, answered by the ledger.

    python3 benchmarks/ab.py BASE_REF [--pairs N] [--seconds S] [--workload NAME]...

Exports BASE_REF (``git archive | tar -x``) and copies this checkout's
files as they stand (what ``git ls-files --cached --others
--exclude-standard`` lists, uncommitted edits included) side by side
into one temp dir, removed on the way out — no worktree, no checkout
state touched, and neither side runs from the checkout itself (an A/A
run of one commit, checkout against export, read ``peak_rss_mb`` 1.022x
and supervisor CPU 0.854x).  It runs the performance ledger's contract
form on both sides — pair *i*
uses seed *i* on both, even pairs run the base first and odd pairs the
change first, so slow drift of the machine lands on both sides alike —
and finishes with ``ledger/compare.py base change``, whose exit status
(1 on any ``worse`` row) is this command's.  Each side runs its *own*
``benchmarks/ledger/run.py`` against its own ``src/``, equally cold:
``PYTHONDONTWRITEBYTECODE=1`` and a fresh, empty ``PYTHONPYCACHEPREFIX``
per side, so neither loads bytecode the other lacks (a tree that kept
stale ``__pycache__`` from a test run once read 35–60% ``worse`` on
``setup_s``).  Both sides also run with ``MALLOC_TOP_PAD_=1048576``:
without it the harness's client process can land in a glibc state where
every asyncio ``recv(256 KiB)`` grows the heap top and the next free
trims it again, and which state a build lands in flips on changes as
small as a private rename — that moved ``svc_nicbs_plain`` by ±6–14%
between trees whose service code was identical.  A megabyte of top pad
keeps the heap from being trimmed between reads.  Records land in
``benchmarks/results/ab/{base,change}/seed-<i>/`` (git-ignored, wiped
at the start of every run).
"""

from __future__ import annotations

import argparse
import os
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


def export(commit: str, dest: pathlib.Path) -> str | None:
    """``git archive COMMIT | tar -x -C DEST``; the error text, or None."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "-C", str(REPO), "archive", commit],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    untar = subprocess.run(
        ["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
        capture_output=True, text=True,
    )
    archive.stdout.close()
    error = archive.stderr.read().decode()
    if archive.wait() != 0:
        return error
    return untar.stderr if untar.returncode != 0 else None


def copy_checkout(dest: pathlib.Path) -> None:
    """Copy the checkout's files, as the working tree holds them, to
    DEST: tracked and untracked ones, never what ``.gitignore`` names."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.stdout.split("\0")):
        source = REPO / name
        if source.is_file():  # a tracked file deleted in the checkout is gone
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def side_env(scratch: pathlib.Path, side: str) -> dict[str, str]:
    """One side's environment: no bytecode written, none read, one
    allocator setting."""
    cache = scratch / f"pycache-{side}"
    cache.mkdir()
    return {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPYCACHEPREFIX": str(cache),
        "MALLOC_TOP_PAD_": "1048576",  # see the module docstring
    }


def run_ledger(tree: pathlib.Path, env: dict[str, str], args: list[str]) -> int:
    """One contract-form ledger run of ``tree``; its exit status."""
    return subprocess.run(
        [sys.executable, str(tree / LEDGER / "run.py"), *args],
        env=env, stdout=subprocess.DEVNULL,
    ).returncode


#: Rows whose recorded run-to-run spread passed their bound even at the
#: default 10 pairs x 8 s (``benchmarks/NOTES.md``).
EPILOG = """\
rows that have read `unresolved` even at the defaults: `setup_s` (spread
7.5-30.9% against its 25% bound, past it on svc_cbs_secured) and
`participants_per_s` on svc_cbs_secured (spread 26.0%).  --pairs 4
--seconds 2 cannot judge these rows.
"""


def main(argv: list[str] | None = None, out: pathlib.Path = OUT_DIR) -> int:
    names = [w.name for w in declared.WORKLOADS]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
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
    trees = {side: scratch / side for side in SIDES}
    try:
        error = export(resolved.stdout.strip(), trees["base"])
        if error is not None:
            print(error, file=sys.stderr, end="")
            return 2
        copy_checkout(trees["change"])
        envs = {side: side_env(scratch, side) for side in SIDES}
        for n, (side, name, seed) in enumerate(runs, 1):
            print(f"[{n}/{len(runs)}] {side:6s} {name} seed={seed}", flush=True)
            status = run_ledger(
                trees[side], envs[side],
                [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                    "--out", str(out / side / f"seed-{seed}"),
                ],
            )
            # 1 is a failed participant: recorded, and compare.py's to judge.
            if status not in (0, 1):
                print(f"ab.py: that run exited {status}", file=sys.stderr)
                return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return subprocess.run(
        [sys.executable, str(REPO / LEDGER / "compare.py"),
         str(out / "base"), str(out / "change")]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
