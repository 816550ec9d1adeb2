"""Cold start of the four entry points, beside ``python -c pass``.

    PYTHONPATH=src python benchmarks/cold_start.py [--runs 5]

For each entry point it prints the number of modules the process
imported and the median wall time of ``--runs`` fresh starts:

* ``import repro``;
* the serial cold start: the ledger's ``setup_s`` program for the
  serial engine (``popbench._COLD_START``: four imports and a
  4-participant primer population);
* ``serve`` from spawn to its "supervisor listening" banner (threads
  engine, no ``--metrics-port``);
* the worker shim the coordinator spawns (``WORKER_ENTRY``), from spawn
  until it has dialled a port nobody listens on and exited.

Module counts come from ``python -X importtime`` (every module the
process imported, the interpreter's own start-up set included), so they
are exact and the same on every machine; the walls are this machine's.
Nothing is asserted: ``tests/test_cold_start.py`` is the gate, on
module names.  Every child inherits this process's environment, so
``PYTHONPATH=OTHER/src`` measures another checkout the same way.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import socket
import statistics
import subprocess
import sys
import time

from repro.engine.cluster.coordinator import WORKER_ENTRY

POPBENCH = pathlib.Path(__file__).resolve().parent / "ledger" / "popbench.py"


def ledger_cold_start() -> str:
    """``popbench._COLD_START``, read without importing the ledger
    (importing it registers the ledger's job)."""
    tree = ast.parse(POPBENCH.read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "_COLD_START"
    )


SERIAL_COLD_START = ledger_cold_start()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def entry_points() -> dict[str, list[str]]:
    py = [sys.executable]
    return {
        "python -c pass": [*py, "-c", "pass"],
        "import repro": [*py, "-c", "import repro"],
        "serial cold start": [*py, "-c", SERIAL_COLD_START],
        "serve to banner": [
            *py, "-m", "repro.cli", "serve", "--port", "0",
            "--n", "4096", "--participants", "64", "--m", "16",
        ],
        "worker shim": [*py, "-c", WORKER_ENTRY, "--port", str(free_port())],
    }


def start(cmd: list[str], importtime: bool = False) -> tuple[float, str]:
    """Seconds from spawn to exit (or to ``serve``'s banner); stderr."""
    if importtime:
        cmd = [cmd[0], "-X", "importtime", *cmd[1:]]
    begin = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    if "serve" in cmd:
        proc.stdout.readline()  # the banner
        wall = time.perf_counter() - begin
        proc.kill()
        _, err = proc.communicate()
        return wall, err
    _, err = proc.communicate()
    return time.perf_counter() - begin, err


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"{'entry point':20s} {'modules':>8s} {'median wall ms':>15s}")
    for name, cmd in entry_points().items():
        _, err = start(cmd, importtime=True)  # also warms the bytecode
        modules = sum(1 for line in err.splitlines() if line.startswith("import time:"))
        walls = [start(cmd)[0] for _ in range(args.runs)]
        # The header line of -X importtime is not a module.
        print(f"{name:20s} {modules - 1:8d} {1000 * statistics.median(walls):15.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
