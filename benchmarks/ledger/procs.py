"""Process plumbing: /proc sampling, port probe, reaping, fingerprint.

Everything here observes or controls processes from outside; nothing
imports the program under test.
"""

from __future__ import annotations

import os
import pathlib
import platform
import signal
import socket
import subprocess
import sys

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
RESULTS_DIR = LEDGER_DIR / "results"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> dict[str, str]:
    """Environment for spawned interpreters: the repo's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(LEDGER_DIR)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def cpu_seconds(pid: int) -> float:
    """user+sys CPU of another process so far (kernel ticks, 10 ms)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        # The comm field may contain spaces; fields resume after ')'.
        fields = fh.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mib(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def free_port() -> int:
    """A loopback port that was free a moment ago (bind-to-0 probe)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def reap(proc: subprocess.Popen, grace_s: float = 5.0) -> int:
    """SIGTERM, wait ``grace_s``, SIGKILL; always waits the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def children() -> list[int]:
    """Pids whose parent is this process, waited for or not."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue  # gone between listdir and open
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def sweep_children() -> list[int]:
    """Last thing before exit: SIGKILL and wait every child still here.

    Each owner reaps its own (``reap``, ``ClusterExecutor.close``); this
    is the net under them for the paths they do not cover.  Returns the
    pids it had to kill, which on a clean run is none.
    """
    killed = []
    for pid in children():
        try:
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return killed


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fingerprint() -> dict:
    """Where and on what this record was measured."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cores = nproc()
    return {
        "nproc": cores,
        # The load is fixed at 2 clients / 2 workers; fewer cores is
        # recorded, never compensated for.
        "undersized": cores < 2,
        "cpu_model": model,
        "python": platform.python_version(),
        "executable": sys.executable,
        "git_commit": commit,
    }
