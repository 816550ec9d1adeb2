"""Windows and the reference kernel: how the ledger keeps time.

A window is one timed epoch (population workloads) or one quarter-second
slice of the closed loop (service workloads).  Each carries its own
wall, CPU and wire deltas, and every end-to-end metric is the *median
of the per-window ratios*.

The sandbox this was written on changes speed under the benchmark: the
same single-threaded loop takes 1.0x or ~1.6x, wall *and* CPU, for
seconds or whole runs at a time (a noisy neighbour on the sibling
hyperthread).  Raw seconds from such a machine do not repeat within
30%.  So a fixed reference kernel -- a chain of SHA-256 calls in a
Python loop, independent of the program -- is timed at both ends of
every window, and every time the ledger reports is divided by how slow
the machine was just then: **reference-speed seconds**, the seconds a
machine that runs the kernel in ``REFERENCE_S`` would have taken.
Counts (bytes, MiB) are never scaled.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import asdict, dataclass

from repro.obs.metrics import default_registry

FRAME_HEADER_BYTES = 4

#: Set-ups per untraced run; ``setup_s`` is their median.  Process
#: start-up is the one cost the reference kernel does not track (it is
#: page faults and exec, not hashing), hence several.
SETUP_REPEATS = 5

KERNEL_ROUNDS = 10_000
#: What the kernel takes on the authoring box while it is quiet.
REFERENCE_S = 0.005


def slowness() -> float:
    """How slow the machine is right now: kernel time / ``REFERENCE_S``."""
    digest = bytes(32)
    sha256 = hashlib.sha256
    start = time.perf_counter()
    for _ in range(KERNEL_ROUNDS):
        digest = sha256(digest).digest()
    return (time.perf_counter() - start) / REFERENCE_S


class Stopwatch:
    """Times a block, with a kernel sample at both ends.

    After the block: ``wall_s`` (raw), ``slowness`` (mean of the two
    samples) and ``seconds`` (reference-speed).  The samples lie
    outside the timed interval.
    """

    def __enter__(self) -> "Stopwatch":
        self._before = slowness()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_s = time.perf_counter() - self._start
        self.slowness = 0.5 * (self._before + slowness())
        self.seconds = self.wall_s / self.slowness


@dataclass
class Window:
    wall_s: float
    participants: int
    cpu_s: float             # harness + every child process
    supervisor_cpu_s: float  # serve process (svc) / harness process (pop)
    wire_bytes: float
    frames: int = 0
    slowness: float = 1.0    # mean of the kernel samples at both ends


def wire_counters() -> tuple[float, int]:
    """(payload bytes, frames) this process put on or took off a socket.

    Read from the program's own registry: the harness process is the
    coordinator or the client, so it sees both directions.
    """
    snapshot = default_registry().snapshot()
    payload = sum(
        v["sum"]
        for v in snapshot.get("repro_net_frame_payload_bytes", {}).get("values", [])
    )
    frames = sum(
        v["value"]
        for v in snapshot.get("repro_net_frames_total", {}).get("values", [])
    )
    return payload, int(frames)


def wire_bytes(before: tuple[float, int], after: tuple[float, int]) -> float:
    return (after[0] - before[0]) + FRAME_HEADER_BYTES * (after[1] - before[1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def end_to_end(
    windows: list[Window], setup_s: list[float], peak_rss_mb: float
) -> tuple[dict[str, float], dict]:
    """The six gated metrics plus the raw material they came from.

    ``setup_s`` arrives already in reference-speed seconds; window
    times are scaled here.
    """
    busy = [w for w in windows if w.participants > 0]
    series = {
        "participants_per_s": [
            w.participants * w.slowness / w.wall_s for w in windows
        ],
        "cpu_ms_per_participant": [
            1e3 * w.cpu_s / w.slowness / w.participants for w in busy
        ],
        "supervisor_cpu_ms_per_participant": [
            1e3 * w.supervisor_cpu_s / w.slowness / w.participants for w in busy
        ],
        "wire_bytes_per_participant": [
            w.wire_bytes / w.participants for w in busy
        ],
    }
    metrics = {name: statistics.median(vals) for name, vals in series.items()}
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = peak_rss_mb
    detail = {
        "windows": [asdict(w) for w in windows],
        "setup_s_samples": setup_s,
        "quartiles": {name: quartiles(vals) for name, vals in series.items()},
    }
    return metrics, detail
