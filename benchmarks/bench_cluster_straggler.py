"""Cluster straggler — adaptive vs fixed chunking with one slow worker.

The one scheduler claim the performance ledger cannot express, because
it is a *ratio between two policies* on the same code and not a speed
of one: with one of four workers artificially slowed (the
``--throttle`` straggler hook), throughput-aware chunk sizing must
beat fixed-size chunking by >= 10%.  The EWMA scheduler learns the
straggler's rate and strands less work on it, exactly the
feedback-driven allocation the storage-subnet related repo applies
to heterogeneous miners.  It is the evidence for the
``--cluster-chunk-min/max`` knobs (README "Cluster tuning").

Results are byte-identical to serial on every worker count and chunk
policy — pinned by tests/test_engine_cluster.py — so only wall-clock
is at stake.  Hosts with fewer than 4 cores record the measurement
honestly in the table and skip the assertion (worker daemons then
share cores with the coordinator, which measures contention, not
scheduling).  How fast the cluster runs a population is the ledger's
``pop_compute_cluster`` / ``pop_small_cluster`` reading, not this
file's.
"""

import os
import socket
import subprocess
import sys
import time

from _cluster_jobs import bench_item
from repro.analysis import format_table
from repro.engine import ClusterExecutor, default_workers

SKEW_WORKERS = 4  # external daemons; the first one is throttled
SKEW_THROTTLE_S = 0.08
SKEW_ITEMS = 96
FIXED_CHUNK = 4  # min == max: the static baseline
ADAPTIVE_MIN, ADAPTIVE_MAX = 1, 8
TARGET_SKEW_GAIN = 1.10


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_worker(port: int, worker_id: str, throttle: float) -> subprocess.Popen:
    """One external worker daemon (the slow one gets ``--throttle``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    entry = (
        "import sys; from repro.engine.cluster.worker import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    cmd = [
        sys.executable, "-c", entry,
        "--host", "127.0.0.1",
        "--port", str(port),
        "--engine", "serial",
        "--id", worker_id,
        "--heartbeat", "0.5",
        "--connect-retry", "30",
        "--preload", "_cluster_jobs",
    ]
    if throttle > 0:
        cmd += ["--throttle", str(throttle)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)


def _run_skewed(chunk_min: int, chunk_max: int) -> tuple[float, dict]:
    """Map the items over 4 external workers, one throttled."""
    port = _free_port()
    procs = [
        _spawn_worker(
            port, f"skew-{i}", SKEW_THROTTLE_S if i == 0 else 0.0
        )
        for i in range(SKEW_WORKERS)
    ]
    try:
        with ClusterExecutor(
            port=port,
            spawn_local=False,
            min_workers=SKEW_WORKERS,
            chunk_min=chunk_min,
            chunk_max=chunk_max,
            chunk_target_s=0.2,
            startup_timeout=60.0,
        ) as executor:
            start = time.perf_counter()
            results = executor.map(bench_item, range(SKEW_ITEMS))
            elapsed = time.perf_counter() - start
            stats = executor.stats
        assert len(results) == SKEW_ITEMS
        assert results[1] == bench_item(1)  # remote work is honest
        return elapsed, stats
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)


def test_adaptive_beats_fixed_chunking_with_straggler(save_table):
    cores = default_workers()

    fixed_t, fixed_stats = _run_skewed(FIXED_CHUNK, FIXED_CHUNK)
    adaptive_t, adaptive_stats = _run_skewed(ADAPTIVE_MIN, ADAPTIVE_MAX)

    assertable = cores >= 4
    if assertable and fixed_t / adaptive_t < TARGET_SKEW_GAIN:
        # Shared CI runners are noisy: best-of-two before judging.
        retry_fixed, retry_fixed_stats = _run_skewed(FIXED_CHUNK, FIXED_CHUNK)
        if retry_fixed < fixed_t:  # each policy keeps its best run
            fixed_t, fixed_stats = retry_fixed, retry_fixed_stats
        retry_adaptive, retry_adaptive_stats = _run_skewed(
            ADAPTIVE_MIN, ADAPTIVE_MAX
        )
        if retry_adaptive < adaptive_t:
            adaptive_t, adaptive_stats = retry_adaptive, retry_adaptive_stats

    gain = fixed_t / adaptive_t
    rows = [
        {
            "policy": f"fixed (chunk={FIXED_CHUNK})",
            "elapsed_s": round(fixed_t, 4),
            "items_per_s": round(SKEW_ITEMS / fixed_t, 1),
            "chunks": fixed_stats["chunks_completed"],
            "gain_vs_fixed": 1.0,
        },
        {
            "policy": f"adaptive ({ADAPTIVE_MIN}..{ADAPTIVE_MAX})",
            "elapsed_s": round(adaptive_t, 4),
            "items_per_s": round(SKEW_ITEMS / adaptive_t, 1),
            "chunks": adaptive_stats["chunks_completed"],
            "gain_vs_fixed": round(gain, 2),
        },
    ]
    save_table(
        "cluster_skew",
        format_table(
            rows,
            title=(
                f"Skewed cluster — {SKEW_WORKERS} workers, one throttled "
                f"{SKEW_THROTTLE_S * 1e3:.0f} ms/job, {SKEW_ITEMS} items, "
                f"{cores} core(s)"
            ),
        ),
    )

    if assertable:
        assert gain >= TARGET_SKEW_GAIN, (
            f"adaptive chunking should beat fixed chunking by >= "
            f"{(TARGET_SKEW_GAIN - 1) * 100:.0f}% with a straggler "
            f"(measured {gain:.2f}x: fixed {fixed_t:.3f}s, "
            f"adaptive {adaptive_t:.3f}s)"
        )
