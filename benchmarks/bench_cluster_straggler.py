"""Cluster straggler — one slow worker costs the map little.

The one scheduler claim the performance ledger cannot express, because
it is a *ratio between two pools* on the same code and not a speed of
one: with one of four workers artificially slowed (the ``--throttle``
straggler hook), the shipped chunk policy (throughput-sized chunks,
factoring at the tail — ``repro.engine.cluster.scheduler``) must finish
the map within 1.3x of the same map on the three unthrottled workers
alone.  The EWMA scheduler learns the straggler's rate and strands
little work on it: its chunks shrink to a couple of jobs while the
fast workers' grow, and the tail leaves as single jobs.

Results are byte-identical to serial on every worker count and chunk
layout — pinned by tests/test_engine_cluster.py — so only wall-clock
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

FAST_WORKERS = 3  # external daemons at full speed
SKEW_THROTTLE_S = 0.08  # per-job delay of the one extra, slow daemon
SKEW_ITEMS = 96
MAX_STRAGGLER_COST = 1.30  # skewed pool / fast workers alone


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
        "--id", worker_id,
        "--connect-retry", "30",
        "--preload", "_cluster_jobs",
    ]
    if throttle > 0:
        cmd += ["--throttle", str(throttle)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)


def _run(with_straggler: bool) -> tuple[float, dict]:
    """Map the items over the fast workers, plus one throttled if asked."""
    port = _free_port()
    throttles = [0.0] * FAST_WORKERS
    if with_straggler:
        throttles.insert(0, SKEW_THROTTLE_S)
    procs = [
        _spawn_worker(port, f"skew-{i}", throttle)
        for i, throttle in enumerate(throttles)
    ]
    try:
        with ClusterExecutor(
            port=port,
            spawn_local=False,
            min_workers=len(procs),
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


def test_one_straggler_costs_the_map_at_most_30_percent(save_table):
    cores = default_workers()

    fast_t, fast_stats = _run(with_straggler=False)
    skewed_t, skewed_stats = _run(with_straggler=True)

    assertable = cores >= 4
    if assertable and skewed_t / fast_t > MAX_STRAGGLER_COST:
        # Shared CI runners are noisy: best-of-two before judging.
        retry_fast, retry_fast_stats = _run(with_straggler=False)
        if retry_fast < fast_t:  # each pool keeps its best run
            fast_t, fast_stats = retry_fast, retry_fast_stats
        retry_skewed, retry_skewed_stats = _run(with_straggler=True)
        if retry_skewed < skewed_t:
            skewed_t, skewed_stats = retry_skewed, retry_skewed_stats

    cost = skewed_t / fast_t
    rows = [
        {
            "pool": f"{FAST_WORKERS} fast workers",
            "elapsed_s": round(fast_t, 4),
            "items_per_s": round(SKEW_ITEMS / fast_t, 1),
            "chunks": fast_stats["chunks_completed"],
            "vs_fast_alone": 1.0,
        },
        {
            "pool": f"{FAST_WORKERS} fast + 1 throttled",
            "elapsed_s": round(skewed_t, 4),
            "items_per_s": round(SKEW_ITEMS / skewed_t, 1),
            "chunks": skewed_stats["chunks_completed"],
            "vs_fast_alone": round(cost, 2),
        },
    ]
    save_table(
        "cluster_skew",
        format_table(
            rows,
            title=(
                f"Skewed cluster — one extra worker throttled "
                f"{SKEW_THROTTLE_S * 1e3:.0f} ms/job, {SKEW_ITEMS} items, "
                f"{cores} core(s)"
            ),
        ),
    )

    if assertable:
        assert cost <= MAX_STRAGGLER_COST, (
            f"one throttled worker should cost the map at most "
            f"{MAX_STRAGGLER_COST:.1f}x the fast workers alone "
            f"(measured {cost:.2f}x: fast alone {fast_t:.3f}s, "
            f"with straggler {skewed_t:.3f}s)"
        )
