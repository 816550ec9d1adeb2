"""Cluster scaling — population throughput across remote worker pools.

Three claims are pinned here:

1. **Scaling** — a coordinator sharding a population across local
   worker daemons (one process each, dialled in over real loopback TCP
   with typed job-spec chunks, heartbeats and bounded in-flight
   windows) beats the single-host serial loop once the domain is large
   enough to amortize spawn and framing: >= 1.5x serial with 4 workers
   at ``D = 2^16`` on a >= 4-core host.
2. **Adaptivity** — with one worker artificially slowed (the
   ``--throttle`` straggler hook), throughput-aware chunk sizing must
   beat fixed-size chunking by >= 10%: the EWMA scheduler learns the
   straggler's rate and strands less work on it, exactly the
   feedback-driven allocation the storage-subnet related repo applies
   to heterogeneous miners.
3. **Security price** — the PR-5 transport layer (mutual HMAC
   handshake + TLS, ``repro.net``) must cost < 15% throughput at the
   CI smoke size versus plaintext: authentication happens once per
   connection and TLS bulk crypto is cheap next to scheme compute, so
   a securely-deployed cluster stays on the perf trajectory.
4. **Wire economy** — the typed job codec (``repro.service.jobcodec``)
   must keep a population job spec >= 3x smaller on the wire than the
   retired pickle envelope at ``D = 2^16``: schemes travel as name +
   canonical params and tasks as registered structs, not as
   class-by-class pickle machinery, and the per-job encode+decode cost
   is reported alongside so the byte win is never bought blind.

Results are byte-identical to serial on every worker count and chunk
policy — pinned by tests/test_engine_cluster.py — so only wall-clock
is at stake.  Single- and dual-core hosts record the measurements
honestly in the JSON and skip the assertions (worker daemons then
share cores with the coordinator, which measures spawn+framing
overhead, not scheduling).

``--quick`` (the CI pull-request smoke) shrinks the domain and skips
the wall-clock assertions while still driving the whole plane —
spawn, adapt, answer, reassemble — end to end.

Emits ``benchmarks/results/cluster_scaling.json`` and
``cluster_skew.json`` via the shared ``save_json`` path plus the usual
rendered tables.
"""

import os
import socket
import subprocess
import sys
import time

import _perf
from _cluster_jobs import bench_item
from repro.analysis import format_table
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme
from repro.engine import ClusterExecutor, default_workers, get_executor
from repro.grid import run_population
from repro.tasks import PasswordSearch, RangeDomain

D_EXP = 16
D_EXP_QUICK = 12
N_PARTICIPANTS = 64
N_PARTICIPANTS_QUICK = 16
N_SAMPLES = 16
CLUSTER_SIZES = (2, 4)
TARGET_SPEEDUP = 1.5

# Auth+TLS overhead scenario: always measured at the CI smoke size.
SECURITY_D_EXP = 12
SECURITY_PARTICIPANTS = 16
SECURITY_WORKERS = 2
MAX_SECURITY_OVERHEAD = 0.15  # < 15% throughput cost

# Skewed-worker scenario: 4 external workers, one throttled.
SKEW_WORKERS = 4
SKEW_THROTTLE_S = 0.08
SKEW_ITEMS = 96
SKEW_ITEMS_QUICK = 24
FIXED_CHUNK = 4  # min == max: the static baseline
ADAPTIVE_MIN, ADAPTIVE_MAX = 1, 8
TARGET_SKEW_GAIN = 1.10

# Typed-codec wire economy: job bytes vs the retired pickle envelope.
TARGET_BYTES_RATIO = 3.0
CODEC_TIMING_ROUNDS = 5


def _run_once(executor, d_exp: int, participants: int) -> float:
    """One population run; returns elapsed seconds."""
    start = time.perf_counter()
    report = run_population(
        RangeDomain(0, 1 << d_exp),
        PasswordSearch(),
        CBSScheme(n_samples=N_SAMPLES),
        behaviors=[HonestBehavior(), SemiHonestCheater(0.5)],
        n_participants=participants,
        seed=1,
        engine=executor,
    )
    elapsed = time.perf_counter() - start
    assert len(report.participants) == participants
    assert report.detection_rate == 1.0
    return elapsed


def _stats_since(before: dict, after: dict) -> dict:
    """The timed run's own counters (the primer's subtracted out)."""
    return {
        key: after[key] - before[key]
        for key in ("jobs_completed", "chunks_completed", "jobs_requeued")
    }


def _warm_cluster(executor) -> float:
    """Spawn the workers and prime them; returns the spawn seconds.

    Construction is lazy, so timing a population on a fresh
    :class:`ClusterExecutor` measures worker start-up as if it were
    throughput.  Touching the pool forces spawn + handshake (reported
    as its own ``spawn_s`` column); one small untimed population then
    fills the workers' scheme caches and import state, so what
    :func:`_run_once` times afterwards is steady state.
    """
    start = time.perf_counter()
    executor.futures_pool
    spawn_s = time.perf_counter() - start
    _run_once(executor, D_EXP_QUICK - 2, N_PARTICIPANTS_QUICK)
    return spawn_s


def test_cluster_scaling(save_json, save_table, trajectory, quick):
    cores = default_workers()
    d_exp = D_EXP_QUICK if quick else D_EXP
    participants = N_PARTICIPANTS_QUICK if quick else N_PARTICIPANTS

    with get_executor("serial") as executor:
        serial_t = _run_once(executor, d_exp, participants)

    cluster_t: dict[int, float] = {}
    cluster_stats: dict[int, dict] = {}
    spawn_t: dict[int, float] = {}
    for n_workers in CLUSTER_SIZES:
        with ClusterExecutor(workers=n_workers) as executor:
            spawn_t[n_workers] = _warm_cluster(executor)
            primed = executor.stats
            cluster_t[n_workers] = _run_once(executor, d_exp, participants)
            cluster_stats[n_workers] = _stats_since(primed, executor.stats)

    assertable = cores >= 4 and not quick
    if assertable and serial_t / cluster_t[4] < TARGET_SPEEDUP:
        # Shared CI runners are noisy; each side gets one best-of-two
        # retry before the assertion fires.
        with get_executor("serial") as executor:
            serial_t = min(serial_t, _run_once(executor, d_exp, participants))
        with ClusterExecutor(workers=4) as executor:
            _warm_cluster(executor)
            primed = executor.stats
            retry_t = _run_once(executor, d_exp, participants)
            if retry_t < cluster_t[4]:
                cluster_t[4] = retry_t
                cluster_stats[4] = _stats_since(primed, executor.stats)

    # Rows are built from the *final* timings so the saved record
    # always matches whatever the assertion below judged.
    rows = [
        {
            "engine": "serial",
            "workers": 1,
            "spawn_s": 0.0,
            "elapsed_s": round(serial_t, 4),
            "participants_per_s": round(participants / serial_t, 1),
            "speedup_vs_serial": 1.0,
        }
    ]
    for n_workers in CLUSTER_SIZES:
        elapsed = cluster_t[n_workers]
        rows.append(
            {
                "engine": "cluster",
                "workers": n_workers,
                "spawn_s": round(spawn_t[n_workers], 4),
                "elapsed_s": round(elapsed, 4),
                "participants_per_s": round(participants / elapsed, 1),
                "speedup_vs_serial": round(serial_t / elapsed, 2),
                "jobs": cluster_stats[n_workers]["jobs_completed"],
                "chunks": cluster_stats[n_workers]["chunks_completed"],
                "requeued": cluster_stats[n_workers]["jobs_requeued"],
            }
        )

    save_json(
        "cluster_scaling",
        {
            "schema": _perf.BENCH_SCHEMA_VERSION,
            "bench": "cluster_scaling",
            "quick": quick,
            "domain_size": 1 << d_exp,
            "n_participants": participants,
            "n_samples": N_SAMPLES,
            "available_cores": cores,
            "target_speedup": TARGET_SPEEDUP,
            "fingerprint": trajectory.fingerprint,
            "rows": rows,
        },
    )
    save_table(
        "cluster_scaling",
        format_table(
            rows,
            title=(
                f"Cluster scaling — D = 2^{d_exp}, "
                f"{participants} participants, m = {N_SAMPLES}, "
                f"{cores} core(s){' [quick]' if quick else ''}"
            ),
        ),
    )

    if assertable:
        speedup = serial_t / cluster_t[4]
        assert speedup >= TARGET_SPEEDUP, (
            f"4-worker cluster should reach >= {TARGET_SPEEDUP}x serial "
            f"throughput at D = 2^{d_exp} on a >=4-core host "
            f"(measured {speedup:.2f}x: serial {serial_t:.3f}s, "
            f"cluster {cluster_t[4]:.3f}s)"
        )

    # Absolute participants/sec floor at the pinned domain for the
    # 4-worker cluster, against this machine's committed trajectory
    # (fingerprint-matched; quick and full sizes keep separate
    # baselines via the domain_size key).  Unmatched fingerprints gate
    # vacuously and start their own trajectory.
    cluster_pps = round(participants / cluster_t[4], 1)
    baseline = trajectory.baseline(
        "cluster_scaling",
        "cluster4_participants_per_s",
        domain_size=1 << d_exp,
    )
    if baseline is not None:
        floor = (1.0 - _perf.MAX_REGRESSION) * baseline
        assert cluster_pps >= floor, (
            f"4-worker cluster participants/sec at D = 2^{d_exp} "
            f"regressed >30% below this machine's committed trajectory: "
            f"{cluster_pps:.1f} vs baseline {baseline:.1f} "
            f"(floor {floor:.1f})"
        )
    # Append only after the gates pass — a regressed point must never
    # become the next run's (lower) baseline.
    trajectory.append(
        "cluster_scaling",
        quick=quick,
        domain_size=1 << d_exp,
        cluster4_participants_per_s=cluster_pps,
        available_cores=cores,
    )


# ----------------------------------------------------------------------
# Auth + TLS overhead: the security layer's price, pinned
# ----------------------------------------------------------------------


def test_auth_tls_overhead_under_15_percent(
    save_json, save_table, quick, security_material
):
    """Plaintext vs secured (HMAC auth + TLS) cluster at smoke size.

    Both runs use the same worker count and domain; the handshake is
    per-connection and the crypto is per-byte, while the work is
    per-job — so the measured cost stays small.  Best-of-two on each
    side tames shared-runner noise before the assertion fires.
    """
    secret_file, tls_cert, tls_key = security_material
    cores = default_workers()
    secured_kwargs = {
        "secret_file": secret_file,
        "tls_cert": tls_cert,
        "tls_key": tls_key,
    }

    def measure(**security_kwargs) -> tuple[float, dict]:
        with ClusterExecutor(
            workers=SECURITY_WORKERS, **security_kwargs
        ) as executor:
            elapsed = _run_once(
                executor, SECURITY_D_EXP, SECURITY_PARTICIPANTS
            )
            return elapsed, executor.stats

    plain_t, plain_stats = measure()
    secured_t, secured_stats = measure(**secured_kwargs)
    assert secured_stats["auth_rejects"] == 0

    if secured_t / plain_t > 1.0 + MAX_SECURITY_OVERHEAD:
        # One best-of-two retry per side before judging.
        plain_t = min(plain_t, measure()[0])
        secured_t = min(secured_t, measure(**secured_kwargs)[0])

    overhead = secured_t / plain_t - 1.0
    rows = [
        {
            "transport": "plaintext",
            "elapsed_s": round(plain_t, 4),
            "participants_per_s": round(SECURITY_PARTICIPANTS / plain_t, 1),
            "overhead_vs_plain": 0.0,
        },
        {
            "transport": "hmac auth + tls",
            "elapsed_s": round(secured_t, 4),
            "participants_per_s": round(SECURITY_PARTICIPANTS / secured_t, 1),
            "overhead_vs_plain": round(overhead, 3),
        },
    ]
    save_json(
        "cluster_security_overhead",
        {
            "bench": "cluster_security_overhead",
            "quick": quick,
            "domain_size": 1 << SECURITY_D_EXP,
            "n_participants": SECURITY_PARTICIPANTS,
            "workers": SECURITY_WORKERS,
            "available_cores": cores,
            "max_overhead": MAX_SECURITY_OVERHEAD,
            "rows": rows,
        },
    )
    save_table(
        "cluster_security_overhead",
        format_table(
            rows,
            title=(
                f"Cluster security overhead — D = 2^{SECURITY_D_EXP}, "
                f"{SECURITY_PARTICIPANTS} participants, "
                f"{SECURITY_WORKERS} workers, {cores} core(s)"
                f"{' [quick]' if quick else ''}"
            ),
        ),
    )
    assert overhead < MAX_SECURITY_OVERHEAD, (
        f"auth + TLS should cost < {MAX_SECURITY_OVERHEAD:.0%} throughput "
        f"at the smoke size (measured {overhead:.1%}: plaintext "
        f"{plain_t:.3f}s, secured {secured_t:.3f}s)"
    )


# ----------------------------------------------------------------------
# Skewed-worker scenario: adaptive vs fixed chunking under a straggler
# ----------------------------------------------------------------------


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


def _run_skewed(n_items: int, chunk_min: int, chunk_max: int) -> tuple[float, dict]:
    """Map ``n_items`` over 4 external workers, one throttled."""
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
            results = executor.map(bench_item, range(n_items))
            elapsed = time.perf_counter() - start
            stats = executor.stats
        assert len(results) == n_items
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


def test_adaptive_beats_fixed_chunking_with_straggler(
    save_json, save_table, quick
):
    cores = default_workers()
    n_items = SKEW_ITEMS_QUICK if quick else SKEW_ITEMS

    fixed_t, fixed_stats = _run_skewed(n_items, FIXED_CHUNK, FIXED_CHUNK)
    adaptive_t, adaptive_stats = _run_skewed(
        n_items, ADAPTIVE_MIN, ADAPTIVE_MAX
    )

    assertable = cores >= 4 and not quick
    if assertable and fixed_t / adaptive_t < TARGET_SKEW_GAIN:
        # Best-of-two against CI noise, same policy as the scaling pin.
        retry_fixed, retry_fixed_stats = _run_skewed(
            n_items, FIXED_CHUNK, FIXED_CHUNK
        )
        if retry_fixed < fixed_t:  # each policy keeps its best run
            fixed_t, fixed_stats = retry_fixed, retry_fixed_stats
        retry_adaptive, retry_adaptive_stats = _run_skewed(
            n_items, ADAPTIVE_MIN, ADAPTIVE_MAX
        )
        if retry_adaptive < adaptive_t:
            adaptive_t, adaptive_stats = retry_adaptive, retry_adaptive_stats

    gain = fixed_t / adaptive_t
    rows = [
        {
            "policy": f"fixed (chunk={FIXED_CHUNK})",
            "elapsed_s": round(fixed_t, 4),
            "items_per_s": round(n_items / fixed_t, 1),
            "chunks": fixed_stats["chunks_completed"],
            "gain_vs_fixed": 1.0,
        },
        {
            "policy": f"adaptive ({ADAPTIVE_MIN}..{ADAPTIVE_MAX})",
            "elapsed_s": round(adaptive_t, 4),
            "items_per_s": round(n_items / adaptive_t, 1),
            "chunks": adaptive_stats["chunks_completed"],
            "gain_vs_fixed": round(gain, 2),
        },
    ]
    save_json(
        "cluster_skew",
        {
            "bench": "cluster_skew",
            "quick": quick,
            "n_items": n_items,
            "workers": SKEW_WORKERS,
            "throttle_s": SKEW_THROTTLE_S,
            "available_cores": cores,
            "target_gain": TARGET_SKEW_GAIN,
            "worker_rates_adaptive": adaptive_stats["worker_rates"],
            "rows": rows,
        },
    )
    save_table(
        "cluster_skew",
        format_table(
            rows,
            title=(
                f"Skewed cluster — {SKEW_WORKERS} workers, one throttled "
                f"{SKEW_THROTTLE_S * 1e3:.0f} ms/job, {n_items} items, "
                f"{cores} core(s){' [quick]' if quick else ''}"
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


# ----------------------------------------------------------------------
# Wire economy: typed job codec vs the retired pickle envelope
# ----------------------------------------------------------------------


def _population_batches(d_exp: int, participants: int) -> list:
    """The exact job specs a cluster population run puts on the wire.

    Mirrors :meth:`repro.grid.simulation.GridSimulation.jobs` at
    batch_size=1 — one ``SchemeBatch`` per participant, same scheme,
    task workload and behaviour mix as :func:`_run_once`.
    """
    from repro.engine.jobs import SchemeBatch, SchemeJob
    from repro.engine.seeding import derive_seed
    from repro.tasks.result import TaskAssignment

    behaviors = [HonestBehavior(), SemiHonestCheater(0.5)]
    scheme = CBSScheme(n_samples=N_SAMPLES)
    function = PasswordSearch()
    return [
        SchemeBatch(
            scheme=scheme,
            jobs=(
                SchemeJob(
                    assignment=TaskAssignment(
                        task_id=f"task-{i}",
                        domain=subdomain,
                        function=function,
                    ),
                    behavior=behaviors[i % len(behaviors)],
                    seed=derive_seed(1, i),
                ),
            ),
        )
        for i, subdomain in enumerate(
            RangeDomain(0, 1 << d_exp).partition(participants)
        )
    ]


def _best_loop_seconds(fn, rounds: int) -> float:
    """Best-of-N wall clock of ``fn`` (one full pass over the jobs)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_job_codec_bytes_vs_pickle(save_json, save_table, trajectory, quick):
    """Typed job specs must be >= 3x smaller than the pickle envelope.

    Measures the exact coordinator submit path (``encode_job`` around
    ``execute_batch``) against what the retired wire did (stdlib pickle
    of the same ``(fn, args, kwargs)`` triple), on the same population
    job list the scaling scenario runs.  Decode runs through a worker's
    scheme cache — that is the production path, and it is exactly where
    the per-chunk scheme rebuild cost went.
    """
    import pickle  # the retired wire, kept only as the yardstick

    from repro.engine.jobs import execute_batch
    from repro.service.jobcodec import SchemeCache, decode_job, encode_job

    d_exp = D_EXP_QUICK if quick else D_EXP
    participants = N_PARTICIPANTS_QUICK if quick else N_PARTICIPANTS
    batches = _population_batches(d_exp, participants)
    n_jobs = len(batches)

    typed = [encode_job(execute_batch, (batch,), {}) for batch in batches]
    pickled = [
        pickle.dumps(
            (execute_batch, (batch,), {}),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        for batch in batches
    ]
    typed_bytes = sum(len(raw) for raw in typed) / n_jobs
    pickle_bytes = sum(len(raw) for raw in pickled) / n_jobs
    ratio = pickle_bytes / typed_bytes

    cache = SchemeCache()
    timings_s = {
        "typed_encode": _best_loop_seconds(
            lambda: [encode_job(execute_batch, (b,), {}) for b in batches],
            CODEC_TIMING_ROUNDS,
        ),
        "typed_decode": _best_loop_seconds(
            lambda: [decode_job(raw, cache=cache) for raw in typed],
            CODEC_TIMING_ROUNDS,
        ),
        "pickle_encode": _best_loop_seconds(
            lambda: [
                pickle.dumps((execute_batch, (b,), {}),
                             protocol=pickle.HIGHEST_PROTOCOL)
                for b in batches
            ],
            CODEC_TIMING_ROUNDS,
        ),
        "pickle_decode": _best_loop_seconds(
            lambda: [pickle.loads(raw) for raw in pickled],
            CODEC_TIMING_ROUNDS,
        ),
    }
    us_per_job = {
        key: round(seconds / n_jobs * 1e6, 1)
        for key, seconds in timings_s.items()
    }

    rows = [
        {
            "codec": "typed (wire v5)",
            "bytes_per_job": round(typed_bytes, 1),
            "encode_us_per_job": us_per_job["typed_encode"],
            "decode_us_per_job": us_per_job["typed_decode"],
            "size_vs_pickle": round(typed_bytes / pickle_bytes, 3),
        },
        {
            "codec": "pickle (retired v4)",
            "bytes_per_job": round(pickle_bytes, 1),
            "encode_us_per_job": us_per_job["pickle_encode"],
            "decode_us_per_job": us_per_job["pickle_decode"],
            "size_vs_pickle": 1.0,
        },
    ]
    save_json(
        "cluster_jobcodec",
        {
            "schema": _perf.BENCH_SCHEMA_VERSION,
            "bench": "cluster_jobcodec",
            "quick": quick,
            "domain_size": 1 << d_exp,
            "n_jobs": n_jobs,
            "n_samples": N_SAMPLES,
            "target_bytes_ratio": TARGET_BYTES_RATIO,
            "bytes_ratio": round(ratio, 3),
            "scheme_cache": cache.stats(),
            "fingerprint": trajectory.fingerprint,
            "rows": rows,
        },
    )
    save_table(
        "cluster_jobcodec",
        format_table(
            rows,
            title=(
                f"Job codec economy — D = 2^{d_exp}, {n_jobs} jobs, "
                f"m = {N_SAMPLES}, typed {ratio:.2f}x smaller"
                f"{' [quick]' if quick else ''}"
            ),
        ),
    )

    # The scheme travelled once per population, not once per job.
    assert cache.stats()["misses"] == 1
    assert cache.stats()["hits"] >= n_jobs - 1

    if not quick:
        assert ratio >= TARGET_BYTES_RATIO, (
            f"typed job specs must be >= {TARGET_BYTES_RATIO:.0f}x smaller "
            f"than the pickle envelope at D = 2^{d_exp} (measured "
            f"{ratio:.2f}x: typed {typed_bytes:.1f} B/job, pickle "
            f"{pickle_bytes:.1f} B/job)"
        )

    # Append only after the gate passes — same policy as the wall-clock
    # trajectories above.
    trajectory.append(
        "cluster_jobcodec",
        quick=quick,
        domain_size=1 << d_exp,
        typed_bytes_per_job=round(typed_bytes, 1),
        pickle_bytes_per_job=round(pickle_bytes, 1),
        bytes_ratio=round(ratio, 3),
        typed_encode_us_per_job=us_per_job["typed_encode"],
        typed_decode_us_per_job=us_per_job["typed_decode"],
    )
