"""Population workloads: epochs of ``run_population`` on one engine.

One untimed warm-up epoch, then timed epochs with population seed
``--seed + epoch`` until the clock runs out; each epoch is one window.
The harness process is the coordinator, so "supervisor CPU" here is
this process's own CPU and the workers are its only children.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import replace

from repro.engine import ClusterExecutor, SerialExecutor
from repro.obs.metrics import default_registry
from repro.obs.spans import default_span_buffer
from repro.obs.trace import bind_trace, new_trace_id

import _jobs
import inputs
import procs
from declared import Workload
from measure import (
    SETUP_REPEATS, Stopwatch, Window, end_to_end, wire_bytes, wire_counters,
)
from oracle import count_mismatches, failed_populations, report_rows
from replay import replay_population

MIN_EPOCHS = 3
MAP_FLOOR_ITEMS = 256

# What a user of the serial engine pays to get from nothing to a first
# result: interpreter start, ``import repro`` and the primer population.
_COLD_START = (
    "from repro.cheating import HonestBehavior, SemiHonestCheater\n"
    "from repro.core import CBSScheme\n"
    "from repro.grid.simulation import run_population\n"
    "from repro.tasks import PasswordSearch, RangeDomain\n"
    "run_population(RangeDomain(0, 64), PasswordSearch(), CBSScheme(n_samples=4),"
    " [HonestBehavior(), SemiHonestCheater(0.5)], n_participants=4)\n"
)


class Engine:
    """The executor under test and the signals the harness reads off it."""

    def __init__(self, w: Workload) -> None:
        self.w = w
        self.spawn_s = 0.0
        self.executor = (
            ClusterExecutor(workers=2, worker_preload=(_jobs.__name__,))
            if w.engine == "cluster"
            else SerialExecutor()
        )

    def setup(self) -> float:
        """Bring the engine from nothing to ready; returns the
        (reference-speed) seconds.

        ``ClusterExecutor.prewarm()`` does not start workers, so the
        lazy spawn and handshake are forced by touching the pool and a
        4-participant primer population is pushed through.
        """
        with Stopwatch() as watch:
            if self.w.engine == "cluster":
                start = time.perf_counter()
                self.executor.futures_pool
                spawn_wall = time.perf_counter() - start
                if self.executor.stats["workers_live"] != 2:
                    raise RuntimeError("cluster came up without both workers")
                primer = replace(self.w, domain=64, participants=4)
                inputs.simulation(primer, 0, self.executor).run()
            else:
                spawn_wall = 0.0
                subprocess.run(
                    [sys.executable, "-c", _COLD_START],
                    check=True, env=procs.child_env(),
                )
        self.spawn_s = spawn_wall / watch.slowness
        return watch.seconds

    @property
    def pids(self) -> list[int]:
        return list(getattr(self.executor, "local_worker_pids", ()))

    def stats(self) -> dict:
        return dict(getattr(self.executor, "stats", {}))

    def close(self) -> None:
        self.executor.close()


def timed_epoch(engine: Engine, seed: int, trace_id: str | None = None):
    """One epoch as a window; returns ``(window, oracle rows)``.

    The report is reduced to its digest rows here, outside the stamps,
    so that what the harness keeps for the oracle does not grow its
    peak RSS with the number of epochs a fast machine fits in.
    """
    w = engine.w
    pids = engine.pids
    with Stopwatch() as watch:
        wire0 = wire_counters()
        children0 = sum(procs.cpu_seconds(pid) for pid in pids)
        self0 = time.process_time()
        start = time.perf_counter()
        with bind_trace(trace_id):
            report = inputs.simulation(w, seed, engine.executor).run()
        wall = time.perf_counter() - start
        self_cpu = time.process_time() - self0
        children = sum(procs.cpu_seconds(pid) for pid in pids) - children0
        wire1 = wire_counters()
    if w.engine == "cluster":
        wire = wire_bytes(wire0, wire1)
    else:
        # No socket exists; report what the protocol itself exchanges
        # (the paper's O(m log n) bytes, as the scheme's ledgers count
        # them) so the metric stays defined and a codec change shows 0.
        wire = float(sum(
            p.participant_ledger.bytes_sent + p.supervisor_ledger_delta.bytes_sent
            for p in report.participants
        ))
    window = Window(
        wall_s=wall, participants=w.participants, cpu_s=self_cpu + children,
        supervisor_cpu_s=self_cpu, wire_bytes=wire,
        frames=wire1[1] - wire0[1], slowness=watch.slowness,
    )
    return window, report_rows(report)


def peak_rss(engine: Engine) -> float:
    return procs.peak_rss_mib() + sum(procs.peak_rss_mib(p) for p in engine.pids)


def run_untraced(w: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    setups: list[float] = []
    engine: Engine | None = None
    epochs: list[tuple[int, list[bytes]]] = []
    windows: list[Window] = []
    try:
        for _ in range(1 if smoke else SETUP_REPEATS):
            if engine is not None:
                engine.close()
            engine = Engine(w)
            setups.append(engine.setup())
        timed_epoch(engine, seed)  # warm-up, discarded
        deadline = time.perf_counter() + seconds
        while len(windows) < (1 if smoke else MIN_EPOCHS) or (
            not smoke and time.perf_counter() < deadline
        ):
            epoch_seed = seed + 1 + len(windows)
            window, rows = timed_epoch(engine, epoch_seed)
            windows.append(window)
            epochs.append((epoch_seed, rows))
        rss = peak_rss(engine)
    finally:
        if engine is not None:
            engine.close()
    failed = failed_populations(w, epochs, in_process=smoke)
    metrics, detail = end_to_end(windows, setups, rss)
    return {
        "metrics": metrics,
        "attempted": w.participants * len(windows),
        "failed": failed,
        "detail": detail,
    }


def _engine_items_submitted(engine_name: str) -> float:
    return default_registry().value(
        "repro_engine_tasks_total", engine=engine_name, event="submitted"
    )


def map_floor_us(executor, rounds: int) -> float:
    """What ``executor.map`` costs per item when the item does nothing."""
    floors = []
    items = list(range(MAP_FLOOR_ITEMS))
    for _ in range(rounds):
        with Stopwatch() as watch:
            executor.map(_jobs.noop, items)
        floors.append(watch.seconds / MAP_FLOOR_ITEMS)
    return 1e6 * statistics.median(floors)


def _cluster_span_metrics(spans, traced: list[Window]) -> dict[str, float]:
    """What the program's own spans say about the traced epochs; their
    durations are scaled by those epochs' median slowness."""
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.duration_s)
    traced_total = sum(x.wall_s for x in traced)
    traced_slow = statistics.median(x.slowness for x in traced)
    return {
        "engine.cluster.chunk_ms_p50":
            1e3 * statistics.median(by_name["coordinator.chunk"]) / traced_slow,
        "engine.cluster.worker_execute_ms_p50":
            1e3 * statistics.median(by_name["worker.execute"]) / traced_slow,
        "engine.cluster.accept_share":
            sum(by_name["coordinator.accept"]) / traced_total,
        "engine.cluster.worker_busy_share":
            sum(by_name["worker.execute"]) / (2 * traced_total),
    }


def run_traced(w: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Interleaved untraced/traced epochs plus the engine's own signals.

    Times are reference-speed seconds here too: epoch walls and CPU by
    their own window's kernel samples, the program's span durations by
    the traced epochs' median.
    """
    engine = Engine(w)
    out: dict[str, float] = {}
    plain: list[Window] = []
    traced: list[Window] = []
    spans = []
    try:
        engine.setup()
        if w.engine == "cluster":
            out["engine.cluster.spawn_s"] = engine.spawn_s
        items0 = _engine_items_submitted(w.engine)
        window, _ = timed_epoch(engine, seed)
        out["engine.warmup_epoch_s"] = window.wall_s / window.slowness
        out["engine.batches_per_epoch"] = (
            _engine_items_submitted(w.engine) - items0
        )
        stats0 = engine.stats()
        checked: list[tuple[int, list[bytes]]] = []
        deadline = time.perf_counter() + 0.35 * seconds
        while len(traced) < (1 if smoke else 2) or (
            not smoke and time.perf_counter() < deadline
        ):
            epoch_seed = seed + 1 + 2 * len(traced)
            window, rows = timed_epoch(engine, epoch_seed)
            plain.append(window)
            checked.append((epoch_seed, rows))
            trace_id = new_trace_id()
            window, rows = timed_epoch(engine, epoch_seed + 1, trace_id)
            traced.append(window)
            checked.append((epoch_seed + 1, rows))
            spans.extend(default_span_buffer().trace(trace_id))
        stats1 = engine.stats()
        n_epochs = len(plain) + len(traced)
        if w.engine == "cluster":
            out["engine.cluster.chunks_per_epoch"] = (
                stats1["chunks_completed"] - stats0["chunks_completed"]
            ) / n_epochs
            out["engine.cluster.jobs_requeued"] = (
                stats1["jobs_requeued"] - stats0["jobs_requeued"]
            )
            hits = stats1["scheme_cache_hits"] - stats0["scheme_cache_hits"]
            misses = stats1["scheme_cache_misses"] - stats0["scheme_cache_misses"]
            out["engine.cluster.scheme_cache_hit_ratio"] = hits / max(1, hits + misses)
        out["engine.map_floor_us_per_item"] = map_floor_us(
            engine.executor, 1 if smoke else 5
        )
    finally:
        engine.close()

    plain_wall = statistics.median(x.wall_s / x.slowness for x in plain)
    traced_wall = statistics.median(x.wall_s / x.slowness for x in traced)
    out["obs.tracing_overhead_share"] = (traced_wall - plain_wall) / plain_wall
    out["obs.spans_per_epoch"] = len(spans) / len(traced)
    if w.engine == "cluster":
        out.update(_cluster_span_metrics(spans, traced))
        out["service.codec.frames_per_participant"] = statistics.median(
            x.frames / x.participants for x in plain
        )

    # The replay has to run epoch `seed + 1` serially anyway; that run
    # is the oracle for the first untraced epoch and the serial baseline.
    cpu_per_participant = statistics.median(
        x.cpu_s / x.slowness / x.participants for x in plain
    )
    batches = int(out["engine.batches_per_epoch"])
    chunks = out.get("engine.cluster.chunks_per_epoch", batches)
    layer_metrics, harness_spans, reference, serial_wall = replay_population(
        w, seed + 1,
        batch_size=-(-w.participants // batches),
        jobs_per_chunk=max(1, round(batches / chunks)),
        cpu_per_participant=cpu_per_participant,
    )
    failed = min(
        count_mismatches(checked[0][1], report_rows(reference)), w.participants
    )
    if w.engine == "cluster":
        out["engine.cluster.scaling_efficiency"] = serial_wall / (2 * plain_wall)
    failed += failed_populations(w, checked[1:], in_process=smoke)
    out.update(layer_metrics)
    return {
        "metrics": out,
        "attempted": w.participants * len(checked),
        "failed": failed,
        "detail": {
            "plain_epoch_wall_s": [x.wall_s for x in plain],
            "traced_epoch_wall_s": [x.wall_s for x in traced],
            "serial_reference_wall_s": serial_wall,
            "repo_spans": [s.to_wire() for s in spans],
        },
        "spans": harness_spans,
    }
