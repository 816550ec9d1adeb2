"""Command-line experiment runner: ``repro-experiments`` / ``python -m repro.cli``.

Gives downstream users one-command access to the paper's reproductions
without touching pytest:

* ``fig2`` — the Fig. 2 required-sample-size curves (Eq. 3);
* ``eq2`` — analytic vs Monte-Carlo escape probability (Eq. 2);
* ``comm`` — O(n) vs O(m log n) wire bytes over an ``n`` sweep;
* ``rco`` — the §3.3 storage/recompute trade-off;
* ``regrind`` — the §4.2 attack and its Eq. (5) economics;
* ``deterrence`` — incentive-level sample sizing (Def. 2.1's cost arm);
* ``demo`` — a single CBS run narrated step by step;
* ``population`` — a full population simulation on a chosen execution
  backend, reporting participants/sec;
* ``serve`` — the supervisor as a long-running asyncio TCP service
  (the §4 GRACE topology; see :mod:`repro.service`), shutting down
  gracefully on SIGINT/SIGTERM;
* ``loadgen`` — N concurrent honest/cheating participants against a
  running supervisor (or a self-contained in-process one), reporting
  detection plus submissions/sec and latency percentiles
  (``--json PATH`` additionally saves a machine-readable record);
* ``worker`` — a cluster worker daemon executing engine chunks for a
  coordinator (see :mod:`repro.engine.cluster`);
* ``lint`` — the repro-lint static invariant checkers
  (:mod:`repro.devtools.lint`; README "Static analysis").

All subcommands accept ``--seed`` and print the same tables the
benchmark harness saves under ``benchmarks/results/``.  Subcommands
that run many independent protocol executions (``eq2``,
``population``) additionally accept ``--engine
serial|threads|processes|cluster`` and ``--workers N`` to pick the
execution backend (see :mod:`repro.engine`); backends change
wall-clock only, never results.  ``--engine cluster`` self-hosts
``--cluster-workers N`` local worker daemons and exposes the adaptive
scheduler's tuning surface — ``--cluster-chunk-min``/``max`` bound the
throughput-sized chunks (README "Cluster tuning").  The multi-host
recipe (one coordinator, workers on other machines) is in the README.

Transport security (README "Security model"): ``--secret-file`` gates
every connection behind the mutual repro.net HMAC handshake,
``--tls-cert``/``--tls-key`` add pinned-certificate TLS.  ``serve``
and ``loadgen`` apply them to the participant socket; any ``--engine
cluster`` command forwards them to the cluster plane; ``worker``
takes ``--secret-file``/``--tls-cert`` to prove itself to (and pin)
its coordinator.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import logging
import os
import signal
import sys
import time

from repro.analysis import (
    cheat_success_probability,
    estimate_escape_rate,
    fig2_series,
    format_table,
)
from repro.analysis.costs import uncheatable_g_rounds
from repro.analysis.incentives import IncentiveModel, deterrent_sample_size
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.cheating.guessing import guess_model_for_q
from repro.cheating.regrind import expected_regrind_attempts, run_regrind_attack
from repro.core import CBSScheme, predicted_rco
from repro.baselines import NaiveSamplingScheme
from repro.engine import ENGINE_NAMES, get_executor
from repro.engine.cluster.worker import add_worker_args, run_worker_sync
from repro.exceptions import ReproError
from repro.grid import run_population
from repro.merkle import get_hash
from repro.net.transport import SecurityConfig
from repro.obs import (
    EventLoopLagProbe,
    FlightRecorder,
    HealthState,
    MetricsServer,
    Span,
    bind_trace,
    configure_logging,
    default_registry,
    gauge_max_probe,
    gauge_min_probe,
    get_logger,
    install_flight_recorder,
    log_event,
    new_trace_id,
    render_waterfall,
)
from repro.service import (
    ServiceClient,
    ServiceConfig,
    SupervisorServer,
    WORKLOADS,
    run_loadgen,
    run_service_loadgen,
)
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

_log = get_logger("cli")


@contextlib.contextmanager
def _traced_run(args: argparse.Namespace):
    """Bind a population-level trace for the duration of a command.

    Under ``--trace`` every subsystem logs structured JSON records at
    DEBUG carrying this trace id (and per-chunk/per-round span ids),
    so one chunk's journey — coordinator dispatch, worker execution,
    result acceptance — reconstructs from the logs alone.
    """
    if not getattr(args, "trace", False):
        yield None
        return
    configure_logging(json=True, level=logging.DEBUG)
    trace_id = new_trace_id()
    # Stderr so scripted pipelines that parse stdout stay clean; the
    # id is what `repro.cli trace view --trace-id` asks for.
    print(f"[trace {trace_id}]", file=sys.stderr, flush=True)
    with bind_trace(trace_id):
        log_event(_log, "trace_started", command=args.command)
        yield trace_id


def _cmd_fig2(args: argparse.Namespace) -> int:
    points = fig2_series(epsilon=args.epsilon)
    by_r: dict[float, dict] = {}
    for p in points:
        row = by_r.setdefault(round(p.r, 2), {"r": round(p.r, 2)})
        row[f"m (q={p.q:g})"] = p.required_m
    print(
        format_table(
            [by_r[r] for r in sorted(by_r)],
            title=f"Fig. 2 — required sample size (epsilon = {args.epsilon})",
        )
    )
    return 0


def _cmd_eq2(args: argparse.Namespace) -> int:
    task = TaskAssignment("cli-eq2", RangeDomain(0, args.n), PasswordSearch())
    rows = []
    # One warm pool across all four m-values (the loop would otherwise
    # spawn and tear down a process pool per cell).
    with get_executor(
        args.engine, _engine_workers(args), **_engine_options(args)
    ) as executor:
        for m in (1, 2, 4, 8):
            estimate = estimate_escape_rate(
                CBSScheme(n_samples=m),
                task,
                lambda trial: SemiHonestCheater(args.r, guess_model_for_q(args.q)),
                n_trials=args.trials,
                seed0=args.seed,
                engine=executor,
            )
            rows.append(
                {
                    "m": m,
                    "analytic": cheat_success_probability(args.r, args.q, m),
                    "measured": estimate.rate,
                    "ci": f"[{estimate.low:.3f}, {estimate.high:.3f}]",
                }
            )
    print(
        format_table(
            rows,
            title=(
                f"Eq. (2) — escape probability at r={args.r}, q={args.q} "
                f"({args.trials} runs/cell)"
            ),
        )
    )
    return 0


def _cmd_comm(args: argparse.Namespace) -> int:
    rows = []
    for exp in range(8, args.max_exp + 1, 2):
        n = 1 << exp
        task = TaskAssignment(f"cli-comm-{n}", RangeDomain(0, n), PasswordSearch())
        naive = NaiveSamplingScheme(args.m).run(task, HonestBehavior(), seed=args.seed)
        cbs = CBSScheme(args.m, include_reports=False).run(
            task, HonestBehavior(), seed=args.seed
        )
        rows.append(
            {
                "n": f"2^{exp}",
                "naive_bytes": naive.participant_ledger.bytes_sent,
                "cbs_bytes": cbs.participant_ledger.bytes_sent,
                "reduction": round(
                    naive.participant_ledger.bytes_sent
                    / cbs.participant_ledger.bytes_sent,
                    1,
                ),
            }
        )
    print(format_table(rows, title=f"Communication — measured bytes (m = {args.m})"))
    return 0


def _cmd_rco(args: argparse.Namespace) -> int:
    n = args.n
    task = TaskAssignment("cli-rco", RangeDomain(0, n), PasswordSearch())
    rows = []
    ell = 0
    while (1 << ell) <= n:
        scheme = CBSScheme(
            n_samples=args.m,
            subtree_height=ell or None,
            with_replacement=False,
            include_reports=False,
        )
        result = scheme.run(task, HonestBehavior(), seed=args.seed)
        extra = result.participant_ledger.evaluations - n
        rows.append(
            {
                "ell": ell,
                "stored_digests": result.participant_ledger.storage_digests,
                "rebuild_evals": extra,
                "measured_rco": extra / n,
                "paper_rco": predicted_rco(args.m, n, ell),
            }
        )
        ell += 2
    print(format_table(rows, title=f"§3.3 storage trade-off (n={n}, m={args.m})"))
    return 0


def _cmd_regrind(args: argparse.Namespace) -> int:
    task = TaskAssignment(
        "cli-regrind", RangeDomain(0, args.n), PasswordSearch(cost=args.f_cost)
    )
    print(
        f"expected attempts 1/r^m = "
        f"{expected_regrind_attempts(args.r, args.m):.1f}"
    )
    k = uncheatable_g_rounds(args.n, args.f_cost, args.r, args.m)
    rows = []
    for label, g in (("cheap g", "sha256"), (f"Eq.5 g (k={k})", f"sha256^{k}")):
        result = run_regrind_attack(
            task,
            honesty_ratio=args.r,
            n_samples=args.m,
            sample_hash=get_hash(g),
            seed=args.seed,
            max_attempts=args.max_attempts,
        )
        rows.append(
            {
                "g": label,
                "attempts": result.attempts,
                "succeeded": result.succeeded,
                "attack_cost": round(result.attack_cost),
                "honest_cost": round(result.honest_task_cost),
                "profitable": result.profitable,
            }
        )
    print(format_table(rows, title="§4.2 regrinding attack economics"))
    return 0


def _cmd_deterrence(args: argparse.Namespace) -> int:
    model = IncentiveModel(
        payment=args.payment,
        task_cost=args.task_cost,
        penalty=args.penalty,
        q=args.q,
    )
    try:
        m_star = deterrent_sample_size(model)
    except ValueError:
        print("no finite m deters this model (q too high?)")
        return 1
    print(
        f"honest utility: {model.honest_utility:.1f}; smallest deterrent "
        f"m = {m_star}"
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    task = TaskAssignment("cli-demo", RangeDomain(0, args.n), PasswordSearch())
    scheme = CBSScheme(n_samples=args.m)
    honest = scheme.run(task, HonestBehavior(), seed=args.seed)
    cheat = scheme.run(task, SemiHonestCheater(args.r), seed=args.seed)
    rows = [
        {
            "participant": "honest",
            "accepted": honest.outcome.accepted,
            "evals": honest.participant_ledger.evaluations,
            "bytes_sent": honest.participant_ledger.bytes_sent,
        },
        {
            "participant": f"cheater (r={args.r})",
            "accepted": cheat.outcome.accepted,
            "evals": cheat.participant_ledger.evaluations,
            "bytes_sent": cheat.participant_ledger.bytes_sent,
        },
    ]
    print(format_table(rows, title=f"CBS demo: n={args.n}, m={args.m}"))
    failure = cheat.outcome.first_failure
    if failure is not None:
        print(f"cheater exposed at sample index {failure.index} "
              f"({failure.reason.value})")
    return 0


def _cmd_population(args: argparse.Namespace) -> int:
    domain = RangeDomain(0, args.n)
    behaviors = [HonestBehavior(), SemiHonestCheater(args.r)]
    start = time.perf_counter()
    # The executor is built here (not inside run_population) so the
    # cluster tuning flags reach the backend constructor.
    with _traced_run(args), get_executor(
        args.engine, _engine_workers(args), **_engine_options(args)
    ) as executor:
        report = run_population(
            domain,
            PasswordSearch(),
            CBSScheme(n_samples=args.m),
            behaviors=behaviors,
            n_participants=args.participants,
            seed=args.seed,
            engine=executor,
        )
    elapsed = time.perf_counter() - start
    row = report.summary()
    row["engine"] = args.engine
    row["elapsed_s"] = round(elapsed, 3)
    row["participants_per_s"] = round(args.participants / elapsed, 1)
    print(
        format_table(
            [row],
            title=(
                f"Population run — D = {args.n}, "
                f"{args.participants} participants, m = {args.m}"
            ),
        )
    )
    return 0


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        domain=RangeDomain(0, args.n),
        workload=args.workload,
        protocol=args.protocol,
        n_samples=args.m,
        n_participants=args.participants,
        seed=args.seed,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    config = _service_config(args)
    if args.trace:
        configure_logging(json=True, level=logging.DEBUG)
    elif args.stats_interval is not None:
        # The periodic snapshot line needs a handler even without
        # --trace; keep it human-readable at INFO.
        configure_logging(json=False, level=logging.INFO)

    # The flight recorder rides the whole command: attach early so
    # startup failures land in the crash dump too.
    recorder = FlightRecorder(process="serve")
    recorder.attach()
    if args.flight_dir is not None:
        install_flight_recorder(recorder, args.flight_dir)

    async def serve() -> None:
        registry = default_registry()
        server = SupervisorServer(
            config,
            engine=args.engine,
            workers=_engine_workers(args),
            engine_options=_engine_options(args, service_plane=True),
            security=_service_security(args),
            session_ttl=args.session_ttl,
            registry=registry,
        )
        # Readiness plane: drain flag + per-plane probes.  The lag
        # sampler runs as a loop task; cluster probes watch the
        # scheduler gauges the coordinator keeps fresh.
        health = HealthState()
        lag_probe = EventLoopLagProbe()
        health.add_probe("event_loop_lag", lag_probe)
        if args.engine == "cluster":
            health.add_probe(
                "cluster_workers",
                gauge_min_probe(
                    registry, "repro_cluster_workers_live", 1.0
                ),
            )
            health.add_probe(
                "cluster_stall",
                gauge_max_probe(
                    registry, "repro_cluster_stall_seconds", 60.0
                ),
            )
        lag_task = asyncio.ensure_future(lag_probe.run())
        # Graceful shutdown: SIGINT/SIGTERM set an event instead of
        # tearing through the loop as KeyboardInterrupt; server.stop()
        # then closes the listener, drains in-flight rounds and the
        # engine pool, and releases session state.  Handlers go in
        # before the readiness banner so a supervisor that printed
        # "listening" is already signal-safe.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled: list[signal.Signals] = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                handled.append(sig)
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        host, port = await server.start(args.host, args.port)
        print(
            f"supervisor listening on {host}:{port} — protocol "
            f"{config.protocol}, D={args.n}, "
            f"{config.n_participants} participant slots, m={config.n_samples}",
            flush=True,
        )
        metrics_server: MetricsServer | None = None
        if args.metrics_port is not None:
            metrics_server = MetricsServer(
                server.registry, port=args.metrics_port, health=health
            )
            print(
                f"metrics on http://127.0.0.1:{metrics_server.port}/metrics "
                f"(+ /stats /healthz /readyz)",
                flush=True,
            )

        count = registry.value

        async def snapshot_loop() -> None:
            while True:
                await asyncio.sleep(args.stats_interval)
                log_event(
                    _log,
                    "stats_snapshot",
                    connections=int(count("repro_connections_total")),
                    verifications=int(count("repro_verifications_total")),
                    sessions_active=server.sessions.active,
                    errors=int(registry.sum_values("repro_errors_total")),
                    auth_failures=int(
                        count("repro_auth_failures_total", plane="service")
                    ),
                )

        snapshot_task = (
            asyncio.ensure_future(snapshot_loop())
            if args.stats_interval is not None
            else None
        )
        try:
            await stop.wait()
            # Drain protocol: flip readiness *first* so a load
            # balancer polling /readyz sees 503 and stops routing,
            # hold the listener open for --drain-grace seconds, and
            # only then stop accepting and tear down.
            health.set_ready(False, "draining")
            recorder.record("drain_started", grace_s=args.drain_grace)
            if args.drain_grace > 0:
                await asyncio.sleep(args.drain_grace)
        finally:
            for sig in handled:
                loop.remove_signal_handler(sig)
            lag_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await lag_task
            if snapshot_task is not None:
                snapshot_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await snapshot_task
            await server.stop()
            # Probe endpoint closes after the drain so the final 503s
            # were observable; the flight dump is the shutdown record.
            if metrics_server is not None:
                metrics_server.close()
            if args.flight_dir is not None:
                with contextlib.suppress(OSError):
                    path = recorder.dump_to_dir(
                        args.flight_dir, reason="shutdown"
                    )
                    print(f"flight recorder dumped to {path}", flush=True)
            print(
                f"supervisor stopped — "
                f"{int(count('repro_connections_total'))} connections, "
                f"{int(count('repro_verifications_total'))} verifications, "
                f"{int(count('repro_sessions_total', event='evicted'))} "
                "sessions evicted",
                flush=True,
            )

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        print("supervisor stopped")
    return 0


async def _loadgen_connect(args, behaviors):
    """Drive a remote supervisor; the shared repro.net retry/backoff
    helper inside ``ServiceClient.open_tcp`` absorbs a slow-starting
    server (the old private probe loop is gone)."""
    return await run_loadgen(
        args.participants,
        behaviors,
        host=args.host,
        port=args.port,
        security=_service_security(args),
        connect_retry_s=args.connect_timeout,
        concurrency=args.concurrency,
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    behaviors = [HonestBehavior(), SemiHonestCheater(args.r)]
    if args.host is not None:
        if args.port is None:
            print("loadgen: --host requires --port", file=sys.stderr)
            return 2
        print(
            "connected mode: the supervisor's own config governs the "
            "workload — local --n/--m/--protocol/--workload/--seed/"
            "--engine/--workers are ignored (--secret-file/--tls-cert "
            "still apply: they authenticate this client)"
        )
        with _traced_run(args):
            report, stats = asyncio.run(_loadgen_connect(args, behaviors))
    else:
        with _traced_run(args):
            report, stats, _server = asyncio.run(
                run_service_loadgen(
                    _service_config(args),
                    behaviors,
                    transport="tcp",
                    engine=args.engine,
                    workers=_engine_workers(args),
                    engine_options=_engine_options(args, service_plane=True),
                    security=_service_security(args),
                    concurrency=args.concurrency,
                )
            )
    row = report.summary() | stats.summary()
    del row["participants"]  # duplicated between the two summaries
    print(
        format_table(
            [row],
            title=(
                f"Load generation — {args.participants} participants "
                f"({stats.n_completed} completed), r={args.r}"
            ),
        )
    )
    if args.json:
        payload = {
            "bench": "loadgen",
            "mode": "connected" if args.host is not None else "self-hosted",
            "participants": args.participants,
            "r": args.r,
            "concurrency": args.concurrency,
            "report": report.summary(),
            "stats": stats.summary(),
        }
        if args.host is None:
            payload |= {
                "domain_size": args.n,
                "n_samples": args.m,
                "protocol": args.protocol,
                "workload": args.workload,
                "seed": args.seed,
                "engine": args.engine,
            }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"[json saved to {args.json}]")
    if args.check:
        clean = (
            stats.n_errors == 0
            and stats.n_completed == args.participants
            and report.honest_rejected == 0
            and report.detection_rate == 1.0
        )
        if not clean:
            print("loadgen --check FAILED", file=sys.stderr)
            return 1
        print("loadgen --check passed: clean detection report")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Fetch a running supervisor's live metrics snapshot.

    Speaks the authenticated service protocol (a ``stats`` frame), so
    it works wherever a participant could connect — including supervisors
    with no ``--metrics-port`` exposed.
    """
    host, _, port_s = args.connect.rpartition(":")
    if not host or not port_s.isdigit():
        print("stats: --connect must be HOST:PORT", file=sys.stderr)
        return 2
    security = SecurityConfig.from_options(
        secret_file=args.secret_file, tls_cert=args.tls_cert
    )

    async def fetch() -> dict:
        client = await ServiceClient.open_tcp(
            host, int(port_s), security=security
        )
        try:
            return await client.stats()
        finally:
            await client.close()

    snapshot = asyncio.run(fetch())
    if args.json:
        json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    rows = []
    for name in sorted(snapshot):
        metric = snapshot[name]
        for sample in metric["values"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(sample["labels"].items())
            )
            value = (
                sample["count"] if metric["type"] == "histogram"
                else sample["value"]
            )
            rows.append(
                {
                    "metric": name,
                    "labels": labels or "-",
                    "type": metric["type"],
                    "value": value,
                }
            )
    if rows:
        print(format_table(rows, title=f"Supervisor metrics — {args.connect}"))
    else:
        print("no metrics recorded yet")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render one distributed trace as an ASCII waterfall.

    Two sources: a live supervisor over the authenticated service
    protocol (``--connect`` + ``--trace-id``), or a flight-recorder
    dump file (``--dump``, trace id optional — defaults to the newest
    trace in the artifact).
    """
    if args.dump is None and args.connect is None:
        print("trace: need --connect HOST:PORT or --dump PATH",
              file=sys.stderr)
        return 2
    if args.dump is not None:
        try:
            with open(args.dump, encoding="utf-8") as fh:
                artifact = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"trace: cannot read dump {args.dump}: {exc}",
                  file=sys.stderr)
            return 2
        spans = []
        for wire in artifact.get("spans", ()):
            try:
                spans.append(Span.from_wire(wire))
            except (KeyError, TypeError, ValueError):
                pass  # a hand-edited dump must not kill the viewer
        trace_id = args.trace_id
        if trace_id is None:
            # Newest trace in the artifact (dump order is record order).
            seen = {s.trace_id: None for s in spans}
            trace_id = next(reversed(seen), None)
        spans = [s for s in spans if s.trace_id == trace_id]
    else:
        if args.trace_id is None:
            print("trace: --trace-id is required with --connect",
                  file=sys.stderr)
            return 2
        host, _, port_s = args.connect.rpartition(":")
        if not host or not port_s.isdigit():
            print("trace: --connect must be HOST:PORT", file=sys.stderr)
            return 2
        security = SecurityConfig.from_options(
            secret_file=args.secret_file, tls_cert=args.tls_cert
        )
        trace_id = args.trace_id

        async def fetch() -> list[dict]:
            client = await ServiceClient.open_tcp(
                host, int(port_s), security=security
            )
            try:
                return await client.trace(trace_id)
            finally:
                await client.close()

        spans = [Span.from_wire(wire) for wire in asyncio.run(fetch())]
    if not spans:
        if trace_id is None:
            print("no traced spans in this dump (run with --trace to "
                  "record some)")
        else:
            print(f"no spans recorded for trace {trace_id}")
        return 1
    spans.sort(key=lambda s: s.start_wall)
    print(render_waterfall(spans))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro-lint invariant checkers (README "Static analysis").

    A thin forwarder to :mod:`repro.devtools.lint.runner` — same flags,
    same exit codes — so operators get the gate CI runs without
    remembering the module path.  Imported lazily: the runtime planes
    must never depend on devtools.
    """
    from repro.devtools.lint.runner import main as lint_main

    forwarded: list[str] = list(args.paths)
    forwarded += ["--format", args.format]
    if args.baseline is not None:
        forwarded += ["--baseline", args.baseline]
    if args.write_baseline is not None:
        forwarded += ["--write-baseline", args.write_baseline]
    if args.rules is not None:
        forwarded += ["--rules", args.rules]
    if args.list_rules:
        forwarded += ["--list-rules"]
    return lint_main(forwarded)


def _cmd_worker(args: argparse.Namespace) -> int:
    return run_worker_sync(
        args.host,
        args.port,
        engine=args.engine,
        workers=args.workers,
        worker_id=args.worker_id,
        heartbeat_interval=args.heartbeat_interval,
        throttle=args.throttle,
        connect_retry_s=args.connect_retry_s,
        secret_file=args.secret_file,
        tls_cert=args.tls_cert,
        trace=args.trace,
        metrics_port=args.metrics_port,
        flight_dir=args.flight_dir,
        preload=tuple(args.preload or ()),
    )


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="structured JSON logs at DEBUG with a population-level "
        "trace id propagated through service frames and cluster job "
        "envelopes (README 'Observability')",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="serial",
        help="execution backend for independent protocol runs",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="pool size for threads/processes (default: CPU count)",
    )
    parser.add_argument(
        "--cluster-workers",
        type=_positive_int,
        default=None,
        dest="cluster_workers",
        help="local worker daemons to self-host with --engine cluster "
        "(default: --workers, else CPU count)",
    )
    parser.add_argument(
        "--cluster-chunk-min",
        type=_positive_int,
        default=None,
        dest="cluster_chunk_min",
        help="smallest adaptive chunk (jobs) the cluster scheduler sends; "
        "set min == max for fixed-size chunking",
    )
    parser.add_argument(
        "--cluster-chunk-max",
        type=_positive_int,
        default=None,
        dest="cluster_chunk_max",
        help="largest adaptive chunk (jobs) the cluster scheduler sends",
    )
    _add_security_args(parser)


def _add_security_args(parser: argparse.ArgumentParser) -> None:
    """The repro.net security flags (README "Security model").

    One set of flags secures whatever wire the subcommand opens: the
    participant socket for ``serve``/``loadgen``, the cluster plane
    for ``--engine cluster`` (both at once when a service runs on the
    cluster backend).
    """
    parser.add_argument(
        "--secret-file",
        default=None,
        dest="secret_file",
        help="path to a shared-secret file; peers must complete the "
        "HMAC-SHA256 challenge/response handshake before any frame "
        "is decoded",
    )
    parser.add_argument(
        "--tls-cert",
        default=None,
        dest="tls_cert",
        help="TLS certificate path: listeners present it (with "
        "--tls-key), dialling sides pin it as the trust anchor",
    )
    parser.add_argument(
        "--tls-key",
        default=None,
        dest="tls_key",
        help="TLS private key path (listening side only)",
    )
    parser.add_argument(
        "--cluster-secret-file",
        default=None,
        dest="cluster_secret_file",
        help="separate shared secret for the cluster plane; without it "
        "a serve/loadgen --engine cluster run keys both planes from "
        "--secret-file — avoid that when participants hold the service "
        "secret (whoever holds the cluster secret can submit jobs and "
        "burn worker CPU)",
    )


def _engine_workers(args: argparse.Namespace) -> int | None:
    """The worker count the chosen backend actually consumes.

    ``--cluster-workers`` wins for the cluster backend, but a bare
    ``--engine cluster --workers N`` still means N daemons — silently
    ignoring an explicit ``--workers`` would surprise.
    """
    if args.engine == "cluster" and args.cluster_workers is not None:
        return args.cluster_workers
    return args.workers


def _engine_options(
    args: argparse.Namespace, service_plane: bool = False
) -> dict:
    """Cluster tuning knobs as ``get_executor`` keyword options.

    Collected regardless of ``--engine``: passing a cluster knob to an
    in-process backend is an error the engine layer raises loudly —
    never a silently ignored flag.  The security flags follow the same
    rule, except under ``service_plane=True`` (``serve``/``loadgen``),
    where a non-cluster engine leaves them to the participant socket
    (see :func:`_service_security`) instead of erroring.
    """
    options: dict = {}
    if args.cluster_chunk_min is not None:
        options["chunk_min"] = args.cluster_chunk_min
    if args.cluster_chunk_max is not None:
        options["chunk_max"] = args.cluster_chunk_max
    # --cluster-secret-file always wins for the cluster plane (and is
    # passed through — hence rejected loudly — for in-process engines);
    # a bare --secret-file reaches the cluster only where no service
    # socket could claim it instead.
    if args.cluster_secret_file is not None:
        options["secret_file"] = args.cluster_secret_file
    elif (
        not service_plane or args.engine == "cluster"
    ) and args.secret_file is not None:
        options["secret_file"] = args.secret_file
    if not service_plane or args.engine == "cluster":
        if args.tls_cert is not None:
            options["tls_cert"] = args.tls_cert
        if args.tls_key is not None:
            options["tls_key"] = args.tls_key
    if args.engine == "cluster":
        # The cluster plane reports into the process-global registry
        # (so --metrics-port exposes it) and forwards --trace to the
        # coordinator and its spawn-local workers.
        options["registry"] = default_registry()
        if getattr(args, "trace", False):
            options["trace"] = True
    return options


def _service_security(args: argparse.Namespace) -> SecurityConfig | None:
    """Security material for the participant-facing service socket."""
    return SecurityConfig.from_options(
        secret_file=args.secret_file,
        tls_cert=args.tls_cert,
        tls_key=args.tls_key,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproductions of 'Uncheatable Grid Computing' (ICDCS 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig2", help="Fig. 2 required-sample-size curves")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.set_defaults(fn=_cmd_fig2)

    p = sub.add_parser("eq2", help="Eq. (2) analytic vs Monte-Carlo")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_engine_args(p)
    p.set_defaults(fn=_cmd_eq2)

    p = sub.add_parser("comm", help="O(n) vs O(m log n) wire bytes")
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--max-exp", type=int, default=14, dest="max_exp")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_comm)

    p = sub.add_parser("rco", help="§3.3 storage/recompute trade-off")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_rco)

    p = sub.add_parser("regrind", help="§4.2 regrinding attack economics")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--r", type=float, default=0.8)
    p.add_argument("--f-cost", type=float, default=100.0, dest="f_cost")
    p.add_argument("--max-attempts", type=int, default=100_000,
                   dest="max_attempts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_regrind)

    p = sub.add_parser("deterrence", help="incentive-level sample sizing")
    p.add_argument("--payment", type=float, default=150.0)
    p.add_argument("--task-cost", type=float, default=100.0, dest="task_cost")
    p.add_argument("--penalty", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.5)
    p.set_defaults(fn=_cmd_deterrence)

    p = sub.add_parser(
        "population", help="population simulation on a chosen backend"
    )
    p.add_argument("--n", type=int, default=1 << 14)
    p.add_argument("--participants", type=int, default=64)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    _add_trace_arg(p)
    _add_engine_args(p)
    p.set_defaults(fn=_cmd_population)

    def add_service_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=1 << 12,
                       help="global domain size D")
        p.add_argument("--participants", type=_positive_int, default=64)
        p.add_argument("--m", type=int, default=16,
                       help="samples per task")
        p.add_argument("--protocol", choices=("cbs", "ni-cbs"),
                       default="ni-cbs")
        p.add_argument("--workload", choices=sorted(WORKLOADS),
                       default="PasswordSearch")
        p.add_argument("--seed", type=int, default=0)
        _add_engine_args(p)

    p = sub.add_parser(
        "serve", help="run the supervisor as an asyncio TCP service"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7641)
    p.add_argument("--session-ttl", type=float, default=300.0,
                   dest="session_ttl",
                   help="seconds before abandoned sessions are evicted")
    p.add_argument("--metrics-port", type=int, default=None,
                   dest="metrics_port",
                   help="serve /metrics (Prometheus text), /stats (JSON) "
                   "and the /healthz + /readyz probes on this localhost "
                   "port (0 picks a free one)")
    p.add_argument("--stats-interval", type=float, default=None,
                   dest="stats_interval",
                   help="log a metrics snapshot line every N seconds")
    p.add_argument("--flight-dir", default=None, dest="flight_dir",
                   help="write the flight-recorder JSON artifact here on "
                   "crash, SIGUSR1, and clean shutdown")
    p.add_argument("--drain-grace", type=float, default=0.0,
                   dest="drain_grace",
                   help="seconds to keep serving (with /readyz at 503) "
                   "after SIGTERM before closing the listener")
    _add_trace_arg(p)
    add_service_args(p)
    p.set_defaults(fn=_cmd_serve, engine="threads")

    p = sub.add_parser(
        "loadgen",
        help="drive N honest/cheating participants against a supervisor",
    )
    p.add_argument("--host", default=None,
                   help="connect to a running supervisor (else self-contained)")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--connect-timeout", type=float, default=15.0,
                   dest="connect_timeout",
                   help="seconds to retry the first TCP connect")
    p.add_argument("--r", type=float, default=0.5,
                   help="cheaters' honesty ratio")
    p.add_argument("--concurrency", type=_positive_int, default=32)
    p.add_argument("--check", action="store_true",
                   help="exit nonzero unless the detection report is clean")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also save throughput/latency results as JSON")
    _add_trace_arg(p)
    add_service_args(p)
    p.set_defaults(fn=_cmd_loadgen, engine="threads")

    p = sub.add_parser(
        "stats",
        help="fetch a running supervisor's live metrics snapshot "
        "over the authenticated service protocol",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="supervisor address to query")
    p.add_argument("--json", action="store_true",
                   help="print the raw JSON snapshot")
    p.add_argument("--secret-file", default=None, dest="secret_file",
                   help="shared secret to authenticate with")
    p.add_argument("--tls-cert", default=None, dest="tls_cert",
                   help="supervisor TLS certificate to pin")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "trace",
        help="render a distributed span timeline (ASCII waterfall) "
        "from a live supervisor or a flight-recorder dump",
    )
    p.add_argument("action", choices=("view",),
                   help="what to do with the trace")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="fetch spans from this supervisor over the "
                   "authenticated service protocol")
    p.add_argument("--trace-id", default=None, dest="trace_id",
                   help="trace id (printed as '[trace ID]' by --trace "
                   "runs; required with --connect)")
    p.add_argument("--dump", default=None, metavar="PATH",
                   help="render from a flight-recorder JSON artifact "
                   "instead of a live server")
    p.add_argument("--secret-file", default=None, dest="secret_file",
                   help="shared secret to authenticate with")
    p.add_argument("--tls-cert", default=None, dest="tls_cert",
                   help="supervisor TLS certificate to pin")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "worker",
        help="cluster worker daemon: execute engine chunks for a "
        "coordinator (see README for the multi-host recipe)",
    )
    add_worker_args(p)
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "lint",
        help="run the repro-lint invariant checkers (pickle containment, "
        "lock discipline, async blocking, swallowed exceptions, metrics "
        "naming, wire-schema coverage)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="baseline of grandfathered findings")
    p.add_argument("--write-baseline", default=None, metavar="FILE",
                   dest="write_baseline",
                   help="write current findings as a fresh baseline")
    p.add_argument("--rules", default=None, metavar="RL001,RL002",
                   help="comma-separated rule IDs to run (default: all)")
    p.add_argument("--list-rules", action="store_true", dest="list_rules",
                   help="print the rule catalogue and exit")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("demo", help="one narrated CBS run")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Configuration errors (an unreadable ``--secret-file``, a
    ``--tls-key`` without its cert, a cluster knob on an in-process
    engine) surface as one clean line on stderr and exit code 2 —
    the same UX the ``worker`` daemon already had — not a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream of a pipe closed early (`repro.cli stats | head`):
        # point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time, and exit like a well-behaved
        # filter instead of tracebacking.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
