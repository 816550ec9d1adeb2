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
  coordinator (see :mod:`repro.engine.cluster`).

All subcommands accept ``--seed`` and print the same tables the
benchmark harness saves under ``benchmarks/results/``.  Subcommands
that run many independent protocol executions (``eq2``,
``population``) additionally accept ``--engine
serial|threads|processes|cluster`` and ``--workers N`` to pick the
execution backend (see :mod:`repro.engine`); backends change
wall-clock only, never results.  ``--engine cluster --workers N``
self-hosts N local worker daemons.  The multi-host recipe (one
coordinator, one worker daemon per core on other machines) is in the
README.

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
import contextlib
import json
import logging
import os
import sys
import time

# Beside the standard library only the import-free repro.launch loads
# with this module: each command imports the planes it runs, so
# building the parser (or ``--help``) loads none of them.
from repro.launch import ENGINE_NAMES, WORKLOAD_NAMES, add_worker_args


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
    from repro.obs import bind_trace, configure_logging, get_logger
    from repro.obs import log_event, new_trace_id

    configure_logging(json=True, level=logging.DEBUG)
    trace_id = new_trace_id()
    # Stderr so scripted pipelines that parse stdout stay clean; the
    # id is what `repro.cli trace view --trace-id` asks for.
    print(f"[trace {trace_id}]", file=sys.stderr, flush=True)
    with bind_trace(trace_id):
        log_event(get_logger("cli"), "trace_started", command=args.command)
        yield trace_id


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.analysis import fig2_series, format_table

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
    from repro.analysis import (
        cheat_success_probability, estimate_escape_rate, format_table,
    )
    from repro.cheating import SemiHonestCheater
    from repro.cheating.guessing import guess_model_for_q
    from repro.core import CBSScheme
    from repro.engine import get_executor
    from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

    task = TaskAssignment("cli-eq2", RangeDomain(0, args.n), PasswordSearch())
    rows = []
    # One warm pool across all four m-values (the loop would otherwise
    # spawn and tear down a process pool per cell).
    with get_executor(
        args.engine, args.workers, **_engine_options(args)
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
    from repro.analysis import format_table
    from repro.baselines import NaiveSamplingScheme
    from repro.cheating import HonestBehavior
    from repro.core import CBSScheme
    from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

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
    from repro.analysis import format_table
    from repro.cheating import HonestBehavior
    from repro.core import CBSScheme, predicted_rco
    from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

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
    from repro.analysis import format_table
    from repro.analysis.costs import uncheatable_g_rounds
    from repro.cheating.regrind import expected_regrind_attempts, run_regrind_attack
    from repro.merkle import get_hash
    from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

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
    from repro.analysis.incentives import IncentiveModel, deterrent_sample_size

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
    from repro.analysis import format_table
    from repro.cheating import HonestBehavior, SemiHonestCheater
    from repro.core import CBSScheme
    from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

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
    from repro.analysis import format_table
    from repro.cheating import HonestBehavior, SemiHonestCheater
    from repro.core import CBSScheme
    from repro.engine import get_executor
    from repro.grid import run_population
    from repro.tasks import PasswordSearch, RangeDomain

    domain = RangeDomain(0, args.n)
    behaviors = [HonestBehavior(), SemiHonestCheater(args.r)]
    start = time.perf_counter()
    # The executor is built here (not inside run_population) so the
    # cluster-plane flags reach the backend constructor.
    with _traced_run(args), get_executor(
        args.engine, args.workers, **_engine_options(args)
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


def _service_config(args: argparse.Namespace):
    from repro.service import ServiceConfig
    from repro.tasks import RangeDomain

    return ServiceConfig(
        domain=RangeDomain(0, args.n),
        workload=args.workload,
        protocol=args.protocol,
        n_samples=args.m,
        n_participants=args.participants,
        seed=args.seed,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import (
        EventLoopLagProbe, configure_logging, default_registry,
        gauge_max_probe, gauge_min_probe, get_logger, log_event,
    )
    from repro.obs.health import Daemon
    from repro.service import SupervisorServer

    config = _service_config(args)
    if args.trace:
        configure_logging(json=True, level=logging.DEBUG)
    elif args.stats_interval is not None:
        # The periodic snapshot line needs a handler even without
        # --trace; keep it human-readable at INFO.
        configure_logging(json=False, level=logging.INFO)

    registry = default_registry()
    count = registry.value

    async def snapshot_loop(server) -> None:
        while True:
            await asyncio.sleep(args.stats_interval)
            log_event(
                get_logger("cli"),
                "stats_snapshot",
                connections=int(count("repro_connections_total")),
                verifications=int(count("repro_verifications_total")),
                sessions_active=server.sessions.active,
                errors=int(registry.sum_values("repro_errors_total")),
                auth_failures=int(
                    count("repro_auth_failures_total", plane="service")
                ),
            )

    async def serve() -> None:
        # Entered before the server is built, so startup failures land
        # in the crash dump and a supervisor that printed "listening"
        # is already signal-safe: SIGINT/SIGTERM set daemon.stop.
        async with Daemon(
            "serve",
            registry,
            flight_dir=args.flight_dir,
            metrics_port=args.metrics_port,
        ) as daemon:
            server = SupervisorServer(
                config,
                engine=args.engine,
                workers=args.workers,
                engine_options=_engine_options(args, service_plane=True),
                security=_service_security(args),
                session_ttl=args.session_ttl,
                registry=registry,
            )
            # Readiness plane: per-plane probes beside the drain flag.
            # The lag sampler runs as a loop task; cluster probes watch
            # the scheduler gauges the coordinator keeps fresh.
            health = daemon.health
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
            tasks = [asyncio.ensure_future(lag_probe.run())]
            try:
                host, port = await server.start(args.host, args.port)
                print(
                    f"supervisor listening on {host}:{port} — protocol "
                    f"{config.protocol}, D={args.n}, "
                    f"{config.n_participants} participant slots, "
                    f"m={config.n_samples}",
                    flush=True,
                )
                metrics_port = daemon.expose()
                if metrics_port is not None:
                    print(
                        f"metrics on http://127.0.0.1:{metrics_port}/metrics "
                        f"(+ /stats /healthz /readyz)",
                        flush=True,
                    )
                if args.stats_interval is not None:
                    tasks.append(asyncio.ensure_future(snapshot_loop(server)))
                await daemon.stop.wait()
                # Drain protocol: flip readiness *first* so a load
                # balancer polling /readyz sees 503 and stops routing,
                # hold the listener open for --drain-grace seconds, and
                # only then stop accepting and tear down.
                health.set_ready(False, "draining")
                daemon.recorder.record(
                    "drain_started", grace_s=args.drain_grace
                )
                if args.drain_grace > 0:
                    await asyncio.sleep(args.drain_grace)
            finally:
                for task in tasks:
                    task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await task
                await server.stop()
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


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.analysis import format_table
    from repro.cheating import HonestBehavior, SemiHonestCheater
    from repro.service import run_loadgen, run_service_loadgen

    behaviors = [HonestBehavior(), SemiHonestCheater(args.r)]
    if (args.host is None) != (args.port is None):
        # One without the other is a half-stated address: neither
        # self-host silently nor guess the missing half.
        print("loadgen: --host and --port go together", file=sys.stderr)
        return 2
    if args.host is not None:
        print(
            "connected mode: the supervisor's own config governs the "
            "workload — local --n/--m/--protocol/--workload/--seed/"
            "--engine/--workers are ignored (--secret-file/--tls-cert "
            "still apply: they authenticate this client)"
        )
        # ServiceClient.open_tcp's retry/backoff absorbs a slow-starting
        # supervisor.
        with _traced_run(args):
            report, stats = asyncio.run(run_loadgen(
                args.participants, behaviors, host=args.host, port=args.port,
                security=_service_security(args),
                connect_retry_s=args.connect_timeout,
                concurrency=args.concurrency,
            ))
    else:
        with _traced_run(args):
            report, stats, _server = asyncio.run(
                run_service_loadgen(
                    _service_config(args),
                    behaviors,
                    transport="tcp",
                    engine=args.engine,
                    workers=args.workers,
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


def _ask_supervisor(args: argparse.Namespace, request):
    """One authenticated request to the supervisor at ``--connect``.

    Opens a :class:`ServiceClient` with the ``--secret-file`` /
    ``--tls-cert`` material (:func:`_add_connect_args`), returns what
    ``request(client)`` answers and closes the client.
    """
    import asyncio

    from repro.net import SecurityConfig
    from repro.service import ServiceClient

    host, port = args.connect
    security = SecurityConfig.from_options(
        secret_file=args.secret_file, tls_cert=args.tls_cert
    )

    async def ask():
        client = await ServiceClient.open_tcp(host, port, security=security)
        try:
            return await request(client)
        finally:
            await client.close()

    return asyncio.run(ask())


def _cmd_stats(args: argparse.Namespace) -> int:
    """Fetch a running supervisor's live metrics snapshot.

    Speaks the authenticated service protocol (a ``stats`` frame), so
    it works wherever a participant could connect — including supervisors
    with no ``--metrics-port`` exposed.
    """
    from repro.analysis import format_table

    snapshot = _ask_supervisor(args, lambda client: client.stats())
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
        host, port = args.connect
        print(format_table(rows, title=f"Supervisor metrics — {host}:{port}"))
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
    from repro.obs import Span, render_waterfall

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
        wires = artifact.get("spans") if isinstance(artifact, dict) else None
        if not isinstance(wires, list):
            print(f"trace: {args.dump} is not a flight-recorder dump "
                  f"(no spans list)", file=sys.stderr)
            return 2
        spans = []
        for wire in wires:
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
        trace_id = args.trace_id
        wires = _ask_supervisor(args, lambda client: client.trace(trace_id))
        spans = [Span.from_wire(wire) for wire in wires]
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


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine.cluster.worker import run_parsed

    return run_parsed(args)


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
        help="pool size for threads/processes, or the local worker "
        "daemons --engine cluster self-hosts (default: CPU count)",
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


def _host_port(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"must be HOST:PORT, got {value!r}")
    return host, int(port)


def _add_connect_args(
    parser: argparse.ArgumentParser, *, required: bool, help: str
) -> None:
    """``--connect HOST:PORT`` plus the dialling side's half of the
    security flags — a secret to prove, a certificate to pin — for the
    subcommands that ask a running supervisor (``stats``, ``trace``)."""
    parser.add_argument("--connect", required=required, default=None,
                        type=_host_port, metavar="HOST:PORT", help=help)
    parser.add_argument("--secret-file", default=None, dest="secret_file",
                        help="shared secret to authenticate with")
    parser.add_argument("--tls-cert", default=None, dest="tls_cert",
                        help="supervisor TLS certificate to pin")


def _engine_options(
    args: argparse.Namespace, service_plane: bool = False
) -> dict:
    """Cluster-plane options as ``get_executor`` keyword options.

    The security flags are collected regardless of ``--engine``:
    passing one to an in-process backend is an error the engine layer
    raises loudly — never a silently ignored flag — except under
    ``service_plane=True`` (``serve``/``loadgen``), where a non-cluster
    engine leaves them to the participant socket (see
    :func:`_service_security`) instead of erroring.
    """
    options: dict = {}
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
        from repro.obs import default_registry

        options["registry"] = default_registry()
        if getattr(args, "trace", False):
            options["trace"] = True
    return options


def _service_security(args: argparse.Namespace):
    """Security material for the participant-facing service socket."""
    from repro.net import SecurityConfig

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
        p.add_argument("--workload", choices=sorted(WORKLOAD_NAMES),
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
    _add_connect_args(p, required=True, help="supervisor address to query")
    p.add_argument("--json", action="store_true",
                   help="print the raw JSON snapshot")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "trace",
        help="render a distributed span timeline (ASCII waterfall) "
        "from a live supervisor or a flight-recorder dump",
    )
    p.add_argument("action", choices=("view",),
                   help="what to do with the trace")
    _add_connect_args(
        p, required=False,
        help="fetch spans from this supervisor over the authenticated "
        "service protocol",
    )
    p.add_argument("--trace-id", default=None, dest="trace_id",
                   help="trace id (printed as '[trace ID]' by --trace "
                   "runs; required with --connect)")
    p.add_argument("--dump", default=None, metavar="PATH",
                   help="render from a flight-recorder JSON artifact "
                   "instead of a live server")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "worker",
        help="cluster worker daemon: execute engine chunks for a "
        "coordinator (see README for the multi-host recipe)",
    )
    add_worker_args(p)
    p.set_defaults(fn=_cmd_worker)

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
    ``--tls-key`` without its cert, a cluster security flag on an
    in-process engine) and OS errors (a refused ``--connect``) surface
    as one clean line on stderr and exit code 2 — the same UX the
    ``worker`` daemon already had — not a traceback.
    """
    from repro.exceptions import ReproError

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
    except OSError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
