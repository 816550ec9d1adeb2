"""What a command line reads before it loads a plane.

The ``--engine`` and ``--workload`` choices, the worker's heartbeat
default and the worker daemon's flags.  This module imports nothing,
so ``repro.cli`` builds its parser without loading the engine, the
service codec or the cluster plane, which read these values from here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import argparse

#: Registry names accepted by :func:`repro.engine.get_executor`.
ENGINE_NAMES = ("serial", "threads", "processes", "cluster")

#: The work-unit catalogue's names (``repro.service.codec.WORKLOADS``
#: maps each to its :mod:`repro.tasks.workloads` class).
WORKLOAD_NAMES = (
    "PasswordSearch", "MoleculeScreening", "SignalSearch", "MersenneCheck",
    "MonteCarloEstimate", "OptimizationSearch", "FactoringTask",
)

#: Default seconds between a cluster worker's liveness beacons — the
#: one value spawn-local daemons are started with and an operator-run
#: ``repro.cli worker`` beats at.
DEFAULT_HEARTBEAT_INTERVAL = 0.5


def add_worker_args(parser: argparse.ArgumentParser) -> None:
    """The worker daemon's flags — shared by the CLI's ``worker``
    subcommand and :mod:`repro.engine.cluster.worker`'s standalone
    parser, so the two entry points cannot drift."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="coordinator host")
    parser.add_argument("--port", type=int, required=True,
                        help="coordinator port")
    parser.add_argument("--id", default=None, dest="worker_id",
                        help="worker id (default: pid-based)")
    parser.add_argument("--heartbeat", type=float,
                        default=DEFAULT_HEARTBEAT_INTERVAL,
                        dest="heartbeat_interval",
                        help="seconds between liveness beacons "
                        "(default: %(default)s)")
    parser.add_argument("--throttle", type=float, default=0.0,
                        help="artificial per-job delay in seconds "
                        "(straggler injection for benches/tests)")
    parser.add_argument("--preload", action="append", default=None,
                        metavar="MODULE", dest="preload",
                        help="import this module before serving (repeat "
                        "for more) — the hook for registering extra "
                        "jobcodec structs/callables on the worker")
    parser.add_argument("--connect-retry", type=float, default=0.0,
                        dest="connect_retry_s",
                        help="seconds to keep re-dialling a coordinator "
                        "that is not accepting yet (default: fail fast)")
    parser.add_argument("--secret-file", default=None, dest="secret_file",
                        help="path to the coordinator's shared secret; "
                        "the worker authenticates (HMAC-SHA256 "
                        "challenge/response) before its hello frame")
    parser.add_argument("--tls-cert", default=None, dest="tls_cert",
                        help="path to the coordinator's TLS certificate "
                        "(pinned as the trust anchor; enables TLS)")
    parser.add_argument("--trace", action="store_true",
                        help="emit structured JSON log records (DEBUG) "
                        "carrying the trace/span ids each chunk arrived "
                        "with — the worker half of a --trace run")
    parser.add_argument("--metrics-port", type=int, default=None,
                        dest="metrics_port",
                        help="serve this worker's /metrics (Prometheus "
                        "text), /stats (JSON) and /healthz + /readyz "
                        "probes on this localhost port (0 picks a free "
                        "one)")
    parser.add_argument("--flight-dir", default=None, dest="flight_dir",
                        help="arm the flight recorder: dump a JSON "
                        "artifact of recent events + spans into this "
                        "directory on crash, SIGUSR1, and clean "
                        "shutdown")
