"""Pluggable execution engine: batched, parallel scheme runs.

The paper's setting is population-scale — a supervisor farming
``D = |domain|`` tasks out to thousands of participants — but a
reproduction that executes every participant in a Python for-loop is
bound to one core.  This package decouples *what* runs (scheme
protocol runs, Merkle subtree builds) from *where* it runs, behind one
small protocol:

:class:`~repro.engine.executor.Executor`
    ``map(fn, items) -> list`` with results in submission order, plus
    ``close()``/context-manager lifetime.  Three backends:

    * ``serial`` — :class:`~repro.engine.executor.SerialExecutor`, the
      reference loop (zero overhead, always available);
    * ``threads`` — :class:`~repro.engine.executor.ThreadPoolExecutor`,
      no pickling constraints, wins when the work releases the GIL;
    * ``processes`` —
      :class:`~repro.engine.executor.ProcessPoolExecutor`, true
      multi-core for CPU-bound populations; work units must pickle.

:class:`~repro.engine.jobs.SchemeJob` / :func:`~repro.engine.jobs.run_scheme_jobs`
    The batching layer.  A job is ``(assignment, behavior, seed)``;
    jobs are chunked into picklable
    :class:`~repro.engine.jobs.SchemeBatch` units executed via
    :meth:`~repro.core.scheme.VerificationScheme.run_batch`, then
    flattened back in order.  Chunking affects only scheduling, never
    results.

:func:`~repro.engine.seeding.derive_seed`
    The grid simulator's ``seed * 1_000_003 + index`` child-seed rule
    (the Monte-Carlo estimators keep their historical ``seed0 +
    trial``).  Because every run's randomness is a pure function of
    its job seed, fixed before dispatch, all backends produce
    byte-identical :class:`~repro.grid.report.DetectionReport`'s — the
    parity tests pin this.

:class:`~repro.engine.cluster.ClusterExecutor` (``"cluster"``)
    The distributed backend: a coordinator shards picklable jobs
    across remote worker daemons over TCP (heartbeats, bounded
    in-flight windows, requeue from dead/slow workers, at-most-once
    results).  Scheduling is throughput-adaptive — per-worker EWMA
    rates size each outgoing chunk, under one fixed policy — and each
    chunk's outcomes come home in one ``result`` frame; each worker
    daemon is one serial process.  See
    :mod:`repro.engine.cluster`.

Every population-shaped entry point threads an ``engine=`` option down
here: ``GridSimulation`` / ``run_population`` (one job per
participant), ``analysis.montecarlo`` (one job per trial),
``analysis.sweep`` (one job per grid point) and the CLI
(``--engine serial|threads|processes|cluster --workers N``).
"""

from repro import _reexport

_reexport(__name__, {
    "repro.engine.executor": (
        "ENGINE_NAMES Executor SerialExecutor ThreadPoolExecutor ProcessPoolExecutor "
        "default_workers get_executor resolved_executor"
    ),
    "repro.engine.cluster.coordinator": "ClusterExecutor",
    "repro.engine.jobs": (
        "SchemeJob SchemeBatch execute_batch run_scheme_jobs split_batches"
    ),
    "repro.engine.seeding": "derive_seed",
})

__all__ = [
    "ENGINE_NAMES",
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "ClusterExecutor",
    "default_workers",
    "get_executor",
    "resolved_executor",
    "SchemeJob",
    "SchemeBatch",
    "execute_batch",
    "run_scheme_jobs",
    "split_batches",
    "derive_seed",
]
