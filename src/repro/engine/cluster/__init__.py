"""Cluster engine: a distributed :class:`Executor` over remote workers.

The fourth engine backend.  ``map(fn, items)`` with ordered results is
the whole protocol a backend must honour, so a coordinator that ships
typed job-spec chunks (:mod:`repro.service.jobcodec` — registered
callable names plus schema-checked arguments, data not code) to
worker daemons over TCP (the service layer's frame codec, extended
with ``hello``/``heartbeat``/``job``/``result``/``bye``
frames) slots in behind :func:`repro.engine.executor.get_executor`
with zero call-site changes — ``GridSimulation``, the Monte-Carlo
estimators, sweeps, the supervisor service and every ``--engine`` CLI
flag gain multi-host dispatch by naming ``"cluster"``.

* :class:`~repro.engine.cluster.coordinator.ClusterExecutor` — the
  coordinator: worker registry, heartbeat/EOF liveness, bounded
  per-worker in-flight windows, **throughput-adaptive chunk sizing**
  (per-worker EWMA jobs/sec decide how many jobs each outgoing chunk
  carries — one fixed policy, see
  :mod:`repro.engine.cluster.scheduler`), requeue of chunks from
  dead or slow workers with at-most-once result acceptance (chunk ids
  are single-use, so a straggler's late result is dropped exactly
  once), ordered reassembly.
* :mod:`repro.engine.cluster.worker` — the worker daemon, one serial
  process: registers, decodes job specs through a bounded LRU scheme
  cache (one scheme construction per population, not per chunk),
  executes one chunk at a time, answers each chunk with its per-job
  outcomes in one ``result`` frame, and never dies because of a job.
  A host uses its cores by running one daemon per core.

Parity: a cluster run produces byte-identical
:class:`~repro.grid.report.DetectionReport`'s to the serial backend —
including under worker kills mid-population — because every job is a
pure function of its payload and results are accepted at most once.

Security: jobs are data, never code — the typed codec only resolves
registered callable names and schema-checked arguments, so the
coordinator port is not a remote-code-execution surface.  The plane
still rides the shared :mod:`repro.net` transport layer —
``secret_file`` enables the mutual HMAC handshake on every connection
(an unauthenticated peer never reaches the job decoder),
``tls_cert``/``tls_key`` put the coordinator behind
pinned-certificate TLS (README "Security model").
"""

from repro import _reexport

_reexport(__name__, {
    "repro.engine.cluster.coordinator": "ClusterExecutor",
    "repro.engine.cluster.worker": "run_worker",
})

__all__ = ["ClusterExecutor", "run_worker"]
