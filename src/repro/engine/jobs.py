"""Batch jobs as data: how scheme runs travel to pooled workers.

A :class:`SchemeJob` is one protocol run — ``(assignment, behavior,
seed)`` — and a :class:`SchemeBatch` bundles a scheme with a contiguous
chunk of jobs.  :func:`execute_batch` is the module-level entry point
every pooled backend dispatches; it defers to
:meth:`VerificationScheme.run_batch`, so schemes may override batching
(e.g. to share precomputed state across a chunk) without the engine
knowing.

This module is the spec-building seam between the engine and the
wire: ``execute_batch`` is a registered jobcodec callable
(``"engine.execute_batch"``) and :class:`SchemeJob`/:class:`SchemeBatch`
are registered structs (:mod:`repro.service.jobcodec`), so the exact
``SchemeBatch`` objects the serial/threads/processes backends call
directly are what the cluster backend encodes as typed job specs —
one unit of work, every backend, byte-identical results.  On the
cluster path the scheme inside a batch is *cacheable*: a worker
decodes it once per (scheme name, canonical params) and reuses it
across all chunks of a population.

:func:`run_scheme_jobs` is the one dispatch path every layer uses:
chunk the jobs, map the batches over an executor, flatten in order.
Chunking never affects results — only how work is distributed — so the
serial, thread, process and cluster backends return identical result
lists: lean ones, whose ``work`` is a two-int
:class:`~repro.cheating.strategies.WorkSummary` (see
:func:`execute_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.cheating.strategies import Behavior
from repro.engine.executor import Executor, SerialExecutor, resolved_executor
from repro.exceptions import EngineError
from repro.tasks.result import TaskAssignment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.scheme import SchemeRunResult, VerificationScheme


@dataclass(frozen=True)
class SchemeJob:
    """One scheme execution: a task, a behaviour and its derived seed."""

    assignment: TaskAssignment
    behavior: Behavior
    seed: int = 0


@dataclass(frozen=True)
class SchemeBatch:
    """A serializable unit of work: one scheme, one chunk of jobs.

    Registered with the jobcodec (struct ``"scheme_batch"``), so a
    batch crosses the cluster wire as typed data — the scheme travels
    as name + canonical params, never as code.
    """

    scheme: "VerificationScheme"
    jobs: tuple[SchemeJob, ...]


def execute_batch(batch: SchemeBatch) -> list["SchemeRunResult"]:
    """Run one batch (the unit every backend executes).

    Each result's ground-truth ``work`` is reduced to its
    :class:`~repro.cheating.strategies.WorkSummary` here, on every
    backend alike: the leaf vector stays in the process that computed
    it, and what comes back is O(m) per participant whatever ``|D|``
    is.  Call ``scheme.run()`` directly for the full record.
    """
    results = batch.scheme.run_batch(batch.jobs)
    for result in results:
        if result.work is not None:
            result.work = result.work.summary()
    return results


def split_batches(
    jobs: Sequence[SchemeJob], batch_size: int
) -> list[tuple[SchemeJob, ...]]:
    """Chunk ``jobs`` into contiguous tuples of ``<= batch_size``."""
    if batch_size < 1:
        raise EngineError(f"batch_size must be >= 1, got {batch_size}")
    return [
        tuple(jobs[start : start + batch_size])
        for start in range(0, len(jobs), batch_size)
    ]


def _auto_batch_size(n_jobs: int, executor: Executor) -> int:
    """Aim for ~4 batches per worker so stragglers rebalance.

    The cluster backend gets ~16 batches per worker instead: its
    coordinator regroups map items into throughput-sized chunks per
    worker, and that adaptation needs finer-grained items to work
    with.  Chunking affects scheduling only, never results.
    """
    if isinstance(executor, SerialExecutor):
        return max(1, n_jobs)
    if executor.name == "cluster":
        return max(1, math.ceil(n_jobs / (executor.workers * 16)))
    return max(1, math.ceil(n_jobs / (executor.workers * 4)))


def run_scheme_jobs(
    scheme: "VerificationScheme",
    jobs: Sequence[SchemeJob],
    engine: str | Executor = "serial",
    workers: int | None = None,
    batch_size: int | None = None,
) -> list["SchemeRunResult"]:
    """Run every job through ``scheme`` on the chosen backend.

    Results are returned in job order regardless of backend, and are
    bit-for-bit identical across backends for a fixed job list (each
    run's randomness is fully determined by its job's seed).  When
    ``engine`` is a name, the executor is created for this call and
    closed afterwards; pass an :class:`Executor` instance to reuse a
    warm pool across calls.
    """
    with resolved_executor(engine, workers) as executor:
        if batch_size is None:
            batch_size = _auto_batch_size(len(jobs), executor)
        chunks = split_batches(list(jobs), batch_size)
        batches = [SchemeBatch(scheme=scheme, jobs=chunk) for chunk in chunks]
        results: list["SchemeRunResult"] = []
        for batch_results in executor.map(execute_batch, batches):
            results.extend(batch_results)
        return results
