"""The worker's chunk protocol: one ``job`` frame in, one ``result`` frame out.

Synchronous and I/O-free, like the coordinator's ``Scheduler`` and the
service's ``SupervisorCore``: :func:`answer` is everything a worker does
with a chunk, and :func:`repro.engine.cluster.worker.run_worker` is the
shell that reads frames, runs it on a thread and writes what it returns.

A chunk is an ordered sequence of typed ``(fn, args, kwargs)`` job specs
(:mod:`repro.service.jobcodec`: data, never code), answered by one
``result`` frame of ordered per-job ``(ok, payload)`` outcomes.  A job
that raises, or whose result does not encode, is its own ``ok=False``
outcome; an envelope that does not decode, or outcomes past the payload
cap, make one chunk-level ``ok=False`` frame (:func:`failed`).  A worker
never dies because of a job.

Cacheable structs (the verification schemes) decode through one
process-wide LRU, so a population builds its scheme once per worker;
each result frame carries its chunk's hit/miss deltas, exact because a
worker runs one chunk at a time.  A traced chunk is timed as a
``worker.execute`` span under the coordinator's chunk span, kept in this
process's span buffer and exported on the result frame.
"""

from __future__ import annotations

import logging
import time

from repro.obs.logging import get_logger, log_event
from repro.obs.spans import Span, default_span_buffer
from repro.obs.trace import bind_trace
from repro.service.codec import JobFrame, ResultFrame
from repro.service.jobcodec import (
    SchemeCache,
    decode_cluster_chunk,
    decode_job,
    encode_cluster_outcomes,
    encode_cluster_payload,
)

_log = get_logger("cluster.worker")

# One scheme cache per worker process, shared by every chunk it runs:
# a population's scheme is built once, not once per chunk.
_scheme_cache = SchemeCache()


def execute_payload(raw: bytes) -> object:
    """Decode one typed job spec and run it (the worker-side hot path).

    The payload must decode to a ``(fn, args, kwargs)`` job spec whose
    ``fn`` is a registered callable; anything else — junk bytes, an
    unregistered name, the wrong shape — raises
    :class:`~repro.exceptions.CodecError`.  Cacheable schemes decode
    through this process's one :class:`SchemeCache`.
    """
    fn, args, kwargs = decode_job(raw, cache=_scheme_cache)
    return fn(*args, **kwargs)


def _error_text(exc: Exception) -> bytes:
    return encode_cluster_payload(f"{type(exc).__name__}: {exc}")


def _run(raw: bytes, throttle: float) -> tuple[bool, bytes]:
    """One job's outcome; its failure is its own, never its chunk's."""
    try:
        outcome = (True, encode_cluster_payload(execute_payload(raw)))
    except Exception as exc:
        outcome = (False, _error_text(exc))
    if throttle > 0.0:
        time.sleep(throttle)
    return outcome


def _log_chunk(frame: JobFrame, event: str, level: int, **fields) -> None:
    with bind_trace(frame.trace_id, frame.span_id):
        log_event(_log, event, level=level, chunk=frame.job_id, **fields)


def _export(span: Span | None, status: str = "ok", **attributes) -> tuple:
    if span is None:
        return ()
    default_span_buffer().add(span.finish(status, **attributes))
    return (span.to_wire(),)


def failed(frame: JobFrame, exc: Exception, spans: tuple = ()) -> ResultFrame:
    """The chunk-level error answer to ``frame``: ``exc`` as data."""
    return ResultFrame(
        job_id=frame.job_id, ok=False, payload=_error_text(exc), spans=spans
    )


def answer(
    frame: JobFrame, worker_id: str, throttle: float = 0.0
) -> tuple[ResultFrame, int]:
    """Run one chunk; return its one result frame and the jobs it answers
    (0 when the whole chunk failed).

    Jobs run in order, each isolated (:func:`_run`).  ``throttle``
    sleeps that many seconds after each job — an artificial straggler
    for benchmarks and scheduler tests, never set in production.
    """
    _log_chunk(frame, "chunk_executing", logging.DEBUG, worker=worker_id)
    span = None
    if frame.trace_id is not None:
        span = Span.begin(
            "worker.execute", trace_id=frame.trace_id, parent_id=frame.span_id
        )
        span.attributes.update(worker=worker_id, chunk=frame.job_id)
    started = time.perf_counter()
    before = _scheme_cache.stats()
    try:
        outcomes = [
            _run(raw, throttle) for raw in decode_cluster_chunk(frame.payload)
        ]
        payload = encode_cluster_outcomes(outcomes)
    except Exception as exc:
        # The envelope did not decode, or the answer is past the cap.
        _log_chunk(
            frame, "chunk_failed", logging.WARNING, worker=worker_id,
            error=f"{type(exc).__name__}: {exc}",
        )
        spans = _export(span, f"error:{type(exc).__name__}")
        return failed(frame, exc, spans), 0
    after = _scheme_cache.stats()
    _log_chunk(
        frame, "chunk_executed", logging.DEBUG, worker=worker_id,
        jobs=len(outcomes),
        elapsed_s=round(time.perf_counter() - started, 6),
    )
    return ResultFrame(
        job_id=frame.job_id,
        ok=True,
        payload=payload,
        spans=_export(span, jobs=len(outcomes)),
        cache_hits=after["hits"] - before["hits"],
        cache_misses=after["misses"] - before["misses"],
    ), len(outcomes)
