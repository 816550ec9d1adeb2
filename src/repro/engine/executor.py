"""Execution backends: one protocol, four implementations.

An :class:`Executor` maps a function over a list of items and returns
the results *in submission order* — that ordering guarantee is what
lets the grid simulator and the Monte-Carlo estimators produce
byte-identical output on every backend.

* :class:`SerialExecutor` — plain in-process loop; zero overhead, the
  reference semantics every other backend must match.
* :class:`ThreadPoolExecutor` — ``concurrent.futures`` threads.  No
  pickling constraints; wins when the mapped function releases the GIL
  (hashlib does for large buffers) or the workload is I/O-bound.
* :class:`ProcessPoolExecutor` — ``concurrent.futures`` processes.
  Requires the mapped function to be a module-level callable and every
  item/result to be picklable; wins on CPU-bound populations once the
  per-item work amortizes the IPC cost.
* :class:`~repro.engine.cluster.ClusterExecutor` (in
  :mod:`repro.engine.cluster`, built by name here) — worker daemons
  over TCP; jobs travel as typed specs, so only jobcodec-registered
  callables can be mapped.

Pools are created lazily on first :meth:`Executor.map` and reused until
:meth:`Executor.close`, so one executor can serve a whole sweep without
re-spawning workers per population.  All four are context managers.
"""

from __future__ import annotations

import abc
import contextlib
import os
from concurrent import futures as _futures
from typing import Any, Callable, Iterator, Sequence

from repro.exceptions import EngineError
from repro.obs.metrics import default_registry
from repro.obs.spans import span as _span
from repro.obs.trace import current_trace

#: Registry names accepted by :func:`get_executor`.
ENGINE_NAMES = ("serial", "threads", "processes", "cluster")

# Engine instruments live on the process-global registry (an executor
# has no natural owner to scope to) and are created on first map(),
# not at import.  Metering is per-map, not per-item: one counter add
# for a whole batch keeps the engine hot path unmetered, and each
# engine name's two series are bound once, not per map.
_engine_series: dict[str, tuple] = {}


def _series_for(engine: str) -> tuple:
    series = _engine_series.get(engine)
    if series is None:
        tasks = default_registry().counter(
            "repro_engine_tasks_total",
            "Engine map items, by backend and event",
            ("engine", "event"),
        )
        series = _engine_series[engine] = (
            tasks.labels(engine=engine, event="submitted"),
            tasks.labels(engine=engine, event="completed"),
        )
    return series


@contextlib.contextmanager
def _metered_map(engine: str, n_items: int) -> Iterator[None]:
    """Count one map() batch: items submitted, then completed.

    When the caller has a trace bound, the whole batch is also
    bracketed by an ``engine.map`` span; untraced maps pay zero span
    cost (the ledger's ``obs.tracing_overhead_share`` row reads what a
    traced one pays).
    """
    submitted, completed = _series_for(engine)
    submitted.inc(n_items)
    if current_trace() is not None:
        with _span("engine.map", attributes={"engine": engine, "items": n_items}):
            yield
    else:
        yield
    completed.inc(n_items)


def default_workers() -> int:
    """Worker count matching the CPUs this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class Executor(abc.ABC):
    """Ordered-map execution backend (the engine protocol)."""

    #: Registry name: one of :data:`ENGINE_NAMES`.
    name: str = "executor"

    @property
    @abc.abstractmethod
    def workers(self) -> int:
        """Degree of parallelism this backend aims for (>= 1)."""

    @abc.abstractmethod
    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[Any]:
        """Apply ``fn`` to every item; results in submission order."""

    @property
    def futures_pool(self) -> _futures.Executor | None:
        """The underlying ``concurrent.futures`` pool, if one exists.

        This is the asyncio bridge: the grid service hands this pool to
        ``loop.run_in_executor`` so CPU-bound verification leaves the
        event loop without a second layer of worker management.
        ``None`` means the backend has no pool (serial) and callers
        should run the work inline.
        """
        return None

    def prewarm(self) -> None:
        """Spawn pooled workers ahead of the first :meth:`map`.

        Pools are lazy by default, which is right for one-shot use but
        wrong for a long-lived daemon: the first chunk to arrive would
        pay the full pool startup (process fork + interpreter init) on
        the request path.  Backends with a pool override this to spawn
        and exercise every worker up front; the default is a no-op so
        pool-less backends (serial, cluster coordinator) stay lazy.
        """

    def close(self) -> None:
        """Release pooled workers (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """The reference backend: a plain loop in the calling thread."""

    name = "serial"

    @property
    def workers(self) -> int:
        return 1

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[Any]:
        with _metered_map(self.name, len(items)):
            return [fn(item) for item in items]


def _noop() -> None:
    """Module-level no-op task (picklable) used by :meth:`prewarm`."""


class _PooledExecutor(Executor):
    """Shared lazy-pool plumbing for the thread/process backends."""

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        self._workers = workers or default_workers()
        self._pool: _futures.Executor | None = None
        self._closed = False

    @property
    def workers(self) -> int:
        return self._workers

    @abc.abstractmethod
    def _make_pool(self) -> _futures.Executor:
        """Build the underlying ``concurrent.futures`` pool."""

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[Any]:
        if self._closed:
            raise EngineError(f"{self.name} executor already closed")
        if not items:
            return []
        if self._pool is None:
            self._pool = self._make_pool()
        with _metered_map(self.name, len(items)):
            return list(self._pool.map(fn, items))

    @property
    def futures_pool(self) -> _futures.Executor:
        if self._closed:
            raise EngineError(f"{self.name} executor already closed")
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def prewarm(self) -> None:
        """Spawn the pool and run one no-op on every worker slot.

        ``concurrent.futures`` pools spawn workers on demand, so merely
        creating the pool leaves process startup on the first real
        task's critical path.  Submitting ``workers`` no-ops and
        waiting for all of them forces every worker fully up (for
        processes: forked, interpreter initialised, ready on the call
        queue) before this returns.  Idempotent and cheap on a pool
        that is already warm.
        """
        if self._closed:
            raise EngineError(f"{self.name} executor already closed")
        if self._pool is None:
            self._pool = self._make_pool()
        done = [self._pool.submit(_noop) for _ in range(self._workers)]
        for future in done:
            future.result()

    def close(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadPoolExecutor(_PooledExecutor):
    """Thread-backed executor; no pickling constraints."""

    name = "threads"

    def _make_pool(self) -> _futures.Executor:
        return _futures.ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-engine"
        )


class ProcessPoolExecutor(_PooledExecutor):
    """Process-backed executor for CPU-bound batches.

    Mapped functions must be module-level and all items/results
    picklable — the engine's batch jobs
    (:func:`repro.engine.jobs.execute_batch`) are designed for exactly
    this constraint.
    """

    name = "processes"

    def _make_pool(self) -> _futures.Executor:
        return _futures.ProcessPoolExecutor(max_workers=self._workers)


def get_executor(
    engine: str | Executor = "serial",
    workers: int | None = None,
    **options: object,
) -> Executor:
    """Resolve an engine spec to an :class:`Executor` instance.

    ``engine`` may be an existing executor (returned unchanged, so
    pools can be shared across calls — ``workers`` is then ignored) or
    one of the registry names ``"serial"``, ``"threads"``,
    ``"processes"``, ``"cluster"``.  For ``"cluster"`` the executor
    self-hosts ``workers`` local worker daemons, and ``options`` are
    forwarded to :class:`~repro.engine.cluster.ClusterExecutor` —
    liveness (``job_timeout``, heartbeats, …) and the transport
    security material (``secret_file``/``tls_cert``/``tls_key``,
    README "Security model") reach the coordinator without every
    dispatch site learning cluster-specific arguments.
    The in-process backends take no options; passing any raises
    :class:`EngineError` rather than silently ignoring a knob.  Build
    a ``ClusterExecutor`` directly to attach external workers on
    other hosts.
    """
    if isinstance(engine, Executor):
        if options:
            raise EngineError(
                "engine options cannot be applied to an existing executor "
                f"instance: {sorted(options)}"
            )
        return engine
    if engine not in ENGINE_NAMES:
        raise EngineError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES} "
            "or an Executor instance"
        )
    if engine == "cluster":
        # Imported lazily: the cluster backend rides the service-layer
        # codec, which the in-process backends must not depend on.
        from repro.engine.cluster.coordinator import ClusterExecutor

        try:
            return ClusterExecutor(workers=workers, **options)  # type: ignore[arg-type]
        except TypeError as exc:
            raise EngineError(f"bad cluster engine options: {exc}") from exc
    if options:
        raise EngineError(
            f"engine {engine!r} accepts no extra options, got "
            f"{sorted(options)}"
        )
    if engine == "serial":
        return SerialExecutor()
    if engine == "threads":
        return ThreadPoolExecutor(workers=workers)
    return ProcessPoolExecutor(workers=workers)


@contextlib.contextmanager
def resolved_executor(
    engine: str | Executor = "serial",
    workers: int | None = None,
    **options: object,
) -> Iterator[Executor]:
    """Resolve an engine spec for one scoped use.

    The single ownership rule for every dispatch site: an executor
    created here (from a name) is closed on exit; an :class:`Executor`
    instance passed in is the caller's warm pool and is left open.
    ``options`` pass through to :func:`get_executor`.
    """
    executor = get_executor(engine, workers, **options)
    try:
        yield executor
    finally:
        if executor is not engine:
            executor.close()
