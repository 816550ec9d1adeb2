"""Tests for the pluggable execution engine (repro.engine).

The load-bearing property is *backend parity*: for a fixed master
seed, the serial, thread and process backends must produce identical
:class:`~repro.grid.report.DetectionReport`'s — same verdicts, same
ledgers, same ordering — for every scheme.  Everything the engine
ships to workers must also survive a pickle round trip.
"""

import pickle

import pytest

from repro.analysis.montecarlo import estimate_escape_rate
from repro.analysis.sweep import sweep
from repro.baselines import (
    DoubleCheckScheme,
    HardenedProbeScheme,
    NaiveSamplingScheme,
    RingerScheme,
)
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme, NICBSScheme
from repro.engine import (
    ProcessPoolExecutor,
    SchemeBatch,
    SchemeJob,
    SerialExecutor,
    ThreadPoolExecutor,
    derive_seed,
    get_executor,
    run_scheme_jobs,
    split_batches,
)
from repro.exceptions import EngineError
from repro.grid.simulation import run_population
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

ALL_SCHEMES = [
    CBSScheme(n_samples=8),
    CBSScheme(n_samples=8, subtree_height=2),
    NICBSScheme(n_samples=8),
    NaiveSamplingScheme(8),
    DoubleCheckScheme(replication=2),
    RingerScheme(n_ringers=3),
    HardenedProbeScheme(n_probes=4),
]


def report_fingerprint(report) -> bytes:
    """Canonical byte encoding of everything a report asserts.

    Uses ``repr`` rather than ``pickle`` so the encoding depends only
    on *values*: pickle memoizes equal strings by object identity, and
    results that crossed a process boundary share fewer string objects
    than results built in-process.  ``repr`` of floats is exact
    (shortest round-trip), so this still catches any bit-level drift.
    """
    return repr(
        {
            "scheme": report.scheme,
            "participants": [
                (
                    p.participant,
                    p.behavior,
                    p.honesty_ratio,
                    p.accepted,
                    p.reason.value,
                    sorted(p.participant_ledger.as_dict().items()),
                    sorted(p.supervisor_ledger_delta.as_dict().items()),
                )
                for p in report.participants
            ],
            "supervisor": sorted(report.supervisor_ledger.as_dict().items()),
        }
    ).encode("utf-8")


def population(scheme, engine, workers=None, batch_size=None):
    return run_population(
        RangeDomain(0, 240),
        PasswordSearch(),
        scheme,
        behaviors=[HonestBehavior(), SemiHonestCheater(0.6)],
        n_participants=6,
        seed=3,
        engine=engine,
        workers=workers,
        batch_size=batch_size,
    )


# ----------------------------------------------------------------------
# Executor protocol
# ----------------------------------------------------------------------


class TestExecutors:
    def test_registry_names(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("threads"), ThreadPoolExecutor)
        assert isinstance(get_executor("processes"), ProcessPoolExecutor)

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert get_executor(ex) is ex

    def test_unknown_engine_rejected(self):
        with pytest.raises(EngineError):
            get_executor("gpu")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(EngineError):
            ThreadPoolExecutor(workers=0)

    def test_map_preserves_order(self):
        with ThreadPoolExecutor(workers=4) as ex:
            assert ex.map(str, range(100)) == [str(i) for i in range(100)]

    def test_map_after_close_rejected(self):
        ex = ThreadPoolExecutor(workers=1)
        ex.close()
        with pytest.raises(EngineError):
            ex.map(str, [1])

    def test_empty_map(self):
        with ThreadPoolExecutor(workers=1) as ex:
            assert ex.map(str, []) == []


def _worker_pid(_item) -> int:
    import os

    return os.getpid()


class TestPrewarm:
    """prewarm() moves pool startup off the first map's critical path."""

    def test_serial_prewarm_is_a_noop(self):
        SerialExecutor().prewarm()  # no pool; must not raise

    def test_threads_prewarm_spawns_and_map_reuses_the_pool(self):
        with ThreadPoolExecutor(workers=2) as ex:
            assert ex._pool is None  # lazy until warmed
            ex.prewarm()
            pool = ex._pool
            assert pool is not None
            ex.prewarm()  # idempotent
            assert ex._pool is pool
            assert ex.map(str, [1, 2, 3]) == ["1", "2", "3"]
            assert ex._pool is pool

    def test_processes_prewarm_spawns_workers_up_front(self):
        with ProcessPoolExecutor(workers=2) as ex:
            ex.prewarm()
            pool = ex._pool
            assert len(pool._processes) == 2  # all workers forked now
            pids = set(ex.map(_worker_pid, range(16)))
            assert pids <= set(pool._processes)  # mapped on the warm pool
            assert ex._pool is pool

    def test_prewarm_after_close_rejected(self):
        ex = ThreadPoolExecutor(workers=1)
        ex.close()
        with pytest.raises(EngineError):
            ex.prewarm()


# ----------------------------------------------------------------------
# Seeds and batching
# ----------------------------------------------------------------------


class TestSeedsAndBatches:
    def test_derive_seed_matches_historical_rule(self):
        assert derive_seed(5, 3) == 5 * 1_000_003 + 3

    def test_derive_seed_injective_over_population(self):
        seen = {derive_seed(s, i) for s in range(4) for i in range(500)}
        assert len(seen) == 4 * 500

    def test_derive_seed_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    def test_split_batches_partitions_in_order(self):
        jobs = list(range(10))
        chunks = split_batches(jobs, 4)
        assert chunks == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]

    def test_split_batches_rejects_bad_size(self):
        with pytest.raises(EngineError):
            split_batches([1], 0)

    def test_run_batch_default_matches_run(self):
        scheme = CBSScheme(n_samples=6)
        task = TaskAssignment("t", RangeDomain(0, 64), PasswordSearch())
        jobs = [
            SchemeJob(task, SemiHonestCheater(0.5), seed=derive_seed(2, i))
            for i in range(4)
        ]
        batched = scheme.run_batch(jobs)
        singles = [
            scheme.run(j.assignment, j.behavior, seed=j.seed) for j in jobs
        ]
        assert [pickle.dumps(r) for r in batched] == [
            pickle.dumps(r) for r in singles
        ]

    def test_batch_size_never_changes_results(self):
        scheme = CBSScheme(n_samples=6)
        reports = [
            report_fingerprint(
                population(scheme, engine="threads", workers=2, batch_size=bs)
            )
            for bs in (1, 2, 5)
        ]
        assert len(set(reports)) == 1


# ----------------------------------------------------------------------
# Backend parity (the acceptance property)
# ----------------------------------------------------------------------


class TestBackendParity:
    @pytest.mark.parametrize(
        "scheme", ALL_SCHEMES, ids=lambda s: s.name
    )
    def test_thread_backend_identical(self, scheme):
        serial = report_fingerprint(population(scheme, engine="serial"))
        threads = report_fingerprint(
            population(scheme, engine="threads", workers=3)
        )
        assert serial == threads

    def test_process_backend_identical_for_every_scheme(self):
        # One warm pool for all schemes keeps this test fast.
        with ProcessPoolExecutor(workers=2) as pool:
            for scheme in ALL_SCHEMES:
                serial = report_fingerprint(population(scheme, engine="serial"))
                procs = report_fingerprint(population(scheme, engine=pool))
                assert serial == procs, scheme.name

    def test_montecarlo_parity(self):
        task = TaskAssignment("mc", RangeDomain(0, 100), PasswordSearch())
        estimates = [
            estimate_escape_rate(
                CBSScheme(n_samples=2),
                task,
                lambda trial: SemiHonestCheater(0.7),
                n_trials=60,
                seed0=11,
                engine=engine,
                workers=2,
            )
            for engine in ("serial", "threads", "processes")
        ]
        assert len({e.successes for e in estimates}) == 1
        assert len({(e.low, e.high) for e in estimates}) == 1

    def test_sweep_parity_and_ordering(self):
        grid = {"a": [1, 2, 3], "b": [10, 20]}
        rows_serial = sweep(grid, _sweep_row)
        rows_threads = sweep(grid, _sweep_row, engine="threads", workers=3)
        rows_procs = sweep(grid, _sweep_row, engine="processes", workers=2)
        assert rows_serial == rows_threads == rows_procs
        # None rows dropped, order preserved.
        assert [r["a"] for r in rows_serial] == [1, 1, 3, 3]


def _sweep_row(a, b):
    if a == 2:
        return None
    return {"product": a * b}


# ----------------------------------------------------------------------
# Pickling (what the process backend depends on)
# ----------------------------------------------------------------------


class TestPickling:
    def test_scheme_run_result_round_trip(self):
        scheme = CBSScheme(n_samples=8)
        task = TaskAssignment("p", RangeDomain(0, 128), PasswordSearch())
        result = scheme.run(task, SemiHonestCheater(0.5), seed=9)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.outcome.accepted == result.outcome.accepted
        assert clone.outcome.reason == result.outcome.reason
        assert (
            clone.participant_ledger.as_dict()
            == result.participant_ledger.as_dict()
        )
        assert (
            clone.supervisor_ledger.as_dict()
            == result.supervisor_ledger.as_dict()
        )
        assert clone.work.leaf_payloads == result.work.leaf_payloads
        assert clone.work.honest_indices == result.work.honest_indices
        assert pickle.dumps(clone) == pickle.dumps(result)

    def test_scheme_batch_round_trip(self):
        batch = SchemeBatch(
            scheme=NICBSScheme(n_samples=4),
            jobs=(
                SchemeJob(
                    TaskAssignment("b", RangeDomain(0, 32), PasswordSearch()),
                    HonestBehavior(),
                    seed=derive_seed(1, 0),
                ),
            ),
        )
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.scheme.name == batch.scheme.name
        assert clone.jobs[0].seed == batch.jobs[0].seed
        results = clone.scheme.run_batch(clone.jobs)
        assert results[0].outcome.accepted

    def test_run_scheme_jobs_empty(self):
        assert run_scheme_jobs(CBSScheme(4), [], engine="threads") == []

    def test_run_scheme_jobs_rejects_zero_batch_size(self):
        task = TaskAssignment("z", RangeDomain(0, 16), PasswordSearch())
        jobs = [SchemeJob(task, HonestBehavior(), seed=0)]
        with pytest.raises(EngineError):
            run_scheme_jobs(CBSScheme(2), jobs, batch_size=0)

    def test_caller_pool_left_open_after_dispatch(self):
        task = TaskAssignment("w", RangeDomain(0, 16), PasswordSearch())
        jobs = [SchemeJob(task, HonestBehavior(), seed=0)]
        with ThreadPoolExecutor(workers=2) as pool:
            run_scheme_jobs(CBSScheme(2), jobs, engine=pool)
            # The warm pool must survive the call for reuse.
            assert pool.map(str, [1, 2]) == ["1", "2"]
