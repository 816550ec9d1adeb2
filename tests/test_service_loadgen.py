"""Tests for the participant load generator (repro.service.loadgen).

Pins the acceptance claim of the service layer: a loadgen run over
real TCP with mixed honest/cheating participants at a fixed seed
produces the same per-participant outcomes as the equivalent
synchronous ``GridSimulation``.
"""

import asyncio
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme, NICBSScheme
from repro.engine import run_scheme_jobs
from repro.exceptions import ProtocolError
from repro.grid import GridSimulation, SimulationConfig
from repro.service import (
    ServiceConfig,
    percentile,
    run_loadgen,
    run_service_loadgen,
)
from repro.tasks import PasswordSearch, RangeDomain

N_PARTICIPANTS = 8
BEHAVIORS = [HonestBehavior(), SemiHonestCheater(0.5)]


def service_config(protocol: str = "ni-cbs") -> ServiceConfig:
    return ServiceConfig(
        domain=RangeDomain(0, 1 << 9),
        protocol=protocol,
        n_samples=12,
        n_participants=N_PARTICIPANTS,
        seed=5,
    )


def grid_report(protocol: str):
    scheme = CBSScheme(12) if protocol == "cbs" else NICBSScheme(12)
    sim = GridSimulation(
        SimulationConfig(
            domain=RangeDomain(0, 1 << 9),
            function=PasswordSearch(),
            scheme=scheme,
            n_participants=N_PARTICIPANTS,
            behaviors=BEHAVIORS,
            seed=5,
        )
    )
    jobs = sim.jobs()
    results = run_scheme_jobs(scheme, jobs)
    return sim.run(), {
        job.assignment.task_id: r.outcome for job, r in zip(jobs, results)
    }


class TestTCPParity:
    @pytest.mark.parametrize("protocol", ["ni-cbs", "cbs"])
    def test_loadgen_over_tcp_matches_grid_simulation(self, protocol):
        report, stats, server = asyncio.run(run_service_loadgen(
            service_config(protocol), BEHAVIORS, transport="tcp"
        ))
        sync_report, expected_outcomes = grid_report(protocol)

        # Per-task VerificationOutcomes are identical, verdict for
        # verdict, to the synchronous simulation.
        assert server.outcomes == expected_outcomes

        # The report rows agree on everything the supervisor decides
        # and on client-side ground truth.
        assert len(report.participants) == N_PARTICIPANTS
        for service_row, sync_row in zip(
            report.participants, sync_report.participants
        ):
            assert service_row.participant == sync_row.participant
            assert service_row.behavior == sync_row.behavior
            assert service_row.honesty_ratio == sync_row.honesty_ratio
            assert service_row.accepted == sync_row.accepted
            assert service_row.reason == sync_row.reason
        assert report.detection_rate == sync_report.detection_rate
        assert report.honest_rejected == 0

        assert stats.n_errors == 0
        assert stats.n_completed == N_PARTICIPANTS
        assert stats.submissions_per_s > 0
        assert 0 < stats.p50_latency_s <= stats.p99_latency_s


class TestMemoryTransport:
    def test_memory_and_tcp_agree(self):
        mem_report, _stats, mem_server = asyncio.run(run_service_loadgen(
            service_config(), BEHAVIORS, transport="memory"
        ))
        tcp_report, _stats2, tcp_server = asyncio.run(run_service_loadgen(
            service_config(), BEHAVIORS, transport="tcp"
        ))
        assert mem_server.outcomes == tcp_server.outcomes
        assert [p.accepted for p in mem_report.participants] == [
            p.accepted for p in tcp_report.participants
        ]

    def test_unknown_transport_rejected(self):
        with pytest.raises(ProtocolError):
            asyncio.run(run_service_loadgen(
                service_config(), BEHAVIORS, transport="pigeon"
            ))


class TestErrorHandling:
    def test_unreachable_supervisor_counts_errors(self):
        async def scenario():
            return await run_loadgen(
                3,
                BEHAVIORS,
                host="127.0.0.1",
                port=1,  # nothing listens here
            )

        report, stats = asyncio.run(scenario())
        assert stats.n_errors == 3
        assert stats.n_completed == 0
        # Errored rounds have no verdict and no ground truth; they are
        # counted in stats, never fabricated into the report (a fake
        # row would corrupt detection/false-alarm rates).
        assert report.participants == []
        assert report.false_alarm_rate == 0.0

    def test_transport_arguments_validated(self):
        async def both():
            await run_loadgen(1, BEHAVIORS)

        with pytest.raises(ProtocolError):
            asyncio.run(both())

        async def missing_port():
            await run_loadgen(1, BEHAVIORS, host="127.0.0.1")

        with pytest.raises(ProtocolError):
            asyncio.run(missing_port())

    def test_empty_behaviors_rejected(self):
        async def scenario():
            cfg = service_config()
            return await run_service_loadgen(cfg, [])

        with pytest.raises(ProtocolError):
            asyncio.run(scenario())


class TestPercentile:
    def test_known_values(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 1.0) == 5.0

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 1.0) == 7.0

    def test_q1_is_max_for_every_length(self):
        for n in range(1, 30):
            values = [float(i) for i in range(n)]
            assert percentile(values, 1.0) == float(n - 1)

    def test_p99_regression_no_round_drift(self):
        # The old round()-based rank pulled p99 of 64 distinct samples
        # down to index 62; nearest-rank demands ceil(0.99 * 64) = 64,
        # i.e. the maximum.
        values = [float(i) for i in range(64)]
        assert percentile(values, 0.99) == 63.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nearest_rank_defining_property(self, values, q):
        """The two inequalities that uniquely define nearest-rank.

        The result x must be an actual sample with (a) at least a
        ``q`` fraction of samples <= x and (b) strictly less than a
        ``q`` fraction strictly below x — i.e. x is the *smallest*
        sample whose empirical CDF reaches q.
        """
        x = percentile(values, q)
        n = len(values)
        assert x in values
        at_or_below = sum(1 for v in values if v <= x)
        strictly_below = sum(1 for v in values if v < x)
        assert at_or_below / n >= q
        if q > 0.0:
            assert strictly_below / n < q

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_q(self, values, data):
        lo = data.draw(st.floats(min_value=0.0, max_value=1.0))
        hi = data.draw(st.floats(min_value=lo, max_value=1.0))
        assert percentile(values, lo) <= percentile(values, hi)

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=64
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_median_matches_statistics_median_low(self, values):
        # Exact stdlib cross-check: nearest-rank at q = 0.5 is by
        # definition the lower median (ceil(n/2)'th order statistic).
        assert percentile(values, 0.5) == statistics.median_low(values)

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=8, max_size=64
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_within_one_rank_of_statistics_quantiles(self, values):
        """Cross-check against ``statistics.quantiles``: the inclusive
        method interpolates at position q*(n-1), nearest-rank picks
        order statistic ceil(q*n) — the chosen sample's rank must sit
        within one position of the stdlib's anchor."""
        ordered = sorted(values)
        n = len(ordered)
        for k, q in ((1, 0.25), (2, 0.50), (3, 0.75)):
            x = percentile(values, q)
            # index() finds the first equal sample, i.e. the smallest
            # rank holding this value — compare against the smallest
            # and largest rank holding it.
            first = ordered.index(x)
            last = n - 1 - ordered[::-1].index(x)
            anchor = q * (n - 1)
            assert first - 1.0 <= anchor + 1e-9
            assert last + 1.0 >= anchor - 1e-9
