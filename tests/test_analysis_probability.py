"""Tests for Eq. (2), Eq. (3) and the Fig. 2 reproduction values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cheat_success_probability,
    detection_probability,
    fig2_series,
    required_sample_size,
)
from repro.analysis.probability import (
    escape_probability_with_distinct_samples,
)


class TestEquationTwo:
    def test_pure_sampling_case(self):
        # q = 0: escape probability is r^m (the §1 "one out of 2^m"
        # example for r = 0.5).
        assert cheat_success_probability(0.5, 0.0, 50) == pytest.approx(0.5**50)

    def test_paper_intro_example(self):
        # "If the dishonest participant computes only one half of the
        # inputs, the probability ... is one out of 2^m".
        assert cheat_success_probability(0.5, 0.0, 1) == 0.5

    def test_guessing_inflates_escape(self):
        assert cheat_success_probability(0.5, 0.5, 10) == pytest.approx(0.75**10)

    def test_honest_never_caught(self):
        assert cheat_success_probability(1.0, 0.0, 100) == 1.0

    def test_perfect_guessing_never_caught(self):
        assert cheat_success_probability(0.0, 1.0, 100) == 1.0

    def test_zero_samples_no_detection(self):
        assert cheat_success_probability(0.3, 0.0, 0) == 1.0

    def test_detection_complement(self):
        assert detection_probability(0.5, 0.0, 4) == pytest.approx(1 - 0.5**4)

    def test_validation(self):
        with pytest.raises(ValueError):
            cheat_success_probability(-0.1, 0.0, 1)
        with pytest.raises(ValueError):
            cheat_success_probability(0.5, 1.1, 1)
        with pytest.raises(ValueError):
            cheat_success_probability(0.5, 0.5, -1)

    @given(
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=0.0, max_value=0.99),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, r, q, m):
        p = cheat_success_probability(r, q, m)
        assert 0.0 <= p <= 1.0
        # More samples never helps the cheater.
        assert cheat_success_probability(r, q, m + 1) <= p + 1e-12


class TestEquationThree:
    def test_paper_value_q_half(self):
        # §3.2: "we need at least 33 samples" for r=0.5, q=0.5, ε=1e-4.
        assert required_sample_size(1e-4, 0.5, 0.5) == 33

    def test_paper_value_q_zero(self):
        # §3.2: "when q ≈ 0 ... we only need 14 samples".
        assert required_sample_size(1e-4, 0.5, 0.0) == 14

    def test_result_actually_achieves_epsilon(self):
        tol = 1e-4 * (1 + 1e-9)  # Eq. 3 is inclusive at the boundary
        for r in (0.1, 0.5, 0.9):
            for q in (0.0, 0.3, 0.5):
                m = required_sample_size(1e-4, r, q)
                assert cheat_success_probability(r, q, m) <= tol
                if m > 1:
                    assert cheat_success_probability(r, q, m - 1) > 1e-4 * (
                        1 - 1e-9
                    )

    def test_r_zero_q_zero_single_sample(self):
        assert required_sample_size(1e-4, 0.0, 0.0) == 1

    def test_diverges_at_base_one(self):
        with pytest.raises(ValueError):
            required_sample_size(1e-4, 1.0, 0.0)
        with pytest.raises(ValueError):
            required_sample_size(1e-4, 0.5, 1.0)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            required_sample_size(0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            required_sample_size(1.0, 0.5, 0.0)

    @given(
        st.floats(min_value=0.01, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_underestimates(self, r, q):
        m = required_sample_size(1e-4, r, q)
        assert cheat_success_probability(r, q, m) <= 1e-4 * (1 + 1e-9)


class TestFig2Series:
    def test_shape(self):
        points = fig2_series()
        assert len(points) == 18  # 2 q-curves × 9 r-points

    def test_monotone_in_r(self):
        points = fig2_series()
        for q in (0.0, 0.5):
            curve = [p.required_m for p in points if p.q == q]
            assert curve == sorted(curve)

    def test_q_half_needs_more_samples(self):
        points = fig2_series()
        by_r: dict[float, dict[float, int]] = {}
        for p in points:
            by_r.setdefault(p.r, {})[p.q] = p.required_m
        for r, curves in by_r.items():
            assert curves[0.5] > curves[0.0], r

    def test_r_09_matches_paper_magnitude(self):
        # Fig. 2's y-axis tops out near 180 at r = 0.9 for q = 0.5.
        points = {(p.r, p.q): p.required_m for p in fig2_series()}
        assert 150 <= points[(0.9, 0.5)] <= 200
        assert 80 <= points[(0.9, 0.0)] <= 95


class TestDistinctSampleRefinement:
    def test_stronger_than_with_replacement(self):
        # Distinct samples are at least as good for the supervisor.
        with_repl = cheat_success_probability(0.5, 0.0, 10)
        without = escape_probability_with_distinct_samples(0.5, 10, 100)
        assert without <= with_repl

    def test_converges_for_large_n(self):
        with_repl = cheat_success_probability(0.5, 0.0, 5)
        without = escape_probability_with_distinct_samples(0.5, 5, 100_000)
        assert without == pytest.approx(with_repl, rel=1e-3)

    def test_impossible_when_m_exceeds_computed(self):
        assert escape_probability_with_distinct_samples(0.1, 50, 100) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            escape_probability_with_distinct_samples(0.5, 10, 5)
