"""Tests for the deterministic PRF helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.prf import prf_bytes, prf_coin, prf_float, prf_int


class TestPrfBytes:
    def test_deterministic(self):
        assert prf_bytes(b"a", b"b") == prf_bytes(b"a", b"b")

    def test_part_boundaries_matter(self):
        # Length-prefixing: ("ab", "c") != ("a", "bc").
        assert prf_bytes(b"ab", b"c") != prf_bytes(b"a", b"bc")

    def test_requested_length(self):
        for n in (1, 16, 32, 33, 100, 1000):
            assert len(prf_bytes(b"seed", n_bytes=n)) == n

    def test_long_output_extends_prefix_free(self):
        short = prf_bytes(b"x", n_bytes=16)
        long = prf_bytes(b"x", n_bytes=64)
        assert long[:16] == short

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_distinct_inputs_distinct_outputs(self, a, b):
        if a != b:
            assert prf_bytes(a) != prf_bytes(b)


class TestPrfInt:
    def test_in_range(self):
        for bound in (1, 2, 7, 100, 1 << 32):
            v = prf_int(b"k", bound=bound)
            assert 0 <= v < bound

    def test_bound_one_always_zero(self):
        assert prf_int(b"any", bound=1) == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            prf_int(b"k", bound=0)

    def test_roughly_uniform(self):
        bound = 10
        counts = [0] * bound
        for i in range(5000):
            counts[prf_int(i.to_bytes(4, "big"), bound=bound)] += 1
        # Each bucket should be within 5 sigma of 500.
        sigma = math.sqrt(5000 * 0.1 * 0.9)
        assert all(abs(c - 500) < 5 * sigma for c in counts), counts


class TestPrfFloat:
    def test_unit_interval(self):
        for i in range(100):
            v = prf_float(i.to_bytes(4, "big"))
            assert 0.0 <= v < 1.0

    def test_mean_near_half(self):
        values = [prf_float(i.to_bytes(4, "big")) for i in range(2000)]
        assert abs(sum(values) / len(values) - 0.5) < 0.02


class TestPrfCoin:
    def test_extremes(self):
        assert not prf_coin(b"x", probability=0.0)
        assert prf_coin(b"x", probability=1.0)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            prf_coin(b"x", probability=1.5)

    def test_empirical_rate(self):
        hits = sum(
            prf_coin(i.to_bytes(4, "big"), probability=0.3) for i in range(3000)
        )
        assert abs(hits / 3000 - 0.3) < 0.03
