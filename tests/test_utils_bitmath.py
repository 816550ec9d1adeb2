"""Unit tests for tree-geometry helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitmath import (
    ceil_log2,
    level_size,
    next_power_of_two,
    parent_index,
    sibling_index,
    tree_height,
)


class TestNextPowerOfTwo:
    def test_exact_powers_unchanged(self):
        for k in range(16):
            assert next_power_of_two(1 << k) == 1 << k

    def test_rounds_up(self):
        assert next_power_of_two(3) == 4
        assert next_power_of_two(5) == 8
        assert next_power_of_two(1000) == 1024

    def test_one(self):
        assert next_power_of_two(1) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)
        with pytest.raises(ValueError):
            next_power_of_two(-4)

    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_properties(self, n):
        p = next_power_of_two(n)
        assert p > 0 and p & (p - 1) == 0  # a power of two
        assert p >= n
        assert p < 2 * n or n == 1


class TestCeilLog2:
    def test_known_values(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        assert ceil_log2(4) == 2
        assert ceil_log2(5) == 3
        assert ceil_log2(1024) == 10
        assert ceil_log2(1025) == 11

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2(0)

    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_inverse_of_pow2(self, n):
        h = ceil_log2(n)
        assert (1 << h) >= n
        if n > 1:
            assert (1 << (h - 1)) < n


class TestTreeHeight:
    def test_single_leaf_is_root(self):
        assert tree_height(1) == 0

    def test_paper_sizes(self):
        # The paper's H = log|D| for power-of-two domains.
        assert tree_height(1 << 10) == 10
        assert tree_height(1 << 20) == 20

    def test_padding_rounds_up(self):
        assert tree_height(5) == 3
        assert tree_height(13) == 4


class TestSiblingParent:
    def test_sibling_pairs(self):
        assert sibling_index(0) == 1
        assert sibling_index(1) == 0
        assert sibling_index(6) == 7
        assert sibling_index(7) == 6

    def test_parent(self):
        assert parent_index(0) == 0
        assert parent_index(1) == 0
        assert parent_index(6) == 3
        assert parent_index(7) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sibling_index(-1)
        with pytest.raises(ValueError):
            parent_index(-3)

    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_sibling_involution(self, i):
        assert sibling_index(sibling_index(i)) == i

    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_siblings_share_parent(self, i):
        assert parent_index(i) == parent_index(sibling_index(i))


class TestLevelSize:
    def test_root_level(self):
        assert level_size(4, 0) == 1

    def test_leaf_level(self):
        assert level_size(4, 4) == 16

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            level_size(4, 5)
        with pytest.raises(ValueError):
            level_size(4, -1)
